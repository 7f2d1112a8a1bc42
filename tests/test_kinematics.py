from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from synchrony_lab import (
    ABSOLUTE_FRAME,
    INFINITE_SPEED,
    ConventionOutOfRange,
    DegenerateConvention,
    Event,
    FrameSpec,
    TransformCoeffs,
    edwards_coeffs,
    edwards_transform,
    eta,
    induced_synchrony,
    lorentz_transform,
    map_velocity,
    one_way_speed,
    resync_coeffs,
    resync_velocity,
    resynchronize,
    superluminal_coeffs,
    superluminal_transform,
    transform_between,
)
from synchrony_lab.kinematics import between_coeffs, frame_coeffs

from conftest import textbook_boost

betas = st.floats(min_value=-0.95, max_value=0.95)
ks = st.floats(min_value=-0.9, max_value=0.9)
coords = st.floats(min_value=-100.0, max_value=100.0)


def nondegenerate(beta: float, k: float) -> bool:
    return (1.0 + beta * k) ** 2 - beta**2 > 1e-6


class TestEta:
    def test_rest_frame_identity(self):
        assert eta(0.0, 0.0) == 1.0

    def test_matches_gamma_at_isotropic_convention(self):
        assert math.isclose(eta(0.6, 0.0), 1.25, rel_tol=1e-12)

    def test_degenerate_pair_rejected(self):
        with pytest.raises(DegenerateConvention):
            eta(0.8, -1.0)

    def test_superluminal_velocity_rejected(self):
        with pytest.raises(ValueError):
            eta(1.0, 0.0)

    def test_out_of_band_k_rejected(self):
        with pytest.raises(ValueError):
            eta(0.5, 1.5)

    @given(beta=betas, k=ks)
    def test_positive_where_defined(self, beta, k):
        if nondegenerate(beta, k):
            assert eta(beta, k) > 0.0


class TestEdwardsTransform:
    def test_zero_boost_is_identity(self):
        e = Event(1.0, 0.0, 2.0, 3.0)
        image = edwards_transform(e, 0.0, 0.0, 0.0)
        assert (image.t, image.x, image.y, image.z) == (1.0, 0.0, 2.0, 3.0)

    def test_reduces_to_lorentz_at_zero_conventions(self):
        image = edwards_transform(Event(1.0, 0.0), 0.6, 0.0, 0.0)
        assert math.isclose(image.t, 1.25, rel_tol=1e-12)
        assert math.isclose(image.x, -0.75, rel_tol=1e-12)

    def test_absolute_synchrony_member(self):
        image = edwards_transform(Event(1.0, 0.0), 0.6, 0.0, -0.6)
        assert math.isclose(image.t, 0.8, rel_tol=1e-12)
        assert math.isclose(image.x, -0.75, rel_tol=1e-12)

    def test_transverse_coordinates_pass_through(self):
        image = edwards_transform(Event(1.0, 2.0, 5.0, -7.0), 0.3, 0.1, -0.2)
        assert image.y == 5.0 and image.z == -7.0

    @given(beta=betas, t=coords, x=coords)
    def test_matches_textbook_boost_when_isotropic(self, beta, t, x):
        image = edwards_transform(Event(t, x), beta, 0.0, 0.0)
        t_ref, x_ref = textbook_boost(t, x, beta)
        assert math.isclose(image.t, t_ref, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(image.x, x_ref, rel_tol=1e-12, abs_tol=1e-12)


class TestLorentzTransform:
    def test_zero_boost(self):
        image = lorentz_transform(Event(1.0, 1.0), 0.0)
        assert (image.t, image.x) == (1.0, 1.0)

    def test_textbook_example(self):
        image = lorentz_transform(Event(0.0, 1.0), 0.6)
        assert math.isclose(image.t, -0.75, rel_tol=1e-12)
        assert math.isclose(image.x, 1.25, rel_tol=1e-12)

    def test_forward_null_ray_stays_null(self):
        image = lorentz_transform(Event(2.0, 2.0), 0.6)
        assert math.isclose(image.x / image.t, 1.0, rel_tol=1e-12)

    @given(b1=betas, b2=betas)
    def test_boost_composition_is_velocity_addition(self, b1, b2):
        combined = (b1 + b2) / (1.0 + b1 * b2)
        composed = edwards_coeffs(b2, 0.0, 0.0) @ edwards_coeffs(b1, 0.0, 0.0)
        direct = edwards_coeffs(combined, 0.0, 0.0)
        for attr in ("a_tt", "a_tx", "a_xt", "a_xx"):
            assert math.isclose(
                getattr(composed, attr), getattr(direct, attr),
                rel_tol=1e-9, abs_tol=1e-9,
            )


class TestSuperluminalTransform:
    def test_zero_boost(self):
        image = superluminal_transform(Event(1.0, 0.0), 0.0)
        assert (image.t, image.x) == (1.0, 0.0)

    def test_comoving_point_maps_to_origin(self):
        image = superluminal_transform(Event(1.0, 0.6), 0.6)
        assert math.isclose(image.t, 0.8, rel_tol=1e-12)
        assert abs(image.x) < 1e-12

    def test_equal_times_map_to_equal_times_exactly(self):
        a = superluminal_transform(Event(3.5, -20.0), 0.77)
        b = superluminal_transform(Event(3.5, 41.0), 0.77)
        assert a.t == b.t

    @given(beta=betas, t=coords, x=coords)
    def test_agrees_with_general_boost_coefficients(self, beta, t, x):
        direct = superluminal_transform(Event(t, x), beta)
        general = edwards_transform(Event(t, x), beta, 0.0, -beta)
        assert math.isclose(direct.t, general.t, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(direct.x, general.x, rel_tol=1e-12, abs_tol=1e-12)


class TestInducedSynchrony:
    def test_isotropic_source_gives_minus_beta(self):
        assert induced_synchrony(0.0, 0.6) == -0.6

    def test_general_formula(self):
        assert math.isclose(induced_synchrony(0.2, 0.5), -0.28, rel_tol=1e-12)

    def test_zero_boost_preserves_convention(self):
        assert induced_synchrony(0.7, 0.0) == 0.7

    def test_out_of_band_result_rejected(self):
        with pytest.raises(ConventionOutOfRange):
            induced_synchrony(0.5, -0.9)

    @given(beta=betas, k=ks)
    def test_kills_the_position_term(self, beta, k):
        try:
            k_prime = induced_synchrony(k, beta)
        except ConventionOutOfRange:
            return
        if not nondegenerate(beta, k):
            return
        coeffs = edwards_coeffs(beta, k, k_prime)
        assert abs(coeffs.a_tx) <= 1e-12 * max(1.0, eta(beta, k))


class TestOneWaySpeed:
    def test_isotropic(self):
        assert one_way_speed(0.0, "+x") == 1.0
        assert one_way_speed(0.0, "-x") == 1.0

    def test_anisotropic_pair(self):
        assert math.isclose(one_way_speed(0.6, "+x"), 2.5, rel_tol=1e-12)
        assert math.isclose(one_way_speed(0.6, "-x"), 0.625, rel_tol=1e-12)

    def test_instantaneous_edge_of_band(self):
        assert one_way_speed(1.0, "+x") == INFINITE_SPEED
        assert one_way_speed(-1.0, "-x") == INFINITE_SPEED

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            one_way_speed(0.0, "up")

    @given(k=st.floats(min_value=-0.99, max_value=0.99))
    def test_round_trip_mean_is_invariant(self, k):
        harmonic = 2.0 / (1.0 / one_way_speed(k, "+x") + 1.0 / one_way_speed(k, "-x"))
        assert abs(harmonic - 1.0) <= 1e-15


class TestResynchronize:
    def test_no_op_when_conventions_match(self):
        e = Event(1.0, 2.0, 3.0, 4.0)
        assert resynchronize(e, 0.3, 0.3) == e

    def test_example_shift(self):
        image = resynchronize(Event(1.0, 2.0), 0.0, 0.5)
        assert (image.t, image.x) == (0.0, 2.0)

    def test_light_ray_speed_follows_convention(self):
        # x = t under k=0 becomes x = 2t under k=0.5
        assert math.isclose(resync_velocity(1.0, 0.0, 0.5), 2.0, rel_tol=1e-12)

    @given(a=ks, b=ks, t=coords, x=coords)
    def test_gauge_round_trip(self, a, b, t, x):
        e = Event(t, x)
        back = resynchronize(resynchronize(e, a, b), b, a)
        assert back.x == x
        assert math.isclose(back.t, t, rel_tol=1e-12, abs_tol=1e-12)

    def test_velocity_of_instantaneous_worldline(self):
        assert resync_velocity(math.inf, 0.0, 0.0) == INFINITE_SPEED
        assert math.isclose(resync_velocity(math.inf, 0.5, 0.0), 2.0, rel_tol=1e-12)


class TestTransformCoeffs:
    def test_identity(self):
        e = Event(1.5, -2.5, 1.0, 2.0)
        assert TransformCoeffs(1.0, 0.0, 0.0, 1.0).apply(e) == e

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            TransformCoeffs(1.0, 1.0, 1.0, 1.0)

    @given(beta=betas, k=ks, kp=ks)
    def test_boost_family_is_unimodular(self, beta, k, kp):
        if not nondegenerate(beta, k):
            return
        assert math.isclose(edwards_coeffs(beta, k, kp).determinant, 1.0, rel_tol=1e-12)

    @given(beta=betas, k=ks, kp=ks, t=coords, x=coords)
    def test_inverse_undoes_apply(self, beta, k, kp, t, x):
        if not nondegenerate(beta, k):
            return
        coeffs = edwards_coeffs(beta, k, kp)
        e = Event(t, x)
        back = coeffs.inverse().apply(coeffs.apply(e))
        assert math.isclose(back.t, t, rel_tol=1e-10, abs_tol=1e-10)
        assert math.isclose(back.x, x, rel_tol=1e-10, abs_tol=1e-10)

    def test_inverse_is_the_swapped_parameter_boost(self):
        # inverse(boost(beta, k, k')) = boost(-beta/(1 + beta(k+k')), k', k)
        beta, k, kp = 0.6, 0.2, -0.3
        inv = edwards_coeffs(beta, k, kp).inverse()
        swapped = edwards_coeffs(-beta / (1.0 + beta * (k + kp)), kp, k)
        for attr in ("a_tt", "a_tx", "a_xt", "a_xx"):
            assert math.isclose(getattr(inv, attr), getattr(swapped, attr), rel_tol=1e-12)


class TestGaugeFactorization:
    @given(beta=betas, k=ks, kp=ks, t=coords, x=coords)
    def test_boost_factors_through_clock_resettings(self, beta, k, kp, t, x):
        """General boost == resync to isotropic, boost, resync to target.

        The middle boost velocity is the isotropic-chart remeasurement
        beta/(1 + beta*k) of the source-chart velocity beta.
        """
        if not nondegenerate(beta, k):
            return
        e = Event(t, x)
        direct = edwards_transform(e, beta, k, kp)
        beta_iso = resync_velocity(beta, k, 0.0)
        staged = resynchronize(
            lorentz_transform(resynchronize(e, k, 0.0), beta_iso), 0.0, kp
        )
        scale = max(1.0, abs(direct.t), abs(direct.x))
        assert abs(direct.t - staged.t) <= 1e-12 * scale
        assert abs(direct.x - staged.x) <= 1e-12 * scale


class TestTransformBetween:
    def test_same_frame_is_identity(self):
        frame = FrameSpec(0.4, 0.1, "A")
        e = Event(1.0, 2.0, 3.0, 4.0, chart="A")
        image = transform_between(e, frame, frame)
        assert math.isclose(image.t, 1.0, rel_tol=1e-12)
        assert math.isclose(image.x, 2.0, rel_tol=1e-12)
        assert image.chart == "A"

    def test_chart_mismatch_rejected(self):
        with pytest.raises(ValueError):
            transform_between(Event(0.0, 0.0, chart="B"), FrameSpec(0.1, 0.0, "A"),
                              ABSOLUTE_FRAME)

    def test_groupoid_closure_on_random_frames(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            b = rng.uniform(-0.9, 0.9, size=2)
            kk = rng.uniform(-0.8, 0.8, size=2)
            if not (nondegenerate(b[0], kk[0]) and nondegenerate(b[1], kk[1])):
                continue
            frame_a = FrameSpec(b[0], kk[0], "A")
            frame_b = FrameSpec(b[1], kk[1], "B")
            t, x = rng.uniform(-10, 10, size=2)
            via = transform_between(
                transform_between(Event(t, x, chart="S"), ABSOLUTE_FRAME, frame_a),
                frame_a, frame_b,
            )
            direct = transform_between(Event(t, x, chart="S"), ABSOLUTE_FRAME, frame_b)
            scale = max(1.0, abs(direct.t), abs(direct.x))
            assert abs(via.t - direct.t) <= 1e-12 * scale
            assert abs(via.x - direct.x) <= 1e-12 * scale

    def test_absolute_origin_recedes_faster_than_the_boost(self):
        # Under the absolute-simultaneity convention the isotropy frame's
        # origin moves at -gamma^2 v, not -v.
        frame = FrameSpec(0.6, induced_synchrony(0.0, 0.6), "S'")
        assert math.isclose(map_velocity(0.0, ABSOLUTE_FRAME, frame), -0.9375,
                            rel_tol=1e-12)


class TestMapVelocity:
    def test_rest_stays_at_rest_in_same_frame(self):
        frame = FrameSpec(0.3, 0.2, "A")
        assert map_velocity(0.0, frame, frame) == 0.0

    def test_light_through_isotropic_legs(self):
        frame = FrameSpec(0.85, 0.0, "A")
        assert math.isclose(map_velocity(1.0, ABSOLUTE_FRAME, frame), 1.0,
                            rel_tol=1e-12)

    def test_standard_velocity_composition(self):
        frame = FrameSpec(0.5, 0.0, "A")
        assert math.isclose(map_velocity(0.8, ABSOLUTE_FRAME, frame), 0.5,
                            rel_tol=1e-12)

    def test_comoving_worldline_is_at_rest(self):
        frame = FrameSpec(0.6, 0.0, "A")
        assert abs(map_velocity(0.6, ABSOLUTE_FRAME, frame)) < 1e-12

    def test_instantaneous_image_signalled(self):
        # In a k=0.5 chart the one-way limit is speed 2: that worldline's
        # image lies in a constant-time surface.
        frame = FrameSpec(0.0, 0.5, "A")
        assert map_velocity(2.0, ABSOLUTE_FRAME, frame) == INFINITE_SPEED

    def test_instantaneous_input_acquires_chart_speed(self):
        frame = FrameSpec(0.0, 0.5, "A")
        v = map_velocity(math.inf, ABSOLUTE_FRAME, frame)
        assert math.isclose(v, -2.0, rel_tol=1e-12)

    @given(k=ks, beta=betas)
    def test_null_cone_bookkeeping(self, k, beta):
        """A +x light ray in the (beta, k) chart moves at exactly 1/(1 - k)."""
        if not nondegenerate(beta, k):
            return
        frame = FrameSpec(beta, k, "A")
        v = map_velocity(1.0, ABSOLUTE_FRAME, frame)
        assert math.isclose(v, 1.0 / (1.0 - k), rel_tol=5e-12)


class TestFrameSpecValidation:
    @example(beta=-0.8, k=0.8)
    @example(beta=-0.9, k=0.9)
    @example(beta=0.8, k=-1.0)
    @given(beta=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
           k=st.floats(-1.0, 1.0))
    def test_every_subluminal_frame_is_a_unit_determinant_chart(self, beta, k):
        # frame_coeffs normalizes with eta(beta, 0) = gamma, so no frame is singular.
        frame = FrameSpec(beta, k, "A")
        if abs(beta) <= 1.0 - 1e-9:
            # Both products in the determinant are of size gamma^2, and so is their rounding.
            gamma_sq = 1.0 / (1.0 - beta * beta)
            assert abs(frame_coeffs(frame).determinant - 1.0) <= 1e-12 * gamma_sq

    def test_superluminal_frame_velocity_rejected(self):
        with pytest.raises(ValueError):
            FrameSpec(1.2, 0.0, "bad")

    def test_event_requires_finite_components(self):
        with pytest.raises(ValueError):
            Event(math.nan, 0.0)

    def test_event_requires_chart(self):
        with pytest.raises(ValueError):
            Event(0.0, 0.0, chart="")
