from __future__ import annotations

import math
import random
import sys
from collections import Counter
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given
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
    superluminal_transform,
    transform_between,
)
from synchrony_lab.kinematics import between_coeffs, frame_coeffs

from conftest import OracleKinematics, absolute_sync_boost, oracle_between, textbook_boost

betas = st.floats(min_value=-0.95, max_value=0.95)
ks = st.floats(min_value=-0.9, max_value=0.9)
coords = st.floats(min_value=-100.0, max_value=100.0)

# Finite velocities whose direction (1, u) would overflow in a chart map.
HUGE_VELOCITIES = [1e308, -1e308, 1.7e308, -1.7e308]


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
        # The general coefficients at k = 0, k' = -beta against the closed form.
        general = superluminal_transform(Event(t, x), beta)
        t_ref, x_ref = absolute_sync_boost(t, x, beta)
        assert math.isclose(general.t, t_ref, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(general.x, x_ref, rel_tol=1e-12, abs_tol=1e-12)


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

    @pytest.mark.parametrize("u", HUGE_VELOCITIES)
    @example(k_from=0.9, k_to=-0.9)
    @example(k_from=-0.9, k_to=0.9)
    @given(k_from=ks, k_to=ks)
    def test_huge_velocity_reads_like_the_instantaneous_one(self, u, k_from, k_to):
        # 1/|u| is below 1e-307; the limit is finite only when the clocks are re-set.
        assume(abs(k_from - k_to) >= 1e-6)
        limit = resync_velocity(math.copysign(math.inf, u), k_from, k_to)
        assert math.isclose(resync_velocity(u, k_from, k_to), limit, rel_tol=1e-12)

    def test_nan_velocity_rejected(self):
        with pytest.raises(ValueError, match="velocity must be a number"):
            resync_velocity(math.nan, 0.3, 0.0)


class TestTransformCoeffs:
    def test_identity(self):
        e = Event(1.5, -2.5, 1.0, 2.0)
        assert TransformCoeffs(1.0, 0.0, 0.0, 1.0).apply(e) == e

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            TransformCoeffs(1.0, 1.0, 1.0, 1.0)

    def test_finite_entries_whose_sum_overflows_are_accepted(self):
        m = TransformCoeffs(1e308, 1e308, 0.0, 1.0)
        assert m == (1e308, 1e308, 0.0, 1.0) and m.determinant == 1e308

    @pytest.mark.parametrize("entries, inverse", [
        ((1e200, 0.0, 0.0, 1e200), (1e-200, -0.0, -0.0, 1e-200)),
        ((1e-200, 0.0, 0.0, 1e-200), (1e200, -0.0, -0.0, 1e200)),
        ((1e200, 1e200, 1e200, 2e200), (2e-200, -1e-200, -1e-200, 1e-200)),
    ], ids=["determinant-overflows", "determinant-underflows", "determinant-is-inf-minus-inf"])
    def test_an_invertible_map_whose_determinant_over_or_underflows_round_trips(self, entries,
                                                                              inverse):
        m = TransformCoeffs(*entries)
        assert not 0.0 < abs(m.determinant) < math.inf
        back = m.inverse()
        assert list(map(repr, back)) == list(map(repr, inverse))
        assert list(map(repr, back.inverse())) == list(map(repr, m))
        e = Event(1.5, -2.5)
        for image in (back.apply(m.apply(e)), m.apply(back.apply(e))):
            assert math.isclose(image.t, e.t, rel_tol=1e-12)
            assert math.isclose(image.x, e.x, rel_tol=1e-12)

    @pytest.mark.parametrize("entries", [(1e200, 1e200, 1e200, 1e200),
                                         (1e-200, 1e-200, 1e-200, 1e-200)],
                             ids=["overflows", "underflows"])
    def test_a_singular_map_is_refused_at_any_scale(self, entries):
        with pytest.raises(ValueError, match=r"^transform is singular \(zero determinant\)$"):
            TransformCoeffs(*entries)

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

    @pytest.mark.parametrize("u", HUGE_VELOCITIES)
    @pytest.mark.parametrize("frame_from, frame_to", [
        (ABSOLUTE_FRAME, FrameSpec(0.9, 0.5, "B")),
        (FrameSpec(-0.4, 0.3, "A"), FrameSpec(0.7, -0.2, "B")),
        (ABSOLUTE_FRAME, FrameSpec(0.0, -0.8, "B")),
    ])
    def test_huge_velocity_reads_like_the_instantaneous_one(self, u, frame_from, frame_to):
        limit = map_velocity(math.copysign(math.inf, u), frame_from, frame_to)
        assert math.isclose(map_velocity(u, frame_from, frame_to), limit, rel_tol=1e-12)

    def test_nan_velocity_rejected(self):
        with pytest.raises(ValueError, match="velocity must be a number"):
            map_velocity(math.nan, ABSOLUTE_FRAME, FrameSpec(0.3, 0.0, "A"))

    @given(a=st.floats(-0.99, 0.99), b=st.floats(-0.99, 0.99))
    @example(a=0.6, b=0.3)  # a_tx's terms rounded apart gave -7.3e-17, and a speed of -1.2e16
    def test_instantaneous_stays_instantaneous_between_superluminal_frames(self, a, b):
        """Frames synchronized by zero-delay signals (k = -beta) share their simultaneity:
        a_tx is exactly 0.0 and an instantaneous signal keeps its infinite speed and its sign."""
        frame_from, frame_to = FrameSpec(a, -a, "A"), FrameSpec(b, -b, "B")
        assert between_coeffs(frame_from, frame_to).a_tx == 0.0
        assert map_velocity(math.inf, frame_from, frame_to) == math.inf
        assert map_velocity(-math.inf, frame_from, frame_to) == -math.inf

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

    def test_frame_requires_label(self):
        with pytest.raises(ValueError, match="frame label must be non-empty"):
            FrameSpec(0.1, 0.0, "")

    def test_event_requires_finite_components(self):
        with pytest.raises(ValueError):
            Event(math.nan, 0.0)

    def test_event_requires_chart(self):
        with pytest.raises(ValueError):
            Event(0.0, 0.0, chart="")


# Inputs that sit on a boundary of some check, or push a result past the float range.
SPECIAL_BETAS = [0.0, -0.0, 1.0, -1.0, 1.5, -2.0, math.nan, math.inf, -math.inf] + [
    sign * (1.0 - 10.0**-j) for j in range(1, 17) for sign in (1.0, -1.0)
]  # j = 16 rounds to +-1.0, which is out of range
SPECIAL_KS = [0.0, -0.0, 1.0, -1.0, 1.0000000000000002, -1.5, math.nan, math.inf]
SPECIAL_COORDS = [0.0, -0.0, 1e308, -1e308, 1.7976931348623157e308, 5e-324]
SPECIAL_VELOCITIES = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, 1e308, -1e308, math.nan]


def _draw(rng: random.Random, specials, lo: float, hi: float) -> float:
    return rng.choice(specials) if rng.random() < 0.3 else rng.uniform(lo, hi)


def _frame_beta(rng: random.Random) -> float:
    """A legal frame velocity, half of them within 1e-15..0.3 of +-1."""
    if rng.random() < 0.5:
        return rng.uniform(-0.99, 0.99)
    return rng.choice((1.0, -1.0)) * (1.0 - 10.0 ** -rng.uniform(0.5, 15.4))


def _outcome(fn, *args) -> tuple:
    """repr of the result in plain tuples, or the exception's type and message."""
    try:
        value = fn(*args)
    except Exception as exc:  # the exception is the outcome under test
        return type(exc), str(exc)
    if isinstance(value, Event):
        value = (value.t, value.x, value.y, value.z, value.chart)
    elif isinstance(value, TransformCoeffs):
        value = (value.a_tt, value.a_tx, value.a_xt, value.a_xx)
    elif isinstance(value, OracleKinematics.Coeffs):
        value = value.entries
    return ("ok", repr(value))


class TestKernelsMatchTheObjectComposition:
    """Every public kinematics call, bit for bit against conftest.OracleKinematics.

    The three frame-to-frame maps are drawn here too but have no bitwise
    oracle (see TestFrameMapsMatchTheDecimalOracle); on these draws they must
    not call a valid frame pair singular.
    """

    DRAWS = 20_000
    SINGULAR = (ValueError, "transform is singular (zero determinant)")

    def cases(self, rng: random.Random, oracle: OracleKinematics):
        beta = _draw(rng, SPECIAL_BETAS, -0.99, 0.99)
        k, kp = _draw(rng, SPECIAL_KS, -1.0, 1.0), _draw(rng, SPECIAL_KS, -1.0, 1.0)
        t, x = _draw(rng, SPECIAL_COORDS, -100.0, 100.0), _draw(rng, SPECIAL_COORDS, -100.0, 100.0)
        u = _draw(rng, SPECIAL_VELOCITIES, -3.0, 3.0)
        e, oe = Event(t, x, 1.5, -2.5), (t, x, 1.5, -2.5, "S")
        yield "eta", (eta, beta, k), (oracle.eta, beta, k)
        yield "edwards_coeffs", (edwards_coeffs, beta, k, kp), (oracle.edwards_coeffs, beta, k, kp)
        yield "edwards_transform", (edwards_transform, e, beta, k, kp), \
            (oracle.edwards_transform, oe, beta, k, kp)
        # About 0.4 % of these near-edge boosts have a determinant that rounds to 0.0.
        nb, nk, nkp = _near_edge(rng)
        yield "edwards_coeffs", (edwards_coeffs, nb, nk, nkp), (oracle.edwards_coeffs, nb, nk, nkp)
        yield "edwards_transform", (edwards_transform, e, nb, nk, nkp), \
            (oracle.edwards_transform, oe, nb, nk, nkp)
        yield "inverse", (lambda: edwards_coeffs(nb, nk, nkp).inverse(),), \
            (lambda: oracle.edwards_coeffs(nb, nk, nkp).inverse(),)
        yield "lorentz_transform", (lorentz_transform, e, beta), (oracle.lorentz_transform, oe, beta)
        yield "superluminal_transform", (superluminal_transform, e, beta), \
            (oracle.superluminal_transform, oe, beta)
        yield "induced_synchrony", (induced_synchrony, k, beta), (oracle.induced_synchrony, k, beta)
        yield "resync_coeffs", (resync_coeffs, k, kp), (oracle.resync_coeffs, k, kp)
        yield "resynchronize", (resynchronize, e, k, kp), (oracle.resynchronize, oe, k, kp)
        yield "resync_velocity", (resync_velocity, u, k, kp), (oracle.resync_velocity, u, k, kp)

        a = FrameSpec(_frame_beta(rng), _draw(rng, [1.0, -1.0, 0.0, -0.0], -1.0, 1.0), "A")
        b = FrameSpec(_frame_beta(rng), _draw(rng, [1.0, -1.0, 0.0, -0.0], -1.0, 1.0), "B")
        chart = rng.choice(("A", "A", "A", "B"))
        ea = Event(t, x, 1.5, -2.5, chart)
        yield "frame_coeffs", (frame_coeffs, a), (oracle.frame_coeffs, a)
        yield "between_coeffs", (between_coeffs, a, b), None
        yield "transform_between", (transform_between, ea, a, b), None
        yield "map_velocity", (map_velocity, u, a, b), None

        m = [_draw(rng, SPECIAL_COORDS + [1.0, 2.0, 4.0], -2.0, 2.0) for _ in range(4)]
        yield "TransformCoeffs", (TransformCoeffs, *m), (OracleKinematics.Coeffs, *m)
        try:
            c, oc = TransformCoeffs(*m), OracleKinematics.Coeffs(*m)
        except ValueError:
            return
        boost, oboost = edwards_coeffs(0.6, 0.2, -0.3), oracle.edwards_coeffs(0.6, 0.2, -0.3)
        target = rng.choice((None, "", "Q"))
        yield "apply", (c.apply, e, target), (oc.apply, oe, target)
        yield "inverse", (c.inverse,), (oc.inverse,)
        yield "determinant", (lambda: c.determinant,), (lambda: oc.determinant,)
        yield "square", (c.__matmul__, c), (oc.__matmul__, oc)
        yield "matmul", (boost.__matmul__, c), (oboost.__matmul__, oc)

    def outcomes(self, bitwise: bool):
        """(name, args, outcome, oracle outcome or None) for every drawn call of one kind."""
        rng, oracle = random.Random(2002), OracleKinematics()
        for _ in range(self.DRAWS):
            for name, (fn, *args), want in self.cases(rng, oracle):
                if (want is not None) == bitwise:
                    yield name, args, _outcome(fn, *args), None if want is None else _outcome(*want)

    def kind(self, outcome) -> str:
        return "ok" if outcome[0] == "ok" else "singular" if outcome == self.SINGULAR else "error"

    def test_every_public_call_matches_bit_for_bit(self):
        mismatches, seen = [], Counter()
        for name, args, got, want in self.outcomes(bitwise=True):
            seen[name, self.kind(want)] += 1
            if got != want:
                mismatches.append((name, args, got, want))
        assert not mismatches, mismatches[:5]
        # The draws reach the checks: every call that can fail both fails and succeeds.
        for name in {name for name, _ in seen} - {"frame_coeffs", "determinant", "square",
                                                   "matmul"}:
            assert seen[name, "ok"] and seen[name, "singular"] + seen[name, "error"], name

    def test_frame_maps_never_call_valid_frames_singular(self):
        # between_coeffs builds its map unchecked, like every library-built map.
        bad, seen = [], Counter()
        for name, args, got, _ in self.outcomes(bitwise=False):
            seen[name, self.kind(got)] += 1
            if got == self.SINGULAR:
                bad.append((name, args))
        assert not bad, (len(bad), bad[:5])
        for name in ("transform_between", "map_velocity"):
            assert seen[name, "ok"] and seen[name, "error"], name
        assert seen["between_coeffs", "ok"]


def _near_edge(rng: random.Random) -> tuple[float, float, float]:
    """(beta, k, k'): k, k' uniform in [-1, 1] and beta a relative 10^-U(13, 16)
    inside the edge of _eta's domain, |beta| < min(1, 1/(1 -+ k)) for beta >< 0."""
    k, k_prime = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
    sign = rng.choice((1.0, -1.0))
    edge = min(1.0, 1.0 / (1.0 - sign * k))
    return sign * edge * (1.0 - 10.0 ** -rng.uniform(13.0, 16.0)), k, k_prime


class TestDigitsNearTheEdge:
    """edwards_coeffs near the edge of _eta's domain, against a 60-digit oracle."""

    EPS = Decimal(sys.float_info.epsilon)

    @staticmethod
    def oracle(beta, k, k_prime) -> tuple[Decimal, ...]:
        with localcontext(Context(prec=60)):
            b, k, kp = Decimal(beta), Decimal(k), Decimal(k_prime)
            h = 1 / ((1 + b * k) ** 2 - b * b).sqrt()
            return h * (1 + b * (k + kp)), h * (b * (k * k - 1) + k - kp), -h * b, h

    def test_every_entry_is_within_a_few_ulps_of_the_oracle(self):
        # eta (a_xx) and a_xt are held to their own size.  a_tt and a_tx can
        # cancel on their own, away from the edge, so they are held to the
        # largest entry: a normwise bound.
        rng, far = random.Random(7), []
        for _ in range(2000):
            beta, k, kp = _near_edge(rng)  # every draw lies inside the edge
            got, want = edwards_coeffs(beta, k, kp), self.oracle(beta, k, kp)
            err = [abs(Decimal(g) - w) for g, w in zip(got, want)]
            scale = max(map(abs, want))
            if (max(err) > 4 * self.EPS * scale or err[2] > 4 * self.EPS * abs(want[2])
                    or err[3] > 4 * self.EPS * want[3]):
                far.append(((beta, k, kp), got))
        assert not far, (len(far), far[:3])


class TestLibraryMapsAreNotCheckedForSingularity:
    """A map the library builds has determinant 1 by construction and is not
    checked; rounding can take that determinant anywhere, 0.0 included."""

    # edwards_coeffs' determinant rounds to exactly 0.0 here.
    ZERO_DET = (0.6626423856087286, -0.509109621898638, 0.6576740646065664)

    def test_no_valid_convention_near_the_edge_is_called_singular(self):
        rng, errors, valid = random.Random(7), Counter(), 0
        for _ in range(20_000):
            beta, k, kp = _near_edge(rng)
            try:
                eta(beta, k)
            except (ValueError, DegenerateConvention):
                continue  # rounded onto or past the edge
            valid += 1
            a, b = FrameSpec(beta, k, "A"), FrameSpec(-beta, kp, "B")
            for name, fn, *args in (
                    ("edwards_transform", edwards_transform, Event(1.0, 0.0), beta, k, kp),
                    ("edwards_coeffs", edwards_coeffs, beta, k, kp),
                    ("frame_coeffs", frame_coeffs, FrameSpec(beta, kp)),
                    ("between_coeffs", between_coeffs, a, b),
                    ("transform_between", transform_between, Event(1.0, 0.0, chart="A"), a, b)):
                try:
                    fn(*args)
                except ValueError as exc:
                    errors[name, str(exc)] += 1
        assert valid > 19_900
        assert not errors, errors

    def test_inverse_refuses_a_determinant_that_rounds_to_zero(self):
        m = edwards_coeffs(*self.ZERO_DET)
        assert m.determinant == 0.0
        assert m.apply(Event(1.0, 0.0)) == (m.a_tt, m.a_xt, 0.0, 0.0, "S")
        with pytest.raises(ValueError, match=r"^transform is singular \(zero determinant\)$"):
            m.inverse()
        # The same entries from a caller are checked.
        for build in (lambda: TransformCoeffs(*m), lambda: TransformCoeffs._make(m),
                      lambda: m._replace()):
            with pytest.raises(ValueError, match="^transform is singular"):
                build()

    def test_a_product_is_not_checked_for_singularity(self):
        m, identity = edwards_coeffs(*self.ZERO_DET), resync_coeffs(0.0, 0.0)
        for product in (m @ identity, identity @ m):
            assert type(product) is TransformCoeffs
            assert tuple(product) == tuple(m)
            assert product.determinant == 0.0


EPS = sys.float_info.epsilon


def _edge_beta(rng: random.Random) -> float:
    return rng.choice((1.0, -1.0)) * (1.0 - 10.0 ** -rng.uniform(10.0, 15.0))


def _frame_pair(rng: random.Random, edge: bool) -> tuple[FrameSpec, FrameSpec]:
    """(from, to); at the edge one frame has 1 - |beta| = 10^-U(10, 15), the other
    likewise or |beta| <= 0.9, in either order."""
    if not edge:
        return (FrameSpec(rng.uniform(-0.9, 0.9), rng.uniform(-1.0, 1.0), "A"),
                FrameSpec(rng.uniform(-0.9, 0.9), rng.uniform(-1.0, 1.0), "B"))
    a = FrameSpec(_edge_beta(rng), rng.uniform(-1.0, 1.0), "A")
    b_beta = _edge_beta(rng) if rng.random() < 0.5 else rng.uniform(-0.9, 0.9)
    b = FrameSpec(b_beta, rng.uniform(-1.0, 1.0), "B")
    return (a, b) if rng.random() < 0.5 else (b, a)


class TestFrameMapsMatchTheDecimalOracle:
    """between_coeffs, transform_between and map_velocity against conftest.oracle_between.

    Event errors are relative to max(|t'|, |x'|).  A velocity's error is in
    units of kappa*eps, where kappa = (|a_tt*dt| + |a_tx*dx|)/|dt'| +
    (|a_xt*dt| + |a_xx*dx|)/|dx'| is the condition number of dx'/dt' in the
    map's entries.  between_coeffs' entries are compared with the largest
    oracle entry.
    """

    @pytest.mark.parametrize("edge, draws, event_bound", [
        (True, 5_000, 1e-12), (False, 20_000, 3e-14),
    ], ids=["edge", "mid-range"])
    def test_within_bounds(self, edge, draws, event_bound):
        rng = random.Random(1963)
        worst = dict.fromkeys(("event", "velocity", "entries"), 0.0)
        for _ in range(draws):
            frame_from, frame_to = _frame_pair(rng, edge)
            t, x, u = rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0), rng.uniform(-0.99, 0.99)
            image = transform_between(Event(t, x, chart=frame_from.label), frame_from, frame_to)
            velocity = map_velocity(u, frame_from, frame_to)
            ref = oracle_between(frame_from, frame_to)
            coeffs = between_coeffs(frame_from, frame_to)
            with localcontext(Context(prec=50)):
                a_tt, a_tx, a_xt, a_xx = ref
                t_ref = a_tt * Decimal(t) + a_tx * Decimal(x)
                x_ref = a_xt * Decimal(t) + a_xx * Decimal(x)
                err = max(abs(Decimal(image.t) - t_ref), abs(Decimal(image.x) - x_ref))
                worst["event"] = max(worst["event"], float(err / max(abs(t_ref), abs(x_ref))))
                du = Decimal(u)
                dt_ref, dx_ref = a_tt + a_tx * du, a_xt + a_xx * du
                kappa = ((abs(a_tt) + abs(a_tx * du)) / abs(dt_ref)
                         + (abs(a_xt) + abs(a_xx * du)) / abs(dx_ref))
                v_ref = dx_ref / dt_ref
                err = abs(Decimal(velocity) - v_ref) / (abs(v_ref) * kappa * Decimal(EPS))
                worst["velocity"] = max(worst["velocity"], float(err))
                got = (coeffs.a_tt, coeffs.a_tx, coeffs.a_xt, coeffs.a_xx)
                err = max(abs(Decimal(g) - r) for g, r in zip(got, ref)) / max(map(abs, ref))
                worst["entries"] = max(worst["entries"], float(err))
        assert worst["event"] <= event_bound, worst
        assert worst["velocity"] <= 16.0, worst
        assert worst["entries"] <= 2e-15, worst
