from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from synchrony_lab import (
    ABSOLUTE_FRAME,
    CollapseModel,
    CollapseSample,
    FrameSpec,
    IllConditioned,
    collapse_time,
    estimate_absolute_frame,
    load_samples,
    map_velocity,
)

from synchrony_lab.probe import _parabolic_vertex

from conftest import (
    ORACLE_HBAR_EV_S,
    ORACLE_PLANCK_ENERGY_EV,
    synth_collapse_samples,
    velocity_subtract,
)

MODEL = CollapseModel()
GRID_001 = [-0.9 + 0.01 * i for i in range(181)]


class TestCollapseTime:
    def test_rest_frame_value_for_one_ev_spread(self):
        # hbar * E_p for 1 eV spread, recomputed independently: the CODATA
        # hbar (eV s) times the Planck energy (eV) is 8.03018587418e12 s.
        assert math.isclose(collapse_time(MODEL, 1.0, 0.0), 8.03018587418e12,
                            rel_tol=1e-9)

    def test_rest_frame_formula(self):
        assert collapse_time(MODEL, 2.0, 0.0) == MODEL.hbar * MODEL.planck_energy / 4.0

    def test_boost_ratio_is_gamma(self):
        ratio = collapse_time(MODEL, 1.0, 0.6) / collapse_time(MODEL, 1.0, 0.0)
        assert math.isclose(ratio, 1.25, rel_tol=1e-12)

    def test_doubling_spread_quarters_the_time(self):
        for delta_E in (1.0, 0.7, 3.0, 1e-3):
            assert collapse_time(MODEL, 2 * delta_E, 0.4) == \
                collapse_time(MODEL, delta_E, 0.4) / 4.0

    def test_monotone_in_speed_magnitude(self):
        times = [collapse_time(MODEL, 1.0, b) for b in (0.0, 0.2, 0.5, 0.8, 0.95)]
        assert times == sorted(times)
        assert collapse_time(MODEL, 1.0, -0.5) == collapse_time(MODEL, 1.0, 0.5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            collapse_time(MODEL, 0.0, 0.0)
        with pytest.raises(ValueError):
            collapse_time(MODEL, -1.0, 0.0)
        with pytest.raises(ValueError):
            collapse_time(MODEL, 1.0, 1.0)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            CollapseSample(delta_E=1.0, beta=0.0, t_c=-1.0)
        with pytest.raises(ValueError):
            CollapseSample(delta_E=1.0, beta=1.5, t_c=1.0)


class TestEstimator:
    velocities = np.linspace(-0.8, 0.8, 33)

    @pytest.mark.parametrize("beta0", [0.0, 0.3, -0.5])
    def test_noiseless_recovery(self, beta0):
        samples = synth_collapse_samples(beta0, self.velocities)
        beta_hat, report = estimate_absolute_frame(samples, GRID_001)
        assert abs(beta_hat - beta0) <= 0.005  # half a grid step
        assert abs(report.grid_beta_hat - beta0) <= 0.01 + 1e-12

    def test_residual_minimal_at_truth_on_grid(self):
        samples = synth_collapse_samples(0.3, self.velocities)
        grid = [-0.9, -0.5, -0.1, 0.1, 0.3, 0.5, 0.9]
        _, report = estimate_absolute_frame(samples, grid)
        residuals = dict(zip(report.beta_grid, report.residuals))
        assert all(residuals[0.3] <= r for r in report.residuals)

    def test_mixed_energy_spreads_are_normalized(self):
        mixed = []
        for i, u in enumerate(self.velocities):
            delta_E = 0.5 + 0.1 * (i % 5)
            mixed.extend(synth_collapse_samples(0.3, [u], delta_E=delta_E))
        beta_hat, _ = estimate_absolute_frame(mixed, GRID_001)
        assert abs(beta_hat - 0.3) <= 0.005

    def test_single_velocity_is_ill_conditioned(self):
        samples = synth_collapse_samples(0.0, [0.2] * 10)
        with pytest.raises(IllConditioned):
            estimate_absolute_frame(samples, GRID_001)

    def test_two_velocities_are_ill_conditioned(self):
        samples = synth_collapse_samples(0.0, [0.2, -0.2, 0.2, -0.2])
        with pytest.raises(IllConditioned):
            estimate_absolute_frame(samples, GRID_001)

    def test_report_is_stamped_with_constants(self):
        samples = synth_collapse_samples(0.0, self.velocities)
        _, report = estimate_absolute_frame(samples, GRID_001)
        assert report.n_samples == len(samples)
        payload = report.to_dict()
        assert payload["constants"] == {
            "hbar": ORACLE_HBAR_EV_S, "planck_energy": ORACLE_PLANCK_ENERGY_EV, "units": "eV,s"}
        assert payload["velocity_composition"] == "relativistic-subtraction"
        assert len(payload["residual_curve"]) == len(GRID_001)

    def test_velocity_composition_matches_kinematics(self):
        # The estimator's u (-) b rule is the same map the transform library
        # produces through isotropic-convention legs.
        for u in (-0.7, 0.0, 0.45):
            for b in (-0.3, 0.25):
                via_kinematics = map_velocity(u, ABSOLUTE_FRAME, FrameSpec(b, 0.0, "lab"))
                assert math.isclose(velocity_subtract(u, b), via_kinematics,
                                    rel_tol=1e-12, abs_tol=1e-15)

    def test_non_finite_residuals_are_ill_conditioned_and_silent(self):
        samples = [CollapseSample(1.0, 0.9999999999, 1e300),
                   CollapseSample(1.0, -0.9999999999, 1e300),
                   CollapseSample(1.0, 0.0, 1e-300)]
        grid = [-0.99 + 0.33 * i for i in range(7)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditioned, match="not finite"):
                estimate_absolute_frame(samples, grid)

    def test_empty_grid_rejected(self):
        samples = synth_collapse_samples(0.0, self.velocities)
        with pytest.raises(ValueError):
            estimate_absolute_frame(samples, [])

    def test_noisy_recovery_single_seed(self):
        rng = np.random.default_rng(42)
        samples = synth_collapse_samples(
            0.3, np.linspace(-0.8, 0.8, 100), sigma=0.01, rng=rng
        )
        beta_hat, _ = estimate_absolute_frame(samples, GRID_001)
        assert abs(beta_hat - 0.3) <= 0.02


class TestSampleIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text(
            "delta_E,lab_beta,t_c,sigma\n"
            "1.0,0.1,8.1e12,\n"
            "2.0,-0.4,2.3e12,0.01\n",
            encoding="utf-8",
        )
        samples = load_samples(path)
        assert len(samples) == 2
        assert samples[0].sigma is None
        assert samples[1] == CollapseSample(2.0, -0.4, 2.3e12, 0.01)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("delta_E,t_c\n1.0,2.0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_samples(path)

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text(
            "delta_E,lab_beta,t_c,sigma\n1.0,0.1,not-a-number,\n", encoding="utf-8"
        )
        with pytest.raises(ValueError, match="line 2"):
            load_samples(path)

    @pytest.mark.parametrize("sigma", ["-5", "0", "nan", "inf"])
    def test_bad_sigma_reports_line(self, tmp_path, sigma):
        path = tmp_path / "samples.csv"
        path.write_text("delta_E,lab_beta,t_c,sigma\n1.0,0.1,8.1e12,0.01\n"
                        f"1.0,0.2,8.1e12,{sigma}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 3"):
            load_samples(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("delta_E,lab_beta,t_c,sigma\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_samples(path)


def polyfit_vertex(bs, rs):
    """Least-squares parabola through the three points, via numpy as an oracle."""
    a, b, _ = np.polyfit(bs, rs, 2)
    if a <= 0.0:
        return None
    vertex = -b / (2.0 * a)
    return float(vertex) if bs[0] <= vertex <= bs[2] else None


def test_parabolic_vertex_matches_polyfit():
    rng = np.random.default_rng(7)
    outcomes = set()
    for _ in range(2000):
        bs = np.sort(rng.uniform(-0.95, 0.95, 3))
        if np.min(np.diff(bs)) < 1e-3:
            continue
        span = bs[2] - bs[0]
        apex = rng.uniform(bs[0] - span, bs[2] + span)
        if min(abs(apex - bs[0]), abs(apex - bs[2])) < 1e-6 * span:
            continue  # too close to the bracket edge for the oracle to decide
        curvature = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 10.0)
        rs = curvature * (bs - apex) ** 2 + rng.uniform(0.0, 5.0)
        expected = polyfit_vertex(bs, rs)
        got = _parabolic_vertex(bs, rs)
        outcomes.add(expected is None)
        if expected is None:
            assert got is None
        else:
            assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-12)
    assert outcomes == {True, False}
