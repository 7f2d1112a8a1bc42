from __future__ import annotations

import math
import tracemalloc
import warnings
from decimal import Context, Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from synchrony_lab import (
    ABSOLUTE_FRAME,
    CollapseSample,
    FrameSpec,
    IllConditioned,
    collapse_time,
    estimate_absolute_frame,
    load_samples,
    map_velocity,
)

from synchrony_lab.probe import FitReport

from conftest import (
    ORACLE_HBAR_EV_S,
    ORACLE_PLANCK_ENERGY_EV,
    oracle_argmin,
    oracle_collapse_time,
    oracle_residuals,
    synth_collapse_samples,
    velocity_subtract,
)

GRID_001 = [-0.9 + 0.01 * i for i in range(181)]
GRID_0001 = [-0.9 + 0.001 * i for i in range(1801)]
DATA = Path(__file__).parent / "data"


class TestCollapseTime:
    def test_rest_frame_value_for_one_ev_spread(self):
        # hbar * E_p for 1 eV spread, recomputed independently: the CODATA
        # hbar (eV s) times the Planck energy (eV) is 8.03018587418e12 s.
        assert math.isclose(collapse_time(1.0, 0.0), 8.03018587418e12,
                            rel_tol=1e-9)

    def test_rest_frame_formula(self):
        assert collapse_time(2.0, 0.0) == ORACLE_HBAR_EV_S * ORACLE_PLANCK_ENERGY_EV / 4.0

    def test_boost_ratio_is_gamma(self):
        ratio = collapse_time(1.0, 0.6) / collapse_time(1.0, 0.0)
        assert math.isclose(ratio, 1.25, rel_tol=1e-12)

    def test_doubling_spread_quarters_the_time(self):
        for delta_E in (1.0, 0.7, 3.0, 1e-3):
            assert collapse_time(2 * delta_E, 0.4) == collapse_time(delta_E, 0.4) / 4.0

    def test_monotone_in_speed_magnitude(self):
        times = [collapse_time(1.0, b) for b in (0.0, 0.2, 0.5, 0.8, 0.95)]
        assert times == sorted(times)
        assert collapse_time(1.0, -0.5) == collapse_time(1.0, 0.5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            collapse_time(0.0, 0.0)
        with pytest.raises(ValueError):
            collapse_time(-1.0, 0.0)
        with pytest.raises(ValueError):
            collapse_time(1.0, 1.0)

    @pytest.mark.parametrize("delta_E", [1e-160, 1e-200])  # delta_E**2 subnormal, then zero
    def test_time_past_the_largest_float_rejected(self, delta_E):
        with pytest.raises(ValueError, match="overflows"):
            collapse_time(delta_E, 0.0)

    # |beta| = 1 - 10^-j on both sides, where 1 - beta*beta loses up to 2e6 ulps,
    # and a mid-range sample, where the digits must not be traded away.
    EDGE = [sign * (1.0 - 10.0**-j) for j in range(1, 13) for sign in (1.0, -1.0)]
    MID = np.random.default_rng(15).uniform(-0.9, 0.9, 200).tolist()

    @pytest.mark.parametrize("delta_E", [1.0, 0.7, 3e-3])
    @pytest.mark.parametrize("betas", [EDGE, MID], ids=["edge", "mid"])
    def test_within_three_ulps_of_the_50_digit_oracle(self, delta_E, betas):
        # gamma's radicand and square root cost about 1 ulp; the products with
        # hbar and E_p and the division by delta_E^2 round four more times.
        for beta in betas:
            exact = oracle_collapse_time(delta_E, beta)
            error = abs(Decimal(collapse_time(delta_E, beta)) - exact)
            assert error <= 3 * Decimal(math.ulp(float(exact))), beta

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            CollapseSample(delta_E=1.0, beta=0.0, t_c=-1.0)
        with pytest.raises(ValueError):
            CollapseSample(delta_E=1.0, beta=1.5, t_c=1.0)
        for delta_E in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="delta_E must be positive"):
                CollapseSample(delta_E=delta_E, beta=0.0, t_c=1.0)


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

    @pytest.mark.parametrize("delta_E", [1e-80, 1e-170])  # (t_c*dE^2)^2, then dE^2, underflow
    def test_underflowing_times_are_ill_conditioned(self, delta_E):
        samples = [CollapseSample(delta_E, u, t_c)
                   for u, t_c in ((-0.5, 1.2e-5), (0.0, 1e-5), (0.5, 1.3e-5))]
        with pytest.raises(IllConditioned, match="underflow"):
            estimate_absolute_frame(samples, [-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9])

    def test_empty_grid_rejected(self):
        samples = synth_collapse_samples(0.0, self.velocities)
        with pytest.raises(ValueError):
            estimate_absolute_frame(samples, [])

    @pytest.mark.parametrize("bad", [math.nan, 1.0, -math.inf])
    def test_grid_point_outside_the_open_unit_interval_rejected(self, bad):
        samples = synth_collapse_samples(0.0, self.velocities)
        with pytest.raises(ValueError, match="must satisfy"):
            estimate_absolute_frame(samples, [0.0, bad, 0.5])

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

    @pytest.mark.parametrize("extra", [",9", ",", ",,"])
    def test_row_longer_than_the_header_is_rejected(self, tmp_path, extra):
        path = tmp_path / "samples.csv"
        path.write_text("delta_E,lab_beta,t_c,sigma\n1.0,0.1,8.1e12,\n"
                        f"1.0,0.0,1e13,{extra}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^bad sample on line 3: row has more fields "
                                             "than the header$"):
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


def unchunked_fit(samples, beta_grid) -> FitReport:
    """The estimator restated cell by cell over the whole grid x samples problem."""
    grid = np.asarray(beta_grid, dtype=float)
    u = np.array([s.beta for s in samples])
    y = np.array([s.t_c * (s.delta_E * s.delta_E) for s in samples])

    def gamma_curves(bs):
        w = (u[None, :] - bs[:, None]) / (1.0 - u[None, :] * bs[:, None])
        return 1.0 / np.sqrt(1.0 - w * w)

    g = gamma_curves(grid)
    gy = g @ y
    gg = np.sum(g * g, axis=1)
    residuals = np.maximum(float(y @ y) - gy * gy / gg, 0.0)
    i = int(np.argmin(residuals))
    # The stationary point of gy^2/gg over all b, from raw sums (see conftest.oracle_argmin).
    phi = 1.0 / np.sqrt(1.0 - u * u)
    A, B, C, D, E = phi @ y, (u * phi) @ y, phi @ phi, u @ (phi * phi), (u * u) @ (phi * phi)
    b_star = (B * C - A * D) / (B * D - A * E)
    refined = bool(grid.min() <= b_star <= grid.max())
    beta_hat = float(b_star) if refined else float(grid[i])
    g_hat = gamma_curves(np.array([beta_hat]))[0]
    return FitReport(
        beta_hat=beta_hat,
        grid_beta_hat=float(grid[i]),
        refined=refined,
        scale=float((g_hat @ y) / (g_hat @ g_hat)),
        beta_grid=tuple(float(b) for b in grid),
        residuals=tuple(float(r) for r in residuals),
        n_samples=len(samples),
        distinct_velocities=int(np.unique(u).size),
    )


def noisy_samples(beta0, n, seed, velocities=None):
    rng = np.random.default_rng(seed)
    if velocities is None:
        velocities = np.linspace(-0.8, 0.8, n)
    return synth_collapse_samples(beta0, velocities, sigma=0.01, rng=rng)


FIT_CASES = {
    "golden-181x17": lambda: (load_samples(DATA / "collapse_samples_beta03.csv"), GRID_001),
    "181x100": lambda: (noisy_samples(0.3, 100, 42), GRID_001),  # criterion 9's size
    "1801x2000": lambda: (noisy_samples(-0.2, 2000, 2000), GRID_0001),
    "7x70000": lambda: (noisy_samples(0.1, 70_000, 70_000), [-0.9 + 0.3 * i for i in range(7)]),
    # Velocities on one side of 0: gamma(u) and u*gamma(u) are far from
    # orthogonal (p12 is not 0), unlike the symmetric sets above.
    "one-sided-181x60": lambda: (
        noisy_samples(0.3, 60, 60, velocities=np.linspace(0.0, 0.9, 60)), GRID_001),
    # 50 velocities within 1e-8 of each other: gamma(u) and u*gamma(u) are
    # nearly parallel, and one Gram-Schmidt pass is off by about 6e-8.
    "clustered-181x50": lambda: (
        noisy_samples(0.3, 50, 50, velocities=0.5 + 1e-8 * np.linspace(-1.0, 1.0, 50)), GRID_001),
}

IN_GRID = [case for case in FIT_CASES if case != "clustered-181x50"]  # b* within the grid


class TestFitKernel:
    """The O(grid + samples) fit against the cell-by-cell fit and a 50-digit oracle."""

    @pytest.mark.parametrize("case", IN_GRID)
    def test_fit_matches_the_cell_by_cell_fit(self, case):
        samples, grid = FIT_CASES[case]()
        _, got = estimate_absolute_frame(samples, grid)
        want = unchunked_fit(samples, grid)
        # The cell-by-cell residuals are cancelling differences, good to about
        # 1e-11 relative, so only the answers and a loose curve are compared.
        assert (got.grid_beta_hat, got.refined) == (want.grid_beta_hat, want.refined)
        assert math.isclose(got.scale, want.scale, rel_tol=1e-12)
        assert got.beta_grid == want.beta_grid
        tolerance = 1e-9 * max(want.residuals)
        assert all(abs(a - b) <= tolerance for a, b in zip(got.residuals, want.residuals))

    @pytest.mark.parametrize("case", FIT_CASES)
    def test_fit_matches_the_50_digit_oracle(self, case):
        samples, grid = FIT_CASES[case]()
        beta_hat, report = estimate_absolute_frame(samples, grid)
        exact = oracle_residuals(samples, grid)
        yy = math.fsum((s.t_c * s.delta_E**2) ** 2 for s in samples)
        relative, absolute = 0.0, 0.0
        for got, want in zip(report.residuals, exact):
            error = abs(Decimal(got) - want)
            if want >= Decimal(1e-6 * yy):
                relative = max(relative, float(error / want))
            else:  # near an exact fit the residual is rounding noise; bound it absolutely
                absolute = max(absolute, float(error) / yy)
        assert relative <= 1e-13
        assert absolute <= 1e-20
        exact_argmin = oracle_argmin(samples)
        assert report.refined == (min(grid) <= exact_argmin <= max(grid))
        if report.refined:
            assert abs(beta_hat - exact_argmin) <= 1e-14
        else:
            assert beta_hat == report.grid_beta_hat

    def test_clustered_fit_falls_back_to_the_grid_argmin(self):
        # b* lies near 2, outside the grid, so the grid's edge is the answer.
        samples, grid = FIT_CASES["clustered-181x50"]()
        beta_hat, report = estimate_absolute_frame(samples, grid)
        assert report.refined is False
        assert beta_hat == report.grid_beta_hat == -0.9

    def test_truth_outside_the_grid_falls_back_to_the_grid_argmin(self):
        samples = synth_collapse_samples(0.3, np.linspace(-0.8, 0.8, 33))
        beta_hat, report = estimate_absolute_frame(samples, GRID_001[:91])  # -0.9 .. 0.0
        assert report.refined is False
        assert beta_hat == report.grid_beta_hat == 0.0

    @pytest.mark.parametrize("case", IN_GRID)
    def test_refined_fit_has_a_positive_scale(self, case):
        # At b* the curve is parallel to the samples' projection and points
        # the same way, so b* is the minimum, not a maximum.
        _, report = estimate_absolute_frame(*FIT_CASES[case]())
        assert report.refined
        assert report.scale > 0.0

    @pytest.mark.parametrize("case", ["golden-181x17", "clustered-181x50"])
    def test_oracle_matches_the_cell_by_cell_sum(self, case):
        # oracle_residuals factors gamma(u (-) b); here each cell is composed as written.
        samples, grid = FIT_CASES[case]()
        grid = grid[::20]
        with localcontext(Context(prec=50)):
            for b, got in zip(grid, oracle_residuals(samples, grid)):
                b = Decimal(b)
                gy = gg = yy = Decimal(0)
                for s in samples:
                    u, y = Decimal(s.beta), Decimal(s.t_c) * Decimal(s.delta_E) ** 2
                    w = (u - b) / (1 - u * b)
                    g = 1 / (1 - w * w).sqrt()
                    gy, gg, yy = gy + g * y, gg + g * g, yy + y * y
                want = yy - gy * gy / gg
                assert abs(got - want) <= Decimal("1e-30") * yy

    def test_large_fit_memory_is_bounded(self):
        samples = noisy_samples(0.3, 5000, 5)
        estimate_absolute_frame(samples[:100], GRID_001)  # warm-up: numpy's lazy imports
        tracemalloc.start()
        try:
            estimate_absolute_frame(samples, GRID_0001)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8_000_000  # the whole-array fit peaked at about 216 MB
