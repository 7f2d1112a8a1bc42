from __future__ import annotations

import csv
import itertools
import math
import os
import threading
import tracemalloc
import warnings
from decimal import Context, Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from synchrony_lab import (
    ABSOLUTE_FRAME,
    CollapseSample,
    FrameSpec,
    IllConditioned,
    SampleColumns,
    collapse_time,
    estimate_absolute_frame,
    load_samples,
    map_velocity,
    probe,
)

from synchrony_lab.probe import FitReport

from conftest import (
    ORACLE_HBAR_EV_S,
    ORACLE_PLANCK_ENERGY_EV,
    oracle_argmin,
    oracle_collapse_time,
    oracle_load_samples,
    oracle_residuals,
    synth_collapse_samples,
    velocity_subtract,
)

C_READER = probe._table  # numpy's reader, before any test patches it
CSV_READER = csv.reader
GRID_001 = [-0.9 + 0.01 * i for i in range(181)]
GRID_0001 = [-0.9 + 0.001 * i for i in range(1801)]
DATA = Path(__file__).parent / "data"
GOOD_SAMPLE = {"delta_E": 1.0, "beta": 0.1, "t_c": 1.0, "sigma": 0.5}


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

    @pytest.mark.parametrize("field", CollapseSample._fields)
    @pytest.mark.parametrize("value", [True, False])
    def test_a_bool_is_not_a_number(self, field, value):
        fields = {**GOOD_SAMPLE, field: value}
        with pytest.raises(TypeError, match="not a bool"):
            CollapseSample(**fields)

    @pytest.mark.parametrize("field, message", [
        ("delta_E", "delta_E must be positive"),
        ("beta", "|beta| must be < 1"),
        ("t_c", "t_c must be positive"),
        ("sigma", "sigma must be positive and finite when given"),
    ])
    @pytest.mark.parametrize("value", [10**400, -10**400], ids=["10**400", "-10**400"])
    def test_an_int_past_the_float_range_fails_its_range_check(self, field, message, value):
        fields = {**GOOD_SAMPLE, field: value}
        with pytest.raises(ValueError) as info:
            CollapseSample(**fields)
        assert str(info.value) == message
        CollapseSample(**{**fields, field: 0 if field == "beta" else 1})  # a small int is taken

    def test_exact_floats_take_the_verdict_of_their_float_subclass_twins(self):
        """Exact floats take a fast path; np.float64, a float subclass, takes the field checks."""
        edges = [0.0, -0.0, 0.5, 1.0, -1.0, 1.0 - 2**-53, -1.0 + 2**-53, 5e-324,
                 1.7976931348623157e308, math.inf, -math.inf, math.nan]

        def verdict(values):
            try:
                return tuple(CollapseSample(*values))
            except ValueError as exc:
                return str(exc)

        for fields in itertools.product(edges, edges, edges, [None, *edges]):
            twins = [None if f is None else np.float64(f) for f in fields]
            assert verdict(fields) == verdict(twins), fields


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
        with pytest.raises(IllConditioned) as info:
            estimate_absolute_frame(samples, GRID_001)
        assert str(info.value) == ("need at least 3 samples at 3 distinct velocities, "
                                   "got 10 samples at 1")

    def test_two_velocities_are_ill_conditioned(self):
        samples = synth_collapse_samples(0.0, [0.2, -0.2, 0.2, -0.2])
        with pytest.raises(IllConditioned) as info:
            estimate_absolute_frame(samples, GRID_001)
        assert str(info.value) == ("need at least 3 samples at 3 distinct velocities, "
                                   "got 4 samples at 2")

    def test_signed_zeros_are_one_velocity(self):
        samples = synth_collapse_samples(0.0, [0.0, -0.0, 0.2, -0.0])
        with pytest.raises(IllConditioned) as info:
            estimate_absolute_frame(samples, GRID_001)
        assert str(info.value) == ("need at least 3 samples at 3 distinct velocities, "
                                   "got 4 samples at 2")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0]),
                              st.integers(-9, 9).map(lambda i: i / 10)), min_size=1, max_size=5)
           .flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=12)),
           st.booleans())
    @example([0.0, -0.0, 0.5, 0.5, -0.5], False)
    @example([0.0, -0.0, 0.5, 0.5, -0.5], True)
    def test_distinct_velocities_are_counted_as_np_unique_counts_them(self, velocities, columns):
        u = np.array(velocities, dtype=float)
        want = np.unique(u).size
        assert want == len(set(u.tolist()))  # -0.0 == 0.0 in both
        rows = [(1.0, b, collapse_time(1.0, b), None) for b in velocities]
        samples = (SampleColumns(np.ones(u.size), u, np.array([r[2] for r in rows]),
                                 np.full(u.size, math.nan)) if columns else rows)
        try:
            _, report = estimate_absolute_frame(samples, [-0.5, 0.0, 0.5])
        except IllConditioned as exc:
            assert want < 3
            assert str(exc) == ("need at least 3 samples at 3 distinct velocities, "
                                f"got {u.size} samples at {want}")
        else:
            assert want >= 3
            assert type(report.distinct_velocities) is int
            assert report.distinct_velocities == want

    @pytest.mark.parametrize("at", [0, 5, -1])
    def test_a_row_of_another_width_is_refused_not_fitted(self, at):
        samples = synth_collapse_samples(0.3, self.velocities)
        samples[at] = tuple(samples[at])[:3]
        with pytest.raises(ValueError) as info:
            estimate_absolute_frame(samples, GRID_001)
        assert str(info.value) == (
            "sample rows need 4 fields (delta_E, beta, t_c, sigma), got mixed widths")

    @pytest.mark.parametrize("width", [0, 3, 5])
    def test_rows_of_one_other_width_name_the_four_fields(self, width):
        rows = [(*s, 0.0)[:width] for s in synth_collapse_samples(0.3, self.velocities)]
        with pytest.raises(ValueError) as info:
            estimate_absolute_frame(rows, GRID_001)
        assert str(info.value) == (
            f"sample rows need 4 fields (delta_E, beta, t_c, sigma), got {width}")

    @pytest.mark.parametrize("field, value, message", [
        ("t_c", -5.0, "t_c must be positive"),
        ("beta", 1.5, "|beta| must be < 1"),
        ("delta_E", -1.0, "delta_E must be positive"),
        ("sigma", math.nan, "sigma must be positive and finite when given"),
    ])
    def test_plain_rows_pass_the_sample_checks(self, field, value, message):
        rows = [tuple(s) for s in synth_collapse_samples(0.3, self.velocities)]
        bad = dict(zip(CollapseSample._fields, rows[7]), **{field: value})
        rows[7] = tuple(bad.values())
        rows[20] = (-1.0, 2.0, -1.0, -1.0)  # a later bad row is not the one named
        rows[3] = synth_collapse_samples(0.3, [0.1])[0]  # samples may mix with plain rows
        with pytest.raises(ValueError) as info:
            estimate_absolute_frame(rows, GRID_001)
        assert str(info.value) == message

    @pytest.mark.parametrize("bad, error, message", [
        (True, TypeError, "a sample field must be a number, not a bool"),
        (10**400, ValueError, "delta_E must be positive"),
    ], ids=["bool", "10**400"])
    def test_plain_rows_refuse_a_bool_and_an_int_past_a_float(self, bad, error, message):
        rows = [tuple(s) for s in synth_collapse_samples(0.3, self.velocities)]
        rows[5] = (bad, *rows[5][1:])
        with pytest.raises(error) as info:
            estimate_absolute_frame(rows, GRID_001)
        assert str(info.value) == message

    def test_plain_rows_with_no_sigma_fit_as_their_samples(self):
        samples = synth_collapse_samples(0.3, self.velocities)
        rows = [tuple(s) for s in samples]
        assert all(row[3] is None for row in rows)
        assert estimate_absolute_frame(rows, GRID_001) == estimate_absolute_frame(samples, GRID_001)

    def test_plain_rows_of_numeric_strings_are_refused(self):
        """CollapseSample takes no strings and the fit coerces none; as floats, they fit."""
        rows = [(*map(repr, s[:3]), None) for s in synth_collapse_samples(0.3, self.velocities)]
        with pytest.raises(TypeError):
            estimate_absolute_frame(rows, GRID_001)
        floats = [(*map(float, row[:3]), None) for row in rows]
        assert estimate_absolute_frame(floats, GRID_001)[1].n_samples == len(rows)

    def test_samples_are_not_checked_again(self, monkeypatch):
        samples = synth_collapse_samples(0.3, self.velocities)
        rows = [tuple(s) for s in samples]
        checked, new = [], CollapseSample.__new__

        def counted(cls, *fields):
            checked.append(fields)
            return new(cls, *fields)

        monkeypatch.setattr(CollapseSample, "__new__", counted)
        estimate_absolute_frame(samples, GRID_001)
        assert checked == []  # a list of samples is not checked again
        estimate_absolute_frame(rows, GRID_001)
        assert checked == rows  # each plain row is checked, once

    def test_no_samples_are_ill_conditioned(self):
        with pytest.raises(IllConditioned) as info:
            estimate_absolute_frame([], GRID_001)
        assert str(info.value) == ("need at least 3 samples at 3 distinct velocities, "
                                   "got 0 samples at 0")

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


# Fields by column: mostly valid ones, so that many drawn files load.
GOOD_FIELDS = {
    "delta_E": ["1.0", "2", " 0.5 ", '"1_0"'],
    "lab_beta": ["0.1", "-0.4", '"0.3"', "0", "0.7"],
    "t_c": ["8.1e12", "1e13", " 2.3e12", '"9e12"'],
    "sigma": ["", "0.01", "  ", "1e-3"],
    "note": ["", "x", "n/a", '"two\nlines"'],
}
BAD_FIELDS = ["", " ", "x", "nan", "-1", "0", "inf", "1.5", '"a,b"']


@st.composite
def sample_files(draw):
    """CSV text: a shuffled header with optional and repeated columns, then rows
    of mostly valid fields, some short, some long and some blank."""
    extra = draw(st.lists(st.sampled_from(["sigma", "note", "t_c", "delta_E"]), max_size=2))
    header = draw(st.permutations(["delta_E", "lab_beta", "t_c", "sigma"][:draw(st.integers(3, 4))]
                                  + extra))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 5))):
        width = len(header) + draw(st.sampled_from([0, 0, 0, 0, -1, -2, 1, -len(header)]))
        lines.append(",".join(
            draw(st.sampled_from(GOOD_FIELDS[header[j]] if j < len(header) else GOOD_FIELDS["note"]))
            if draw(st.integers(0, 19)) else draw(st.sampled_from(BAD_FIELDS))
            for j in range(width)))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


# Each of a sample's fields as the rules take it; a column that no required
# name or sigma reads (an extra or a shadowed repeat) may hold any float.
NUMERIC_FIELDS = {
    "delta_E": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    "lab_beta": st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    "t_c": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    "sigma": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
}
EDGE_FIELDS = {"delta_E": ["5e-324", "1e308"], "lab_beta": ["0.0", "-0.0"],
               "t_c": ["5e-324", "1e308"], "sigma": ["5e-324", "1e308"]}


@st.composite
def numeric_files(draw):
    """CSV text whose every field is a number, or blank in the sigma column the
    rules read: a shuffled header with optional, repeated and extra columns,
    valid samples in exact spellings (repr, exponents, quoted or padded),
    blank lines and LF, CRLF or CR line ends."""
    names = ["delta_E", "lab_beta", "t_c"] + ["sigma"] * draw(st.booleans())
    header = draw(st.permutations(names + draw(st.lists(
        st.sampled_from(["delta_E", "lab_beta", "t_c", "sigma", "note"]), max_size=3))))
    last = {name: j for j, name in enumerate(header)}
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))

    def field(j):
        name = header[j]
        if last[name] != j or name not in NUMERIC_FIELDS:
            text = repr(draw(st.floats()))
        elif name == "sigma" and not draw(st.integers(0, 3)):
            text = draw(st.sampled_from(["", " "]))
        elif draw(st.integers(0, 4)):
            value = draw(NUMERIC_FIELDS[name])
            text = draw(st.sampled_from([repr(value), f"{value:.17e}", f"{value:.17E}"]))
        else:
            text = draw(st.sampled_from(EDGE_FIELDS[name]))
        return draw(st.sampled_from(["{}", '"{}"', " {} ", "\t{}", '" {} "', '"{}" '])).format(text)

    lines = [",".join(header)]
    for _ in range(draw(st.integers(1, 6))):
        lines += [""] * draw(st.integers(0, 2))
        lines.append(",".join(field(j) for j in range(len(header))))
    return end.join(lines) + draw(st.sampled_from(["", end, end + end]))


@pytest.fixture
def c_reader(monkeypatch):
    """What numpy's reader returned on each attempt: its columns, or None."""
    results = []

    def table(*args):
        results.append(C_READER(*args))
        return results[-1]

    monkeypatch.setattr(probe, "_table", table)
    return results


NUMERIC_HEADER = "delta_E,lab_beta,t_c,sigma\n"


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

    def test_a_path_object_loads_as_its_string(self):
        path = DATA / "collapse_samples_beta03.csv"
        assert list(load_samples(path)) == list(load_samples(str(path)))

    def test_an_integer_path_is_refused_not_read_as_a_file_descriptor(self):
        with open(DATA / "collapse_samples_beta03.csv", "rb") as fh:
            with pytest.raises(TypeError):
                load_samples(fh.fileno())

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

    @pytest.mark.parametrize("text, want", [
        ("delta_E,lab_beta,t_c,sigma\n1.0,0.1,8.1e12\n", [CollapseSample(1.0, 0.1, 8.1e12)]),
        ("delta_E,lab_beta,t_c,sigma,note\n1.0,0.1,8.1e12\n2.0,-0.4,2.3e12,0.01\n"
         "1.0,0.2,8.2e12,,last\n",
         [CollapseSample(1.0, 0.1, 8.1e12), CollapseSample(2.0, -0.4, 2.3e12, 0.01),
          CollapseSample(1.0, 0.2, 8.2e12)]),
        ("\n".join(["delta_E,lab_beta,t_c,sigma", "", "1.0,0.1,8.1e12,", "", "",
                    "2.0,-0.4,2.3e12,0.01", "", ""]),
         [CollapseSample(1.0, 0.1, 8.1e12), CollapseSample(2.0, -0.4, 2.3e12, 0.01)]),
        ("delta_E,lab_beta,t_c,sigma,note\n1.0,0.1,8.1e12,,first run\n2.0,-0.4,2.3e12,0.01,n/a\n",
         [CollapseSample(1.0, 0.1, 8.1e12), CollapseSample(2.0, -0.4, 2.3e12, 0.01)]),
        ("sigma,t_c,note,lab_beta,delta_E\n0.01,2.3e12,x,-0.4,2.0\n",
         [CollapseSample(2.0, -0.4, 2.3e12, 0.01)]),
        ("delta_E,lab_beta,t_c\n1.0,0.1,8.1e12\n", [CollapseSample(1.0, 0.1, 8.1e12)]),
        ("delta_E,lab_beta,t_c,t_c\n1.0,0.1,1e12,8.1e12\n", [CollapseSample(1.0, 0.1, 8.1e12)]),
        ('delta_E,lab_beta,t_c,sigma\n"1.0", 0.1 ," 8.1e12 "," 0.01 "\n',
         [CollapseSample(1.0, 0.1, 8.1e12, 0.01)]),
        ("delta_E,lab_beta,t_c,sigma\n1.0,0.1,8.1e12,  \n", [CollapseSample(1.0, 0.1, 8.1e12)]),
        ("delta_E,lab_beta,t_c,sigma\n1_0,0.1,8.1e12,\n", [CollapseSample(10.0, 0.1, 8.1e12)]),
        ("delta_E,lab_beta,t_c,sigma\r\n1.0,0.1,8.1e12,\r\n", [CollapseSample(1.0, 0.1, 8.1e12)]),
    ], ids=["lacks-trailing-sigma", "mixed-row-lengths", "blank-lines-skipped", "note-column",
            "any-column-order", "no-sigma-column", "repeated-column-uses-the-last",
            "quoted-and-padded", "whitespace-sigma-is-blank", "underscore-digits", "crlf"])
    def test_accepted_files(self, tmp_path, text, want):
        path = tmp_path / "samples.csv"
        path.write_bytes(text.encode("utf-8"))
        assert list(load_samples(path)) == want

    @pytest.mark.parametrize("text, message", [
        ("delta_E,lab_beta,t_c,sigma\n1.0,0.1,8.1e12,\n\n\n1.0,0.2,x,\n",
         "bad sample on line 5: could not convert string to float: 'x'"),
        ('delta_E,lab_beta,t_c,sigma,note\n1.0,0.1,8.1e12,,"two\nlines"\n1.0,0.2,x,\n',
         "bad sample on line 4: could not convert string to float: 'x'"),
        ("delta_E,lab_beta,t_c,sigma\n\n\n", "sample file contains no rows"),
        ("", "sample file must have columns delta_E, lab_beta, t_c"),
        ("\ndelta_E,lab_beta,t_c\n1.0,0.1,8.1e12\n",
         "sample file must have columns delta_E, lab_beta, t_c"),
        ("t_c,lab_beta,delta_E\n8.1e12\n", "bad sample on line 2: row ends before column delta_E"),
        ("delta_E,lab_beta,t_c,t_c\n1.0,0.1,1e12\n",
         "bad sample on line 2: row ends before column t_c"),
        ("delta_E,lab_beta,t_c\nx,0.1\n", "bad sample on line 2: row ends before column t_c"),
        ("delta_E,lab_beta,t_c,sigma\n1.0,0.1,8.1e12,\n  \n",
         "bad sample on line 3: row ends before column lab_beta"),
        ('delta_E,lab_beta,t_c,sigma\n""\n', "bad sample on line 2: row ends before column lab_beta"),
        ("delta_E,lab_beta,t_c,sigma\n1.0,0.1,8.1e12,nan\n",
         "bad sample on line 2: sigma must be positive and finite when given"),
        ("delta_E,lab_beta,t_c,sigma\n1.0,0.1,8.1e12,abc\n",
         "bad sample on line 2: could not convert string to float: 'abc'"),
        ("delta_E,lab_beta,t_c\n0,2,-1\n", "bad sample on line 2: delta_E must be positive"),
        ("delta_E,lab_beta,t_c\n1,2,-1\n", "bad sample on line 2: t_c must be positive"),
        ("delta_E,lab_beta,t_c\n1,2,1\n", "bad sample on line 2: |beta| must be < 1"),
        ("delta_E,lab_beta,t_c\n1,-inf,1\n", "bad sample on line 2: |beta| must be < 1"),
        ("delta_E,lab_beta,t_c\n1,0.1,1\n1,0.2,inf\n1,1,1\n",
         "bad sample on line 3: t_c must be positive"),
        ("delta_E,lab_beta,t_c\n1,0.1,1\n1,0.2,1,\n1,0.3,x\n",
         "bad sample on line 3: row has more fields than the header"),
    ], ids=["blank-lines-counted", "multi-line-field-counted", "only-blank-rows", "empty-file",
            "blank-header", "first-required-column-named", "repeated-column-short",
            "short-row-beats-bad-value", "whitespace-row", "quoted-empty-row", "nan-sigma",
            "text-sigma", "delta-E-checked-first", "t-c-checked-before-beta", "beta-out-of-range",
            "infinite-beta", "first-bad-row-reported", "long-row-before-bad-value"])
    def test_rejected_files_name_the_first_bad_line(self, tmp_path, text, message):
        path = tmp_path / "samples.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(ValueError) as info:
            load_samples(path)
        assert str(info.value) == message


    def test_columns_are_float_arrays_with_nan_for_a_blank_sigma(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("delta_E,lab_beta,t_c,sigma\n1.0,0.1,8.1e12,\n2.0,-0.4,2.3e12,0.01\n",
                        encoding="utf-8")
        columns = load_samples(path)
        assert isinstance(columns, SampleColumns)
        for name, want in (("delta_E", [1.0, 2.0]), ("beta", [0.1, -0.4]),
                           ("t_c", [8.1e12, 2.3e12])):
            got = getattr(columns, name)
            assert got.dtype == np.float64 and got.tolist() == want, name
        assert math.isnan(columns.sigma[0]) and columns.sigma[1] == 0.01
        assert columns[-1] == CollapseSample(2.0, -0.4, 2.3e12, 0.01)
        with pytest.raises(IndexError):
            columns[2]

    # numpy's reader refuses a blank sigma and a text column alike: the row reader takes both.
    @pytest.mark.parametrize("header, row", [
        ("delta_E,lab_beta,t_c,sigma", "1.0,0.1,8.1e12,"),
        ("delta_E,lab_beta,t_c,sigma,note", "1.0,0.1,8.1e12,,n/a"),
    ], ids=["blank-sigma", "text-column"])
    @pytest.mark.parametrize("rows, loads", [(50, True), (51, False)])
    def test_row_cap_is_exact(self, tmp_path, monkeypatch, c_reader, rows, loads, header, row):
        monkeypatch.setattr(probe, "MAX_SAMPLE_ROWS", 50)
        path = tmp_path / "samples.csv"
        path.write_text(header + "\n" + (row + "\n\n") * rows, encoding="utf-8")
        if loads:
            assert len(load_samples(path)) == rows
        else:
            with pytest.raises(ValueError, match=r"^sample file has more than 50 rows$"):
                load_samples(path)
        assert c_reader == [None]

    def test_row_cap_reads_at_most_one_row_past_it(self, tmp_path, monkeypatch):
        readers = []

        class CountedReader:
            """csv.reader that counts the rows it yields."""

            def __init__(self, lines):
                self.reader, self.rows = CSV_READER(lines), 0
                readers.append(self)

            def __iter__(self):
                return self

            def __next__(self):
                row = next(self.reader)
                self.rows += 1
                return row

            @property
            def line_num(self):
                return self.reader.line_num

        monkeypatch.setattr(csv, "reader", CountedReader)
        monkeypatch.setattr(probe, "MAX_SAMPLE_ROWS", 50)
        path = tmp_path / "samples.csv"
        path.write_text("delta_E,lab_beta,t_c,sigma,note\n" + "1.0,0.1,8.1e12,,x\n" * 200,
                        encoding="utf-8")
        with pytest.raises(ValueError, match=r"^sample file has more than 50 rows$"):
            load_samples(path)
        [reader] = readers  # the file is read once: one reader, its header, then rows
        assert reader.rows - 1 == 51, reader.rows

    def test_row_cap_stops_reading_before_the_rows_are_held(self, tmp_path, monkeypatch):
        # Held as csv rows, the 100 000 rows would take tens of megabytes.
        monkeypatch.setattr(probe, "MAX_SAMPLE_ROWS", 100)
        path = tmp_path / "samples.csv"
        path.write_text("delta_E,lab_beta,t_c,sigma\n" + "1.0,0.1,8.1e12,\n" * 100_000,
                        encoding="utf-8")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^sample file has more than 100 rows$"):
                load_samples(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000, peak

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=sample_files())
    def test_agrees_with_the_row_by_row_oracle(self, tmp_path, text):
        path = tmp_path / "samples.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            want = oracle_load_samples(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                load_samples(path)
            assert str(info.value) == str(exc)
        else:
            assert list(load_samples(path)) == want

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=numeric_files())
    @example(text="sigma,t_c,lab_beta,delta_E\n0.01,2.3e12,-0.4,2.0\n0.02,2.4e12,0.4,1.0\n")
    @example(text="delta_E,lab_beta,t_c,sigma\n1.0,0.1,8.1e12,\n2.0,-0.4,2.3e12,0.01\n"
                  '1.0,0.2,8.2e12," "\n')
    def test_numpy_reads_numeric_files_bit_for_bit_as_csv(self, tmp_path, monkeypatch, c_reader,
                                                          text):
        path = tmp_path / "samples.csv"
        path.write_bytes(text.encode("utf-8"))
        del c_reader[:]  # the fixture lasts for every example
        got = load_samples(path)
        # numpy's reader is asked once and takes the file unless a sigma is blank: a given
        # sigma is never NaN here, so a NaN one was left blank.
        blank_sigma = "sigma" in text.splitlines()[0].split(",") and np.isnan(got.sigma).any()
        assert len(c_reader) == 1 and c_reader[0] is (None if blank_sigma else got)
        with monkeypatch.context() as csv_only:
            csv_only.setattr(probe, "_table", lambda *args: None)
            want = load_samples(path)
        for name in SampleColumns.__slots__:
            column = getattr(got, name)
            assert column.dtype == np.float64 and column.flags.c_contiguous, name
            assert column.tobytes() == getattr(want, name).tobytes(), name

    @pytest.mark.parametrize("text, message", [
        (NUMERIC_HEADER + "1.0,0.1,8.1e12,0.01,2\n" * 3,
         "bad sample on line 2: row has more fields than the header"),
        (NUMERIC_HEADER + "1.0,0.1,8.1e12,0.01\n" * 5 + "1.0,0.2,-5,0.01\n"
         + "1.0,0.3,8.1e12,0.01\n" * 3, "bad sample on line 7: t_c must be positive"),
        (NUMERIC_HEADER + "1.0,0.1,8.1e12,0.01\n\n1.0,0.2,8.1e12,nan\n",
         "bad sample on line 4: sigma must be positive and finite when given"),
        (NUMERIC_HEADER + "1.0,0.1,8.1e12,,2\n" * 3,
         "bad sample on line 2: row has more fields than the header"),
    ], ids=["every-row-one-field-wider", "t-c-negative-on-line-7", "nan-sigma",
            "every-row-one-field-wider-blank-sigma"])
    def test_numeric_files_numpy_refuses_end_as_the_csv_reader_ends_them(
            self, tmp_path, monkeypatch, c_reader, text, message):
        path = tmp_path / "samples.csv"
        path.write_bytes(text.encode("utf-8"))
        for csv_only in (False, True):
            if csv_only:
                monkeypatch.setattr(probe, "_table", lambda *args: None)
            with pytest.raises(ValueError) as info:
                load_samples(path)
            assert str(info.value) == message
        assert c_reader == [None]  # numpy's reader refused the file

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=numeric_files())
    @example(text="delta_E,lab_beta,t_c,sigma\n1.0,0.1,8.1e12,0.01\n2.0,-0.4,2.3e12,0.01\n"
                  "1.0,0.2,8.2e12,\n")
    def test_numpy_reader_runs_at_most_once_per_load(self, tmp_path, monkeypatch, text):
        calls, loadtxt = [], np.loadtxt

        def counted(*args, **kwargs):
            calls.append(args)
            return loadtxt(*args, **kwargs)

        path = tmp_path / "samples.csv"
        path.write_bytes(text.encode("utf-8"))
        with monkeypatch.context() as patched:
            patched.setattr(np, "loadtxt", counted)
            load_samples(path)
        assert len(calls) <= 1, len(calls)

    @pytest.mark.parametrize("rows, loads", [(50, True), (51, False), (200, False)])
    def test_row_cap_is_exact_for_numeric_files(self, tmp_path, monkeypatch, c_reader, rows,
                                                loads):
        asked, loadtxt = [], np.loadtxt

        def counted(*args, max_rows, **kwargs):
            asked.append(max_rows)
            return loadtxt(*args, max_rows=max_rows, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counted)
        monkeypatch.setattr(probe, "MAX_SAMPLE_ROWS", 50)
        path = tmp_path / "samples.csv"
        path.write_text(NUMERIC_HEADER + "1.0,0.1,8.1e12,0.01\n\n" * rows, encoding="utf-8")
        if loads:
            assert len(load_samples(path)) == rows
            assert c_reader[0] is not None
        else:
            with pytest.raises(ValueError, match=r"^sample file has more than 50 rows$"):
                load_samples(path)
            assert c_reader == [None]  # numpy's reader refused the file
        assert asked == [51]  # numpy's reader reads at most one row past the cap

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_goes_to_the_csv_reader_alone(self, tmp_path, c_reader):
        # A pipe reports no size, and opening it again would wait for a writer forever.
        path = tmp_path / "samples.csv"
        os.mkfifo(path)
        loaded = []
        reader = threading.Thread(target=lambda: loaded.append(load_samples(path)), daemon=True)
        reader.start()
        path.write_text(NUMERIC_HEADER + "1.0,-0.5,9.3e12,0.01\n1.0,0.0,8e12,0.01\n")
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert list(loaded[0]) == [CollapseSample(1.0, -0.5, 9.3e12, 0.01),
                                   CollapseSample(1.0, 0.0, 8e12, 0.01)]
        assert c_reader == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_names_its_first_bad_row_without_opening_it_again(self, tmp_path):
        # Opened again, the pipe would be empty, or wait for a second writer.
        path = tmp_path / "samples.csv"
        os.mkfifo(path)
        raised = []

        def load():
            with pytest.raises(ValueError) as info:
                load_samples(path)
            raised.append(str(info.value))

        reader = threading.Thread(target=load, daemon=True)
        reader.start()
        path.write_text(NUMERIC_HEADER + "1.0,-0.5,9.3e12,0.01\n\n1.0,0.0,x,\n1.0,0.5,9.3e12,\n")
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert raised == ["bad sample on line 4: could not convert string to float: 'x'"]

    @pytest.mark.parametrize("rows, cap, bound", [(10, None, 100_000), (100_000, 100, 1_000_000)],
                             ids=["small-file", "past-the-cap"])
    def test_numpy_reader_holds_no_more_than_the_file_or_the_cap(self, tmp_path, monkeypatch,
                                                                  rows, cap, bound):
        # loadtxt allocates its max_rows up front: 32 MB at the real cap.
        if cap:
            monkeypatch.setattr(probe, "MAX_SAMPLE_ROWS", cap)
        path = tmp_path / "samples.csv"
        path.write_text(NUMERIC_HEADER + "1.0,0.1,8.1e12,0.01\n" * rows, encoding="utf-8")
        load_samples(DATA / "collapse_samples_beta03.csv")  # warm-up: numpy's lazy imports
        tracemalloc.start()
        try:
            if cap:
                with pytest.raises(ValueError, match=rf"^sample file has more than {cap} rows$"):
                    load_samples(path)
            else:
                assert len(load_samples(path)) == rows
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound, peak


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


def mixed_energy_samples(beta0, n, seed):
    """As :func:`noisy_samples`, but each sample's delta_E is drawn from 0.5 to 2.0."""
    rng = np.random.default_rng(seed)
    spreads = rng.uniform(0.5, 2.0, n).tolist()
    return [sample for u, delta_E in zip(np.linspace(-0.8, 0.8, n), spreads)
            for sample in synth_collapse_samples(beta0, [u], delta_E, sigma=0.01, rng=rng)]


FIT_CASES = {
    "golden-181x17": lambda: (load_samples(DATA / "collapse_samples_beta03.csv"), GRID_001),
    "181x100": lambda: (noisy_samples(0.3, 100, 42), GRID_001),  # criterion 9's size
    # Each sample's delta_E differs, so the delta_E^2 normalization shows in every residual.
    "mixed-energy-181x100": lambda: (mixed_energy_samples(0.3, 100, 100), GRID_001),
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
    def test_counts_match_the_cell_by_cell_fit(self, case):
        samples, grid = FIT_CASES[case]()
        _, got = estimate_absolute_frame(samples, grid[:3])
        want = unchunked_fit(samples, grid[:3])
        assert (got.n_samples, got.distinct_velocities) == (want.n_samples,
                                                            want.distinct_velocities)

    @pytest.mark.parametrize("path", [DATA / "collapse_samples_beta03.csv", "large"])
    def test_columns_fit_bit_for_bit_as_their_rows(self, tmp_path, path):
        if path == "large":
            path = tmp_path / "large.csv"
            spreads = np.random.default_rng(7).uniform(0.5, 2.0, 2000)
            path.write_text("delta_E,lab_beta,t_c,sigma\n" + "".join(
                f"{d!r},{s.beta!r},{s.t_c / (d * d)!r},{0.01 * s.t_c!r}\n"
                for d, s in zip(spreads.tolist(), noisy_samples(-0.2, 2000, 2000))),
                encoding="utf-8")
        columns = load_samples(path)
        assert estimate_absolute_frame(columns, GRID_0001) == estimate_absolute_frame(
            list(columns), GRID_0001)

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
