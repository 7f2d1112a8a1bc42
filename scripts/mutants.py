#!/usr/bin/env python3
"""Mutation gate: every catalogued slip in the source must fail the tests named for it.

Each catalogue entry is one exact substitution (file, old text, new text)
plus the pytest node ids that must kill it.  The script first checks that
every old text occurs exactly once and that all named tests pass on an
unmutated copy of the tree.  Then, for each entry, it copies the tree to a
fresh temporary directory, applies the substitution and runs the entry's
tests with pytest in a subprocess; they must report a failure (pytest exit
status 1).  A surviving mutant is a check that cannot see the slip: make the
test stronger, or explain why the mutant is equivalent, but do not drop the
entry.  The one mutant that restores ``np.unique`` is equivalent on numpy
before 2.3, whose ``np.unique`` loads no ``numpy.ma``, and is skipped there.
Standard library only:

    python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts")

KINEMATICS = "src/synchrony_lab/kinematics.py"
SYNCSIM = "src/synchrony_lab/syncsim.py"
PROBE = "src/synchrony_lab/probe.py"
CLI = "src/synchrony_lab/cli.py"

FIT_ORACLE = "tests/test_probe.py::TestFitKernel::test_fit_matches_the_50_digit_oracle"
EDGE_DIGITS = ("tests/test_syncsim.py::TestDigitsNearTheSpeedOfLight::"
               "test_within_a_few_ulps_of_the_oracles[edge]")
REJECTED = "tests/test_probe.py::TestSampleIO::test_rejected_files_name_the_first_bad_line"
NUMPY_REFUSED = ("tests/test_probe.py::TestSampleIO::"
                 "test_numeric_files_numpy_refuses_end_as_the_csv_reader_ends_them")
LOADS_ONLY = "tests/test_package.py::test_each_command_loads_only_the_layer_and_format_it_runs"
IMPORT_LOADS = ("tests/test_package.py::"
                "test_importing_the_cli_loads_no_module_its_cold_start_does_not_run")
EMPTY_PATH = "test_empty_path_is_a_missing_file_not_the_current_directory"
CAUSAL = "tests/test_causal_order.py"
DISTINCT = ("tests/test_probe.py::TestEstimator::"
            "test_distinct_velocities_are_counted_as_np_unique_counts_them")
FAST_READER = ("tests/test_cli_reader.py::"
               "test_the_fast_reader_returns_none_or_the_argparse_namespace")
FIRST_FIT = ("tests/test_package.py::"
             "test_a_first_fit_loads_no_numpy_module_a_bare_numpy_import_does_not")
REPLAY = "tests/test_syncsim.py::TestProtocolReplay::"
ANY_REPLAY = f"{REPLAY}test_any_lattice_matches_a_propagate_replay"
FIRST_READ = f"{REPLAY}test_the_log_is_the_same_whenever_it_is_first_read"
FAILED_RUN = ("tests/test_syncsim.py::TestProtocols::"
              "test_a_failed_run_leaves_the_lattice_unsynchronized")
KERNEL = ("tests/test_syncsim.py::TestProtocols::"
          "test_an_ordered_lattice_is_synchronized_without_the_kernel")
#: np.unique imports numpy.ma from numpy 2.3 on; before, this mutant is equivalent.
NUMPY_MA_MUTANT = "first fit imports numpy.ma"
ROUND_TRIPS = ("tests/test_kinematics.py::TestTransformCoeffs::"
               "test_an_invertible_map_whose_determinant_over_or_underflows_round_trips")
SCALE_SINGULAR = ("tests/test_kinematics.py::TestTransformCoeffs::"
                  "test_a_singular_map_is_refused_at_any_scale")
REFUSED = ("tests/test_number_rule.py::"
           "test_bools_non_numbers_and_ints_past_the_float_range_are_refused")
NEAR_EDGE = ("tests/test_kinematics.py::TestDigitsNearTheEdge::"
             "test_every_entry_is_within_a_few_ulps_of_the_oracle")
FRAME_MAPS = ["tests/test_acceptance.py::test_criterion_07_groupoid_closure",
              "tests/test_kinematics.py::TestFrameMapsMatchTheDecimalOracle"]

#: (name, file, old text, new text, tests that must fail)
CATALOGUE = (
    ("lattice frame moves at +drift", SYNCSIM,
     'FrameSpec(-drift, 0.0, "lab")', 'FrameSpec(drift, 0.0, "lab")',
     ["tests/test_syncsim.py::TestMeasurements::"
      "test_superluminal_sync_measures_anisotropic_light"]),
    ("signal kernel flips the lattice velocity", SYNCSIM,
     "    x_emit = x_from + u * t_emit\n", "    u = -u\n    x_emit = x_from + u * t_emit\n",
     ["tests/test_syncsim.py::TestPropagate::test_drift_shortens_downwind_flight"]),
    ("rest length divides by the rate", SYNCSIM,
     "distance = (1.0 / rate) * abs(x_to - x_from)", "distance = abs(x_to - x_from) / rate",
     ["tests/test_sync_digest.py"]),
    ("finiteness fallback raises for finite components", SYNCSIM,
     "        Event(t_emit, x_emit)  # raises, naming the first non-finite component\n"
     "        Event(t_abs, x_abs)\n",
     "        raise ValueError(\"event coordinates overflow\")\n",
     ["tests/test_syncsim.py::TestSignalLog::"
      "test_finite_coordinates_whose_sum_overflows_are_logged"]),
    ("realized k set before the exchange", SYNCSIM,
     "    lattice._frame = FrameSpec(b, 0.0, label)\n",
     "    lattice._frame = FrameSpec(b, 0.0 if protocol == EINSTEIN"
     " else induced_synchrony(0.0, b), label)\n",
     [FAILED_RUN]),
    ("speed rule only for superluminal-finite signals", SYNCSIM,
     "    if speed is not None or kind == SUPERLUMINAL_FINITE:\n        if not (_is_finite",
     "    if kind == SUPERLUMINAL_FINITE:\n        if not (_is_finite",
     ["tests/test_syncsim.py::TestCheckOrder::test_first_broken_rule_is_reported"]),
    ("scan drifts at +beta", SYNCSIM,
     "b, rows = -beta, []", "b, rows = beta, []",
     ["tests/test_syncsim.py::TestIsotropyScan"]),
    ("scan offsets (0, rate)", SYNCSIM,
     "        rate = _rate(b)\n", "        rate = _rate(b)\n        offsets = (0.0, rate)\n",
     ["tests/test_syncsim.py::TestIsotropyScan"]),
    ("clock rate radicand 1 - b*b", KINEMATICS,
     "math.sqrt((1.0 - b) * (1.0 + b))", "math.sqrt(1.0 - b * b)",
     [EDGE_DIGITS]),
    ("eta takes no exact factors near the edge", KINEMATICS,
     "        p, e = _two_product(beta, k)\n"
     "        disc = math.fsum((1.0, -beta, p, e)) * math.fsum((1.0, beta, p, e))\n", "",
     [NEAR_EDGE, "tests/test_cli.py::TestTransformCommand::"
      "test_determinant_rounding_to_zero_is_not_an_error"]),
    ("eta's two-product drops its error term", KINEMATICS,
     "    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo\n",
     "    return p, 0.0\n",
     [NEAR_EDGE]),
    ("eta radicand (1 + beta*k)**2 - beta**2", KINEMATICS,
     "    a = 1.0 + beta * k\n    disc = (a - beta) * (a + beta)",
     "    disc = (1.0 + beta * k) ** 2 - beta**2",
     ["tests/test_syncsim.py::TestDigitsNearTheSpeedOfLight::test_inverse_rate_is_eta_at_k_zero"]),
    ("frame-to-frame a_xt = 2(b_to - b_from)", KINEMATICS,
     "2.0 * (b_from - b_to)", "2.0 * (b_to - b_from)", FRAME_MAPS),
    ("frame-to-frame m = (1 + b_to)(1 - b_from)", KINEMATICS,
     "m, p = (1.0 - b_to) * (1.0 + b_from)", "m, p = (1.0 + b_to) * (1.0 - b_from)", FRAME_MAPS),
    ("superluminal transform induces k' = +beta", KINEMATICS,
     "_induced(0.0, beta)), e", "_induced(0.0, -beta)), e",
     ["tests/test_kinematics.py::TestSuperluminalTransform"]),
    ("collapse time radicand 1 - beta*beta", KINEMATICS,
     "math.sqrt((1.0 - b) * (1.0 + b))", "math.sqrt(1.0 - b * b)",
     ["tests/test_probe.py::TestCollapseTime"]),
    ("probe curve d1 = n1 + b*p12", PROBE,
     "d1, d2 = n1 - grid * p12", "d1, d2 = n1 + grid * p12",
     [f"{FIT_ORACLE}[one-sided-181x60]"]),
    ("one Gram-Schmidt pass", PROBE,
     "for _ in range(2):", "for _ in range(1):",
     [f"{FIT_ORACLE}[clustered-181x50]"]),
    ("minimizer denominator c1*n2 - c2*p12", PROBE,
     "(c2 * p12 - c1 * n2)", "(c1 * n2 - c2 * p12)",
     [f"{FIT_ORACLE}[golden-181x17]"]),
    ("minimizer drops p12", PROBE,
     "(c2 * p12 - c1 * n2)", "(-c1 * n2)",
     [f"{FIT_ORACLE}[one-sided-181x60]"]),
    ("sample rows longer than the header accepted", PROBE,
     "            if len(row) > len(header):\n"
     "                raise ValueError(\"row has more fields than the header\")\n", "",
     ["tests/test_probe.py::TestSampleIO::test_row_longer_than_the_header_is_rejected",
      "tests/test_cli.py::TestProbeCommand::test_row_longer_than_the_header_exits_3"]),
    ("row rule skips the short-row check", PROBE,
     "            if short := [c for c in _REQUIRED if index[c] >= len(row)]:\n"
     "                raise ValueError(f\"row ends before column {short[0]}\")\n", "",
     [f"{REJECTED}[first-required-column-named]",
      "tests/test_cli.py::TestProbeCommand::test_bad_sample_names_its_physical_line[short-row]"]),
    ("header index keeps the first repeated column", PROBE,
     "{name: i for i, name in enumerate(header)}",
     "{name: i for i, name in reversed(list(enumerate(header)))}",
     ["tests/test_probe.py::TestSampleIO::test_accepted_files[repeated-column-uses-the-last]",
      f"{REJECTED}[repeated-column-short]"]),
    ("list path swaps delta_E and beta", PROBE,
     "for f in fields[:3])", "for f in (fields[1], fields[0], fields[2]))",
     ["tests/test_probe.py::TestFitKernel::test_columns_fit_bit_for_bit_as_their_rows"]),
    ("list path lets rows of one other width through", PROBE,
     "        if width != 4:", "        if False:",
     ["tests/test_probe.py::TestEstimator::test_rows_of_one_other_width_name_the_four_fields"]),
    ("list path cuts rows of mixed widths to the shortest", PROBE,
     "zip(*rows, strict=True)", "zip(*rows)",
     ["tests/test_probe.py::TestEstimator::test_a_row_of_another_width_is_refused_not_fitted"]),
    ("C reader drops the sigma predicate", PROBE,
     "\n            & (blank | positive(sigma))", "",
     ["tests/test_probe.py::TestSampleIO::test_bad_sigma_reports_line",
      "tests/test_cli.py::TestProbeCommand::test_bad_sigma_exits_3"]),
    ("plain C run counts a NaN sigma as blank", PROBE,
     "_check(*columns, sigma is None, np)", "_check(*columns, np.isnan(columns[3]), np)",
     ["tests/test_probe.py::TestSampleIO::test_bad_sigma_reports_line"]),
    ("row cap read one row short", PROBE,
     "enumerate(filter(None, reader), 1)", "enumerate(filter(None, reader), 2)",
     ["tests/test_probe.py::TestSampleIO::test_row_cap_is_exact"]),
    ("row reader never checks the cap", PROBE,
     "        if n > MAX_SAMPLE_ROWS:\n"
     "            raise ValueError(f\"sample file has more than {MAX_SAMPLE_ROWS} rows\")\n", "",
     ["tests/test_probe.py::TestSampleIO::test_row_cap_stops_reading_before_the_rows_are_held"]),
    ("row cap reads two rows past it", PROBE,
     "if n > MAX_SAMPLE_ROWS:", "if n > MAX_SAMPLE_ROWS + 1:",
     ["tests/test_probe.py::TestSampleIO::test_row_cap_reads_at_most_one_row_past_it"]),
    ("row cap one row early", PROBE,
     "if n > MAX_SAMPLE_ROWS:", "if n >= MAX_SAMPLE_ROWS:",
     ["tests/test_probe.py::TestSampleIO::test_row_cap_is_exact"]),
    ("column fit drops the square of delta_E", PROBE,
     "t_c * (delta_E * delta_E)", "t_c * delta_E",
     ["tests/test_probe.py::TestEstimator::test_mixed_energy_spreads_are_normalized"]),
    ("fit oracle case drops the square of delta_E", PROBE,
     "t_c * (delta_E * delta_E)", "t_c * delta_E",
     [f"{FIT_ORACLE}[mixed-energy-181x100]"]),
    ("checked values allow tuple repetition", KINEMATICS,
     "__add__ = __radd__ = __mul__ = __rmul__ = _refuse", "__add__ = __radd__ = __rmul__ = _refuse",
     ["tests/test_records.py::test_checked_records_refuse_tuple_algebra"]),
    ("event constructor skips the finiteness check", KINEMATICS,
     "        if not (isinstance(t, float) and isinstance(x, float) and isinstance(y, float)\n"
     "                and isinstance(z, float) and math.isfinite(t + x + y + z)):"
     "  # only if each is\n            for name, value in zip(\"txyz\", (t, x, y, z)):\n"
     "                if not math.isfinite("
     "_floats((value,), f\"event component {name}\")[0]):\n"
     "                    raise ValueError(f\"event component {name} must be finite\")\n", "",
     ["tests/test_records.py::test_each_bad_field_raises_its_message_in_check_order"]),
    ("event _replace skips the checks", KINEMATICS,
     "    def _make(cls, iterable):\n", "    def _unused(cls, iterable):\n",
     ["tests/test_records.py::test_make_and_replace_run_the_checks"]),
    ("boost kernel checks its determinant", KINEMATICS,
     "    return (h * (1.0 + beta * (k + k_prime)),",
     "    return TransformCoeffs(h * (1.0 + beta * (k + k_prime)),",
     ["tests/test_kinematics.py::TestLibraryMapsAreNotCheckedForSingularity::"
      "test_no_valid_convention_near_the_edge_is_called_singular"]),
    ("coefficient constructor takes non-finite entries", KINEMATICS,
     "        if not all(map(math.isfinite, _floats(m, \"transform coefficients\"))):\n"
     "            raise ValueError(\"transform coefficients must be finite\")\n",
     "        _floats(m, \"transform coefficients\")\n",
     ["tests/test_records.py::test_each_bad_field_raises_its_message_in_check_order"]),
    ("coefficient finiteness read off the sum of the entries", KINEMATICS,
     "all(map(math.isfinite, _floats(m, \"transform coefficients\")))",
     "math.isfinite(sum(_floats(m, \"transform coefficients\")))",
     ["tests/test_kinematics.py::TestTransformCoeffs::"
      "test_finite_entries_whose_sum_overflows_are_accepted"]),
    ("coefficient singularity read off the plain determinant", KINEMATICS,
     "if not 0.0 < abs(m.determinant) < math.inf and _scaled(m)[1] == 0.0:",
     "if m.determinant == 0.0:",
     [f"{ROUND_TRIPS}[determinant-underflows]", f"{SCALE_SINGULAR}[overflows]"]),
    ("inverse divides by an overflowed determinant", KINEMATICS,
     "        if 0.0 < abs(d) < math.inf:\n", "        if d:\n",
     [f"{ROUND_TRIPS}[determinant-overflows]"]),
    ("inverse divides by a zero determinant", KINEMATICS,
     "        if d == 0.0:\n            raise ValueError(_SINGULAR)\n", "",
     ["tests/test_kinematics.py::TestLibraryMapsAreNotCheckedForSingularity::"
      "test_inverse_refuses_a_determinant_that_rounds_to_zero"]),
    ("probe reads the samples before it checks the grid", CLI,
     "    grid = _grid(args.beta_min, args.beta_max, args.step)  # before the file: it is cheap\n"
     "    samples = probe.load_samples(args.samples)\n",
     "    samples = probe.load_samples(args.samples)\n"
     "    grid = _grid(args.beta_min, args.beta_max, args.step)\n",
     ["tests/test_cli.py::TestProbeCommand::"
      "test_bad_grid_exits_3_before_the_sample_file_is_read"]),
    ("product goes through the checked constructor", KINEMATICS,
     "        return tuple.__new__(TransformCoeffs, (\n            o_tt * i_tt",
     "        return TransformCoeffs._make((\n            o_tt * i_tt",
     ["tests/test_kinematics.py::TestLibraryMapsAreNotCheckedForSingularity::"
      "test_a_product_is_not_checked_for_singularity"]),
    ("list path skips the checks of plain rows", PROBE,
     "        if set(map(type, rows)) - {CollapseSample}:", "        if False:",
     ["tests/test_probe.py::TestEstimator::test_plain_rows_pass_the_sample_checks"]),
    ("C reader skips the value checks", PROBE,
     "        _check(*columns, sigma is None, np)\n", "",
     [f"{NUMPY_REFUSED}[t-c-negative-on-line-7]", f"{NUMPY_REFUSED}[nan-sigma]"]),
    ("C reader accepts another width", PROBE,
     " or table.shape[1] != len(header):", ":",
     [f"{NUMPY_REFUSED}[every-row-one-field-wider]"]),
    ("C reader takes columns by position", PROBE,
     "[table[:, index[c]].copy() for c in _REQUIRED]",
     "[table[:, i].copy() for i, c in enumerate(_REQUIRED)]",
     ["tests/test_probe.py::TestSampleIO::test_numpy_reads_numeric_files_bit_for_bit_as_csv"]),
    ("C reader ignores the cap", PROBE,
     "max_rows = min(MAX_SAMPLE_ROWS + 1, os.fstat(fh.fileno()).st_size",
     "max_rows = (os.fstat(fh.fileno()).st_size",
     ["tests/test_probe.py::TestSampleIO::test_row_cap_is_exact_for_numeric_files"]),
    ("C reader allocates rows for the whole cap", PROBE,
     "min(MAX_SAMPLE_ROWS + 1, os.fstat(", "max(MAX_SAMPLE_ROWS + 1, os.fstat(",
     ["tests/test_probe.py::TestSampleIO::"
      "test_numpy_reader_holds_no_more_than_the_file_or_the_cap[small-file]"]),
    ("C reader reads a pipe it cannot read again", PROBE,
     "            if fh.seekable():  # a pipe could not be read again\n", "            if True:\n",
     ["tests/test_probe.py::TestSampleIO::test_a_pipe_goes_to_the_csv_reader_alone"]),
    ("C reader lets its warnings through", PROBE,
     '            warnings.simplefilter("ignore", UserWarning)\n', "",
     ["tests/test_cli.py::TestProbeCommand::test_numeric_files_warn_nothing_under_w_error"]),
    ("minimizer always used", PROBE,
     "refined = bool(grid.min() <= b_star <= grid.max())", "refined = True",
     ["tests/test_probe.py::TestFitKernel::test_clustered_fit_falls_back_to_the_grid_argmin"]),
    ("cli loads the clock simulator at import", CLI,
     "from . import kinematics\n", "from . import kinematics, syncsim\n",
     [IMPORT_LOADS, f"{LOADS_ONLY}[oneway_k06]", f"{LOADS_ONLY}[probe_beta03]"]),
    ("CLI protocol choices lose one", CLI,
     'PROTOCOLS = ("einstein", "superluminal", "external-regulation")',
     'PROTOCOLS = ("einstein", "superluminal")',
     ["tests/test_cli.py::TestUsageErrors::test_protocol_choices_are_the_simulators_protocols",
      "tests/test_cli.py::TestUsageErrors::test_unknown_protocol_names_the_three_choices"]),
    ("cli loads csv for every format", CLI,
     "import io\nimport math\n", "import csv\nimport io\nimport math\n",
     [IMPORT_LOADS, f"{LOADS_ONLY}[transform_lorentz_rest]",
      f"{LOADS_ONLY}[sync_drift06_superluminal]"]),
    ("empty path opens the current directory", SYNCSIM,
     "open(os.fspath(path)", "open(os.path.normpath(path)",
     [f"tests/test_cli.py::TestSyncCommand::{EMPTY_PATH}"]),
    ("empty sample path opens the current directory", PROBE,
     "open(os.fspath(path)", "open(os.path.normpath(path)",
     [f"tests/test_cli.py::TestProbeCommand::{EMPTY_PATH}"]),
    ("a_tx's terms rounded apart", KINEMATICS,
     "(m * ((1.0 + k_from) * (1.0 - k_to))\n             - p * ((1.0 - k_from) * (1.0 + k_to)))",
     "(m * (1.0 + k_from) * (1.0 - k_to)\n             - p * (1.0 - k_from) * (1.0 + k_to))",
     ["tests/test_kinematics.py::TestMapVelocity::"
      "test_instantaneous_stays_instantaneous_between_superluminal_frames",
      f"{CAUSAL}::TestSuperluminalRelay::test_no_chain_returns_before_it_left"]),
    ("plain rows coerced instead of checked", PROBE,
     "CollapseSample(*row)  # the first", "CollapseSample(*map(float, row[:3]), row[3])  # the first",
     ["tests/test_probe.py::TestEstimator::test_plain_rows_of_numeric_strings_are_refused"]),
    ("zero-delay signals induce no synchrony", KINEMATICS,
     "    return beta * (k * k - 1.0) + k\n", "    return k\n",
     [f"{CAUSAL}::TestSuperluminalRelay::test_the_reply_is_instantaneous_in_a_and_returns_at_zero",
      f"{CAUSAL}::TestLatticeChart::"
      "test_superluminal_signals_are_instantaneous_in_the_lattice_chart"]),
    ("frame-to-frame a_tx with its sign flipped", KINEMATICS,
     "            (m * ((1.0 + k_from)", "            -(m * ((1.0 + k_from)",
     [f"{CAUSAL}::TestEinsteinRelay"]),
    ("distinct velocities counted from equal neighbours", PROBE,
     "np.count_nonzero(s[1:] != s[:-1])", "np.count_nonzero(s[1:] == s[:-1])", [DISTINCT]),
    ("distinct count drops the first velocity", PROBE,
     " + (s.size > 0)\n", "\n", [DISTINCT]),
    # Killed on numpy 2.3 or later only, where np.unique imports numpy.ma;
    # main() skips it on an older numpy.
    (NUMPY_MA_MUTANT, PROBE,
     "    s = np.sort(u)  # not np.unique, which imports numpy.ma on numpy >= 2.3\n"
     "    distinct = np.count_nonzero(s[1:] != s[:-1]) + (s.size > 0)\n",
     "    distinct = np.unique(u).size\n",
     [f"{FIRST_FIT}[probe_beta03]", f"{FIRST_FIT}[list_input]"]),
    ("fast reader takes a flag-like value", CLI,
     "        elif text.startswith(\"-\") and not _NEGATIVE_NUMBER.match(text):\n"
     "            return None\n", "",
     [FAST_READER]),
    ("fast reader skips the required-flag check", CLI,
     "            if required:\n                return None\n", "",
     [FAST_READER, "tests/test_cli.py::TestUsageErrors::test_one_usage_error_line_exit_2"]),
    ("cli imports argparse at load", CLI,
     "import math\nimport os\n", "import argparse\nimport math\nimport os\n",
     [IMPORT_LOADS, f"{LOADS_ONLY}[oneway_k06]"]),
    ("sample fields take a bool as a number", PROBE,
     "            if not _is_number(value):",
     "            if not isinstance(value, (int, float)):",
     ["tests/test_probe.py::TestCollapseTime::test_a_bool_is_not_a_number"]),
    ("exchange side speeds swapped", SYNCSIM,
     "for first, xs, w in ((0, p[:m], -C), (m + 1, p[m + 1:], C)):",
     "for first, xs, w in ((0, p[:m], C), (m + 1, p[m + 1:], -C)):",
     [KERNEL]),
    ("exchange takes every light side as sound", SYNCSIM,
     "        if not ((near - x_m) / d_out > 0.0", "        if False and not ((near - x_m) / d_out > 0.0",
     [ANY_REPLAY, f"{KERNEL}[refused]"]),
    ("a sent side emits its return leg at time 0", SYNCSIM,
     "_signal(rows, LIGHT, u, C, x, x_m, dt, m)", "_signal(rows, LIGHT, u, C, x, x_m, 0.0, m)",
     [ANY_REPLAY, f"{KERNEL}[refused]"]),
    ("a bounded side's offsets subtract rate * d_out, not rate * dt", SYNCSIM,
     "/ d_back)) - rate * dt", "/ d_back)) - rate * d_out",
     [ANY_REPLAY, f"{KERNEL}[0.6-einstein]"]),
    ("exchange bounds a side from its nearest and farthest slaves swapped", SYNCSIM,
     "        near, far = (xs[0], xs[-1]) if w > 0.0", "        far, near = (xs[0], xs[-1]) if w > 0.0",
     [ANY_REPLAY]),
    ("exchange bound ignores the lattice velocity", SYNCSIM,
     "(abs(far - x_m) / (1.0 - abs(u)))", "(abs(far - x_m) / 1.0)",
     [ANY_REPLAY]),
    ("lattice finiteness shortcut inverted", SYNCSIM,
     "if not math.isfinite(sum(positions)) and not all(",
     "if math.isfinite(sum(positions)) and not all(",
     ["tests/test_syncsim.py::TestBuild::test_non_finite_positions_are_rejected"]),
    ("lattice drift checked as the frame's beta", SYNCSIM,
     "        _check_beta(drift)\n", "",
     ["tests/test_syncsim.py::TestBuild::test_a_drift_out_of_range_is_named_as_given"]),
    ("scan checks the frame's beta, not the drift", SYNCSIM,
     "        _check_beta(beta)  # the drift as given", "        _check_beta(-beta)  # the drift",
     ["tests/test_syncsim.py::TestBuild::test_a_drift_out_of_range_is_named_as_given"]),
    ("lattice positions coerced, not checked", SYNCSIM,
     '_floats(positions, "node positions")', "tuple(map(float, positions))",
     ["tests/test_syncsim.py::TestBuild::test_bools_non_numbers_and_huge_ints_are_refused"]),
    ("scan drifts coerced, not checked", SYNCSIM,
     'for beta in _floats(betas, "drift"):', "for beta in map(float, betas):",
     ["tests/test_syncsim.py::TestIsotropyScan::"
      "test_bools_strings_and_huge_ints_are_refused_not_coerced"]),
    ("number rule takes a bool", KINEMATICS,
     "    return isinstance(value, (int, float)) and not isinstance(value, bool)\n",
     "    return isinstance(value, (int, float))\n",
     [f"{REFUSED}[CollapseSample.beta]", "tests/test_probe.py::TestCollapseTime::"
      "test_a_bool_is_not_a_number"]),
    ("beta's float fast path takes |beta| = 1", KINEMATICS,
     "beta > -1.0 and beta < 1.0", "beta >= -1.0 and beta <= 1.0",
     ["tests/test_records.py::test_each_bad_field_raises_its_message_in_check_order"]),
    ("event fast path skips the type checks", KINEMATICS,
     "        if not (isinstance(t, float) and isinstance(x, float) and isinstance(y, float)\n"
     "                and isinstance(z, float) and math.isfinite(",
     "        if not (math.isfinite(",
     [f"{REFUSED}[Event.t]", f"{REFUSED}[Event.z]"]),
    ("fit grid coerced by numpy, not checked", PROBE,
     'beta_grid = _floats(beta_grid, "beta_grid")',
     "beta_grid = tuple(np.asarray(list(beta_grid), dtype=float).tolist())",
     [f"{REFUSED}[estimate_absolute_frame.beta_grid]"]),
    ("lattice constructor keeps positions as given", SYNCSIM,
     '        positions = _floats(positions, "node positions")\n', "",
     ["tests/test_number_rule.py::"
      "test_the_lattice_constructor_refuses_bools_and_keeps_a_tuple_of_floats",
      f"{REFUSED}[ClockLattice.positions]"]),
    ("lattice constructor takes any frame", SYNCSIM,
     "        if not isinstance(frame, FrameSpec):\n"
     "            raise TypeError(f\"lattice frame must be a FrameSpec, "
     "not {type(frame).__name__}\")\n", "",
     ["tests/test_syncsim.py::TestProtocols::test_a_lattice_frame_must_be_a_frame_spec"]),
    ("lattice constructor takes a synchronized frame", SYNCSIM,
     "        if frame.k != 0.0:\n", "        if False:\n",
     ["tests/test_syncsim.py::TestProtocols::test_a_new_lattice_is_not_synchronized"]),
    ("lattice frame made writable again", SYNCSIM,
     'frame = property(operator.attrgetter("_frame"),',
     'frame = property(operator.attrgetter("_frame"), lambda lat, f: setattr(lat, "_frame", f),',
     ["tests/test_syncsim.py::TestBuild::test_protocol_state_is_set_only_by_a_protocol_run"]),
    ("lattice offsets handed out as the stored list", SYNCSIM,
     "offsets = property(lambda self: self._offsets.copy(),",
     'offsets = property(operator.attrgetter("_offsets"),',
     ["tests/test_syncsim.py::TestBuild::test_the_offsets_and_log_read_are_copies"]),
    ("lattice log handed out as the stored list", SYNCSIM,
     "        return log.copy()\n", "        return log\n",
     ["tests/test_syncsim.py::TestBuild::test_the_offsets_and_log_read_are_copies"]),
    ("log read returns deferred entries unexpanded", SYNCSIM,
     "        if self._deferred:  # send", "        if False:  # send",
     [f"{REPLAY}test_rows_and_offsets_match_a_propagate_replay", FIRST_READ]),
    ("deferred rows expanded after the eager ones", SYNCSIM,
     "log[i:i + 1] = rows", "del log[i]; log += rows",
     [FAILED_RUN, FIRST_READ]),
    ("lattice positions made writable again", SYNCSIM,
     'property(operator.attrgetter("_positions"),',
     'property(operator.attrgetter("_positions"), lambda lat, p: setattr(lat, "_positions", p),',
     ["tests/test_syncsim.py::TestBuild::test_positions_are_fixed_when_the_lattice_is_built"]),
    ("scenario reader keeps a repeated key's last value", SYNCSIM,
     "json.load(fh, object_pairs_hook=_object)", "json.load(fh)",
     ["tests/test_cli.py::TestSyncCommand::test_a_repeated_key_exits_3"]),
    ("grid order unchecked", CLI,
     "    if hi < lo:\n", "    if False:\n",
     ["tests/test_cli.py::TestScanCommand::test_grid_maximum_below_its_minimum_exits_3"]),
)


def copy_tree(dest: Path) -> Path:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in COPIED:
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    return dest


def run_pytest(tree: Path, tests, *options) -> int:
    """pytest's exit status on ``tests`` in ``tree``, importing the package from its src/."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *options, *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def main() -> int:
    started = time.perf_counter()
    for name, path, old, _, _ in CATALOGUE:
        count = (ROOT / path).read_text(encoding="utf-8").count(old)
        if count != 1:
            print(f"mutant {name!r}: old text occurs {count} times in {path}, expected once")
            return 2

    every_test = sorted({test for *_, tests in CATALOGUE for test in tests})
    with tempfile.TemporaryDirectory() as tmp:
        status = run_pytest(copy_tree(Path(tmp)), every_test)
    if status != 0:
        print(f"the named tests do not pass on the unmutated tree (pytest exit {status})")
        return 2

    numpy = version("numpy")
    skipped = {NUMPY_MA_MUTANT} if tuple(map(int, numpy.split(".")[:2])) < (2, 3) else set()
    survivors = 0
    for name, path, old, new, tests in CATALOGUE:
        if name in skipped:
            print(f"{'skipped':>8}  {name} (numpy {numpy}: np.unique loads no numpy.ma)")
            continue
        with tempfile.TemporaryDirectory() as tmp:
            tree = copy_tree(Path(tmp))
            source = tree / path
            source.write_text(source.read_text(encoding="utf-8").replace(old, new),
                              encoding="utf-8")
            status = run_pytest(tree, tests, "-x")
        verdict = "killed" if status == 1 else "SURVIVED" if status == 0 else f"error {status}"
        survivors += status != 1
        print(f"{verdict:>8}  {name}")

    elapsed = time.perf_counter() - started
    run = len(CATALOGUE) - len(skipped)
    print(f"{run - survivors} of {run} mutants killed in {elapsed:.1f} s"
          + (f", {len(skipped)} skipped" if skipped else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
