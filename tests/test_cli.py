from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from synchrony_lab import cli, probe, syncsim
from synchrony_lab.cli import Formatter

from conftest import run_cli

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
SRC = str(Path(__file__).resolve().parent.parent / "src")


def _limit_memory():
    # A regression that allocates a huge grid fails fast instead of exhausting memory.
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_cli_process(argv, *python_options, stdin=None):
    """Run the CLI as a fresh process (real stderr, warnings included), memory-capped.

    ``stdin``, if given, is text piped to the process's standard input.
    """
    proc = subprocess.run(
        [sys.executable, *python_options, "-m", "synchrony_lab.cli", *argv],
        # One BLAS thread: per-thread stacks would otherwise count against the cap.
        env={**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1",
             "OMP_NUM_THREADS": "1"},
        capture_output=True, text=True, input=stdin,
        timeout=60, preexec_fn=_limit_memory,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestFormatter:
    def test_significant_digits(self):
        fmt = Formatter(6)
        assert fmt.text(2.4999999999999996) == "2.5"
        assert fmt.text(1.0 / 3.0) == "0.333333"

    def test_negative_zero_normalized(self):
        assert Formatter(15).text(-0.0) == "0"
        assert Formatter(15).num(-0.0) == 0.0

    def test_infinities(self):
        fmt = Formatter(15)
        assert fmt.num(math.inf) == "inf"
        assert fmt.text(-math.inf) == "-inf"

    def test_finite_value_never_rounds_to_inf(self):
        assert Formatter(15).text(1.7976931348623151e308) == "1.7976931348623151e+308"
        assert Formatter(1).text(-1.5e308) == "-1.5e+308"
        assert Formatter(1).text(1.4e308) == "1e+308"


class TestTransformCommand:
    def test_zero_boost_identity(self):
        code, out, _ = run_cli(
            ["transform", "--preset", "lorentz", "--beta", "0", "--event", "1,0,0,0"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["image"]["t"] == 1.0
        assert payload["image"]["x"] == 0.0

    def test_superluminal_preset(self):
        code, out, _ = run_cli(
            ["transform", "--preset", "superluminal", "--beta", "0.6",
             "--event", "1,0,0,0"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["image"]["t"] == 0.8
        assert payload["coefficients"]["a_tx"] == 0.0

    def test_preset_equals_explicit_parameters(self):
        _, preset_out, _ = run_cli(
            ["transform", "--preset", "superluminal", "--beta", "0.6",
             "--event", "1,0,0,0"]
        )
        _, explicit_out, _ = run_cli(
            ["transform", "--beta", "0.6", "--k", "0", "--k-prime", "-0.6",
             "--event", "1,0,0,0"]
        )
        assert preset_out == explicit_out

    def test_degenerate_convention_exits_2(self):
        code, out, err = run_cli(
            ["transform", "--beta", "0.8", "--k", "-1", "--k-prime", "0",
             "--event", "1,0"]
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["degenerate_convention beta=0.8 k=-1.0"]

    def test_determinant_rounding_to_zero_is_not_an_error(self):
        # The boost's determinant is 1, but its float entries give exactly 0.0 here.
        # A 60-digit oracle gives a_tt = 71350832.76148487 and a_xt = -43042739.39305391.
        code, out, err = run_cli(
            ["transform", "--beta", "0.6626423856087286", "--k", "-0.509109621898638",
             "--k-prime", "0.6576740646065664", "--event", "1,0"]
        )
        assert (code, err) == (0, "")
        image = json.loads(out)["image"]
        assert (image["t"], image["x"]) == (71350832.7614848, -43042739.3930539)

    def test_bad_event_exits_3(self):
        code, _, err = run_cli(
            ["transform", "--beta", "0.1", "--event", "1,2,3,4,5"]
        )
        assert code == 3
        assert err.startswith("invalid_input ")

    def test_csv_format(self):
        code, out, _ = run_cli(
            ["transform", "--beta", "0.6", "--event", "0,1", "--format", "csv"]
        )
        assert code == 0
        header, row = out.splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert values["image_t"] == "-0.75"
        assert values["image_x"] == "1.25"

    def test_round_trip_composes_to_identity(self):
        # Boost, then boost with the inverse parameter triple; the printed
        # image of the second run is the original event.
        beta, k, kp = 0.6, 0.2, -0.3
        _, first, _ = run_cli(
            ["transform", "--beta", str(beta), "--k", str(k), "--k-prime", str(kp),
             "--event", "1.5,-2.5"]
        )
        image = json.loads(first)["image"]
        beta_back = -beta / (1.0 + beta * (k + kp))
        _, second, _ = run_cli(
            ["transform", "--beta", repr(beta_back), "--k", str(kp),
             "--k-prime", str(k), "--event", f"{image['t']!r},{image['x']!r}",
             "--precision", "12"]
        )
        back = json.loads(second)["image"]
        assert back["t"] == 1.5
        assert back["x"] == -2.5


class TestOnewayCommand:
    def test_values(self):
        code, out, _ = run_cli(["oneway", "--k", "0.6"])
        assert code == 0
        payload = json.loads(out)
        assert payload["c_plus"] == 2.5
        assert payload["c_minus"] == 0.625
        assert payload["two_way_mean"] == 1.0

    def test_instantaneous_direction_serializes(self):
        _, out, _ = run_cli(["oneway", "--k", "1"])
        assert json.loads(out)["c_plus"] == "inf"

    def test_si_display_scaling(self, monkeypatch):
        monkeypatch.setenv("SYNCHRONY_LAB_C", "299792458.0")
        _, out, _ = run_cli(["oneway", "--k", "0"])
        payload = json.loads(out)
        assert payload["c_plus"] == 299792458.0
        assert payload["two_way_mean"] == 299792458.0

    def test_bad_si_override(self, monkeypatch):
        monkeypatch.setenv("SYNCHRONY_LAB_C", "fast")
        code, _, err = run_cli(["oneway", "--k", "0"])
        assert code == 3
        assert err.startswith("invalid_input ")


class TestSpeedScaling:
    @pytest.mark.parametrize("argv", [
        ["oneway", "--k", "0.6"],
        ["sync", "--scenario", str(DATA / "scenario_drift06.json"), "--format", "csv"],
        ["scan", "--beta-min", "-0.5", "--beta-max", "0.5", "--step", "0.25"],
    ])
    def test_finite_speed_overflowing_the_scale_exits_3(self, argv, monkeypatch):
        monkeypatch.setenv("SYNCHRONY_LAB_C", "1e308")
        assert run_cli(argv) == (
            3, "", "invalid_input reason=speed_overflows_when_scaled_by_SYNCHRONY_LAB_C\n")

    def test_infinite_speed_still_prints_inf(self, monkeypatch):
        monkeypatch.setenv("SYNCHRONY_LAB_C", "1e308")
        code, out, _ = run_cli(["oneway", "--k", "1"])
        assert code == 0
        assert json.loads(out)["c_plus"] == "inf"


class TestSyncCommand:
    def test_rest_einstein_all_speeds_unity(self):
        code, out, _ = run_cli(["sync", "--scenario", str(DATA / "scenario_rest.json")])
        assert code == 0
        payload = json.loads(out)
        one_way = [m for m in payload["measurements"] if m["direction"] in ("+x", "-x")
                   and m["kind"] == "light"]
        assert one_way and all(m["speed"] == 1.0 for m in one_way)

    def test_drift_superluminal_anisotropy(self):
        _, out, _ = run_cli(["sync", "--scenario", str(DATA / "scenario_drift06.json")])
        payload = json.loads(out)
        speeds = {(m["from"], m["to"]): m["speed"] for m in payload["measurements"]
                  if m["kind"] == "light" and m["direction"] != "two-way"}
        assert math.isclose(speeds[(0, 1)], 2.5, abs_tol=1e-9)
        assert math.isclose(speeds[(1, 0)], 0.625, abs_tol=1e-9)

    def test_protocol_override_matches_superluminal_bytes(self):
        _, a, _ = run_cli(["sync", "--scenario", str(DATA / "scenario_drift06.json"),
                           "--protocol", "superluminal"])
        _, b, _ = run_cli(["sync", "--scenario", str(DATA / "scenario_drift06.json"),
                           "--protocol", "external-regulation"])
        assert json.loads(a)["offsets"] == json.loads(b)["offsets"]

    def test_invalid_scenario_exits_3_naming_invariant(self):
        code, _, err = run_cli(
            ["sync", "--scenario", str(DATA / "scenario_bad_positions.json")]
        )
        assert code == 3
        assert err.splitlines() == [
            "scenario_invalid invariant=strictly_increasing_positions field=node_positions"
        ]

    def test_unreachable_signal_exits_3(self, tmp_path):
        # A finite-speed signal slower than the receding target never arrives.
        scenario = tmp_path / "unreachable.json"
        scenario.write_text(json.dumps({
            "beta": 0.6, "node_positions": [0.0, 1.0], "protocol": "superluminal",
            "signals": [{"from": 1, "to": 0, "kind": "superluminal-finite", "speed": 0.5}],
        }))
        code, out, err = run_cli(["sync", "--scenario", str(scenario)])
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("invalid_input reason=")

    @pytest.mark.parametrize("positions, protocol, signals", [
        ([-1e308, 1e308], "einstein", []),  # the gap itself overflows
        ([0.0, 1e308], "superluminal", [{"from": 0, "to": 1, "two_way": True}]),  # the return
    ])
    def test_overflowing_signal_exits_3(self, tmp_path, positions, protocol, signals):
        scenario = tmp_path / "overflow.json"
        scenario.write_text(json.dumps({
            "beta": 0.6, "node_positions": positions, "protocol": protocol, "signals": signals,
        }))
        code, out, err = run_cli(["sync", "--scenario", str(scenario)])
        assert (code, out) == (3, "")
        assert err.splitlines() == ["invalid_input reason=event_component_t_must_be_finite"]

    HUGE = 10**400  # a JSON integer too large for a float

    @pytest.mark.parametrize("patch, invariant, field", [
        ({"beta": HUGE}, "abs_beta_lt_1", "beta"),
        ({"node_positions": [0.0, HUGE]}, "positions_finite_numbers", "node_positions"),
        ({"signals": [{"from": 0, "to": 1, "speed": -HUGE}]},
         "positive_signal_speed", "signals[0].speed"),
    ])
    def test_integer_too_large_for_a_float_exits_3(self, tmp_path, patch, invariant, field):
        scenario = tmp_path / "huge.json"
        raw = {"beta": 0.6, "node_positions": [0.0, 1.0], "protocol": "einstein", **patch}
        scenario.write_text(json.dumps(raw))
        code, out, err = run_cli(["sync", "--scenario", str(scenario)])
        assert (code, out) == (3, "")
        assert err.splitlines() == [f"scenario_invalid invariant={invariant} field={field}"]

    @pytest.mark.parametrize("master", ["-1", "3"])
    def test_master_outside_the_lattice_exits_3(self, master):
        code, out, err = run_cli(["sync", "--scenario", str(DATA / "scenario_rest.json"),
                                  "--master", master])
        assert (code, out) == (3, "")
        assert err.splitlines() == [f"invalid_input reason=no_node_with_id_{master}"]

    def test_missing_file_exits_3(self):
        code, _, err = run_cli(["sync", "--scenario", "no-such-file.json"])
        assert code == 3
        assert err.startswith("file_invalid ")

    def test_empty_path_is_a_missing_file_not_the_current_directory(self):
        assert run_cli(["sync", "--scenario", ""]) == (
            3, "", "file_invalid reason=FileNotFoundError\n")

    @pytest.mark.parametrize("content, reason", [
        (b"[" * 100_000, "RecursionError"),  # was a RecursionError traceback
        (b'{"beta": ' + b"1" * 5001 + b"}", "ValueError"),  # past Python's integer-digit limit
        (b'{"beta": 0.6, "protocol": "\xff"}', "UnicodeDecodeError"),
        (b'{"beta": 0.6,', "JSONDecodeError"),
    ], ids=["deep-nesting", "long-integer", "not-utf8", "truncated"])
    def test_unparsable_scenario_is_file_invalid(self, tmp_path, content, reason):
        scenario = tmp_path / "scenario.json"
        scenario.write_bytes(content)
        assert run_cli(["sync", "--scenario", str(scenario)]) == (
            3, "", f"file_invalid reason={reason}\n")

    @pytest.mark.parametrize("patch, field", [
        ({"signal": [{"from": 0, "to": 1}]}, "signal"),  # ran no measurement
        ({"signals": [{"from": 1, "to": 0}, {"from": 0, "to": 1, "two-way": True}]},
         "signals[1].two-way"),  # ran one-way
    ])
    def test_unknown_key_exits_3(self, tmp_path, patch, field):
        scenario = tmp_path / "scenario.json"
        raw = {"beta": 0.6, "node_positions": [0.0, 1.0], "protocol": "superluminal", **patch}
        scenario.write_text(json.dumps(raw))
        assert run_cli(["sync", "--scenario", str(scenario)]) == (
            3, "", f"scenario_invalid invariant=known_field field={field}\n")

    @pytest.mark.parametrize("given, field", [
        ('"signals": [{"from": 0, "to": 1}], "signals": []', "signals"),  # measured nothing
        ('"beta": 2, "signals": [], "beta": 0.5', "beta"),
        ('"signals": [{"from": 0, "to": 1, "to": 0}]', "signals[0].to"),  # signal_endpoints
        ('"signals": [{"from": 1, "to": 0}, {"kind": "light", "from": 0, "to": 1, "kind": "x"}]',
         "signals[1].kind"),
    ])
    def test_a_repeated_key_exits_3(self, tmp_path, given, field):
        scenario = tmp_path / "scenario.json"
        scenario.write_text('{"beta": 0.6, "node_positions": [0.0, 1.0], '
                            f'"protocol": "superluminal", {given}}}')
        assert run_cli(["sync", "--scenario", str(scenario)]) == (
            3, "", f"scenario_invalid invariant=unique_keys field={field}\n")

    def test_csv_format(self):
        _, out, _ = run_cli(["sync", "--scenario", str(DATA / "scenario_drift06.json"),
                             "--format", "csv"])
        lines = out.splitlines()
        assert lines[0] == "beta,protocol,direction,distance,elapsed,speed"
        assert lines[1] == "0.6,superluminal,+x,1.25,0.5,2.5"
        assert lines[-1].endswith("inf")

    def test_jsonl_format(self):
        _, out, _ = run_cli(["sync", "--scenario", str(DATA / "scenario_drift06.json"),
                             "--format", "jsonl"])
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 5
        assert all(r["protocol"] == "superluminal" for r in records)


class TestScanCommand:
    def test_small_grid_argmin_at_rest(self):
        code, out, _ = run_cli(
            ["scan", "--beta-min", "-0.5", "--beta-max", "0.5", "--step", "0.25"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "beta,c_plus,c_minus,anisotropy"
        assert len(lines) == 7  # header + 5 rows + footer
        assert lines[-1] == "# argmin beta=0 anisotropy=0"

    def test_row_at_06_matches_closed_form(self):
        _, out, _ = run_cli(
            ["scan", "--beta-min", "-0.9", "--beta-max", "0.9", "--step", "0.1"]
        )
        rows = [line.split(",") for line in out.splitlines()[1:] if not line.startswith("#")]
        by_beta = {row[0]: float(row[3]) for row in rows}
        assert math.isclose(by_beta["0.6"], 1.875, abs_tol=1e-9)

    def test_step_larger_than_range(self):
        _, out, _ = run_cli(
            ["scan", "--beta-min", "-0.2", "--beta-max", "0.1", "--step", "0.5"]
        )
        lines = out.splitlines()
        assert len(lines) == 3  # header + single row at beta-min + footer
        assert lines[1].startswith("-0.2,")

    def test_range_must_stay_subluminal(self):
        code, _, err = run_cli(
            ["scan", "--beta-min", "-1.5", "--beta-max", "0", "--step", "0.5"]
        )
        assert code == 3
        assert err.startswith("invalid_input ")

    @pytest.mark.parametrize("argv", [
        ["scan", "--beta-min", "-0.5", "--beta-max", "0.5", "--step", "1e-12"],
        ["scan", "--beta-min", "-0.5", "--beta-max", "0.5", "--step", "1e-320"],
        ["probe", "--samples", str(DATA / "collapse_samples_beta03.csv"), "--step", "1e-12"],
    ], ids=["scan", "scan-overflow", "probe"])
    def test_oversized_grid_exits_3_before_allocating(self, argv):
        code, out, err = run_cli_process(argv)
        assert (code, out) == (3, "")
        assert err.splitlines() == [
            "invalid_input reason=grid_would_have_more_than_1000000_points"
        ]

    @pytest.mark.parametrize("bounds", [
        ["--beta-min", "0", "--beta-max", "0.5", "--step", "nan"],
        ["--beta-min=-inf", "--beta-max", "0.5", "--step", "0.1"],  # was an OverflowError traceback
    ], ids=["nan-step", "infinite-bound"])
    def test_non_finite_grid_exits_3(self, bounds):
        code, out, err = run_cli(["scan", *bounds])
        assert (code, out) == (3, "")
        assert err.splitlines() == ["invalid_input reason=grid_bounds_and_step_must_be_finite"]

    def test_last_point_never_passes_beta_max(self):
        # The grid's rounding slack adds a point at 1.0; it is clamped to --beta-max.
        code, out, err = run_cli(
            ["scan", "--beta-min", "0.5", "--beta-max", "0.9999999999", "--step", "0.5"])
        assert (code, err) == (0, "")
        assert [line.split(",")[0] for line in out.splitlines()[1:-1]] == ["0.5", "0.9999999999"]

    @pytest.mark.parametrize("command", [
        ["scan"], ["probe", "--samples", str(DATA / "collapse_samples_beta03.csv")],
    ], ids=["scan", "probe"])
    def test_grid_maximum_below_its_minimum_exits_3(self, command):
        # Without the order check, scan's argmin met an empty grid and probe's fit refused one.
        assert run_cli([*command, "--beta-min", "0.5", "--beta-max", "-0.5", "--step", "0.1"]) == (
            3, "", "invalid_input reason=grid_maximum_is_below_its_minimum\n")

    def test_step_lost_to_rounding_exits_3(self):
        # 1e-18 is far below the float spacing at 0.3: every point would print as 0.3.
        assert run_cli(["scan", "--beta-min", "0.3", "--beta-max", "0.30000000000000004",
                        "--step", "1e-18"]) == (
            3, "", "invalid_input reason=grid_step_is_lost_to_rounding\n")

    def test_json_format(self):
        _, out, _ = run_cli(
            ["scan", "--beta-min", "0", "--beta-max", "0.5", "--step", "0.25",
             "--format", "json"]
        )
        payload = json.loads(out)
        assert payload["argmin"]["beta"] == 0.0
        assert len(payload["points"]) == 3


    @pytest.mark.parametrize("output, bound", [("csv", 650), ("json", 1330)])
    def test_rendering_holds_no_second_copy_of_the_rows(self, output, bound):
        # Bytes of traced Python heap per grid point at 10^4 points; a renderer
        # that walks every row into a new list, or builds the JSON text apart
        # from the output buffer, needs about 865 (CSV) and 1535 (JSON).
        argv = ["scan", "--beta-min", "-0.5", "--beta-max", "0.5", "--step", "1e-4",
                "--format", output]
        run_cli(argv)  # warm-up
        tracemalloc.start()
        try:
            code, out, err = run_cli(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        assert out.count("\n") > 10_001
        assert peak / 10_001 <= bound, peak / 10_001


class TestProbeCommand:
    def test_fit_report(self):
        code, out, _ = run_cli(
            ["probe", "--samples", str(DATA / "collapse_samples_beta03.csv")]
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["beta_hat"] - 0.3) <= 0.005
        assert payload["constants"]["hbar"] == 6.582119569e-16
        assert len(payload["residual_curve"]) == 181

    def test_single_velocity_exits_4(self):
        code, _, err = run_cli(
            ["probe", "--samples", str(DATA / "collapse_samples_single_velocity.csv")]
        )
        assert code == 4
        assert err.startswith("ill_conditioned ")

    @pytest.mark.parametrize("delta_E", ["1e-80", "1e-170"])
    def test_underflowing_times_exit_4_without_a_fit(self, tmp_path, delta_E):
        # Once the normalized times underflow, every residual reads 0 and the
        # argmin would land on the grid edge.
        samples = tmp_path / "tiny.csv"
        samples.write_text("delta_E,lab_beta,t_c\n" + "".join(
            f"{delta_E},{u},{t_c}\n" for u, t_c in (("-0.5", "1.2e-5"), ("0.0", "1e-5"),
                                                    ("0.5", "1.3e-5"))))
        code, out, err = run_cli(["probe", "--samples", str(samples), "--step", "0.3"])
        assert (code, out) == (4, "")
        assert err.splitlines() == ["ill_conditioned reason=normalized_collapse_times_underflow"]

    def test_fit_of_ten_million_cells_runs_in_grid_plus_samples_memory(self, tmp_path):
        # 10001 grid points times 1001 samples: about 1e7 cells, which a
        # cell-by-cell fit would hold at about 24 bytes each.
        samples = tmp_path / "many.csv"
        rows = "".join(f"1.0,{-0.8 + 1.6 * i / 1000!r},{1e12 + i},\n" for i in range(1001))
        samples.write_text("delta_E,lab_beta,t_c,sigma\n" + rows)
        run_cli(["probe", "--samples", str(DATA / "collapse_samples_beta03.csv")])  # warm-up
        tracemalloc.start()
        try:
            code, out, err = run_cli(["probe", "--samples", str(samples), "--step", "0.00018"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        assert len(json.loads(out)["residual_curve"]) == 10_001
        assert peak <= 16_000_000, peak

    def test_sample_file_past_the_row_cap_exits_3_while_reading(self, tmp_path, monkeypatch):
        monkeypatch.setattr(probe, "MAX_SAMPLE_ROWS", 100)
        samples = tmp_path / "many.csv"
        samples.write_text("delta_E,lab_beta,t_c,sigma\n" + "1.0,0.1,8.1e12,\n" * 100_000)
        run_cli(["probe", "--samples", str(DATA / "collapse_samples_beta03.csv")])  # warm-up
        tracemalloc.start()
        try:
            result = run_cli(["probe", "--samples", str(samples)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result == (3, "", "invalid_input reason=sample_file_has_more_than_100_rows\n")
        assert peak <= 1_000_000, peak  # holding the 100 000 rows would take tens of MB

    def test_bad_grid_exits_3_before_the_sample_file_is_read(self, tmp_path, monkeypatch):
        samples = tmp_path / "many.csv"
        samples.write_text("delta_E,lab_beta,t_c,sigma\n" + "1.0,0.1,8.1e12,\n" * 200_000)
        loads = []
        monkeypatch.setattr(probe, "load_samples", loads.append)
        for path in (samples, tmp_path / "missing.csv"):
            assert run_cli(["probe", "--samples", str(path), "--step", "0"]) == (
                3, "", "invalid_input reason=step_must_be_positive\n")
        assert loads == []

    def test_last_grid_point_never_passes_beta_max(self):
        code, out, _ = run_cli(
            ["probe", "--samples", str(DATA / "collapse_samples_beta03.csv"),
             "--beta-min", "-0.5", "--beta-max", "0.9999999999", "--step", "0.5"])
        assert code == 0
        curve = json.loads(out)["residual_curve"]
        assert [point["beta"] for point in curve] == [-0.5, 0.0, 0.5, 0.9999999999]

    def test_step_lost_to_rounding_exits_3(self):
        assert run_cli(["probe", "--samples", str(DATA / "collapse_samples_beta03.csv"),
                        "--beta-min", "0.3", "--beta-max", "0.30000000000000004",
                        "--step", "1e-18"]) == (
            3, "", "invalid_input reason=grid_step_is_lost_to_rounding\n")

    def test_empty_path_is_a_missing_file_not_the_current_directory(self):
        assert run_cli(["probe", "--samples", ""]) == (
            3, "", "file_invalid reason=FileNotFoundError\n")

    @pytest.mark.parametrize("content, reason", [
        (b"delta_E,lab_beta,t_c,sigma\n" + b"1" * 131_073 + b",0.1,1,\n", "Error"),  # csv.Error
        (b"delta_E,lab_beta,t_c,sigma\n1,0.1,1,\xff\n", "UnicodeDecodeError"),
    ], ids=["field-past-csv-limit", "not-utf8"])
    def test_unparsable_samples_are_file_invalid(self, tmp_path, content, reason):
        samples = tmp_path / "samples.csv"
        samples.write_bytes(content)
        assert run_cli(["probe", "--samples", str(samples)]) == (
            3, "", f"file_invalid reason={reason}\n")

    def test_bad_sigma_exits_3(self, tmp_path):
        samples = tmp_path / "bad_sigma.csv"
        samples.write_text("delta_E,lab_beta,t_c,sigma\n1,0.1,1,-5\n1,0.2,1,nan\n1,0.3,1,\n")
        code, out, err = run_cli(["probe", "--samples", str(samples)])
        assert (code, out) == (3, "")
        assert err.splitlines() == ["invalid_input reason=bad_sample_on_line_2:"
                                    "_sigma_must_be_positive_and_finite_when_given"]

    @pytest.mark.parametrize("content, reason", [
        ("delta_E,lab_beta,t_c,sigma\n1,0.1,1,\n\n1,0.2,1,\n1,0.3,x,\n",
         "bad_sample_on_line_5:_could_not_convert_string_to_float:_'x'"),
        ('delta_E,lab_beta,t_c,sigma\n"1\n",0.1,1,\n1,0.2,1,\n1,0.3,x,\n',
         "bad_sample_on_line_5:_could_not_convert_string_to_float:_'x'"),
        ("delta_E,lab_beta,t_c,sigma\n1,0.1,1,\n1,0.2\n",
         "bad_sample_on_line_3:_row_ends_before_column_t_c"),
    ], ids=["after-blank-line", "after-multi-line-field", "short-row"])
    def test_bad_sample_names_its_physical_line(self, tmp_path, content, reason):
        samples = tmp_path / "samples.csv"
        samples.write_text(content, encoding="utf-8")
        assert run_cli(["probe", "--samples", str(samples)]) == (
            3, "", f"invalid_input reason={reason}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_a_piped_bad_file_names_its_line_through_dev_stdin(self):
        # Opened a second time, the pipe would read as empty: a missing-columns error.
        samples = "delta_E,lab_beta,t_c,sigma\n1.0,-0.5,9.3e12,\n1.0,0.1,x,\n"
        assert run_cli_process(["probe", "--samples", "/dev/stdin"], stdin=samples) == (
            3, "", "invalid_input reason=bad_sample_on_line_3:"
                   "_could_not_convert_string_to_float:_'x'\n")

    def test_row_longer_than_the_header_exits_3(self, tmp_path):
        samples = tmp_path / "samples.csv"
        samples.write_text("delta_E,lab_beta,t_c,sigma\n1.0,-0.5,2e13,\n1.0,0.5,2e13,\n"
                           "1.0,0.0,1e13,,9\n", encoding="utf-8")
        assert run_cli(["probe", "--samples", str(samples)]) == (
            3, "", "invalid_input reason=bad_sample_on_line_4:"
                   "_row_has_more_fields_than_the_header\n")

    def test_non_finite_residuals_exit_4_without_warnings(self, tmp_path):
        # Samples at |beta| -> 1 with huge times overflow the residuals to NaN.
        samples = tmp_path / "overflow.csv"
        samples.write_text("delta_E,lab_beta,t_c,sigma\n"
                           "1.0,0.9999999999,1e300,\n"
                           "1.0,-0.9999999999,1e300,\n"
                           "1.0,0.0,1e-300,\n")
        code, out, err = run_cli_process(
            ["probe", "--samples", str(samples),
             "--beta-min", "-0.99", "--beta-max", "0.99", "--step", "0.33"])
        assert (code, out) == (4, "")
        assert err.splitlines() == ["ill_conditioned reason=fit_residuals_are_not_finite"]

    def test_overflowing_energy_square_exits_4_without_warnings(self, tmp_path):
        # delta_E**2 overflows: the normalized times are inf, so the residuals are not finite.
        samples = tmp_path / "huge_energy.csv"
        samples.write_text("delta_E,lab_beta,t_c,sigma\n"
                           "1e200,-0.5,1.0,\n1e200,0.0,1.0,\n1e200,0.5,1.0,\n")
        assert run_cli_process(["probe", "--samples", str(samples)]) == (
            4, "", "ill_conditioned reason=fit_residuals_are_not_finite\n")


    @pytest.mark.parametrize("body, code, err", [
        ("\n\n{}\n\n", 0, ""),
        ("\n\n", 3, "invalid_input reason=sample_file_contains_no_rows\n"),
    ], ids=["blank-lines", "no-rows"])
    def test_numeric_files_warn_nothing_under_w_error(self, tmp_path, body, code, err):
        # numpy's reader warns of blank lines and of an empty body.
        header, *rows = (DATA / "collapse_samples_beta03.csv").read_text().splitlines()
        samples = tmp_path / "numeric.csv"
        samples.write_text(header + "\n" + body.format("\n\n".join(row + "1e10" for row in rows)))
        result = run_cli_process(["probe", "--samples", str(samples), "--beta-min", "-0.9",
                                  "--beta-max", "0.9", "--step", "0.01"], "-W", "error")
        want = (GOLDEN / "probe_beta03.json").read_text() if code == 0 else ""
        assert result == (code, want, err)


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["frobnicate"],
        ["oneway"],
        ["scan", "--beta-min", "x", "--beta-max", "0.5", "--step", "0.1"],
        ["oneway", "--k", "0", "--bogus"],
        ["transform", "--preset", "lorentz", "--k", "0.2", "--beta", "0", "--event", "1,0"],
    ], ids=["unknown-subcommand", "missing-flag", "not-a-float", "unknown-flag",
            "preset-conflict"])
    def test_one_usage_error_line_exit_2(self, argv, capsys):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.endswith("\n")
        assert err.startswith("usage_error reason=")
        assert capsys.readouterr() == ("", "")  # nothing bypasses main's streams

    def test_unknown_protocol_names_the_three_choices(self):
        code, out, err = run_cli(["sync", "--scenario", str(DATA / "scenario_rest.json"),
                                  "--protocol", "ntp"])
        assert (code, out) == (2, "")
        assert err == ("usage_error reason=argument_--protocol:_invalid_choice:_'ntp'_"
                       "(choose_from_'einstein',_'superluminal',_'external-regulation')\n")

    def test_protocol_choices_are_the_simulators_protocols(self):
        assert cli.PROTOCOLS == syncsim.PROTOCOLS

    def test_whitespace_in_a_value_stays_on_one_line(self):
        code, _, err = run_cli(["oneway", "--k", "0", "a\nb c"])
        assert (code, err) == (2, "usage_error reason=unrecognized_arguments:_a_b_c\n")


class TestHelp:
    @pytest.mark.parametrize("argv, usage", [
        (["--help"], "usage: synchrony-lab [-h] {transform,oneway,sync,scan,probe} ..."),
        (["sync", "--help"], "usage: synchrony-lab sync [-h] --scenario SCENARIO"),
    ], ids=["top-level", "sync"])
    def test_help_goes_to_mains_stdout_and_exits_0(self, argv, usage, capsys):
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[0].startswith(usage)
        assert capsys.readouterr() == ("", "")  # nothing bypasses main's streams

    def test_the_process_prints_help_to_stdout_and_exits_0(self):
        code, out, err = run_cli_process(["sync", "--help"])
        assert (code, err) == (0, "")
        assert out.startswith("usage: synchrony-lab sync [-h] --scenario SCENARIO")


def _pretty(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


class TestPinnedOutput:
    """Byte-exact output of the command/format paths that have no golden file."""

    DRIFT = str(DATA / "scenario_drift06.json")
    SMALL_SCAN = ["scan", "--beta-min", "-0.5", "--beta-max", "0.5", "--step", "0.25"]
    TRANSFORM = ["transform", "--beta", "0.6", "--k", "0.2", "--k-prime", "-0.3",
                 "--event", "1.5,-2.5"]
    CASES = {
        "transform_csv": (
            None, TRANSFORM + ["--format", "csv"],
            "source_t,source_x,source_y,source_z,image_t,image_x,image_y,image_z,"
            "a_tt,a_tx,a_xt,a_xx\n"
            "1.5,-2.5,0,0,1.69181973775125,-3.59511694272142,0,0,"
            "0.993944095928862,-0.0803614375431845,-0.63443240165672,1.05738733609453\n",
        ),
        "transform_precision_6": (
            None, TRANSFORM + ["--precision", "6"],
            _pretty({
                "command": "transform",
                "parameters": {"beta": 0.6, "k": 0.2, "k_prime": -0.3},
                "source": {"t": 1.5, "x": -2.5, "y": 0.0, "z": 0.0, "chart": "S"},
                "image": {"t": 1.69182, "x": -3.59512, "y": 0.0, "z": 0.0, "chart": "S'"},
                "coefficients": {"a_tt": 0.993944, "a_tx": -0.0803614,
                                 "a_xt": -0.634432, "a_xx": 1.05739},
            }),
        ),
        "oneway_csv": (
            None, ["oneway", "--k", "1", "--format", "csv"],
            "k,c_plus,c_minus,two_way_mean\n1,inf,0.5,1\n",
        ),
        "sync_jsonl": (
            None, ["sync", "--scenario", DRIFT, "--format", "jsonl"],
            '{"beta": 0.6, "protocol": "superluminal", "from": 0, "to": 1, "kind": "light", '
            '"direction": "+x", "distance": 1.25, "elapsed": 0.5, "speed": 2.5}\n'
            '{"beta": 0.6, "protocol": "superluminal", "from": 1, "to": 0, "kind": "light", '
            '"direction": "-x", "distance": 1.25, "elapsed": 2.0, "speed": 0.625}\n'
            '{"beta": 0.6, "protocol": "superluminal", "from": 0, "to": 2, "kind": "light", '
            '"direction": "+x", "distance": 3.125, "elapsed": 1.25, "speed": 2.5}\n'
            '{"beta": 0.6, "protocol": "superluminal", "from": 0, "to": 2, "kind": "light", '
            '"direction": "two-way", "distance": 6.25, "elapsed": 6.25, "speed": 1.0}\n'
            '{"beta": 0.6, "protocol": "superluminal", "from": 0, "to": 1, '
            '"kind": "instantaneous", "direction": "+x", "distance": 1.25, "elapsed": 0.0, '
            '"speed": "inf"}\n',
        ),
        "sync_csv_c25": (
            "2.5", ["sync", "--scenario", DRIFT, "--format", "csv"],
            "beta,protocol,direction,distance,elapsed,speed\n"
            "0.6,superluminal,+x,1.25,0.5,6.25\n"
            "0.6,superluminal,-x,1.25,2,1.5625\n"
            "0.6,superluminal,+x,3.125,1.25,6.25\n"
            "0.6,superluminal,two-way,6.25,6.25,2.5\n"
            "0.6,superluminal,+x,1.25,0,inf\n",
        ),
        "scan_json": (
            None, SMALL_SCAN + ["--format", "json"],
            _pretty({
                "command": "scan",
                "points": [
                    {"beta": -0.5, "c_plus": 0.666666666666667, "c_minus": 2.0,
                     "anisotropy": -1.33333333333333},
                    {"beta": -0.25, "c_plus": 0.8, "c_minus": 1.33333333333333,
                     "anisotropy": -0.533333333333333},
                    {"beta": 0.0, "c_plus": 1.0, "c_minus": 1.0, "anisotropy": 0.0},
                    {"beta": 0.25, "c_plus": 1.33333333333333, "c_minus": 0.8,
                     "anisotropy": 0.533333333333333},
                    {"beta": 0.5, "c_plus": 2.0, "c_minus": 0.666666666666667,
                     "anisotropy": 1.33333333333333},
                ],
                "argmin": {"beta": 0.0, "anisotropy": 0.0},
            }),
        ),
        "scan_csv_c25": (
            "2.5", SMALL_SCAN,
            "beta,c_plus,c_minus,anisotropy\n"
            "-0.5,1.66666666666667,5,-3.33333333333333\n"
            "-0.25,2,3.33333333333333,-1.33333333333333\n"
            "0,2.5,2.5,0\n"
            "0.25,3.33333333333333,2,1.33333333333333\n"
            "0.5,5,1.66666666666667,3.33333333333333\n"
            "# argmin beta=0 anisotropy=0\n",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bytes(self, case, monkeypatch):
        speed_of_light, argv, expected = self.CASES[case]
        if speed_of_light is None:
            monkeypatch.delenv("SYNCHRONY_LAB_C", raising=False)
        else:
            monkeypatch.setenv("SYNCHRONY_LAB_C", speed_of_light)
        assert run_cli(argv) == (0, expected, "")


def test_cli_import_leaves_numpy_unloaded():
    env = {**os.environ, "PYTHONPATH": SRC}
    check = "import sys, synchrony_lab.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", check], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


class TestDeterminism:
    COMMANDS = [
        ["transform", "--preset", "superluminal", "--beta", "0.6", "--event", "1,0,0,0"],
        ["oneway", "--k", "0.6"],
        ["sync", "--scenario", str(DATA / "scenario_drift06.json")],
        ["scan", "--beta-min", "-0.9", "--beta-max", "0.9", "--step", "0.1"],
        ["probe", "--samples", str(DATA / "collapse_samples_beta03.csv")],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_repeat_runs_are_byte_identical(self, argv):
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second
        assert first[0] == 0
