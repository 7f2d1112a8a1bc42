"""Property test of the CLI contract: strict output on success, one error line otherwise.

Argument vectors are drawn from the real subcommands and flags, with numeric
text that includes nan, inf, -0, 1e308 and 1e-320; scenario and sample files
mix valid and invalid fields.  Every value is passed as ``--flag=value`` so
that argparse never mistakes a value for a flag.  Usage errors keep the same
contract (one ``usage_error`` line, exit 2): the drawn ``--precision`` and
``--preset`` combinations reach them only through ``@example``s here, and
``test_cli.TestUsageErrors`` covers the rest.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from synchrony_lab import cli

from conftest import run_cli

DATA = Path(__file__).parent / "data"

SPECIALS = st.sampled_from(["nan", "inf", "-inf", "-0", "1e308", "-1e308", "1e-320"])
NUMBER = st.one_of(st.floats(-2.0, 2.0).map(repr), st.floats(allow_nan=False).map(repr), SPECIALS)
# Grid bounds and steps stay small enough that every accepted grid is cheap.
BOUND = st.one_of(st.floats(-1.0, 1.0).map(repr), SPECIALS)
STEP = st.one_of(st.floats(0.01, 2.0).map(repr), SPECIALS, st.just("0"), st.just("-0.5"))

#: Each command's output formats; the first is its default.
FORMATS = {"transform": ("json", "csv"), "oneway": ("json", "csv"),
           "sync": ("json", "csv", "jsonl"), "scan": ("csv", "json"), "probe": ("json",)}

JSON_VALUE = st.one_of(
    st.floats(-0.9, 0.9), st.sampled_from([math.nan, math.inf, 1.0, 0, True, None, "0.5"]))
SIGNAL = st.fixed_dictionaries({}, optional={
    "from": st.one_of(st.integers(-1, 4), st.sampled_from([0.0, True, "0"])),
    "to": st.one_of(st.integers(-1, 4), st.sampled_from([1.0, False, None])),
    "kind": st.sampled_from(["light", "instantaneous", "superluminal-finite", "pigeon"]),
    "two_way": st.sampled_from([True, False, "yes", 1]),
    "speed": st.one_of(st.floats(0.1, 5.0), JSON_VALUE),
})
SCENARIO = st.one_of(
    st.fixed_dictionaries({
        "beta": JSON_VALUE,
        "node_positions": st.one_of(
            st.lists(st.floats(-5.0, 5.0), max_size=4).map(sorted),
            st.lists(JSON_VALUE, max_size=3)),
        "protocol": st.sampled_from(["einstein", "superluminal", "external-regulation", "ntp"]),
        "signals": st.one_of(st.lists(SIGNAL, max_size=3), JSON_VALUE),
    }),
    st.sampled_from([[], "scenario", None]),
)


@st.composite
def sample_row(draw):
    """A valid delta_E,lab_beta,t_c,sigma row, sometimes with one field replaced."""
    row = [repr(draw(st.floats(0.5, 2.0))), repr(draw(st.floats(-0.9, 0.9))),
           repr(draw(st.floats(1e-3, 1e3))), draw(st.sampled_from(["", "0.01"]))]
    if draw(st.booleans()):
        row[draw(st.integers(0, 3))] = draw(NUMBER)
    return ",".join(row) + "\n"


@st.composite
def invocations(draw):
    """(argv, format, files): files maps a tmp_path file name to the text to write there."""
    command = draw(st.sampled_from(["transform", "oneway", "sync", "scan", "probe"]))
    files = {}
    if command == "transform":
        argv = ["transform", f"--beta={draw(NUMBER)}",
                f"--event={','.join(draw(st.lists(NUMBER, min_size=1, max_size=5)))}"]
        if draw(st.booleans()):  # a preset excludes --k/--k-prime
            argv.append(f"--preset={draw(st.sampled_from(cli.PRESETS))}")
        else:
            argv += [f"--{flag}={draw(NUMBER)}" for flag in ("k", "k-prime") if draw(st.booleans())]
    elif command == "oneway":
        argv = ["oneway", f"--k={draw(NUMBER)}"]
    elif command == "sync":
        files["scenario.json"] = json.dumps(draw(SCENARIO))
        argv = ["sync", "--scenario={tmp}/scenario.json", f"--master={draw(st.integers(-1, 4))}"]
        protocol = draw(st.sampled_from([None, "einstein", "superluminal", "external-regulation"]))
        argv += [f"--protocol={protocol}"] if protocol else []
    elif command == "scan":
        argv = ["scan", f"--beta-min={draw(BOUND)}", f"--beta-max={draw(BOUND)}",
                f"--step={draw(STEP)}"]
    else:
        rows = draw(st.lists(sample_row(), max_size=5))
        files["samples.csv"] = "delta_E,lab_beta,t_c,sigma\n" + "".join(rows)
        source = draw(st.sampled_from([
            "{tmp}/samples.csv", str(DATA / "collapse_samples_beta03.csv"),
            str(DATA / "scenario_rest.json"), "{tmp}/missing.csv"]))
        argv = ["probe", f"--samples={source}"]
        argv += [f"--{flag}={draw(value)}" for flag, value in
                 (("beta-min", BOUND), ("beta-max", BOUND), ("step", STEP)) if draw(st.booleans())]
    fmt = draw(st.sampled_from(FORMATS[command]))
    argv.append(f"--format={fmt}")
    if draw(st.booleans()):
        argv.append(f"--precision={draw(st.integers(-1, 18))}")
    return argv, fmt, files


#: Every documented error code and its exit code.
ERROR_EXITS = {"degenerate_convention": 2, "usage_error": 2, "scenario_invalid": 3,
               "file_invalid": 3, "invalid_input": 3, "ill_conditioned": 4}


def _unparsable(name, text) -> bool:
    """Whether Python's JSON or CSV parser itself rejects a drawn file."""
    try:
        if name.endswith(".json"):
            json.loads(text)
        else:
            list(csv.reader(io.StringIO(text)))
    except (ValueError, RecursionError, csv.Error):
        return True
    return False


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def _assert_strict_csv(text):
    """No NaN, and no finite value printed so that it reads back as infinite."""
    for row in csv.reader(io.StringIO(text)):
        for field in row:
            assert "nan" not in field.lower(), field
            for token in field.split():  # the footer packs key=value pairs into one cell
                value = token.rpartition("=")[2]
                try:
                    infinite = math.isinf(float(value))
                except ValueError:
                    continue
                assert not infinite or value in ("inf", "-inf"), field


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=invocations(), speed_of_light=st.one_of(st.none(), NUMBER))
# delta_E**2 overflowed with an OverflowError traceback.
@example(case=(["probe", "--samples={tmp}/samples.csv", "--format=json"], "json",
               {"samples.csv": "delta_E,lab_beta,t_c,sigma\n1e308,0.0,1.0,\n"}),
         speed_of_light=None)
# Rounding to 15 digits overflowed to inf, printed as the non-JSON Infinity.
@example(case=(["transform", "--beta=0.0", "--event=0.0,1.7976931348623151e+308",
                "--preset=lorentz", "--format=json"], "json", {}),
         speed_of_light=None)
# The same rounding in CSV printed 1.79769313486232e+308, which reads back as inf.
@example(case=(["transform", "--beta=0.0", "--event=0.0,1.7976931348623151e+308",
                "--preset=lorentz", "--format=csv"], "csv", {}),
         speed_of_light=None)
@example(case=(["transform", "--beta=0.0", "--event=0.0,1.5e308", "--preset=lorentz",
                "--format=csv", "--precision=1"], "csv", {}),
         speed_of_light=None)
# A JSON integer too large for a float raised an OverflowError traceback.
@example(case=(["sync", "--scenario={tmp}/scenario.json", "--format=json"], "json",
               {"scenario.json": '{"beta": 1%s, "node_positions": [0, 1], '
                                 '"protocol": "einstein"}' % ("0" * 400)}),
         speed_of_light=None)
# Undecodable files raised tracebacks (deep nesting, an overlong CSV field) or
# reported a JSON integer past Python's digit limit as invalid_input.
@example(case=(["sync", "--scenario={tmp}/scenario.json", "--format=json"], "json",
               {"scenario.json": "[" * 100_000}),
         speed_of_light=None)
@example(case=(["sync", "--scenario={tmp}/scenario.json", "--format=csv"], "csv",
               {"scenario.json": '{"beta": %s}' % ("1" * 5001)}),
         speed_of_light=None)
@example(case=(["probe", "--samples={tmp}/samples.csv", "--format=json"], "json",
               {"samples.csv": "delta_E,lab_beta,t_c,sigma\n" + "1" * 131_073 + ",0.1,1,\n"}),
         speed_of_light=None)
# Usage errors printed a usage block to the process's stderr and exited via SystemExit.
@example(case=(["transform", "--beta=0.6", "--event=1,0", "--preset=lorentz", "--k=0.2",
                "--format=json"], "json", {}),
         speed_of_light=None)
def test_every_invocation_keeps_the_output_contract(case, speed_of_light, tmp_path, monkeypatch):
    argv, fmt, files = case
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    if speed_of_light is None:
        monkeypatch.delenv("SYNCHRONY_LAB_C", raising=False)
    else:
        monkeypatch.setenv("SYNCHRONY_LAB_C", speed_of_light)

    code, out, err = run_cli(argv)

    if code == 0:
        assert err == ""
        if fmt == "json":
            _strict_json(out)
        elif fmt == "jsonl":
            for line in out.splitlines():
                _strict_json(line)
        else:
            _assert_strict_csv(out)
    else:
        assert code in (2, 3, 4)
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1, err
        error_code = err.partition(" ")[0]
        assert ERROR_EXITS.get(error_code) == code, err
        read = [(name, text) for name, text in files.items()
                if any(f"{{tmp}}/{name}" in arg for arg in case[0])]
        if any(_unparsable(name, text) for name, text in read):
            assert error_code == "file_invalid", err
