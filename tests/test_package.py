"""The package resolves its exports on first use, and the CLI loads only what its commands run."""

from __future__ import annotations

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import synchrony_lab

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
DATA = "tests/data/"  # relative to ROOT, where the command subprocesses run

SIMULATOR = "synchrony_lab.syncsim"
#: Loaded only for help, usage errors and the command lines that argparse reads.
ARGPARSE = {"argparse", "gettext", "locale"}
#: The documented commands (the cli-cold set), each with the modules it must not load:
#: a command loads only the layer it runs and the module of the format it writes.
COMMANDS = {
    "transform_lorentz_rest": (["transform", "--preset", "lorentz", "--beta", "0",
                                "--event", "1,0,0,0"], {SIMULATOR, "csv", "pathlib"}),
    "transform_superluminal_06": (["transform", "--preset", "superluminal", "--beta", "0.6",
                                   "--event", "1,0,0,0"], {SIMULATOR, "csv", "pathlib"}),
    "transform_explicit_06": (["transform", "--beta", "0.6", "--k", "0", "--k-prime", "-0.6",
                               "--event", "1,0,0,0"], {SIMULATOR, "csv", "pathlib"}),
    "oneway_k06": (["oneway", "--k", "0.6"], {SIMULATOR, "csv", "pathlib"}),
    "sync_rest_einstein": (["sync", "--scenario", DATA + "scenario_rest.json"],
                           {"csv", "pathlib"}),
    "sync_drift06_superluminal": (["sync", "--scenario", DATA + "scenario_drift06.json"],
                                  {"csv", "pathlib"}),
    "sync_drift06_external": (["sync", "--scenario", DATA + "scenario_drift06.json",
                               "--protocol", "external-regulation"], {"csv", "pathlib"}),
    "sync_drift06_measurements": (["sync", "--scenario", DATA + "scenario_drift06.json",
                                   "--format", "csv"], {"pathlib"}),
    "scan_small": (["scan", "--beta-min", "-0.5", "--beta-max", "0.5", "--step", "0.25"],
                   {"json", "pathlib"}),
    "scan_wide": (["scan", "--beta-min", "-0.9", "--beta-max", "0.9", "--step", "0.1"],
                  {"json", "pathlib"}),
    "probe_beta03": (["probe", "--samples", DATA + "collapse_samples_beta03.csv",
                      "--beta-min", "-0.9", "--beta-max", "0.9", "--step", "0.01"],
                     {SIMULATOR}),
    "sync_bad_positions": (["sync", "--scenario", DATA + "scenario_bad_positions.json"],
                           {"csv", "pathlib"}),
}


def test_every_export_is_the_object_its_submodule_defines():
    for name in synchrony_lab.__all__:
        module = import_module(f"synchrony_lab.{synchrony_lab._EXPORTS[name]}")
        assert getattr(synchrony_lab, name) is getattr(module, name)


def test_dir_and_star_import_list_every_export():
    assert {*synchrony_lab.__all__, "errors", "kinematics", "probe", "syncsim",
            "__version__"} <= set(dir(synchrony_lab))
    namespace = {}
    exec("from synchrony_lab import *", namespace)
    assert set(synchrony_lab.__all__) <= namespace.keys()


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'frobnicate'"):
        synchrony_lab.frobnicate


def test_importing_the_cli_loads_no_module_its_cold_start_does_not_run():
    # -S: the modules loaded before the import are the interpreter's own, not site's.
    code = ("import sys; before = set(sys.modules); import synchrony_lab.cli; "
            "print(*sorted(set(sys.modules) - before))")
    loaded = subprocess.run(
        [sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert "synchrony_lab.cli" in loaded
    assert not {"csv", "dataclasses", "inspect", "json", "numpy", "synchrony_lab.probe",
                SIMULATOR, "typing", *ARGPARSE} & set(loaded)


@pytest.mark.parametrize("name", COMMANDS)
def test_each_command_loads_only_the_layer_and_format_it_runs(name):
    argv, unloaded = COMMANDS[name]
    code = ("import io, sys; before = set(sys.modules); from synchrony_lab import cli; "
            "status = cli.main(sys.argv[1:], stdout=io.StringIO(), stderr=io.StringIO()); "
            "print(status, *sorted(set(sys.modules) - before))")
    # -S as above, except for probe: numpy lives in site-packages.
    options = () if argv[0] == "probe" else ("-S",)
    status, *loaded = subprocess.run(
        [sys.executable, *options, "-c", code, *argv], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, check=True,
        timeout=60,
    ).stdout.split()
    assert int(status) == (3 if name == "sync_bad_positions" else 0)
    assert not (unloaded | ARGPARSE) & set(loaded)
    assert ("numpy" in loaded) is (argv[0] == "probe")  # only the estimator loads numpy
    if argv[0] != "probe":  # the records are collections.namedtuple types; numpy loads typing
        assert "typing" not in loaded


#: Command lines that only argparse reads, each with its exit status and first output line.
ARGPARSE_LINES = {
    "help": (["sync", "--help"], 0, "usage: synchrony-lab sync [-h] --scenario SCENARIO"),
    "flag_like_value": (["oneway", "--k", "-1e-3"], 2,
                        "usage_error reason=argument_--k:_expected_one_argument"),
    "equals_form": (["oneway", "--k=0.6"], 0, "{"),
}


@pytest.mark.parametrize("name", ARGPARSE_LINES)
def test_help_usage_errors_and_other_forms_end_as_argparse_ends_them(name):
    argv, status, first_line = ARGPARSE_LINES[name]
    code = ("import io, sys; from synchrony_lab import cli; out = io.StringIO(); "
            "status = cli.main(sys.argv[1:], stdout=out, stderr=out); "
            "print(status, 'argparse' in sys.modules); print(out.getvalue(), end='')")
    head, output = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, check=True,
        timeout=60,
    ).stdout.split("\n", 1)
    assert head == f"{status} True"
    assert output.startswith(first_line + "\n")


#: A first fit, through the CLI and through the library's list input.
FIRST_FITS = {
    "probe_beta03": ("status = cli.main(sys.argv[1:], stdout=io.StringIO(), stderr=io.StringIO())",
                     COMMANDS["probe_beta03"][0]),
    "list_input": ("status = 0; probe.estimate_absolute_frame("
                   "[(1.0, u, probe.collapse_time(1.0, u), None) for u in (-0.5, 0.0, 0.5)], "
                   "[-0.5, 0.0, 0.5])", []),
}


@pytest.mark.parametrize("name", FIRST_FITS)
def test_a_first_fit_loads_no_numpy_module_a_bare_numpy_import_does_not(name):
    # numpy is imported first, so each module loaded after it is one the fit loaded.
    run, argv = FIRST_FITS[name]
    code = ("import io, sys, numpy; from synchrony_lab import cli, probe; "
            f"before = set(sys.modules); {run}; print(status, *sorted(set(sys.modules) - before))")
    status, *loaded = subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=ROOT, env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert int(status) == 0
    assert [m for m in loaded if m.partition(".")[0] == "numpy"] == []
