"""cli-cold: the documented CLI commands, each a fresh interpreter.

The jobs are the 11 README commands that have golden files plus the
documented error case, in a seeded round-robin order.  Cold start
(interpreter plus imports) dominates; the compute layers do almost nothing.
"""

from __future__ import annotations

import random
import re
import subprocess
import sys

from common import ROOT, program_env

UNIT = "invocations"
ENV = program_env()

DATA = "tests/data/"
COMMANDS = {
    "transform_lorentz_rest": ["transform", "--preset", "lorentz", "--beta", "0",
                               "--event", "1,0,0,0"],
    "transform_superluminal_06": ["transform", "--preset", "superluminal", "--beta", "0.6",
                                  "--event", "1,0,0,0"],
    "transform_explicit_06": ["transform", "--beta", "0.6", "--k", "0", "--k-prime", "-0.6",
                              "--event", "1,0,0,0"],
    "oneway_k06": ["oneway", "--k", "0.6"],
    "sync_rest_einstein": ["sync", "--scenario", DATA + "scenario_rest.json"],
    "sync_drift06_superluminal": ["sync", "--scenario", DATA + "scenario_drift06.json"],
    "sync_drift06_external": ["sync", "--scenario", DATA + "scenario_drift06.json",
                              "--protocol", "external-regulation"],
    "sync_drift06_measurements": ["sync", "--scenario", DATA + "scenario_drift06.json",
                                  "--format", "csv"],
    "scan_small": ["scan", "--beta-min", "-0.5", "--beta-max", "0.5", "--step", "0.25"],
    "scan_wide": ["scan", "--beta-min", "-0.9", "--beta-max", "0.9", "--step", "0.1"],
    "probe_beta03": ["probe", "--samples", DATA + "collapse_samples_beta03.csv",
                     "--beta-min", "-0.9", "--beta-max", "0.9", "--step", "0.01"],
    "sync_bad_positions": ["sync", "--scenario", DATA + "scenario_bad_positions.json"],
}
GOLDEN_SUFFIX = {"sync_drift06_measurements": ".csv", "scan_small": ".csv", "scan_wide": ".csv"}

# The documented error case: exit 3 and exactly one stderr line naming the
# broken invariant.
ERROR_CASE = "sync_bad_positions"
ERROR_EXIT = 3
ERROR_LINE = re.compile(
    r"scenario_invalid invariant=strictly_increasing_positions( \w+=\S+)*"
)


def make_job(name: str) -> dict:
    job = {"name": name, "argv": COMMANDS[name]}
    if name != ERROR_CASE:
        golden = ROOT / "tests" / "golden" / (name + GOLDEN_SUFFIX.get(name, ".json"))
        job["golden"] = golden.read_text(encoding="utf-8")
    return job


def generate(seed: int, workdir) -> list[dict]:
    names = list(COMMANDS)
    random.Random(f"cli-cold/{seed}").shuffle(names)
    return [make_job(name) for name in names]


def warmup_job() -> dict:
    return make_job("oneway_k06")


def work(job: dict) -> int:
    return 1


def flip(job: dict) -> dict:
    """The same command with every velocity or synchrony argument negated."""
    argv = list(job["argv"])
    for i, arg in enumerate(argv[:-1]):
        if arg in ("--beta", "--k", "--k-prime"):
            argv[i + 1] = str(-float(argv[i + 1]))
    return dict(job, argv=argv)


def run(job: dict, call):
    proc = call(
        "cli.subprocess", subprocess.run,
        [sys.executable, "-m", "synchrony_lab.cli", *job["argv"]],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


# Criterion 11's comparison rule, restated: every number at 12 significant digits.
_NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?(?![\w.])")


def normalize(text: str) -> str:
    return _NUMBER.sub(lambda m: f"{float(m.group(0)):.12g}", text)


def check(job: dict, output) -> bool:
    code, out, err = output
    if "golden" in job:
        return code == 0 and err == "" and normalize(out) == normalize(job["golden"])
    lines = err.splitlines()
    return (code == ERROR_EXIT and out == "" and len(lines) == 1
            and ERROR_LINE.fullmatch(lines[0]) is not None)
