"""The README's library quick tour runs as written, its numeric comments hold, and its
documented example commands are the ones the golden files are made from."""

from __future__ import annotations

import ast
import importlib.util
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tour() -> str:
    """The first ``python`` code block under the README's "Library quick tour" heading."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_runs_against_src():
    proc = subprocess.run(
        [sys.executable, "-c", _tour()],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def _close(got, want) -> bool:
    if isinstance(want, tuple):
        return len(got) == len(want) and all(map(_close, got, want))
    return math.isclose(got, want, rel_tol=1e-12)


def test_quick_tour_numeric_comments_hold():
    namespace = {}
    exec(compile(_tour(), "README.md", "exec"), namespace)
    checked = 0
    for line in _tour().splitlines():
        expression, _, comment = line.partition("#")
        try:
            want = ast.literal_eval(comment.strip())
        except (SyntaxError, ValueError):  # prose, or a repr that is not a literal
            continue
        got = eval(expression, namespace)
        assert _close(got, want), f"{expression.strip()} gives {got!r}, README says {want!r}"
        checked += 1
    assert checked >= 4


def _documented_commands() -> list[list[str]]:
    """The ``synchrony-lab`` lines of the code block after "Documented example commands"."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split(
        "Documented example commands", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    return [line.split()[1:] for line in block.splitlines() if line.startswith("synchrony-lab ")]


def test_documented_commands_are_the_golden_commands():
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "scripts" / "make_fixtures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    data = "tests/data/"
    documented = [[str(script.DATA / arg[len(data):]) if arg.startswith(data) else arg
                   for arg in argv] for argv in _documented_commands()]
    assert documented == list(script.GOLDEN_COMMANDS.values())
