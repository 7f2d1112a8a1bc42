"""The package resolves its exports on first use, and the CLI loads only what its commands run."""

from __future__ import annotations

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import synchrony_lab

SRC = str(Path(__file__).resolve().parent.parent / "src")


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
    assert not {"dataclasses", "inspect", "numpy", "synchrony_lab.probe"} & set(loaded)
