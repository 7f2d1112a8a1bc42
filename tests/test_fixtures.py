"""The checked-in fixture data and goldens are exactly what scripts/make_fixtures.py writes."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"


def test_make_fixtures_reproduces_the_checked_in_files(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "scripts" / "make_fixtures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "DATA", tmp_path / "data")
    monkeypatch.setattr(script, "GOLDEN", tmp_path / "golden")
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    script.main()

    def files(root):
        return sorted(p.relative_to(root) for d in ("data", "golden")
                      for p in (root / d).iterdir() if p.is_file())

    assert files(tmp_path) == files(TESTS)
    for rel in files(tmp_path):
        assert (tmp_path / rel).read_bytes() == (TESTS / rel).read_bytes(), rel
