"""The clock simulator stays bit-identical: scripts/sync_digest.py prints its pinned digest."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: sha256 over every simulator result the script covers; a change here is a change in behaviour.
PINNED = "4105baaeeba14856db84c64be14ca17d28a44d840b290d59934460ed543eb019"


def test_sync_digest_is_pinned(capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "sync_digest", ROOT / "scripts" / "sync_digest.py")
    script = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    spec.loader.exec_module(script)
    script.main()
    assert capsys.readouterr().out == PINNED + "\n"
