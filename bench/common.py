"""Helpers shared by the benchmark: digests, percentiles and span tracing.

Nothing here imports numpy or synchrony_lab, so importing it adds nothing to
the set-up time the benchmark measures.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Workload name -> the module in bench/ that generates, runs and checks its jobs.
WORKLOADS = {
    "cli-cold": "cli_cold",
    "kinematics-batch": "kinematics_batch",
    "lattice-sync": "lattice_sync",
    "probe-fit": "probe_fit",
}

# Relative tolerance of the floating-point oracles.  A sign flip of a
# velocity moves every checked quantity by O(1), far beyond it.
REL_TOL = 1e-9


# This machine's CPU speed drifts by up to 2x over seconds (other tenants of the
# host), so a time measured alone says more about them than about the program.
# Every timed job is therefore followed at once by a fixed calibration: pure-
# Python arithmetic and calls, then numpy elementwise work, the two kinds of
# work the program does.  A job's time is scaled by CAL_REF_S over the
# calibration's time: a reported time is the time the job would take on a
# machine where the calibration takes exactly CAL_REF_S, which is about this
# machine when it is quiet.  The calibration allocates no container objects,
# so the program's heap cannot change its cost.
CAL_REF_S = 0.0012
CAL_LOOPS = 3200
CAL_ARRAY = 40_000


def _cal_step(x: float, k: float) -> float:
    return math.sqrt(x * x + k) - x * 0.5


def calibrate() -> float:
    """Seconds the fixed calibration work takes now."""
    import numpy as np  # not at module level: set-up processes import this module

    start = time.perf_counter()
    acc = 0.0
    for i in range(CAL_LOOPS):
        acc += _cal_step(i * 0.5, 1.0)
    a = np.linspace(0.1, 0.9, CAL_ARRAY)
    for _ in range(3):
        acc += float(np.sqrt(1.0 - a * a).sum())
    return time.perf_counter() - start


def close(value: float, expected: float, scale: float = 1.0) -> bool:
    """True when ``value`` matches ``expected`` to REL_TOL of the larger magnitude."""
    return abs(value - expected) <= REL_TOL * max(scale, abs(value), abs(expected))


def digest(obj) -> str:
    """SHA-256 of a JSON rendering; floats keep every digit (repr)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile(sorted_values, p: float) -> float:
    """Inclusive linear-interpolation percentile (numpy's default rule)."""
    n = len(sorted_values)
    pos = (n - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def program_env() -> dict:
    """This environment with src/ importable and no SI speed rescaling of printed output."""
    env = {k: v for k, v in os.environ.items() if k != "SYNCHRONY_LAB_C"}
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + extra if extra else "")
    return env


def plain_call(name, fn, *args, **kwargs):
    """The untraced stand-in for :meth:`Tracer.call`."""
    return fn(*args, **kwargs)


class Tracer:
    """In-memory spans with name, start, end, parent and job id.

    Spans live in one flat ``array('q')`` (five integers each, times in ns
    since the tracer started) so that a traced run of a few hundred thousand
    calls stays small; they are written out once, when the run ends.
    """

    COLUMNS = ("name", "start_ns", "end_ns", "parent", "job")

    def __init__(self):
        self.t0 = time.perf_counter_ns()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.rows = array("q")
        self._stack: list[int] = []
        self.job = -1

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span that is a child of the open span, if any."""
        start = time.perf_counter_ns()
        result = fn(*args, **kwargs)
        end = time.perf_counter_ns()
        parent = self._stack[-1] if self._stack else -1
        self.rows.extend((self._name_id(name), start - self.t0, end - self.t0, parent, self.job))
        return result

    def open(self, name: str, job: int | None = None) -> None:
        """Start a span that later calls nest under; close it with :meth:`close`."""
        if job is not None:
            self.job = job
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.rows) // 5)
        self.rows.extend(
            (self._name_id(name), time.perf_counter_ns() - self.t0, 0, parent, self.job)
        )

    def close(self) -> None:
        index = self._stack.pop()
        self.rows[index * 5 + 2] = time.perf_counter_ns() - self.t0

    def durations(self, name: str) -> list[int]:
        """Durations in ns of every span with this name, in start order."""
        nid = self._ids.get(name)
        rows = self.rows
        return [rows[i + 2] - rows[i + 1] for i in range(0, len(rows), 5) if rows[i] == nid]

    def summary(self) -> dict:
        """Per span name: count, total and self time (duration minus children)."""
        rows = self.rows
        count = len(rows) // 5
        child_ns = [0] * count
        for i in range(0, len(rows), 5):
            parent = rows[i + 3]
            if parent >= 0:
                child_ns[parent] += rows[i + 2] - rows[i + 1]
        out = {name: {"count": 0, "total_ms": 0.0, "self_ms": 0.0} for name in self.names}
        for s in range(count):
            i = s * 5
            entry = out[self.names[rows[i]]]
            dur = rows[i + 2] - rows[i + 1]
            entry["count"] += 1
            entry["total_ms"] += dur / 1e6
            entry["self_ms"] += (dur - child_ns[s]) / 1e6
        return out

    def write(self, path) -> None:
        """Gzipped text: a JSON header line, then one CSV row per span."""
        import gzip

        rows = self.rows
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "columns": self.COLUMNS}) + "\n")
            for i in range(0, len(rows), 5):
                fh.write(f"{rows[i]},{rows[i + 1]},{rows[i + 2]},{rows[i + 3]},{rows[i + 4]}\n")
