"""The synchrony-lab benchmark: one closed-loop workload per run.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see manifest.json for why each was chosen and its unit of work):
cli-cold, kinematics-batch, lattice-sync, probe-fit.  Every run generates its
inputs from ``--seed``, runs passes over the workload's fixed job list until
``--seconds`` have elapsed (finishing the pass in progress, and going on
until at least 10 jobs lie beyond the tail percentile), checks every job's
output against oracles restated in this directory, and prints one JSON
line last: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Times
are scaled to a reference machine speed (see common.CAL_REF_S).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes (their throughput difference is the tracing
overhead), then makes the fixed per-layer pass of ``layers.py``, and
reports the per-layer metrics.  Both write a run record (stamp, details,
span self times) and, when traced, the spans under ``.bench_out/``.

Run it from a full checkout: it imports the program from ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import (CAL_REF_S, ROOT, WORKLOADS, Tracer, calibrate, digest, percentile,
                    plain_call, program_env)

HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
MANIFEST = json.loads((HERE / "manifest.json").read_text(encoding="utf-8"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_RUNS = 7
MIN_BEYOND = 10


class Stats:
    """Job times, work done and failures of one set of passes."""

    def __init__(self):
        self.raw: list[float] = []  # job seconds, as measured
        self.latencies: list[float] = []  # job seconds at the reference machine speed
        self.passes: list[tuple[int, float]] = []  # (work, reference seconds) per pass
        self.failed = 0
        self.errors: list[str] = []

    def throughput(self) -> float:
        """Median over passes of work per second at the reference machine speed."""
        return statistics.median(w / t for w, t in self.passes)


def beyond(n: int, p: float) -> int:
    """How many of n distinct samples lie above their p-th percentile."""
    return n - 1 - math.floor((n - 1) * p / 100.0)


def closed_loop(module, jobs, seconds: float, tail_p: float,
                tracer: Tracer | None = None) -> dict:
    """Passes over ``jobs`` until ``seconds`` have elapsed.

    The pass in progress is finished, and passes go on until at least
    MIN_BEYOND jobs lie beyond the tail percentile.  With a tracer, odd
    passes are traced and even passes are not, so both see the same
    machine; at least two passes of each are made.  Each job's time is
    scaled by the calibration that follows it (see common.CAL_REF_S).
    """
    stats = {"untraced": Stats(), "traced": Stats()}
    deadline = time.perf_counter() + seconds
    n_pass = job_id = 0
    while (time.perf_counter() < deadline
           or beyond(len(stats["untraced"].raw), tail_p) < MIN_BEYOND
           or (tracer is not None and n_pass < 4)):
        traced = tracer is not None and n_pass % 2 == 1
        st = stats["traced" if traced else "untraced"]
        busy = 0.0
        work = 0
        for job in jobs:
            output, error = None, None
            if traced:
                tracer.open("job." + job.get("kind", job.get("name", "")), job_id)
            start = time.perf_counter()
            try:
                output = module.run(job, tracer.call if traced else plain_call)
            except Exception as exc:  # a failing job is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if traced:
                tracer.close()
            scaled = elapsed * CAL_REF_S / calibrate()
            ok = error is None and module.check(job, output)
            st.raw.append(elapsed)
            st.latencies.append(scaled)
            busy += scaled
            work += module.work(job) if ok else 0
            st.failed += not ok
            if error and len(st.errors) < 5:
                st.errors.append(error)
            job_id += 1
        st.passes.append((work, busy))
        n_pass += 1
    return stats


def tail(latencies: list[float], p: float) -> dict:
    """The job time at the p-th percentile, with the number of jobs beyond it."""
    ordered = sorted(latencies)
    value = percentile(ordered, p)
    return {"percentile": p, "value_ms": value * 1e3,
            "beyond": sum(1 for x in ordered if x > value), "samples": len(ordered)}


def measure_setup(workload: str, env: dict) -> tuple[list[float], list[float]]:
    """Seconds from process start to ready for SETUP_RUNS fresh processes.

    Returns them as measured and scaled by the calibration that follows each
    (the process ran on this CPU, see main).
    """
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "warmup.py"), workload],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or not line.strip():
            raise RuntimeError(f"set-up process for {workload} failed ({proc.returncode})")
        raw.append(ready - start - float(line))
        scaled.append(raw[-1] * CAL_REF_S / calibrate())
    return raw, scaled


def stamp(args, input_digest: str) -> dict:
    src = ROOT / "src" / "synchrony_lab"
    files = sorted(src.rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        h.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += sum(1 for line in data.decode("utf-8").splitlines() if line.strip())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "src_nonblank_lines": lines,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "input_digest": input_digest,
    }


def end_to_end(workload: str, stats: Stats, setup: tuple[list[float], list[float]]):
    """The end-to-end metrics, and the details the run record keeps."""
    t = tail(stats.latencies, MANIFEST["workloads"][workload]["tail_percentile"])
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    metrics = {
        "throughput_per_s": stats.throughput(),
        "latency_p50_ms": percentile(sorted(stats.latencies), 50) * 1e3,
        "latency_tail_ms": t["value_ms"],
        "setup_s": statistics.median(setup[1]),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    details = {
        "tail": t,
        "error_rate": {"value": stats.failed / len(stats.raw),
                       "failed": stats.failed, "attempted": len(stats.raw)},
        "passes": len(stats.passes),
        "work_done": sum(w for w, _ in stats.passes),
        "slowdown": sum(stats.raw) / sum(stats.latencies),
        "as_measured": {
            "throughput_per_s": sum(w for w, _ in stats.passes) / sum(stats.raw),
            "latency_p50_ms": percentile(sorted(stats.raw), 50) * 1e3,
            "setup_s": statistics.median(setup[0]),
        },
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=MANIFEST["default_seed"])
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "synchrony_lab" / "__init__.py").is_file():
        print(f"bench: no program at {ROOT / 'src' / 'synchrony_lab'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    os.environ.pop("SYNCHRONY_LAB_C", None)  # outputs are checked in natural units
    # One CPU for this process and every process it starts, so that each
    # calibration measures the CPU the timed work ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    module = importlib.import_module(WORKLOADS[args.workload])

    OUT.mkdir(exist_ok=True)
    jobs = module.generate(args.seed, OUT / "inputs" / f"{args.workload}-{args.seed}")
    input_digest = digest([{k: v for k, v in j.items() if k != "csv"} for j in jobs])

    warm = module.warmup_job()
    if not module.check(warm, module.run(warm, plain_call)):
        print("bench: the warm-up job failed its check", file=sys.stderr)
        return 1

    tail_p = MANIFEST["workloads"][args.workload]["tail_percentile"]
    record = {"stamp": stamp(args, input_digest)}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        import layers  # imports every layer; only the traced run needs them

        loop_tracer, layer_tracer = Tracer(), Tracer()
        stats = closed_loop(module, jobs, args.seconds, tail_p, loop_tracer)
        untraced, traced = stats["untraced"], stats["traced"]
        metrics = {
            "trace.throughput_untraced_per_s": untraced.throughput(),
            "trace.throughput_traced_per_s": traced.throughput(),
            "trace.overhead_per_s": untraced.throughput() - traced.throughput(),
        }
        layer_metrics, layer_pass = layers.run_all(layer_tracer, args.seed,
                                                OUT / "inputs" / f"layers-{args.seed}")
        metrics.update(layer_metrics)
        attempted = len(untraced.raw) + len(traced.raw) + layer_pass.attempted
        failed = untraced.failed + traced.failed + layer_pass.failed
        record["trace"] = {}
        for part, tracer in (("loop", loop_tracer), ("layers", layer_tracer)):
            spans = OUT / f"spans-{tag}-{part}.csv.gz"
            tracer.write(spans)
            record["trace"][part] = {"spans_file": spans.name,
                                     "span_count": len(tracer.rows) // 5,
                                     "self_times": tracer.summary()}
        errors = untraced.errors + traced.errors
    else:
        setup = measure_setup(args.workload, program_env())
        stats = closed_loop(module, jobs, args.seconds, tail_p)["untraced"]
        metrics, record["details"] = end_to_end(args.workload, stats, setup)
        attempted, failed, errors = len(stats.raw), stats.failed, stats.errors

    record["attempted"], record["failed"], record["errors"] = attempted, failed, errors
    declared = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(declared)}")
    record["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in declared.items()}
    path = OUT / f"{tag}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"record": str(path.relative_to(ROOT)), "stamp": record["stamp"]}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
