"""The traced run's per-layer pass: fixed work in each layer, timed by spans.

Every traced run, whatever its workload, makes this same pass, so every
per-layer metric is present in every traced result.  The amounts of work
are fixed (only the values depend on the seed), so every count repeats
exactly.  Each call is a span around a public function, made from here.
Times are scaled to the reference machine speed like the workloads' job
times (see common.CAL_REF_S).
"""

from __future__ import annotations

import io
import random
import statistics
import subprocess
import sys
from pathlib import Path

from synchrony_lab import (
    Event,
    FrameSpec,
    edwards_coeffs,
    induced_synchrony,
    isotropy_scan,
    load_samples,
    map_velocity,
    measure_one_way,
    one_way_speed,
    propagate,
    run_protocol,
    transform_between,
)
from synchrony_lab import cli, probe, syncsim
from synchrony_lab.syncsim import ClockLattice, PROTOCOLS

import cli_cold
import kinematics_batch
import lattice_sync
import probe_fit
from common import CAL_REF_S, calibrate, close

KIN_EVENTS = 2000
KIN_CAL_EVERY = 100
SYNC_REPEATS = 3
SYNC_MEASURES = 20
PROPAGATE_CALLS = 200
SCAN_CHUNKS = 8
SMALL_FITS = 20
LARGE_FITS = 2
INTERPRETER_RUNS = 5
IMPORT_RUNS = 3
MAIN_REPEATS = 3


class LayerPass:
    """Spans, scaled call times and checked operations of one per-layer pass."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.scaled_ns: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def call(self, name: str, fn, *args, **kwargs):
        """A span around ``fn``, its time scaled by the calibration that follows it."""
        result = self.tracer.call(name, fn, *args, **kwargs)
        rows = self.tracer.rows  # the span just written ends the array
        self.scaled_ns.setdefault(name, []).append(
            (rows[-3] - rows[-4]) * CAL_REF_S / calibrate())
        return result

    def median_us(self, name: str) -> float:
        return statistics.median(self.scaled_ns[name]) / 1e3

    def total_us(self, name: str) -> float:
        return sum(self.scaled_ns[name]) / 1e3


def kinematics_layer(lp: LayerPass, rng: random.Random) -> dict:
    """Calls of a few microseconds: too short to calibrate one by one, so the
    pass calibrates every KIN_CAL_EVERY events and scales by the median."""
    call = lp.tracer.call
    cals = []
    lp.tracer.open("layer.kinematics")
    for i in range(KIN_EVENTS):
        t, x, _, u = kinematics_batch.event(rng)
        p = kinematics_batch.frame_params(rng)
        beta, k, kp, ba, ka, bb, kb = p
        e = call("kinematics.Event", Event, t, x)
        coeffs = call("kinematics.edwards_coeffs", edwards_coeffs, beta, k, kp)
        image = call("kinematics.apply", coeffs.apply, e)
        a = call("kinematics.FrameSpec", FrameSpec, ba, ka, "A")
        b = call("kinematics.FrameSpec", FrameSpec, bb, kb, "B")
        ea = call("kinematics.Event", Event, t, x, chart="A")
        ab = call("kinematics.transform_between", transform_between, ea, a, b)
        mv = call("kinematics.map_velocity", map_velocity, u, a, b)
        if i % KIN_CAL_EVERY == 0:
            cals.append(calibrate())

        h = 1.0 / ((1.0 + beta * k) ** 2 - beta * beta) ** 0.5
        scale = 10.0 * (abs(t) + abs(x) + 1.0)
        ab_t, ab_x = kinematics_batch.between(t, x, (ba, ka), (bb, kb))
        # The image of the worldline x = u*t through A -> B, from two of its events.
        w_t, w_x = kinematics_batch.between(1.0, u, (ba, ka), (bb, kb))
        o_t, o_x = kinematics_batch.between(0.0, 0.0, (ba, ka), (bb, kb))
        lp.record(
            close(image.t, h * (1.0 + beta * (k + kp)) * t
                  + h * (beta * (k * k - 1.0) + k - kp) * x, scale)
            and close(image.x, h * (x - beta * t), scale)
            and close(ab.t, ab_t, scale) and close(ab.x, ab_x, scale)
            and close(mv, (w_x - o_x) / (w_t - o_t), 1.0)
        )
    lp.tracer.close()

    factor = CAL_REF_S / statistics.median(cals)
    tracer = lp.tracer

    def median_us(name):
        return statistics.median(tracer.durations(name)) * factor / 1e3

    durations = [d for n in tracer.names if n.startswith("kinematics.")
                 for d in tracer.durations(n)]
    return {
        "kinematics.event_us": median_us("kinematics.Event"),
        "kinematics.edwards_coeffs_us": median_us("kinematics.edwards_coeffs"),
        "kinematics.apply_us": median_us("kinematics.apply"),
        "kinematics.transform_between_us": median_us("kinematics.transform_between"),
        "kinematics.map_velocity_us": median_us("kinematics.map_velocity"),
        "kinematics.calls": len(durations),
        "kinematics.busy_s": sum(durations) * factor / 1e9,
    }


def syncsim_layer(lp: LayerPass, rng: random.Random) -> dict:
    call = lp.call
    metrics = {}
    built_nodes = 0
    log_records = 0
    lattices = {n: lattice_sync.lattice_job(rng, n) for n in lattice_sync.SIZES}
    lp.tracer.open("layer.syncsim")
    # Sizes alternate within each repeat, so a slow spell of the machine
    # does not land on one n and bend the growth ratios.
    for _ in range(SYNC_REPEATS):
        for n, job in lattices.items():
            for protocol in PROTOCOLS:
                lattice = call("syncsim.ClockLattice.build", ClockLattice.build,
                               job["beta"], job["positions"])
                built_nodes += n
                call(f"syncsim.run_protocol.{protocol}.n{n}", run_protocol, lattice, protocol)
                log_records += len(lattice.log)
            job["lattice"] = lattice  # externally regulated: one-way speeds 1/(1 -+ beta)
    for n, job in lattices.items():
        beta, positions, lattice = job["beta"], job["positions"], job["lattice"]
        for _ in range(SYNC_MEASURES):
            i, j = rng.sample(range(n), 2)
            m = call(f"syncsim.measure_one_way.n{n}", measure_one_way, lattice, i, j)
            lp.record(close(m.speed, lattice_sync.expected_one_way(
                syncsim.EXTERNAL_REGULATION, beta, positions[j] > positions[i])))
        log_records += SYNC_MEASURES
        metrics[f"syncsim.measure_one_way_us.n{n}"] = lp.median_us(f"syncsim.measure_one_way.n{n}")
        for protocol in PROTOCOLS:
            metrics[f"syncsim.run_protocol_us_per_node.{protocol}.n{n}"] = (
                lp.median_us(f"syncsim.run_protocol.{protocol}.n{n}") / n)

    # Direct propagate calls on a built lattice: a light signal's absorb
    # event lies on the receiver's worldline and is reached at speed 1.
    for _ in range(PROPAGATE_CALLS):
        i, j = rng.sample(range(len(positions)), 2)
        rec = call("syncsim.propagate", propagate, lattice, i, j, syncsim.LIGHT)
        dt = rec.absorb.t - rec.emit.t
        lp.record(
            close(rec.absorb.x, positions[j] - beta * rec.absorb.t, positions[-1])
            and close(abs(rec.absorb.x - rec.emit.x) / dt, 1.0)
        )
    log_records += PROPAGATE_CALLS

    points = 0
    for _ in range(SCAN_CHUNKS):
        job = lattice_sync.scan_job(rng, lattice_sync.SCAN_POINTS)
        lp.record(lattice_sync.check(job, call("syncsim.isotropy_scan", isotropy_scan,
                                               job["betas"])))
        points += len(job["betas"])
    lp.tracer.close()

    small, large = lattice_sync.SIZES[0], lattice_sync.SIZES[-1]
    for protocol in PROTOCOLS:
        metrics[f"syncsim.per_node_growth.{protocol}"] = (
            metrics[f"syncsim.run_protocol_us_per_node.{protocol}.n{large}"]
            / metrics[f"syncsim.run_protocol_us_per_node.{protocol}.n{small}"])
    metrics["syncsim.build_us_per_node"] = lp.total_us("syncsim.ClockLattice.build") / built_nodes
    metrics["syncsim.propagate_us"] = lp.median_us("syncsim.propagate")
    metrics["syncsim.propagate_calls"] = len(lp.scaled_ns["syncsim.propagate"])
    metrics["syncsim.scan_point_us"] = lp.total_us("syncsim.isotropy_scan") / points
    metrics["syncsim.log_records"] = log_records
    return metrics


def probe_layer(lp: LayerPass, rng: random.Random, workdir: Path) -> dict:
    call = lp.call
    workdir.mkdir(parents=True, exist_ok=True)
    fits = refined = recovered = rows = cells = 0
    lp.tracer.open("layer.probe")
    for i in range(SMALL_FITS + LARGE_FITS):
        kind = "small" if i < SMALL_FITS else "large"
        job = probe_fit.make_job(rng, kind, workdir, i)
        if kind == "large":
            samples = call("probe.load_samples", load_samples, job["csv"])
            rows += len(samples)
            cells += len(probe_fit.GRID_LARGE) * len(samples)
            grid = probe_fit.GRID_LARGE
        else:
            samples = [probe.CollapseSample(*row) for row in job["samples"]]
            grid = probe_fit.GRID_SMALL
        output = call(f"probe.estimate_absolute_frame.{kind}", probe.estimate_absolute_frame,
                      samples, grid)
        ok = probe_fit.check(job, output)
        lp.record(ok)
        fits += 1
        refined += output[1].refined
        recovered += ok
    lp.tracer.close()
    return {
        "probe.fit_overhead_ms": lp.median_us("probe.estimate_absolute_frame.small") / 1e3,
        "probe.fit_ns_per_cell": lp.total_us("probe.estimate_absolute_frame.large") * 1e3 / cells,
        "probe.load_samples_us_per_row": lp.total_us("probe.load_samples") / rows,
        "probe.refined_ratio": refined / fits,
        "probe.recovery_ratio": recovered / fits,
    }


def _importtime(stderr: str) -> tuple[float, float]:
    """(ms importing synchrony_lab.cli and its package, ms importing numpy) from -X importtime."""
    ours = numpy = 0.0
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            cumulative = float(parts[1])
        except ValueError:
            continue  # the header line
        name = parts[2][1:]
        if name.startswith("synchrony_lab") and not name.startswith(" "):
            ours += cumulative
        elif name.strip() == "numpy" and numpy == 0.0:
            numpy = cumulative
    return ours / 1e3, numpy / 1e3


def _grid(lo: float, hi: float, step: float) -> list[float]:
    """The CLI's documented grid: lo, lo + step, ... up to hi inclusive."""
    return [lo + i * step for i in range(int((hi - lo) / step + 1e-9) + 1)]


def _data(name: str) -> str:
    return str(cli_cold.ROOT / cli_cold.DATA / name)


def _direct(name: str):
    """The library calls one documented command makes, made directly."""
    if name.startswith("transform"):
        beta = 0.0 if name == "transform_lorentz_rest" else 0.6
        kp = 0.0 if name == "transform_lorentz_rest" else (
            induced_synchrony(0.0, beta) if name == "transform_superluminal_06" else -0.6)
        return edwards_coeffs(beta, 0.0, kp).apply(Event(1.0, 0.0), "S'")
    if name == "oneway_k06":
        return one_way_speed(0.6, "+x"), one_way_speed(0.6, "-x")
    if name == "scan_small":
        return isotropy_scan(_grid(-0.5, 0.5, 0.25))
    if name == "scan_wide":
        return isotropy_scan(_grid(-0.9, 0.9, 0.1))
    if name == "probe_beta03":
        samples = load_samples(_data("collapse_samples_beta03.csv"))
        return probe.estimate_absolute_frame(samples, _grid(-0.9, 0.9, 0.01))
    if name == cli_cold.ERROR_CASE:
        try:
            return syncsim.load_scenario(_data("scenario_bad_positions.json"))
        except syncsim.ScenarioError as exc:
            return exc
    scenario = syncsim.load_scenario(_data("scenario_rest.json" if name == "sync_rest_einstein"
                                           else "scenario_drift06.json"))
    protocol = "external-regulation" if name == "sync_drift06_external" else None
    return syncsim.run_scenario(scenario, protocol=protocol)


def cli_layer(lp: LayerPass) -> dict:
    env = cli_cold.ENV
    metrics = {}
    lp.tracer.open("layer.cli")
    for _ in range(INTERPRETER_RUNS):
        lp.call("cli.interpreter", subprocess.run, [sys.executable, "-c", "pass"],
                env=env, check=True)
    imports = []
    for _ in range(IMPORT_RUNS):
        proc = lp.call(
            "cli.importtime", subprocess.run,
            [sys.executable, "-X", "importtime", "-c", "import synchrony_lab.cli"],
            env=env, capture_output=True, text=True, check=True,
        )
        # The process's own report, scaled like the span around it.
        scale = lp.scaled_ns["cli.importtime"][-1] / (lp.tracer.rows[-3] - lp.tracer.rows[-4])
        imports.append([ms * scale for ms in _importtime(proc.stderr)])
    metrics["cli.interpreter_ms"] = lp.median_us("cli.interpreter") / 1e3
    metrics["cli.import_ms"] = statistics.median(i[0] for i in imports)
    metrics["cli.import_numpy_ms"] = statistics.median(i[1] for i in imports)

    for name in cli_cold.COMMANDS:
        job = cli_cold.make_job(name)
        argv = [_data(a[len(cli_cold.DATA):]) if a.startswith(cli_cold.DATA) else a
                for a in job["argv"]]
        _direct(name)  # warm caches for both paths
        for _ in range(MAIN_REPEATS):
            out, err = io.StringIO(), io.StringIO()
            code = lp.call(f"cli.main.{name}", cli.main, argv, stdout=out, stderr=err)
            lp.record(cli_cold.check(job, (code, out.getvalue(), err.getvalue())))
            lp.call(f"cli.direct.{name}", _direct, name)
        main_ms = lp.median_us(f"cli.main.{name}") / 1e3
        metrics[f"cli.main_ms.{name}"] = main_ms
        metrics[f"cli.overhead_ms.{name}"] = main_ms - lp.median_us(f"cli.direct.{name}") / 1e3
        metrics[f"cli.stdout_bytes.{name}"] = len(out.getvalue().encode("utf-8"))
    lp.tracer.close()
    return metrics


def run_all(tracer, seed: int, workdir: Path) -> tuple[dict, LayerPass]:
    """Every layer's metrics from one fixed pass; inputs are drawn from ``seed``."""
    rng = random.Random(f"layers/{seed}")
    lp = LayerPass(tracer)
    metrics = kinematics_layer(lp, rng)
    metrics.update(syncsim_layer(lp, rng))
    metrics.update(probe_layer(lp, rng, workdir))
    metrics.update(cli_layer(lp))
    return metrics, lp
