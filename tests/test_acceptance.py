"""Acceptance suite: one test per release criterion, run at full size.

Each test prints a single ``ACCEPTANCE PASS/FAIL`` line (visible with
``pytest -s``) and enforces the criterion's tolerance and, where stated,
its runtime budget.  Random draws are seeded; the suite is deterministic.
"""

from __future__ import annotations

import json
import math
import re
import time
from pathlib import Path

import numpy as np

from synchrony_lab import (
    ABSOLUTE_FRAME,
    Event,
    FrameSpec,
    edwards_transform,
    estimate_absolute_frame,
    induced_synchrony,
    isotropy_scan,
    lorentz_transform,
    measure_one_way,
    measure_two_way,
    resynchronize,
    run_protocol,
    superluminal_transform,
    transform_between,
)
from synchrony_lab.kinematics import resync_velocity
from synchrony_lab.syncsim import ClockLattice, PROTOCOLS, SUPERLUMINAL, EINSTEIN

from conftest import absolute_sync_boost, run_cli, synth_collapse_samples, textbook_boost

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def _report(criterion: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {status} criterion {criterion}: {label}{suffix}")
    assert ok, f"criterion {criterion} failed: {label} {detail}"


def test_criterion_01_lorentz_recovery():
    rng = np.random.default_rng(101)
    n = 100_000
    betas = rng.uniform(-0.99, 0.99, size=n)
    ts = rng.uniform(-1e3, 1e3, size=n)
    xs = rng.uniform(-1e3, 1e3, size=n)
    start = time.perf_counter()
    worst = 0.0
    for beta, t, x in zip(betas, ts, xs):
        image = edwards_transform(Event(t, x), beta, 0.0, 0.0)
        t_ref, x_ref = textbook_boost(t, x, beta)
        # Relative to the boost's own magnitude: near-null events cancel to
        # ~0 while both pipelines carry gamma*|coords|*ulp of rounding, so
        # "relative" must mean relative to the conditioning scale.
        gamma = 1.0 / math.sqrt(1.0 - beta * beta)
        scale = max(1.0, abs(t_ref), abs(x_ref), gamma * (abs(t) + abs(x)))
        worst = max(worst, abs(image.t - t_ref) / scale, abs(image.x - x_ref) / scale)
    elapsed = time.perf_counter() - start
    _report(
        1, "matches an independent textbook boost at isotropic conventions",
        worst <= 1e-12 and elapsed < 5.0,
        f"n={n}, worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_absolute_simultaneity_member():
    rng = np.random.default_rng(202)
    n = 100_000
    worst = 0.0
    for beta, t, x in zip(
        rng.uniform(-0.95, 0.95, size=n),
        rng.uniform(-100, 100, size=n),
        rng.uniform(-100, 100, size=n),
    ):
        # superluminal_transform is the general boost at k' = induced_synchrony(0, beta).
        general = superluminal_transform(Event(t, x), beta)
        t_ref, x_ref = absolute_sync_boost(t, x, beta)
        scale = max(1.0, abs(t_ref), abs(x_ref))
        worst = max(worst, abs(general.t - t_ref) / scale, abs(general.x - x_ref) / scale)

    # Time map is x-independent: bitwise equal times across 10^3 positions
    # per velocity, and the rate is exactly sqrt(1 - beta^2).
    x_independent = True
    rate_worst = 0.0
    for beta in rng.uniform(-0.95, 0.95, size=100):
        t = float(rng.uniform(0.1, 50))
        times = {superluminal_transform(Event(t, float(x)), beta).t
                 for x in rng.uniform(-1e3, 1e3, size=1_000)}
        x_independent = x_independent and len(times) == 1
        ratio = times.pop() / t
        rate_worst = max(rate_worst, abs(ratio - math.sqrt(1 - beta * beta)))
    _report(
        2, "general boost with the induced convention equals the direct form",
        worst <= 1e-12 and x_independent and rate_worst <= 1e-12,
        f"worst {worst:.2e}, rate err {rate_worst:.2e}",
    )


def test_criterion_03_induced_convention_constraint():
    grid = [-0.9 + 0.01 * i for i in range(181)]
    exact = all(induced_synchrony(0.0, beta) == -beta for beta in grid)
    _report(3, "induced synchrony of an isotropic source is exactly -beta", exact,
            "181-point grid")


def test_criterion_04_measured_one_way_speeds():
    start = time.perf_counter()
    lat = ClockLattice.build(0.6, (0.0, 1.0))
    run_protocol(lat, SUPERLUMINAL)
    fwd = measure_one_way(lat, 0, 1).speed
    bwd = measure_one_way(lat, 1, 0).speed
    sl_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    lat2 = ClockLattice.build(0.6, (0.0, 1.0))
    run_protocol(lat2, EINSTEIN)
    iso_f = measure_one_way(lat2, 0, 1).speed
    iso_b = measure_one_way(lat2, 1, 0).speed
    e_elapsed = time.perf_counter() - start

    ok = (
        abs(fwd - 2.5) <= 1e-9 and abs(bwd - 0.625) <= 1e-9
        and abs(iso_f - 1.0) <= 1e-9 and abs(iso_b - 1.0) <= 1e-9
        and sl_elapsed < 1.0 and e_elapsed < 1.0
    )
    _report(4, "zero-delay sync yields c/(1-+beta); isotropic sync yields c", ok,
            f"({fwd}, {bwd}) and ({iso_f}, {iso_b})")


def test_criterion_05_two_way_universality():
    worst = 0.0
    for beta in (-0.9, -0.6, 0.0, 0.6, 0.9):
        for protocol in PROTOCOLS:
            lat = ClockLattice.build(beta, (0.0, 1.0))
            run_protocol(lat, protocol)
            worst = max(worst, abs(measure_two_way(lat, 0, 1).speed - 1.0))
    _report(5, "round-trip light speed is 1 under every protocol", worst <= 1e-9,
            f"15 scenarios, worst dev {worst:.2e}")


def test_criterion_06_gauge_factorization():
    rng = np.random.default_rng(606)
    n = 100_000
    worst = 0.0
    drawn = 0
    while drawn < n:
        beta = float(rng.uniform(-0.99, 0.99))
        k = float(rng.uniform(-1.0, 1.0))
        kp = float(rng.uniform(-1.0, 1.0))
        disc = (1.0 + beta * k) ** 2 - beta**2
        if disc <= 1e-9:  # non-degenerate charts only; near-singular ones
            continue      # amplify rounding beyond any fixed budget
        drawn += 1
        t = float(rng.uniform(-10, 10))
        x = float(rng.uniform(-10, 10))
        e = Event(t, x)
        direct = edwards_transform(e, beta, k, kp)
        beta_iso = resync_velocity(beta, k, 0.0)
        staged = resynchronize(
            lorentz_transform(resynchronize(e, k, 0.0), beta_iso), 0.0, kp
        )
        scale = max(1.0, abs(direct.t), abs(direct.x),
                    (abs(t) + abs(x)) / math.sqrt(disc))
        worst = max(worst, abs(direct.t - staged.t) / scale,
                    abs(direct.x - staged.x) / scale)
    _report(
        6, "general boost factors as resync after isotropic boost after resync",
        worst <= 1e-12, f"n={n}, worst scaled dev {worst:.2e}",
    )


def test_criterion_07_groupoid_closure():
    rng = np.random.default_rng(707)
    n = 10_000
    worst = 0.0
    drawn = 0
    while drawn < n:
        b = rng.uniform(-0.95, 0.95, size=2)
        kk = rng.uniform(-0.95, 0.95, size=2)
        if any((1.0 + bi * ki) ** 2 - bi**2 <= 1e-6 for bi, ki in zip(b, kk)):
            continue
        drawn += 1
        frame_a = FrameSpec(float(b[0]), float(kk[0]), "A")
        frame_b = FrameSpec(float(b[1]), float(kk[1]), "B")
        t, x = rng.uniform(-100, 100, size=2)
        e = Event(float(t), float(x), chart="S")
        chained = transform_between(
            transform_between(e, ABSOLUTE_FRAME, frame_a), frame_a, frame_b
        )
        direct = transform_between(e, ABSOLUTE_FRAME, frame_b)
        scale = max(1.0, abs(direct.t), abs(direct.x))
        worst = max(worst, abs(chained.t - direct.t) / scale,
                    abs(chained.x - direct.x) / scale)
    _report(7, "frame-to-frame maps compose consistently", worst <= 1e-12,
            f"n={n}, worst rel dev {worst:.2e}")


def test_criterion_08_absolute_simultaneity_exact():
    rng = np.random.default_rng(808)
    n = 10_000
    ok = True
    for beta, t, x1, x2 in zip(
        rng.uniform(-0.99, 0.99, size=n),
        rng.uniform(-1e3, 1e3, size=n),
        rng.uniform(-1e3, 1e3, size=n),
        rng.uniform(-1e3, 1e3, size=n),
    ):
        a = superluminal_transform(Event(t, x1), beta)
        b = superluminal_transform(Event(t, x2), beta)
        ok = ok and (a.t - b.t == 0.0)
    _report(8, "equal-time pairs stay exactly simultaneous", ok, f"n={n}, zero diff")


def test_criterion_09_collapse_probe_round_trip():
    start = time.perf_counter()
    grid = [-0.9 + 0.01 * i for i in range(181)]
    velocities = np.linspace(-0.8, 0.8, 33)

    noiseless_ok = True
    recovered = []
    for beta0 in (0.0, 0.3, -0.5):
        beta_hat, _ = estimate_absolute_frame(
            synth_collapse_samples(beta0, velocities), grid
        )
        recovered.append(round(beta_hat, 6))
        noiseless_ok = noiseless_ok and abs(beta_hat - beta0) <= 0.005

    # Monte Carlo threshold committed after a one-time calibration:
    # seeds 1000..1999 gave 1000/1000 successes (max error 0.0083).
    successes = 0
    trials = 1000
    mc_velocities = np.linspace(-0.8, 0.8, 100)
    for trial in range(trials):
        rng = np.random.default_rng(1000 + trial)
        samples = synth_collapse_samples(0.3, mc_velocities, sigma=0.01, rng=rng)
        beta_hat, _ = estimate_absolute_frame(samples, grid)
        if abs(beta_hat - 0.3) <= 0.02:
            successes += 1
    elapsed = time.perf_counter() - start
    _report(
        9, "probe recovers the generating frame, noiseless and at 1% noise",
        noiseless_ok and successes >= 950 and elapsed < 30.0,
        f"noiseless {recovered}, noisy {successes}/{trials}, {elapsed:.1f}s",
    )


def test_criterion_10_isotropy_scan():
    betas = [-0.9 + 0.1 * i for i in range(19)]
    points = isotropy_scan(betas)
    best = min(points, key=lambda p: abs(p.anisotropy))
    at_06 = next(p for p in points if abs(p.beta - 0.6) < 1e-9)
    closed_form_ok = all(
        abs(p.anisotropy - 2.0 * p.beta / (1.0 - p.beta**2)) <= 1e-9 for p in points
    )
    ok = abs(best.beta) < 1e-12 and abs(at_06.anisotropy - 1.875) <= 1e-9 and closed_form_ok
    _report(10, "anisotropy scan bottoms out at rest and matches 2b/(1-b^2)", ok,
            f"argmin {best.beta}, A(0.6)={at_06.anisotropy}")


# The documented example commands (mirrors README and scripts/make_fixtures.py).
GOLDEN_COMMANDS = {
    "transform_lorentz_rest.json": [
        "transform", "--preset", "lorentz", "--beta", "0", "--event", "1,0,0,0",
    ],
    "transform_superluminal_06.json": [
        "transform", "--preset", "superluminal", "--beta", "0.6", "--event", "1,0,0,0",
    ],
    "transform_explicit_06.json": [
        "transform", "--beta", "0.6", "--k", "0", "--k-prime", "-0.6",
        "--event", "1,0,0,0",
    ],
    "oneway_k06.json": ["oneway", "--k", "0.6"],
    "sync_rest_einstein.json": [
        "sync", "--scenario", str(DATA / "scenario_rest.json"),
    ],
    "sync_drift06_superluminal.json": [
        "sync", "--scenario", str(DATA / "scenario_drift06.json"),
    ],
    "sync_drift06_external.json": [
        "sync", "--scenario", str(DATA / "scenario_drift06.json"),
        "--protocol", "external-regulation",
    ],
    "sync_drift06_measurements.csv": [
        "sync", "--scenario", str(DATA / "scenario_drift06.json"), "--format", "csv",
    ],
    "scan_small.csv": [
        "scan", "--beta-min", "-0.5", "--beta-max", "0.5", "--step", "0.25",
    ],
    "scan_wide.csv": [
        "scan", "--beta-min", "-0.9", "--beta-max", "0.9", "--step", "0.1",
    ],
    "probe_beta03.json": [
        "probe", "--samples", str(DATA / "collapse_samples_beta03.csv"),
        "--beta-min", "-0.9", "--beta-max", "0.9", "--step", "0.01",
    ],
}

_NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?(?![\w.])")


def _normalize_numbers(text: str, digits: int = 12) -> str:
    return _NUMBER.sub(lambda m: f"{float(m.group(0)):.{digits}g}", text)


def test_criterion_11_cli_determinism_and_goldens(monkeypatch):
    monkeypatch.delenv("SYNCHRONY_LAB_C", raising=False)
    assert {p.name for p in GOLDEN.iterdir()} == set(GOLDEN_COMMANDS)
    all_ok = True
    for name, argv in GOLDEN_COMMANDS.items():
        code1, out1, err1 = run_cli(argv)
        code2, out2, err2 = run_cli(argv)
        golden = (GOLDEN / name).read_text(encoding="utf-8")
        identical = (code1, out1, err1) == (code2, out2, err2) == (0, out1, "")
        matches = _normalize_numbers(out1) == _normalize_numbers(golden)
        if not (identical and matches):
            all_ok = False
            print(f"  golden mismatch: {name}")
    _report(11, "documented commands are byte-stable and match golden files",
            all_ok, f"{len(GOLDEN_COMMANDS)} commands, 12-digit comparison")
