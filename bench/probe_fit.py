"""probe-fit: ``estimate_absolute_frame`` on seeded synthetic samples at 1% noise.

Small fits are criterion 9's size (181-point grid x 100 samples) and are
handed their samples in memory; they measure the fixed cost per fit.  Large
fits (1801-point grid x 2000 samples) read their samples with
``load_samples`` from CSV files written while the inputs are generated;
they measure the numpy kernel and its temporaries.  Each pass of the job
list holds 4 large and 44 small fits: the median job is a small fit and
the tail job a large one.
"""

from __future__ import annotations

import csv
import math
import random
from pathlib import Path

from synchrony_lab import CollapseSample, estimate_absolute_frame, load_samples

UNIT = "cells"
GRID_SMALL = [-0.9 + 0.01 * i for i in range(181)]
GRID_LARGE = [-0.9 + 0.001 * i for i in range(1801)]
SMALL_SAMPLES = 100
LARGE_SAMPLES = 2000
LARGE_FITS = 4
SMALL_PER_LARGE = 11
NOISE = 0.01
TOLERANCE = 0.02  # criterion 9's recovery tolerance

# The model, restated: t_c = gamma(w) * hbar * E_p / delta_E^2 with w the
# lab velocity composed relativistically with the preferred frame's.
HBAR_EV_S = 6.582119569e-16
PLANCK_ENERGY_EV = 1.22e28


def _draws(rng: random.Random, m: int) -> list[list[float]]:
    """Per sample: delta_E, lab velocity (evenly spread over +-0.8), noise draw."""
    return [[rng.uniform(0.5, 2.0), -0.8 + 1.6 * i / (m - 1), rng.gauss(0.0, 1.0)]
            for i in range(m)]


def _samples(beta0: float, draws) -> list[list[float]]:
    """Rows of (delta_E, lab_beta, t_c, sigma) generated at preferred-frame velocity beta0."""
    rows = []
    for delta_e, u, z in draws:
        w = (u - beta0) / (1.0 - u * beta0)
        t_c = HBAR_EV_S * PLANCK_ENERGY_EV / (delta_e * delta_e * math.sqrt(1.0 - w * w))
        rows.append([delta_e, u, t_c * (1.0 + NOISE * z), NOISE * t_c])
    return rows


def _write_csv(path: Path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["delta_E", "lab_beta", "t_c", "sigma"])
        writer.writerows([repr(v) for v in row] for row in rows)


def make_job(rng: random.Random, kind: str, workdir: Path, index: int) -> dict:
    beta0 = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.5)
    draws = _draws(rng, LARGE_SAMPLES if kind == "large" else SMALL_SAMPLES)
    job = {"kind": kind, "beta0": beta0, "draws": draws, "samples": _samples(beta0, draws)}
    if kind == "large":
        job["csv"] = str(workdir / f"large_{index}.csv")
        _write_csv(Path(job["csv"]), job["samples"])
    return job


def generate(seed: int, workdir: Path) -> list[dict]:
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"probe-fit/{seed}")
    jobs = []
    for i in range(LARGE_FITS):
        jobs.append(make_job(rng, "large", workdir, i))
        jobs += [make_job(rng, "small", workdir, i) for _ in range(SMALL_PER_LARGE)]
    rng.shuffle(jobs)
    return jobs


def warmup_job() -> dict:
    return make_job(random.Random("probe-fit/warm-up"), "small", Path("."), 0)


def work(job: dict) -> int:
    """Fit cells: grid points times samples."""
    grid = GRID_LARGE if job["kind"] == "large" else GRID_SMALL
    return len(grid) * len(job["samples"])


def flip(job: dict) -> dict:
    """The same draws generated at the sign-flipped preferred-frame velocity."""
    flipped = dict(job, samples=_samples(-job["beta0"], job["draws"]))
    if job["kind"] == "large":
        flipped["csv"] = job["csv"] + ".flipped.csv"
        _write_csv(Path(flipped["csv"]), flipped["samples"])
    return flipped


def run(job: dict, call):
    if job["kind"] == "large":
        samples = call("probe.load_samples", load_samples, job["csv"])
        grid = GRID_LARGE
    else:
        samples = [CollapseSample(d, u, t, s) for d, u, t, s in job["samples"]]
        grid = GRID_SMALL
    return call("probe.estimate_absolute_frame", estimate_absolute_frame, samples, grid)


def check(job: dict, output) -> bool:
    beta_hat, report = output
    return (
        math.isfinite(beta_hat)
        and abs(beta_hat - job["beta0"]) <= TOLERANCE
        and report.n_samples == len(job["samples"])
    )
