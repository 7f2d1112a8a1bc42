"""lattice-sync: large clock lattices and isotropy-scan chunks.

A lattice job builds n in {250, 1000, 4000} seeded increasing positions at a
drift of either sign, runs all three protocols on it and, after each, makes
a fixed number of one-way and two-way measurements.  A scan job is one
``isotropy_scan`` call over a chunk of seeded betas, a fresh 2-node lattice
per point.  Each pass of the job list holds the three lattice jobs and five
scan chunks, so the median job is a scan chunk (5 of 8) and the tail job is
the n=4000 lattice (the slowest 1 in 8).
"""

from __future__ import annotations

import random

from synchrony_lab import isotropy_scan, measure_one_way, measure_two_way, run_protocol
from synchrony_lab.syncsim import ClockLattice, PROTOCOLS

from common import close

UNIT = "nodes"
SIZES = (250, 1000, 4000)
SCAN_CHUNKS = 5
SCAN_POINTS = 32
ONE_WAY = 4
TWO_WAY = 2


def _beta(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def lattice_job(rng: random.Random, n: int) -> dict:
    positions, x = [], 0.0
    for _ in range(n):
        positions.append(x)
        x += rng.uniform(0.5, 1.5)
    pairs = [rng.sample(range(n), 2) for _ in range(ONE_WAY + TWO_WAY)]
    return {"kind": "lattice", "beta": _beta(rng, 0.1, 0.8), "positions": positions,
            "one_way": pairs[:ONE_WAY], "two_way": pairs[ONE_WAY:]}


def scan_job(rng: random.Random, points: int) -> dict:
    return {"kind": "scan", "betas": [_beta(rng, 0.05, 0.9) for _ in range(points)]}


def generate(seed: int, workdir) -> list[dict]:
    rng = random.Random(f"lattice-sync/{seed}")
    jobs = [lattice_job(rng, n) for n in SIZES]
    jobs += [scan_job(rng, SCAN_POINTS) for _ in range(SCAN_CHUNKS)]
    rng.shuffle(jobs)
    return jobs


def warmup_job() -> dict:
    return lattice_job(random.Random("lattice-sync/warm-up"), 50)


def work(job: dict) -> int:
    """Clock nodes synchronized: every node once per protocol run."""
    if job["kind"] == "scan":
        return 2 * len(job["betas"])
    return len(PROTOCOLS) * len(job["positions"])


def flip(job: dict) -> dict:
    if job["kind"] == "scan":
        return dict(job, betas=[-b for b in job["betas"]])
    return dict(job, beta=-job["beta"])


def run(job: dict, call):
    if job["kind"] == "scan":
        return call("syncsim.isotropy_scan", isotropy_scan, job["betas"])
    lattice = call("syncsim.ClockLattice.build", ClockLattice.build, job["beta"], job["positions"])
    out = []
    for protocol in PROTOCOLS:
        call("syncsim.run_protocol", run_protocol, lattice, protocol)
        for i, j in job["one_way"]:
            m = call("syncsim.measure_one_way", measure_one_way, lattice, i, j)
            out.append((protocol, i, j, m.speed))
        for i, j in job["two_way"]:
            m = call("syncsim.measure_two_way", measure_two_way, lattice, i, j)
            out.append((protocol, None, None, m.speed))
    return out


# Oracles, restated from the closed forms.  After zero-delay or external
# synchronization the lattice realizes k = +beta, so light measures
# 1/(1 - beta) toward +x and 1/(1 + beta) toward -x; after Einstein
# synchronization it measures 1 both ways; a round trip always measures 1.

def expected_one_way(protocol: str, beta: float, downstream: bool) -> float:
    if protocol == "einstein":
        return 1.0
    return 1.0 / (1.0 - beta) if downstream else 1.0 / (1.0 + beta)


def check(job: dict, output) -> bool:
    if job["kind"] == "scan":
        return len(output) == len(job["betas"]) and all(
            p.beta == b
            and close(p.c_plus, 1.0 / (1.0 - b))
            and close(p.c_minus, 1.0 / (1.0 + b))
            and close(p.anisotropy, 2.0 * b / (1.0 - b * b))
            for p, b in zip(output, job["betas"])
        )
    beta, pos = job["beta"], job["positions"]
    expected = []
    for protocol in PROTOCOLS:
        expected += [expected_one_way(protocol, beta, pos[j] > pos[i]) for i, j in job["one_way"]]
        expected += [1.0] * len(job["two_way"])
    return len(output) == len(expected) and all(
        close(got[3], want) for got, want in zip(output, expected)
    )
