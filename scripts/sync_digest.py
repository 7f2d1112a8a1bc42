#!/usr/bin/env python3
"""Print one sha256 over the clock simulator's observable results.

The digest covers ``run_scenario`` on the scenario files in ``tests/data``
(every protocol, every master, plus out-of-range masters), lattices of 2, 3,
300 and 4000 nodes at drifts 0, +-0.6, +-0.8 and +-0.9 under every protocol
and masters first, middle and last (offsets, frame, protocol, one-way and
two-way measurements of every signal kind, every signal-log row), two-node
lattices whose signals overflow, and a 181-point isotropy scan.  Floats are hashed through ``repr``, so the digest
is bit-exact; errors are hashed by type and message.  Two source trees with
the same digest simulate identically:

    python scripts/sync_digest.py
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from synchrony_lab import syncsim  # noqa: E402
from synchrony_lab.errors import SynchronyError  # noqa: E402
from synchrony_lab.syncsim import (  # noqa: E402
    INSTANTANEOUS,
    LIGHT,
    PROTOCOLS,
    SUPERLUMINAL_FINITE,
    ClockLattice,
)

SIZES = (2, 3, 300, 4000)
DRIFTS = (0.0, 0.6, -0.6, 0.8, -0.8, 0.9, -0.9)
#: (two_way, kind, speed); a 0.5 finite signal cannot catch a receding node.
MEASUREMENTS = (
    (False, LIGHT, None),
    (False, INSTANTANEOUS, None),
    (False, SUPERLUMINAL_FINITE, 5.0),
    (False, SUPERLUMINAL_FINITE, 0.5),
    (True, LIGHT, None),
    (True, SUPERLUMINAL_FINITE, 3.0),
    (True, SUPERLUMINAL_FINITE, 0.5),
)
#: Lattices whose gaps overflow a signal's event coordinates.
OVERFLOWING = ((-1e308, 1e308), (0.0, 1e308))


def positions(n: int) -> list[float]:
    rng = random.Random(n)
    xs, x = [], -0.37 * n
    for _ in range(n):
        xs.append(x)
        x += rng.uniform(0.5, 1.5)
    return xs


def attempt(feed, fn, *args, **kwargs):
    """Return ``fn``'s result, or feed its error and return None."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, SynchronyError) as exc:
        feed("error", type(exc).__name__, str(exc))
        return None


def feed_lattice(feed, lattice: ClockLattice) -> None:
    feed(lattice.protocol, lattice.frame, lattice.offsets, len(lattice.log))
    for row in lattice.log:
        feed(*row)


def measure(feed, lattice: ClockLattice, pairs) -> None:
    for i, j in pairs:
        for two_way, kind, speed in MEASUREMENTS:
            fn = syncsim.measure_two_way if two_way else syncsim.measure_one_way
            feed(attempt(feed, fn, lattice, i, j, kind, speed=speed))


def main() -> None:
    digest = hashlib.sha256()

    def feed(*items):
        digest.update(repr(items).encode())
        digest.update(b"\n")

    for path in sorted((ROOT / "tests" / "data").glob("scenario_*.json")):
        feed(path.name)
        scenario = attempt(feed, syncsim.load_scenario, path)
        if scenario is None:
            continue
        feed(scenario)
        for protocol in PROTOCOLS:
            for master in range(-1, len(scenario.node_positions) + 1):
                feed(protocol, master)
                result = attempt(feed, syncsim.run_scenario, scenario,
                                 protocol=protocol, master=master)
                if result is not None:
                    feed(result[1])
                    feed_lattice(feed, result[0])

    for n in SIZES:
        xs = positions(n)
        masters = sorted({0, n // 2, n - 1})
        pairs = [(0, n - 1), (n - 1, 0), (n // 2, 0), (1, n - 1)]
        for drift in DRIFTS:
            for protocol in PROTOCOLS:
                for master in masters:
                    feed(n, drift, protocol, master)
                    lattice = ClockLattice.build(drift, xs)
                    syncsim.run_protocol(lattice, protocol, master)
                    measure(feed, lattice, pairs)
                    feed_lattice(feed, lattice)

    for xs in OVERFLOWING:
        for drift in DRIFTS:
            for protocol in PROTOCOLS:
                feed(xs, drift, protocol)
                lattice = ClockLattice.build(drift, xs)
                if attempt(feed, syncsim.run_protocol, lattice, protocol) is not None:
                    measure(feed, lattice, [(0, 1), (1, 0)])
                feed_lattice(feed, lattice)

    feed(syncsim.isotropy_scan([-0.9 + 0.01 * i for i in range(181)]))
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
