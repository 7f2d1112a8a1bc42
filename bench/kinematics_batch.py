"""kinematics-batch: seeded events through the scalar public kinematics API.

A job is a chunk of events.  In a "random-frame" chunk every event carries
its own (beta, k, k') and frame pair, so building coefficients dominates; in
a "fixed-frame" chunk one set of frame parameters serves the whole chunk, so
applying them dominates.  The mix is one random-frame chunk to two
fixed-frame chunks: the median job is a fixed-frame chunk and the slower
random-frame chunks make the tail, so a coefficient cache that helps one
kind and costs the other moves the two latency metrics apart.
"""

from __future__ import annotations

import math
import random

from synchrony_lab import (
    ABSOLUTE_FRAME,
    Event,
    FrameSpec,
    edwards_transform,
    lorentz_transform,
    map_velocity,
    superluminal_transform,
    transform_between,
)

from common import close

UNIT = "events"
CHUNK = 100
RANDOM_CHUNKS = 4
FIXED_CHUNKS = 8


def _disc(beta: float, k: float) -> float:
    return (1.0 + beta * k) ** 2 - beta * beta


def frame_params(rng: random.Random) -> list[float]:
    """(beta, k, k', beta_A, k_A, beta_B, k_B), non-degenerate for both signs of every beta."""
    params = []
    for _ in range(3):
        while True:
            beta = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.9)
            k = rng.uniform(-0.9, 0.9)
            if min(_disc(beta, k), _disc(-beta, k)) >= 0.05:
                break
        params += [beta, k]
    params.insert(2, rng.uniform(-0.9, 0.9))  # k' of the Edwards boost
    return params


def event(rng: random.Random) -> list[float]:
    """(t, x, x2, u): an event, a second position at the same t, a velocity."""
    return [rng.uniform(-100, 100), rng.uniform(-100, 100),
            rng.uniform(-100, 100), rng.uniform(-0.95, 0.95)]


def _chunk(rng: random.Random, kind: str, size: int) -> dict:
    if kind == "fixed-frame":
        return {"kind": kind, "frame": frame_params(rng),
                "events": [event(rng) for _ in range(size)]}
    return {"kind": kind, "events": [event(rng) + frame_params(rng) for _ in range(size)]}


def generate(seed: int, workdir) -> list[dict]:
    rng = random.Random(f"kinematics-batch/{seed}")
    kinds = ["random-frame"] * RANDOM_CHUNKS + ["fixed-frame"] * FIXED_CHUNKS
    rng.shuffle(kinds)
    return [_chunk(rng, kind, CHUNK) for kind in kinds]


def warmup_job() -> dict:
    return _chunk(random.Random("kinematics-batch/warm-up"), "random-frame", 10)


def work(job: dict) -> int:
    return len(job["events"])


def flip(job: dict) -> dict:
    """The same job with every boost and frame velocity sign-flipped."""
    def neg(p):
        p = list(p)
        for i in (0, 3, 5):
            p[i] = -p[i]
        return p
    if job["kind"] == "fixed-frame":
        return dict(job, frame=neg(job["frame"]))
    return dict(job, events=[e[:4] + neg(e[4:]) for e in job["events"]])


def _frames(p, call):
    a = call("kinematics.FrameSpec", FrameSpec, p[3], p[4], "A")
    b = call("kinematics.FrameSpec", FrameSpec, p[5], p[6], "B")
    v = call("kinematics.FrameSpec", FrameSpec, p[0], 0.0, "V")
    return a, b, v


def run(job: dict, call) -> list:
    fixed = job["kind"] == "fixed-frame"
    if fixed:
        p = job["frame"]
        a, b, v = _frames(p, call)
    out = []
    for ev in job["events"]:
        t, x, x2, u = ev[:4]
        if not fixed:
            p = ev[4:]
            a, b, v = _frames(p, call)
        beta, k, kp = p[0], p[1], p[2]
        e = call("kinematics.Event", Event, t, x)
        e2 = call("kinematics.Event", Event, t, x2)
        ea = call("kinematics.Event", Event, t, x, chart="A")
        ed = call("kinematics.edwards_transform", edwards_transform, e, beta, k, kp)
        lo = call("kinematics.lorentz_transform", lorentz_transform, e, beta)
        s1 = call("kinematics.superluminal_transform", superluminal_transform, e, beta)
        s2 = call("kinematics.superluminal_transform", superluminal_transform, e2, beta)
        ab = call("kinematics.transform_between", transform_between, ea, a, b)
        aba = call("kinematics.transform_between", transform_between, ab, b, a)
        mv = call("kinematics.map_velocity", map_velocity, u, ABSOLUTE_FRAME, v)
        out.append((e, ed, lo, s1, s2, ab, aba, mv))
    return out


# Oracles, restated from the closed forms rather than taken from the library.

def _frame_map(beta: float, k: float):
    """Isotropy chart -> chart of a frame at beta realizing k: (a_tt, a_tx, a_xt, a_xx)."""
    g = 1.0 / math.sqrt(1.0 - beta * beta)
    return g * (1.0 + beta * k), -g * (beta + k), -g * beta, g


def between(t, x, frame_a, frame_b):
    """Undo frame A's map by Cramer's rule, then apply frame B's."""
    att, atx, axt, axx = _frame_map(*frame_a)
    det = att * axx - atx * axt
    t_abs = (axx * t - atx * x) / det
    x_abs = (att * x - axt * t) / det
    btt, btx, bxt, bxx = _frame_map(*frame_b)
    return btt * t_abs + btx * x_abs, bxt * t_abs + bxx * x_abs


def _event_ok(ev, p, got) -> bool:
    t, x, x2, u = ev[:4]
    beta, k, kp, ba, ka, bb, kb = p
    e, ed, lo, s1, s2, ab, aba, mv = got
    scale = 10.0 * (abs(t) + abs(x) + abs(x2) + 1.0)

    h = 1.0 / math.sqrt((1.0 + beta * k) ** 2 - beta * beta)
    ed_t = h * (1.0 + beta * (k + kp)) * t + h * (beta * (k * k - 1.0) + k - kp) * x
    ed_x = h * (x - beta * t)
    g = 1.0 / math.sqrt(1.0 - beta * beta)
    root = math.sqrt(1.0 - beta * beta)
    ab_t, ab_x = between(t, x, (ba, ka), (bb, kb))
    return (
        (e.t, e.x) == (t, x)
        and close(ed.t, ed_t, scale) and close(ed.x, ed_x, scale)
        and close(lo.t, g * (t - beta * x), scale) and close(lo.x, g * (x - beta * t), scale)
        and s1.t == s2.t  # absolute simultaneity is exact, not within rounding
        and close(s1.t, root * t, scale)
        and close(s1.x, (x - beta * t) / root, scale)
        and close(s2.x, (x2 - beta * t) / root, scale)
        and ab.chart == "B" and close(ab.t, ab_t, scale) and close(ab.x, ab_x, scale)
        and aba.chart == "A" and close(aba.t, t, scale) and close(aba.x, x, scale)
        and close(mv, (u - beta) / (1.0 - u * beta))
    )


def check(job: dict, output: list) -> bool:
    if len(output) != len(job["events"]):
        return False
    fixed = job["kind"] == "fixed-frame"
    return all(
        _event_ok(ev, job["frame"] if fixed else ev[4:], got)
        for ev, got in zip(job["events"], output)
    )
