"""Causal order: why synchrony stops being a convention once superluminal signals exist.

A relay of signals, each instantaneous in its sender's chart, is built from
``transform_between`` and ``map_velocity`` alone.  Under Einstein synchrony
in each frame the relay can return before it left (frame A at rest, frame B
at beta > 0 a distance L away: B's reply, instantaneous in B's chart, reaches
A at t = -beta*L).  Under superluminal synchrony (k = -beta, the convention
zero-delay signals realize) every such chart shares one simultaneity, so no
chain of these signals returns before it left, and the simulator's
instantaneous signals are instantaneous in the lattice chart too.  Between
the two, Einstein's midpoint rule run with signals of absolute speed w
realizes k(w) = b(1 - w^2)/(w^2 - b^2), which runs from 0 at w = C toward -b:
superluminal synchrony is the rule's last choice, w = inf.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from synchrony_lab import (
    ClockLattice,
    Event,
    FrameSpec,
    induced_synchrony,
    map_velocity,
    measure_one_way,
    propagate,
    run_protocol,
    transform_between,
)
from synchrony_lab.kinematics import frame_coeffs

betas = st.floats(-0.99, 0.99)
distances = st.floats(0.01, 100.0)


def relay(frames, hops) -> float:
    """The originator's chart time when a chain of signals that left it at t = 0 returns.

    The originator sits at x = 0 in ``frames[0]``'s chart.  Signal i leaves
    from the event it reached in ``frames[i]``'s chart, is instantaneous in
    that chart, travels ``hops[i]`` along its x axis and is absorbed there by
    a receiver of ``frames[i + 1]``.  The last frame's signal is
    instantaneous in its own chart and runs back to the originator's
    worldline, which ``transform_between`` carries into that chart.
    """
    origin = frames[0]
    e = Event(0.0, 0.0, chart=origin.label)
    for sender, receiver, hop in zip(frames, frames[1:], hops):
        e = transform_between(Event(e.t, e.x + hop, chart=sender.label), sender, receiver)
    last = frames[-1]
    p0 = transform_between(Event(0.0, 0.0, chart=origin.label), origin, last)
    p1 = transform_between(Event(1.0, 0.0, chart=origin.label), origin, last)
    return (e.t - p0.t) / (p1.t - p0.t)


def k_of(w: float, b: float) -> float:
    """The k that Einstein's midpoint rule realizes with signals of absolute speed ``w``.

    For a lattice whose frame moves at ``b`` this is b(1 - w^2)/(w^2 - b^2),
    written here divided through by w^2 so that w = inf gives -b exactly.
    """
    return b * (w**-2 - 1.0) / (1.0 - (b / w) ** 2)


def midpoint_offsets(lattice, master, kind, speed=None) -> list:
    """The offsets Einstein's midpoint rule sets when every leg is a ``kind`` signal.

    Each slave's legs go out at absolute time 0 and back through public
    :func:`propagate`; at w = C this is the Einstein protocol's exchange.
    """
    rate, offsets = lattice.rate, [0.0] * len(lattice.positions)
    for i in range(len(offsets)):
        if i != master:
            out = propagate(lattice, master, i, kind, speed=speed)
            back = propagate(lattice, i, master, kind, speed=speed, t_emit=out.absorb.t)
            offsets[i] = 0.5 * (rate * 0.0 + rate * back.absorb.t) - rate * out.absorb.t
    return offsets


def realized_k(drift, gap, kind, speed=None) -> float:
    """k read off a light signal timed by clocks the midpoint rule set: 1 - C*elapsed/distance."""
    lattice = ClockLattice.build(drift, [0.0, gap])
    offsets = midpoint_offsets(lattice, 0, kind, speed)
    light = propagate(lattice, 0, 1, "light")
    rate = lattice.rate
    elapsed = (rate * light.absorb.t + offsets[1]) - (rate * light.emit.t + offsets[0])
    return 1.0 - elapsed / (gap / rate)


class TestTheLastChoice:
    """Superluminal synchrony is Einstein's midpoint rule in the limit of infinitely fast signals."""

    signed = st.floats(0.01, 0.99).flatmap(lambda b: st.sampled_from([b, -b]))

    @given(drift=betas, w=st.floats(1.0, 1e6), gap=distances)
    @example(drift=0.6, w=1.0, gap=1.0)
    @example(drift=-0.6, w=2.0, gap=1.0)
    def test_the_midpoint_rule_with_speed_w_realizes_k_of_w(self, drift, w, gap):
        lattice = ClockLattice.build(drift, [-gap, 0.0, gap])
        b = lattice.frame.beta
        offsets = midpoint_offsets(lattice, 1, "superluminal-finite", w)
        chart = frame_coeffs(FrameSpec(b, k_of(w, b)))
        # Each clock reads its offset at absolute time 0: the chart time of its position then.
        for x, offset in zip(lattice.positions, offsets):
            assert offset == pytest.approx(chart.apply(Event(0.0, x)).t, rel=1e-9, abs=1e-12)
        assert realized_k(drift, gap, "superluminal-finite", w) == pytest.approx(
            b * (1.0 - w * w) / (w * w - b * b), rel=1e-9, abs=1e-12)

    @given(drift=signed, gap=distances)
    @example(drift=0.6, gap=1.0)
    def test_k_of_w_runs_monotonically_from_zero_toward_minus_b(self, drift, gap):
        b = -drift
        ks = [realized_k(drift, gap, "light")]
        ks += [realized_k(drift, gap, "superluminal-finite", w)
               for w in (1.25, 2.0, 4.0, 16.0, 256.0, 1e4)]
        ks.append(realized_k(drift, gap, "instantaneous"))
        assert ks[0] == pytest.approx(0.0, abs=1e-12)
        assert ks[-1] == pytest.approx(-b, rel=1e-12)
        assert all(k * b < 0.0 for k in ks[1:])
        assert all(abs(lo) < abs(hi) for lo, hi in zip(ks, ks[1:]))

    @given(beta=st.floats(0.01, 0.99), distance=distances, w=st.floats(1.0, 1e3))
    @example(beta=0.6, distance=1.0, w=1.0)
    @example(beta=0.6, distance=1.0, w=math.inf)
    def test_the_relay_returns_at_minus_beta_l_over_w_squared(self, beta, distance, w):
        """B, set by the rule with speed-w signals, replies instantaneously in its own chart."""
        a, b = FrameSpec(0.0, 0.0, "A"), FrameSpec(beta, k_of(w, beta), "B")
        returned = -beta * distance / w**2
        reply = map_velocity(-math.inf, b, a)
        assert -distance / reply == pytest.approx(returned, rel=1e-9)
        assert relay([a, b], [distance]) == pytest.approx(returned, rel=1e-9, abs=1e-12)
        assert (-distance / reply < 0.0) == (w < math.inf)  # only the limit closes the loop

    @given(drift=signed, gaps=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=8),
           master=st.integers(0, 8))
    @example(drift=0.6, gaps=[1.0, 1.5], master=1)
    def test_at_infinite_speed_the_rule_is_the_superluminal_protocol(self, drift, gaps, master):
        positions = [0.0]
        for gap in gaps:
            positions.append(positions[-1] + gap)
        master %= len(positions)
        rule = ClockLattice.build(drift, positions)
        offsets = midpoint_offsets(rule, master, "instantaneous")
        synced = run_protocol(ClockLattice.build(drift, positions), "superluminal", master)
        assert list(map(repr, offsets)) == list(map(repr, synced.offsets))
        assert repr(k_of(math.inf, rule.frame.beta)) == repr(synced.frame.k)
        assert rule.log[::2] == synced.log  # the rule's out legs are the protocol's exchange


class TestEinsteinRelay:
    @given(beta=st.floats(0.01, 0.99), distance=distances)
    @example(beta=0.6, distance=1.0)
    def test_the_reply_returns_before_the_signal_left(self, beta, distance):
        a, b = FrameSpec(0.0, 0.0, "A"), FrameSpec(beta, 0.0, "B")
        returned = relay([a, b], [distance])
        assert returned < 0.0
        assert returned == pytest.approx(-beta * distance, rel=1e-12)

    @given(beta=st.floats(0.01, 0.99), distance=distances)
    @example(beta=0.6, distance=1.0)
    def test_the_reply_speed_in_a_closes_the_same_loop(self, beta, distance):
        """B's reply toward -x, instantaneous in B's chart, moves at +1/beta in A's chart."""
        reply = map_velocity(-math.inf, FrameSpec(beta, 0.0, "B"), FrameSpec(0.0, 0.0, "A"))
        assert reply == pytest.approx(1.0 / beta, rel=1e-12)
        assert -distance / reply == pytest.approx(-beta * distance, rel=1e-12)


class TestSuperluminalRelay:
    @given(beta=st.floats(0.01, 0.99), distance=distances)
    def test_the_reply_is_instantaneous_in_a_and_returns_at_zero(self, beta, distance):
        a, b = FrameSpec(0.0, 0.0, "A"), FrameSpec(beta, induced_synchrony(0.0, beta), "B")
        reply = map_velocity(-math.inf, b, a)
        assert reply == -math.inf
        assert -distance / reply == 0.0
        assert relay([a, b], [distance]) == 0.0

    @given(chain=st.lists(st.tuples(betas, st.floats(-100.0, 100.0)), min_size=2, max_size=6))
    @example(chain=[(0.6, 1.0), (0.3, 0.0)])  # a_tx's terms rounded apart: -7.3e-17
    def test_no_chain_returns_before_it_left(self, chain):
        frames = [FrameSpec(b, -b, f"F{i}") for i, (b, _) in enumerate(chain)]
        assert relay(frames, [hop for _, hop in chain[:-1]]) >= 0.0


class TestLatticeChart:
    @given(drift=betas, gaps=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=8),
           master=st.integers(0, 8))
    def test_superluminal_signals_are_instantaneous_in_the_lattice_chart(self, drift, gaps,
                                                                         master):
        positions = [0.0]
        for gap in gaps:
            positions.append(positions[-1] + gap)
        lattice = run_protocol(ClockLattice.build(drift, positions), "superluminal",
                               master % len(positions))
        for i in range(1, len(positions)):
            measure_one_way(lattice, i, i - 1, "instantaneous")
            measure_one_way(lattice, i - 1, i, "instantaneous")
        to_lattice = frame_coeffs(lattice.frame)
        assert len(lattice.log) == 3 * len(gaps)
        for _, emit_t, emit_x, absorb_t, absorb_x, _ in lattice.log:
            assert (to_lattice.apply(Event(emit_t, emit_x)).t
                    == to_lattice.apply(Event(absorb_t, absorb_x)).t)

    def test_under_einstein_synchrony_they_are_not(self):
        lattice = run_protocol(ClockLattice.build(0.6, [0.0, 1.0]), "einstein")
        measure_one_way(lattice, 0, 1, "instantaneous")
        _, emit_t, emit_x, absorb_t, absorb_x, _ = lattice.log[-1]
        to_lattice = frame_coeffs(lattice.frame)
        assert (to_lattice.apply(Event(emit_t, emit_x)).t
                != to_lattice.apply(Event(absorb_t, absorb_x)).t)
