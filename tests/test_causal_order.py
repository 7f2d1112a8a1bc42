"""Causal order: why synchrony stops being a convention once superluminal signals exist.

A relay of signals, each instantaneous in its sender's chart, is built from
``transform_between`` and ``map_velocity`` alone.  Under Einstein synchrony
in each frame the relay can return before it left (frame A at rest, frame B
at beta > 0 a distance L away: B's reply, instantaneous in B's chart, reaches
A at t = -beta*L).  Under superluminal synchrony (k = -beta, the convention
zero-delay signals realize) every such chart shares one simultaneity, so no
chain of these signals returns before it left, and the simulator's
instantaneous signals are instantaneous in the lattice chart too.
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
