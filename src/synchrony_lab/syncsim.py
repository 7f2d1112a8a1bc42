"""Clock-lattice simulation of synchronization protocols over 1D signals.

Ground truth lives in the isotropy ("absolute") chart: every clock position,
emission and absorption event is stored in absolute coordinates, and
instantaneous signals are instantaneous in that chart.  All worldlines are
straight, so event scheduling is exact (closed-form intersection), never
time-stepped.

Sign convention
---------------
A lattice is built from a drift: the velocity of the isotropy frame measured
along the lattice's +x axis (an "ether wind" seen in the laboratory).
Scenario files, :meth:`ClockLattice.build` and the printed ``beta`` are the
drift.  ``ClockLattice.frame`` is the kinematics frame of the hardware, so
its ``beta`` is ``-drift``: the hardware moves at ``frame.beta*C`` through
the absolute chart, its clocks tick at ``sqrt(1 - beta^2)`` per absolute time
unit, and comoving rulers are contracted by the same factor, so the
frame-chart distance between nodes is ``gamma`` times their absolute gap.
Zero-delay synchronization realizes ``k = induced_synchrony(0, frame.beta)``,
which is ``+drift``: light measures ``C/(1 - k)`` toward +x and ``C/(1 + k)``
toward -x, while every round trip averages to ``C`` under every protocol.
``frame_coeffs(lattice.frame)`` therefore maps absolute events into the
lattice chart.

A lattice is owned by one simulation run at a time; its positions are
fixed when it is built, and only a protocol run sets its frame, offsets,
log and protocol.  Callers check their inputs once.  Every signal row comes
from one kernel, :func:`_signal`, and every speed measurement from
:func:`_timed`, which the isotropy scan calls with no lattice.  A
protocol's exchange sends each side of the master through :func:`_send`:
at once if the side can fail, else on the first read of ``log``, so a run
whose log nobody reads pays for its offsets only.
"""

from __future__ import annotations

import math
import operator
import os
from collections import namedtuple
from functools import partial

from .errors import FileInvalid, NotSynchronized, ScenarioError, UnresolvableChase
from .kinematics import (C, INFINITE_SPEED, Event, FrameSpec, MINUS_X, PLUS_X, _check_beta,
                         _floats, _is_finite, _is_number, _rate, induced_synchrony)

LIGHT = "light"
SUPERLUMINAL_FINITE = "superluminal-finite"
INSTANTANEOUS = "instantaneous"
SIGNAL_KINDS = (LIGHT, SUPERLUMINAL_FINITE, INSTANTANEOUS)

EINSTEIN = "einstein"
SUPERLUMINAL = "superluminal"
EXTERNAL_REGULATION = "external-regulation"
PROTOCOLS = (EINSTEIN, SUPERLUMINAL, EXTERNAL_REGULATION)

TWO_WAY = "two-way"


class SignalRecord(namedtuple("SignalRecord", "kind emit absorb speed_abs")):
    """One propagated signal; emit/absorb events are in the absolute chart.

    ``speed_abs`` is the signed absolute-chart coordinate speed, inf allowed.
    """

    __slots__ = ()


class SpeedMeasurement(namedtuple("SpeedMeasurement", "direction distance elapsed speed")):
    """Outcome of a one-way or round-trip speed measurement.

    ``direction`` is ``"+x"``, ``"-x"`` or ``"two-way"``.  ``distance`` and
    ``elapsed`` are frame-chart quantities (synchronized clock readings,
    comoving-ruler lengths); ``speed`` is their quotient or
    :data:`~synchrony_lab.kinematics.INFINITE_SPEED` for zero elapsed.
    """

    __slots__ = ()


class ClockLattice:
    """Simulator ground truth: the hardware's frame, its clocks, and a signal log.

    ``frame`` is the kinematics frame of the hardware (``beta = -drift``,
    ``k`` as realized by ``protocol``).  Clock i sits at absolute position
    ``positions[i]`` at absolute time 0, moves at ``frame.beta*C`` and reads
    ``rate*t + offsets[i]`` at absolute time t.  ``log`` lists every signal
    since the last protocol run started (its exchange, then any
    measurements) as a ``(kind, emit_t, emit_x, absorb_t, absorb_x,
    speed_abs)`` tuple in the absolute chart.  The first read of ``log``
    sends the exchange's deferred sides through :func:`_signal`, in their
    place in send order, so a run whose log nobody reads pays for its
    offsets only.  ``protocol`` names the last protocol run if it completed,
    else None, and then ``k`` and the offsets are zero; only
    :func:`run_protocol` sets them.  So the constructor takes a
    :class:`FrameSpec` whose ``k`` is 0.  Positions are checked by the
    number rule of :mod:`~synchrony_lab.kinematics` and kept as floats.
    ``positions``, ``frame``, ``offsets``, ``log`` and ``protocol`` are
    read-only: assigning one raises ``AttributeError``, and ``offsets`` and
    ``log`` return a new list on each read.
    """

    def __init__(self, frame: FrameSpec, positions):
        if not isinstance(frame, FrameSpec):
            raise TypeError(f"lattice frame must be a FrameSpec, not {type(frame).__name__}")
        if frame.k != 0.0:
            raise ValueError(f"a new lattice's frame must have k = 0, got {frame.k!r}")
        positions = _floats(positions, "node positions")
        if len(positions) < 2:
            raise ValueError("lattice needs at least two nodes")
        # One sum first: it is finite only if every position is (a sum of
        # finite positions can still overflow, so then each is checked).
        if not math.isfinite(sum(positions)) and not all(map(math.isfinite, positions)):
            raise ValueError("node positions must be finite")
        if any(map(operator.le, positions[1:], positions)):
            raise ValueError("node positions must be strictly increasing")
        self._frame, self._positions = frame, positions
        self._offsets: list[float] = [0.0] * len(positions)
        self._log: list = []  # rows, and until the first read of log, deferred entries
        self._deferred = False  # whether _log may still hold a deferred entry
        self._protocol: str | None = None

    @classmethod
    def build(cls, drift: float, positions) -> "ClockLattice":
        """Comoving lattice at ``drift`` with clocks at the given absolute positions.

        ``drift`` is checked as the constructor checks a position, then as a
        boost velocity: an error names the drift as given, not the frame's
        ``beta``.
        """
        (drift,) = _floats((drift,), "drift")
        _check_beta(drift)
        return cls(FrameSpec(-drift, 0.0, "lab"), positions)

    # Read-only: only the constructor and run_protocol set them, and offsets
    # and log are handed out as copies, so changing one leaves the lattice as it is.
    positions = property(operator.attrgetter("_positions"),
                         doc="Absolute positions of the clocks at absolute time 0, as built.")
    frame = property(operator.attrgetter("_frame"),
                     doc="The hardware's kinematics frame, with the k its protocol realized.")
    offsets = property(lambda self: self._offsets.copy(),
                       doc="Each clock's reading at absolute time 0, as a new list.")
    protocol = property(operator.attrgetter("_protocol"),
                        doc="The last protocol run if it completed, else None.")

    @property
    def log(self) -> list:
        """Every signal since the last protocol run started, as a new list of tuples."""
        log = self._log
        if self._deferred:  # send the exchange's deferred sides, last entry first
            for i in range(len(log) - 1, -1, -1):
                if callable(send := log[i]):
                    send(rows := [])
                    log[i:i + 1] = rows
            self._deferred = False
        return log.copy()

    @property
    def rate(self) -> float:
        """Tick rate of every clock per absolute time unit."""
        return _rate(self._frame.beta)

    def index(self, node_id: int) -> int:
        """``node_id``, checked: negative, bool, non-integer or out-of-range ids are rejected."""
        try:
            if node_id >= 0 and not isinstance(node_id, bool):
                self._positions[node_id]
                return node_id
        except (TypeError, IndexError):  # not an integer, or past the end
            pass
        raise ValueError(f"no node with id {node_id!r}")


def propagate(
    lattice: ClockLattice,
    from_id: int,
    to_id: int,
    kind: str,
    *,
    speed: float | None = None,
    t_emit: float = 0.0,
) -> SignalRecord:
    """Send one signal between nodes; exact worldline intersection, logged.

    ``speed`` (absolute-chart magnitude) is required for
    ``superluminal-finite`` and ignored otherwise.  Raises
    :class:`UnresolvableChase` when a finite signal is too slow to catch a
    receding node, and ``ValueError`` when ``t_emit`` is not an int or float
    that a float can hold or an event coordinate is not finite.  A signal
    that raises is not logged.  Returns the row it appended to
    ``lattice.log`` as a :class:`SignalRecord`.
    """
    x_from, x_to, magnitude = _check_signal(lattice, from_id, to_id, kind, speed)
    if not _is_number(t_emit) or isinstance(t_emit, int) and not _is_finite(t_emit):
        raise ValueError("t_emit must be an int or float that a float can hold")
    u, t_emit = lattice._frame.beta * C, float(t_emit)
    _signal(lattice._log, kind, u, magnitude, x_from, x_to, t_emit, to_id)
    kind, emit_t, emit_x, absorb_t, absorb_x, speed_abs = lattice._log[-1]
    # _signal has checked all four coordinates finite: build the Events unchecked.
    return SignalRecord(kind, tuple.__new__(Event, (emit_t, emit_x, 0.0, 0.0, "S")),
                        tuple.__new__(Event, (absorb_t, absorb_x, 0.0, 0.0, "S")), speed_abs)


def _check_signal(lattice, from_id, to_id, kind, speed) -> tuple:
    """:func:`propagate`'s checks, in order; returns :func:`_signal`'s x_from, x_to, magnitude."""
    if kind not in SIGNAL_KINDS:
        raise ValueError(f"unknown signal kind {kind!r}")
    if from_id == to_id:
        raise ValueError("signal endpoints must differ")
    p = lattice._positions
    x_from, x_to = p[lattice.index(from_id)], p[lattice.index(to_id)]
    if speed is not None or kind == SUPERLUMINAL_FINITE:
        if not (_is_finite(speed) and speed > 0.0):
            raise ValueError(f"{kind} signals need a positive finite speed")
    return x_from, x_to, float(speed) if kind == SUPERLUMINAL_FINITE else C


def _signal(rows, kind, u, magnitude, x_from, x_to, t_emit, to_id) -> float:
    """One signal on plain floats: intersection, chase and finiteness checks, then one row.

    The caller owns :func:`_check_signal`'s checks (known kind, two distinct
    valid nodes at ``x_from`` and ``x_to``, ``magnitude`` C or a checked
    speed); ``u`` is ``frame.beta*C``.  Returns the absorb time.

    One test covers all four coordinates: their sum is finite only if each
    of them is.  A finite sum can still overflow, so when it is not finite
    each component is checked on its own, and only a non-finite one raises.
    """
    x_emit = x_from + u * t_emit
    gap = x_to - x_from  # constant in time, never zero: clocks are comoving and distinct

    if kind == INSTANTANEOUS:
        t_abs = t_emit
        x_abs = x_to + u * t_emit
        w = INFINITE_SPEED if gap > 0 else -INFINITE_SPEED
    else:
        w = magnitude if gap > 0 else -magnitude
        denom = w - u
        if denom == 0.0 or (dt := gap / denom) <= 0.0:
            raise UnresolvableChase(
                f"signal at speed {w!r} cannot reach node {to_id} "
                f"receding at {u!r}"
            )
        t_abs = t_emit + dt
        x_abs = x_emit + w * dt

    if not math.isfinite(t_emit + x_emit + t_abs + x_abs):
        Event(t_emit, x_emit)  # raises, naming the first non-finite component
        Event(t_abs, x_abs)
    rows.append((kind, t_emit, x_emit, t_abs, x_abs, w))
    return t_abs


def run_protocol(lattice: ClockLattice, protocol: str, master: int = 0) -> ClockLattice:
    """Reset the lattice to its built state, then synchronize it against ``master``.

    The built state has zero offsets and ``frame.k``, an empty log and no
    ``protocol``.  The exchange starts at absolute time 0 and is logged; the
    offsets, ``frame.k`` and ``protocol`` are set together once it completes.

    einstein
        Literal two-way light exchange per slave: emit, reflect, return;
        the slave is set so its reflection reading is the midpoint of the
        master's emission and return readings.  Each slave exchanges
        directly with the master (no hop chaining, no accumulated error).
    superluminal
        A zero-delay signal carries the master's reading to every slave;
        all clocks then agree at the same absolute instant.
    external-regulation
        Every clock copies, at one common absolute instant, the co-located
        clock of a resting reference lattice that was calibrated to the
        master.  Copies must share the instant: clocks tick slower than the
        reference, so staggered copies would drift apart by (1 - rate) per
        unit time.  Produces exactly the superluminal offsets.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    m = lattice.index(master)
    p, b, label = lattice._positions, lattice._frame.beta, lattice._frame.label
    rows, offsets = [], [0.0] * len(p)  # the master reads rate*t
    lattice._offsets, lattice._log, lattice._protocol = [0.0] * len(p), rows, None
    lattice._deferred = protocol != EXTERNAL_REGULATION
    lattice._frame = FrameSpec(b, 0.0, label)
    if protocol != EXTERNAL_REGULATION:  # at absolute time 0 the reference reads the master's 0
        _exchange(rows, offsets, LIGHT if protocol == EINSTEIN else INSTANTANEOUS,
                  b * C, _rate(b), p, m)

    lattice._offsets, lattice._protocol = offsets, protocol
    lattice._frame = FrameSpec(b, 0.0 if protocol == EINSTEIN else induced_synchrony(0.0, b), label)
    return lattice


def _exchange(rows, offsets, kind, u, rate, p, m) -> None:
    """:func:`run_protocol`'s exchange from master ``m``, starting at absolute time 0.

    Each side of the master is sent by one :func:`_send`; positions
    increase, so a side's signed light speed ``w`` is its out legs'.  A light
    side is bounded once, from its nearest and farthest slaves: if no chase
    can fail to resolve and no coordinate sum can overflow, nothing on it
    can raise.  A side that fails the bound is sent at once, and may raise.
    An instantaneous side cannot fail on a built lattice: with subnormals,
    x > y implies x - y > 0, so every gap has its side's sign, and every
    coordinate of its row is finite.  A bounded light side sets its offsets
    by :func:`_send`'s formula, bit for bit, and an instantaneous side keeps
    its zero ones; each appends its :func:`_send` to ``rows`` as a deferred
    entry, which the first read of :attr:`ClockLattice.log` sends.
    """
    x_m = p[m]
    for first, xs, w in ((0, p[:m], -C), (m + 1, p[m + 1:], C)):
        if not xs:
            continue
        send = partial(_send, kind, u, rate, x_m, m, xs, first)
        if kind != LIGHT:
            rows.append(send)
            continue
        # |u| < C, so neither denominator is zero, and each carries its leg's sign.
        d_out, d_back = w - u, -w - u
        near, far = (xs[0], xs[-1]) if w > 0.0 else (xs[-1], xs[0])
        # Rounding is monotone, so every slave's dt and dt_back are at least
        # the nearest slave's and, as |d_out|, |d_back| >= 1 - |u|, at most
        # B = |far - x_m| / (1 - |u|).  Every position lies within X =
        # max(|x_m|, |far|) of 0, each coordinate within X + 2B, and the
        # four-term sum within 6B + 3X: below 2**1021, no term or partial sum
        # overflows.  A bound that overflows is inf and refuses the side.
        if not ((near - x_m) / d_out > 0.0 and (x_m - near) / d_back > 0.0
                and 6.0 * (abs(far - x_m) / (1.0 - abs(u)))
                + 3.0 * max(abs(x_m), abs(far)) < 2.0 ** 1021):
            offsets[first:first + len(xs)] = send(rows)
        else:
            offsets[first:first + len(xs)] = [
                0.5 * (rate * ((dt := (x - x_m) / d_out) + (x_m - x) / d_back)) - rate * dt
                for x in xs]
            rows.append(send)


def _send(kind, u, rate, x_m, m, xs, first, rows) -> list:
    """Send one side of master ``m`` through :func:`_signal`, slave ``first + j`` at ``xs[j]``.

    Light goes out at absolute time 0 and back, and the midpoint rule gives
    each slave's offset; an instantaneous side goes out only and returns [].
    """
    side = []
    for i, x in enumerate(xs, first):
        dt = _signal(rows, kind, u, C, x_m, x, 0.0, i)
        if kind == LIGHT:
            t_return = _signal(rows, LIGHT, u, C, x, x_m, dt, m)
            side.append(0.5 * (rate * t_return) - rate * dt)
    return side


def measure_one_way(
    lattice: ClockLattice,
    from_id: int,
    to_id: int,
    kind: str = LIGHT,
    *,
    speed: float | None = None,
) -> SpeedMeasurement:
    """Measure a signal's one-way speed with the synchronized lattice clocks.

    Elapsed time is the receiver's reading at absorption minus the emitter's
    reading at emission; distance is the nodes' rest separation.  Zero
    elapsed yields :data:`~synchrony_lab.kinematics.INFINITE_SPEED`.  An
    unsynchronized lattice raises :class:`NotSynchronized` before any signal.
    """
    return _measure(lattice, from_id, to_id, kind, speed, False)


def measure_two_way(
    lattice: ClockLattice,
    from_id: int,
    to_id: int,
    kind: str = LIGHT,
    *,
    speed: float | None = None,
) -> SpeedMeasurement:
    """Round-trip measurement: out, reflect, back, timed on the emitter's clock.

    Offsets cancel on the single clock, which is why the two-way light speed
    comes out at ``C`` under every protocol.  Distance is twice the rest
    separation; otherwise as :func:`measure_one_way`.
    """
    return _measure(lattice, from_id, to_id, kind, speed, True)


def _measure(lattice, from_id, to_id, kind, speed, two_way) -> SpeedMeasurement:
    """One-way, or out and back when ``two_way``: sync check, signal checks, then :func:`_timed`."""
    if lattice._protocol is None:
        raise NotSynchronized("run a synchronization protocol before measuring")
    x_from, x_to, magnitude = _check_signal(lattice, from_id, to_id, kind, speed)
    direction = TWO_WAY if two_way else PLUS_X if x_to > x_from else MINUS_X
    return SpeedMeasurement(direction, *_timed(lattice._log, kind, lattice._frame.beta, lattice.rate,
                                               magnitude, x_from, x_to, from_id, to_id,
                                               lattice._offsets, two_way))


def _timed(rows, kind, b, rate, magnitude, x_from, x_to, from_id, to_id, offsets, two_way):
    """:func:`_measure` on checked plain floats, ``rate = _rate(b)``: (distance, elapsed, speed)."""
    u, t0 = b * C, 0.0
    t = _signal(rows, kind, u, magnitude, x_from, x_to, t0, to_id)
    if two_way:
        t = _signal(rows, kind, u, magnitude, x_to, x_from, t, from_id)
    end = from_id if two_way else to_id
    elapsed = (rate * t + offsets[end]) - (rate * t0 + offsets[from_id])
    # Rest length: 1/rate is _eta(b, 0.0) bit for bit (see kinematics._rate).
    distance = (1.0 / rate) * abs(x_to - x_from)
    if two_way:
        distance = 2.0 * distance
    return distance, elapsed, INFINITE_SPEED if elapsed == 0.0 else distance / elapsed


class ScanPoint(namedtuple("ScanPoint", "beta c_plus c_minus anisotropy")):
    """One candidate drift velocity with its measured one-way speeds."""

    __slots__ = ()


def isotropy_scan(betas) -> list[ScanPoint]:
    """Measure the one-way anisotropy for each candidate drift velocity.

    Each drift is checked once, as :meth:`ClockLattice.build` checks it, and
    the types of all of them before the first point.  With no lattice,
    :func:`_timed` times a light signal each way between clocks at x = 0 and
    1 with zero offsets, which external regulation sets and which equal the
    superluminal ones exactly.
    ``c_plus - c_minus`` is 2*beta/(1 - beta^2) and vanishes exactly in the
    isotropy frame, so the argmin of its magnitude locates that frame.
    """
    points, offsets = [], (0.0, 0.0)
    for beta in _floats(betas, "drift"):
        _check_beta(beta)  # the drift as given, as ClockLattice.build checks it
        b, rows = -beta, []  # b: ClockLattice.build's frame.beta
        rate = _rate(b)
        c_plus = _timed(rows, LIGHT, b, rate, C, 0.0, 1.0, 0, 1, offsets, False)[2]
        c_minus = _timed(rows, LIGHT, b, rate, C, 1.0, 0.0, 1, 0, offsets, False)[2]
        # ScanPoint checks nothing: build it without the generated __new__.
        points.append(tuple.__new__(ScanPoint, (beta, c_plus, c_minus, c_plus - c_minus)))
    return points


class SignalSpec(namedtuple("SignalSpec", "source target kind two_way speed",
                            defaults=(LIGHT, False, None))):
    """One requested measurement from a scenario file."""

    __slots__ = ()


Scenario = namedtuple("Scenario", "beta node_positions protocol signals")


class _Repeated(dict):
    """A JSON object that gave ``key`` more than once; :func:`_check_keys` refuses it."""


def _object(pairs) -> dict:
    """``json.load``'s object hook: a dict, or a :class:`_Repeated` naming its first repeat."""
    raw = dict(pairs)
    if len(raw) < len(pairs):
        seen, raw = set(), _Repeated(raw)
        raw.key = next(key for key, _ in pairs if key in seen or seen.add(key))
    return raw


def _check_keys(raw: dict, known, prefix: str = "") -> None:
    """Reject a repeated key, then one not in ``known``; either would be silently ignored."""
    if type(raw) is _Repeated:
        raise ScenarioError("unique_keys", f"{prefix}{raw.key}")
    for key in raw:
        if key not in known:
            raise ScenarioError("known_field", f"{prefix}{key}")


def parse_scenario(raw: dict) -> Scenario:
    """Validate a scenario dict; every violation names the broken invariant."""
    if not isinstance(raw, dict):
        raise ScenarioError("must_be_object", "scenario")
    _check_keys(raw, ("beta", "node_positions", "protocol", "signals"))
    beta = raw.get("beta")
    if not (_is_finite(beta) and abs(beta) < 1.0):
        raise ScenarioError("abs_beta_lt_1" if _is_number(beta) else "must_be_number", "beta")

    positions = raw.get("node_positions")
    if not isinstance(positions, list) or len(positions) < 2:
        raise ScenarioError("at_least_two_nodes", "node_positions")
    if not all(map(_is_finite, positions)):
        raise ScenarioError("positions_finite_numbers", "node_positions")
    positions = tuple(map(float, positions))  # as the lattice holds them
    if any(b <= a for a, b in zip(positions, positions[1:])):
        raise ScenarioError("strictly_increasing_positions", "node_positions")

    protocol = raw.get("protocol")
    if protocol not in PROTOCOLS:
        raise ScenarioError("known_protocol", "protocol", f"got {protocol!r}")

    raw_signals = raw.get("signals", [])
    if not isinstance(raw_signals, list):
        raise ScenarioError("signals_list", "signals")
    signals = []
    for i, s in enumerate(raw_signals):
        if not isinstance(s, dict):
            raise ScenarioError("signal_object", f"signals[{i}]")
        _check_keys(s, ("from", "to", "kind", "two_way", "speed"), f"signals[{i}].")
        kind = s.get("kind", LIGHT)
        if kind not in SIGNAL_KINDS:
            raise ScenarioError("known_signal_kind", f"signals[{i}].kind", f"got {kind!r}")
        source, target = s.get("from"), s.get("to")
        endpoints_ok = all(
            isinstance(end, int) and not isinstance(end, bool) and 0 <= end < len(positions)
            for end in (source, target)
        )
        if not endpoints_ok or source == target:
            raise ScenarioError("signal_endpoints", f"signals[{i}]")
        two_way = s.get("two_way", False)
        if not isinstance(two_way, bool):
            raise ScenarioError("two_way_boolean", f"signals[{i}].two_way")
        speed = s.get("speed")
        if speed is not None or kind == SUPERLUMINAL_FINITE:
            if not (_is_finite(speed) and speed > 0):
                raise ScenarioError("positive_signal_speed", f"signals[{i}].speed")
        signals.append(SignalSpec(source, target, kind, two_way,
                                  None if speed is None else float(speed)))
    return Scenario(float(beta), positions, protocol, tuple(signals))


def load_scenario(path) -> Scenario:
    import json  # here, so that a CLI command that reads no scenario never loads it

    try:
        with open(os.fspath(path), encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_object)
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, not UTF-8, or not JSON
        raise FileInvalid(type(exc).__name__) from exc
    return parse_scenario(raw)


def run_scenario(
    scenario: Scenario, *, protocol: str | None = None, master: int = 0
) -> tuple[ClockLattice, list[SpeedMeasurement]]:
    """Build the lattice, run the (optionally overridden) protocol, measure.

    Returns the synchronized lattice and one measurement per
    ``scenario.signals`` entry, in order.
    """
    lattice = ClockLattice.build(scenario.beta, scenario.node_positions)
    run_protocol(lattice, protocol if protocol is not None else scenario.protocol, master)
    results = [_measure(lattice, spec.source, spec.target, spec.kind, spec.speed, spec.two_way)
               for spec in scenario.signals]
    return lattice, results
