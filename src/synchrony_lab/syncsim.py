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

A lattice is owned by one simulation run at a time; independent runs (for
example the points of an isotropy scan) share nothing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import FileInvalid, NotSynchronized, UnresolvableChase
from .kinematics import C, INFINITE_SPEED, Event, FrameSpec, MINUS_X, PLUS_X, induced_synchrony

LIGHT = "light"
SUPERLUMINAL_FINITE = "superluminal-finite"
INSTANTANEOUS = "instantaneous"
SIGNAL_KINDS = (LIGHT, SUPERLUMINAL_FINITE, INSTANTANEOUS)

EINSTEIN = "einstein"
SUPERLUMINAL = "superluminal"
EXTERNAL_REGULATION = "external-regulation"
PROTOCOLS = (EINSTEIN, SUPERLUMINAL, EXTERNAL_REGULATION)

TWO_WAY = "two-way"


class ScenarioError(ValueError):
    """A scenario file violates an invariant; carries a machine-readable tag."""

    def __init__(self, invariant: str, field_name: str, detail: str = ""):
        self.invariant = invariant
        self.field_name = field_name
        msg = f"scenario field {field_name!r} violates invariant {invariant!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


@dataclass(frozen=True)
class SignalRecord:
    """One propagated signal; emit/absorb events are in the absolute chart."""

    kind: str
    emit: Event
    absorb: Event
    speed_abs: float  # signed absolute-chart coordinate speed, inf allowed


class SignalLog:
    """Signals in send order, one row per signal, all in the absolute chart.

    ``rows[i]`` is ``(kind, emit_t, emit_x, absorb_t, absorb_x, speed_abs)``:
    the signal emitted at ``(emit_t, emit_x)`` and absorbed at ``(absorb_t,
    absorb_x)`` at signed speed ``speed_abs``.  ``log[i]`` (negative i too)
    and iteration build :class:`SignalRecord` rows on demand.
    """

    def __init__(self):
        self.rows: list[tuple[str, float, float, float, float, float]] = []

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> SignalRecord:
        kind, emit_t, emit_x, absorb_t, absorb_x, speed_abs = self.rows[i]
        return SignalRecord(kind, Event(emit_t, emit_x), Event(absorb_t, absorb_x), speed_abs)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


@dataclass(frozen=True)
class SpeedMeasurement:
    """Outcome of a one-way or round-trip speed measurement.

    ``distance`` and ``elapsed`` are frame-chart quantities (synchronized
    clock readings, comoving-ruler lengths); ``speed`` is their quotient or
    :data:`~synchrony_lab.kinematics.INFINITE_SPEED` for zero elapsed.
    """

    direction: str  # "+x", "-x", or "two-way"
    distance: float
    elapsed: float
    speed: float


@dataclass
class ClockLattice:
    """Simulator ground truth: the hardware's frame, its clocks, and a signal log.

    ``frame`` is the kinematics frame of the hardware (``beta = -drift``,
    ``k`` as realized by the last protocol run).  Clock i sits at absolute
    position ``positions[i]`` at absolute time 0, moves at ``frame.beta*C``
    and reads ``rate*t + offsets[i]`` at absolute time t; offsets are zero
    until a protocol sets them.  ``log`` holds every signal since the last
    protocol run started (its exchange, then any measurements) in the
    absolute chart; ``log[i]`` is a :class:`SignalRecord`.  ``protocol``
    names the last protocol run; only :func:`run_protocol` sets it.
    """

    frame: FrameSpec
    positions: tuple[float, ...]
    offsets: list[float] = field(init=False)
    log: SignalLog = field(init=False, default_factory=SignalLog)
    protocol: str | None = field(init=False, default=None)

    def __post_init__(self):
        p = self.positions
        if len(p) < 2:
            raise ValueError("lattice needs at least two nodes")
        if not all(math.isfinite(x) for x in p):
            raise ValueError("node positions must be finite")
        if any(b <= a for a, b in zip(p, p[1:])):
            raise ValueError("node positions must be strictly increasing")
        self.offsets = [0.0] * len(p)

    @classmethod
    def build(cls, drift: float, positions) -> "ClockLattice":
        """Comoving lattice at ``drift`` with clocks at the given absolute positions."""
        return cls(FrameSpec(-drift, 0.0, "lab"), tuple(float(x) for x in positions))

    @property
    def rate(self) -> float:
        """Tick rate of every clock per absolute time unit."""
        b = self.frame.beta
        return math.sqrt(1.0 - b * b)

    def index(self, node_id: int) -> int:
        """``node_id``, checked: negative, bool, non-integer or out-of-range ids are rejected."""
        try:
            if node_id >= 0 and not isinstance(node_id, bool):
                self.positions[node_id]
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
    receding node, and ``ValueError`` when an event coordinate is not
    finite.  A signal that raises is not logged.  Returns the signal's row,
    ``lattice.log[-1]``.
    """
    _send(lattice, from_id, to_id, kind, speed, t_emit)
    return lattice.log[-1]


def _check_finite(t: float, x: float) -> None:
    """:class:`Event`'s finiteness check, in its order, without building one."""
    if not math.isfinite(t):
        raise ValueError("event component t must be finite")
    if not math.isfinite(x):
        raise ValueError("event component x must be finite")


def _send(
    lattice: ClockLattice, from_id: int, to_id: int, kind: str, speed: float | None, t_emit: float
) -> float:
    """:func:`propagate`'s checks and intersection; logs one row, returns the absorb time."""
    if kind not in SIGNAL_KINDS:
        raise ValueError(f"unknown signal kind {kind!r}")
    if from_id == to_id:
        raise ValueError("signal endpoints must differ")
    x_from = lattice.positions[lattice.index(from_id)]
    x_to = lattice.positions[lattice.index(to_id)]
    u = lattice.frame.beta * C
    x_emit = x_from + u * t_emit
    gap = x_to - x_from  # constant in time: clocks are comoving
    sign = 1.0 if gap > 0 else -1.0

    if kind == INSTANTANEOUS:
        t_abs = t_emit
        x_abs = x_to + u * t_emit
        w = math.copysign(INFINITE_SPEED, gap)
    else:
        if kind == LIGHT:
            magnitude = C
        else:
            if speed is None or not math.isfinite(speed) or speed <= 0.0:
                raise ValueError("superluminal-finite signals need a positive finite speed")
            magnitude = float(speed)
        w = sign * magnitude
        denom = w - u
        if denom == 0.0 or gap / denom <= 0.0:
            raise UnresolvableChase(
                f"signal at speed {w!r} cannot reach node {to_id} "
                f"receding at {u!r}"
            )
        dt = gap / denom
        t_abs = t_emit + dt
        x_abs = x_emit + w * dt

    _check_finite(t_emit, x_emit)
    _check_finite(t_abs, x_abs)
    lattice.log.rows.append((kind, t_emit, x_emit, t_abs, x_abs, w))
    return t_abs


def run_protocol(lattice: ClockLattice, protocol: str, master: int = 0) -> ClockLattice:
    """Zero every offset and start a fresh log, then set the offsets against ``master``.

    The exchange starts at absolute time 0 and is logged.

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
    rate = lattice.rate
    offsets = lattice.offsets = [0.0] * len(lattice.positions)  # the master reads rate*t
    lattice.log = SignalLog()
    slaves = [i for i in range(len(offsets)) if i != m]
    t0 = 0.0
    if protocol == EINSTEIN:
        for i in slaves:
            t_reflect = _send(lattice, m, i, LIGHT, None, t0)
            t_return = _send(lattice, i, m, LIGHT, None, t_reflect)
            offsets[i] = 0.5 * (rate * t0 + rate * t_return) - rate * t_reflect
    elif protocol == SUPERLUMINAL:
        for i in slaves:
            offsets[i] = rate * t0 - rate * _send(lattice, m, i, INSTANTANEOUS, None, t0)
    # EXTERNAL_REGULATION: at absolute time 0 the reference reads the master's 0.

    lattice.protocol = protocol
    realized_k = 0.0 if protocol == EINSTEIN else induced_synchrony(0.0, lattice.frame.beta)
    lattice.frame = replace(lattice.frame, k=realized_k)
    return lattice


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
    """One-way, or out and back when ``two_way``: sync check, legs, clock readings, rest length."""
    if lattice.protocol is None:
        raise NotSynchronized("run a synchronization protocol before measuring")
    t0 = 0.0
    t = _send(lattice, from_id, to_id, kind, speed, t0)
    if two_way:
        t = _send(lattice, to_id, from_id, kind, speed, t)
    end = from_id if two_way else to_id
    rate, offsets = lattice.rate, lattice.offsets
    elapsed = (rate * t + offsets[end]) - (rate * t0 + offsets[from_id])
    gap = lattice.positions[to_id] - lattice.positions[from_id]
    distance = (1.0 / math.sqrt(1.0 - lattice.frame.beta**2)) * abs(gap)  # rest length
    if two_way:
        distance = 2.0 * distance
    direction = TWO_WAY if two_way else PLUS_X if gap > 0 else MINUS_X
    speed_val = INFINITE_SPEED if elapsed == 0.0 else distance / elapsed
    return SpeedMeasurement(direction, distance, elapsed, speed_val)


@dataclass(frozen=True)
class ScanPoint:
    """One candidate drift velocity with its measured one-way speeds."""

    beta: float
    c_plus: float
    c_minus: float
    anisotropy: float


def isotropy_scan(betas) -> list[ScanPoint]:
    """Measure the one-way anisotropy for each candidate drift velocity.

    Each candidate gets a fresh two-node lattice, zero-delay synchronization
    from node 0, and a light signal in each direction.  The anisotropy
    ``c_plus - c_minus`` equals 2*beta/(1 - beta^2) and vanishes exactly in
    the isotropy frame, so the argmin of its magnitude locates that frame.
    """
    points = []
    for beta in betas:
        lattice = ClockLattice.build(float(beta), (0.0, 1.0))
        run_protocol(lattice, SUPERLUMINAL)
        c_plus = measure_one_way(lattice, 0, 1).speed
        c_minus = measure_one_way(lattice, 1, 0).speed
        points.append(ScanPoint(float(beta), c_plus, c_minus, c_plus - c_minus))
    return points


@dataclass(frozen=True)
class SignalSpec:
    """One requested measurement from a scenario file."""

    source: int
    target: int
    kind: str = LIGHT
    two_way: bool = False
    speed: float | None = None


@dataclass(frozen=True)
class Scenario:
    beta: float
    node_positions: tuple[float, ...]
    protocol: str
    signals: tuple[SignalSpec, ...]


def _is_number(value) -> bool:
    """A JSON number: int or float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A JSON number that a float holds finitely; an integer past the largest float does not."""
    try:
        return _is_number(value) and math.isfinite(value)
    except OverflowError:  # math.isfinite converts an int to float
        return False


def _check_keys(raw: dict, known, prefix: str = "") -> None:
    """Reject the first key not in ``known``; a misspelled key would otherwise be ignored."""
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
    for p in positions:
        if not _is_finite(p):
            raise ScenarioError("positions_finite_numbers", "node_positions")
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
    return Scenario(float(beta), tuple(float(p) for p in positions), protocol, tuple(signals))


def load_scenario(path) -> Scenario:
    try:
        with open(Path(path), encoding="utf-8") as fh:
            raw = json.load(fh)
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
