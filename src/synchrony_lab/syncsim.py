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

from .errors import NotSynchronized, UnresolvableChase
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
    position ``positions[i]`` at absolute time 0 and reads
    ``rate*t + offsets[i]``; offsets are zero until a protocol sets them.
    """

    frame: FrameSpec
    positions: tuple[float, ...]
    offsets: list[float] = field(init=False)
    log: list[SignalRecord] = field(default_factory=list)
    protocol: str | None = None

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
    def velocity(self) -> float:
        """Absolute-chart velocity of the hardware (the wind blows the other way)."""
        return self.frame.beta * C

    @property
    def rate(self) -> float:
        """Tick rate of every clock per absolute time unit."""
        b = self.frame.beta
        return math.sqrt(1.0 - b * b)

    @property
    def gamma(self) -> float:
        return 1.0 / math.sqrt(1.0 - self.frame.beta**2)

    def index(self, node_id: int) -> int:
        """``node_id``, checked: negative, bool, non-integer or out-of-range ids are rejected."""
        try:
            if node_id >= 0 and not isinstance(node_id, bool):
                self.positions[node_id]
                return node_id
        except (TypeError, IndexError):  # not an integer, or past the end
            pass
        raise ValueError(f"no node with id {node_id!r}")

    def position(self, node_id: int, t: float) -> float:
        return self.positions[self.index(node_id)] + self.velocity * t

    def reading(self, node_id: int, t: float) -> float:
        return self.rate * t + self.offsets[self.index(node_id)]

    def chart_distance(self, a: int, b: int) -> float:
        """Rest length between two clocks (absolute gap undone for contraction)."""
        return self.gamma * abs(self.positions[self.index(b)] - self.positions[self.index(a)])


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
    receding node.
    """
    if kind not in SIGNAL_KINDS:
        raise ValueError(f"unknown signal kind {kind!r}")
    if from_id == to_id:
        raise ValueError("signal endpoints must differ")
    x_from = lattice.positions[lattice.index(from_id)]
    x_to = lattice.positions[lattice.index(to_id)]
    u = lattice.velocity
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

    record = SignalRecord(
        kind=kind,
        emit=Event(t=t_emit, x=x_emit, chart="S"),
        absorb=Event(t=t_abs, x=x_abs, chart="S"),
        speed_abs=w,
    )
    lattice.log.append(record)
    return record


def run_protocol(lattice: ClockLattice, protocol: str, master: int = 0) -> ClockLattice:
    """Zero every offset, then set the others against ``master`` from absolute time 0.

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
    slaves = [i for i in range(len(offsets)) if i != m]
    if protocol == EINSTEIN:
        for i in slaves:
            out = propagate(lattice, m, i, LIGHT)
            back = propagate(lattice, i, m, LIGHT, t_emit=out.absorb.t)
            offsets[i] = 0.5 * (rate * out.emit.t + rate * back.absorb.t) - rate * out.absorb.t
    elif protocol == SUPERLUMINAL:
        for i in slaves:
            rec = propagate(lattice, m, i, INSTANTANEOUS)
            offsets[i] = rate * rec.emit.t - rate * rec.absorb.t
    # EXTERNAL_REGULATION: at absolute time 0 the reference reads the master's 0.

    lattice.protocol = protocol
    realized_k = 0.0 if protocol == EINSTEIN else induced_synchrony(0.0, lattice.frame.beta)
    lattice.frame = replace(lattice.frame, k=realized_k)
    return lattice


def _require_synced(lattice: ClockLattice) -> None:
    if lattice.protocol is None:
        raise NotSynchronized("run a synchronization protocol before measuring")


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
    elapsed yields :data:`~synchrony_lab.kinematics.INFINITE_SPEED`.
    """
    _require_synced(lattice)
    rec = propagate(lattice, from_id, to_id, kind, speed=speed)
    elapsed = lattice.reading(to_id, rec.absorb.t) - lattice.reading(from_id, rec.emit.t)
    distance = lattice.chart_distance(from_id, to_id)
    direction = PLUS_X if lattice.positions[to_id] > lattice.positions[from_id] else MINUS_X
    speed_val = INFINITE_SPEED if elapsed == 0.0 else distance / elapsed
    return SpeedMeasurement(direction, distance, elapsed, speed_val)


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
    comes out at ``C`` under every protocol.
    """
    _require_synced(lattice)
    out = propagate(lattice, from_id, to_id, kind, speed=speed)
    back = propagate(lattice, to_id, from_id, kind, speed=speed, t_emit=out.absorb.t)
    elapsed = lattice.reading(from_id, back.absorb.t) - lattice.reading(from_id, out.emit.t)
    distance = 2.0 * lattice.chart_distance(from_id, to_id)
    speed_val = INFINITE_SPEED if elapsed == 0.0 else distance / elapsed
    return SpeedMeasurement(TWO_WAY, distance, elapsed, speed_val)


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


def _scenario_number(raw: dict, key: str) -> float:
    value = raw.get(key)
    if not _is_number(value):
        raise ScenarioError("must_be_number", key)
    return float(value)


def parse_scenario(raw: dict) -> Scenario:
    """Validate a scenario dict; every violation names the broken invariant."""
    if not isinstance(raw, dict):
        raise ScenarioError("must_be_object", "scenario")
    beta = _scenario_number(raw, "beta")
    if not (math.isfinite(beta) and abs(beta) < 1.0):
        raise ScenarioError("abs_beta_lt_1", "beta")

    positions = raw.get("node_positions")
    if not isinstance(positions, list) or len(positions) < 2:
        raise ScenarioError("at_least_two_nodes", "node_positions")
    for p in positions:
        if not (_is_number(p) and math.isfinite(p)):
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
            if not (_is_number(speed) and math.isfinite(speed) and speed > 0):
                raise ScenarioError("positive_signal_speed", f"signals[{i}].speed")
        signals.append(
            SignalSpec(
                source=source,
                target=target,
                kind=kind,
                two_way=two_way,
                speed=None if speed is None else float(speed),
            )
        )
    return Scenario(beta, tuple(float(p) for p in positions), protocol, tuple(signals))


def load_scenario(path) -> Scenario:
    with open(Path(path), encoding="utf-8") as fh:
        return parse_scenario(json.load(fh))


def run_scenario(
    scenario: Scenario, *, protocol: str | None = None, master: int = 0
) -> tuple[ClockLattice, list[SpeedMeasurement]]:
    """Build the lattice, run the (optionally overridden) protocol, measure.

    Returns the synchronized lattice and one measurement per
    ``scenario.signals`` entry, in order.
    """
    lattice = ClockLattice.build(scenario.beta, scenario.node_positions)
    run_protocol(lattice, protocol if protocol is not None else scenario.protocol, master)
    results = []
    for spec in scenario.signals:
        measure = measure_two_way if spec.two_way else measure_one_way
        results.append(measure(lattice, spec.source, spec.target, spec.kind, speed=spec.speed))
    return lattice, results
