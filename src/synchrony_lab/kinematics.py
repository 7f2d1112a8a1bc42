"""Closed-form kinematics for synchrony-convention boosts along one axis.

A coordinate chart is fixed by a boost velocity ``beta`` (in units of the
round-trip light speed ``C``) relative to a preferred isotropy chart ``S``,
and by a synchrony parameter ``k`` in [-1, 1].  ``k`` encodes how distant
clocks within the frame were set: the one-way light speed is ``C/(1 - k)``
toward +x and ``C/(1 + k)`` toward -x, while the round-trip average stays
``C`` for every ``k``.  ``k = 0`` is the isotropic (Einstein) setting.

All boosts are x-directed; y and z ride along unchanged.  The general
two-convention boost from a chart with parameter ``k`` to one with ``k'``,
moving at coordinate velocity ``v = beta*C`` in the unprimed chart, is

    x' = eta * (x - v*t)
    t' = eta * [1 + beta*(k + k')] * t + eta * [beta*(k^2 - 1) + k - k'] * x / C

with ``eta = 1 / sqrt((1 + beta*k)^2 - beta^2)``.  Two members get names:
the isotropic one (k = k' = 0) is the ordinary Lorentz boost, and the
member with ``k = 0``, ``k' = -beta`` has the x-independent time map
``t' = sqrt(1 - beta^2) * t`` and hence absolute simultaneity; we call it
the absolute-simultaneity (superluminal-synchrony) boost.

Everything here is a pure function of scalars; all types are immutable and
safe to share between threads.  Instantaneous propagation is representable:
speed-valued functions return the module constant :data:`INFINITE_SPEED`
(``math.inf``) instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConventionOutOfRange, DegenerateConvention

#: Round-trip light speed in natural units.  All library internals assume
#: C = 1; SI scaling is a presentation concern (see the CLI).
C = 1.0

#: Tagged value for instantaneous propagation (a measurement outcome, not an
#: error).  Compare with ``math.isinf``.
INFINITE_SPEED = math.inf

PLUS_X = "+x"
MINUS_X = "-x"


def _check_beta(beta: float) -> None:
    if not (math.isfinite(beta) and abs(beta) < 1.0):
        raise ValueError(f"boost velocity must satisfy |beta| < 1, got {beta!r}")


def _check_k(k: float, name: str = "k") -> None:
    if not (math.isfinite(k) and abs(k) <= 1.0):
        raise ValueError(f"synchrony parameter {name} must lie in [-1, 1], got {k!r}")


@dataclass(frozen=True)
class Event:
    """A spacetime point (t, x, y, z) in a named coordinate chart."""

    t: float
    x: float
    y: float = 0.0
    z: float = 0.0
    chart: str = "S"

    def __post_init__(self):
        for name in ("t", "x", "y", "z"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"event component {name} must be finite")
        if not self.chart:
            raise ValueError("event chart must be a non-empty identifier")


@dataclass(frozen=True)
class FrameSpec:
    """A frame's velocity relative to the isotropy chart plus its synchrony k.

    ``beta`` is the coordinate velocity of the frame measured in the
    isotropy (absolute) chart; ``k`` is the synchrony parameter its clocks
    realize.  The isotropy chart itself is ``FrameSpec(0.0, 0.0, "S")``.
    """

    beta: float
    k: float = 0.0
    label: str = "S'"

    def __post_init__(self):
        _check_beta(self.beta)
        _check_k(self.k)
        if not self.label:
            raise ValueError("frame label must be non-empty")


#: The preferred chart: at rest, isotropic convention.
ABSOLUTE_FRAME = FrameSpec(beta=0.0, k=0.0, label="S")


@dataclass(frozen=True)
class TransformCoeffs:
    """Linear normal form of a chart map: (t, x) block plus y, z pass-through.

    Applies as ``t' = a_tt*t + a_tx*x`` and ``x' = a_xt*t + a_xx*x``.  Every
    named transform in this module is a constructor for one of these, so
    composition and inversion are plain 2x2 algebra.
    """

    a_tt: float
    a_tx: float
    a_xt: float
    a_xx: float

    def __post_init__(self):
        if self.determinant == 0.0:
            raise ValueError("transform is singular (zero determinant)")

    @property
    def determinant(self) -> float:
        return self.a_tt * self.a_xx - self.a_tx * self.a_xt

    def apply(self, e: Event, chart: str | None = None) -> Event:
        return Event(
            t=self.a_tt * e.t + self.a_tx * e.x,
            x=self.a_xt * e.t + self.a_xx * e.x,
            y=e.y,
            z=e.z,
            chart=chart if chart is not None else e.chart,
        )

    def __matmul__(self, inner: "TransformCoeffs") -> "TransformCoeffs":
        """Composition ``self after inner`` (matrix product)."""
        return TransformCoeffs(
            a_tt=self.a_tt * inner.a_tt + self.a_tx * inner.a_xt,
            a_tx=self.a_tt * inner.a_tx + self.a_tx * inner.a_xx,
            a_xt=self.a_xt * inner.a_tt + self.a_xx * inner.a_xt,
            a_xx=self.a_xt * inner.a_tx + self.a_xx * inner.a_xx,
        )

    def inverse(self) -> "TransformCoeffs":
        d = self.determinant
        return TransformCoeffs(
            a_tt=self.a_xx / d,
            a_tx=-self.a_tx / d,
            a_xt=-self.a_xt / d,
            a_xx=self.a_tt / d,
        )


def eta(beta: float, k: float) -> float:
    """Normalization factor 1/sqrt((1 + beta*k)^2 - beta^2).

    Equals the Lorentz gamma when k = 0.  Raises
    :class:`DegenerateConvention` when the radicand is not positive, i.e.
    when the chart's simultaneity surfaces stop being spacelike.
    """
    _check_beta(beta)
    _check_k(k)
    disc = (1.0 + beta * k) ** 2 - beta**2
    if disc <= 0.0:
        raise DegenerateConvention(beta, k)
    return 1.0 / math.sqrt(disc)


def edwards_coeffs(beta: float, k: float, k_prime: float) -> TransformCoeffs:
    """Coefficients of the general two-convention boost (k-chart to k'-chart)."""
    _check_k(k_prime, "k_prime")
    h = eta(beta, k)
    return TransformCoeffs(
        a_tt=h * (1.0 + beta * (k + k_prime)),
        a_tx=h * (beta * (k * k - 1.0) + k - k_prime) / C,
        a_xt=-h * beta * C,
        a_xx=h,
    )


def superluminal_coeffs(beta: float) -> TransformCoeffs:
    """Absolute-simultaneity boost in its simplified closed form.

    t' = sqrt(1 - beta^2) * t and x' = (x - v*t)/sqrt(1 - beta^2).  The time
    row's x-coefficient is literally zero, so equal-t event pairs map to
    equal-t' pairs exactly, not merely within rounding.
    """
    _check_beta(beta)
    root = math.sqrt(1.0 - beta * beta)
    return TransformCoeffs(
        a_tt=root,
        a_tx=0.0,
        a_xt=-beta * C / root,
        a_xx=1.0 / root,
    )


def resync_coeffs(k_from: float, k_to: float) -> TransformCoeffs:
    """Pure clock re-setting within one frame: t -> t + (k_from - k_to)*x/C."""
    _check_k(k_from, "k_from")
    _check_k(k_to, "k_to")
    return TransformCoeffs(1.0, (k_from - k_to) / C, 0.0, 1.0)


def frame_coeffs(frame: FrameSpec) -> TransformCoeffs:
    """Map from the isotropy chart into ``frame``'s chart."""
    return edwards_coeffs(frame.beta, 0.0, frame.k)


def edwards_transform(
    e: Event, beta: float, k: float, k_prime: float, chart: str = "S'"
) -> Event:
    """Boost ``e`` from a k-synchronized chart into a k'-synchronized one."""
    return edwards_coeffs(beta, k, k_prime).apply(e, chart)


def lorentz_transform(e: Event, beta: float, chart: str = "S'") -> Event:
    """Standard boost: :func:`edwards_transform` with k = k' = 0."""
    return edwards_transform(e, beta, 0.0, 0.0, chart)


def superluminal_transform(e: Event, beta: float, chart: str = "S'") -> Event:
    """Absolute-simultaneity boost; agrees with edwards_transform(e, beta, 0, -beta)."""
    return superluminal_coeffs(beta).apply(e, chart)


def induced_synchrony(k: float, beta: float) -> float:
    """The k' a zero-delay synchronization signal forces on the boosted frame.

    Requiring the boost's time row to be independent of x gives
    k' = beta*(k^2 - 1) + k; at k = 0 this is -beta.  Raises
    :class:`ConventionOutOfRange` if the induced parameter leaves [-1, 1]
    (possible for extreme k, beta combinations, e.g. k=0.5, beta=-0.9).
    """
    _check_beta(beta)
    _check_k(k)
    k_prime = beta * (k * k - 1.0) + k
    if abs(k_prime) > 1.0:
        raise ConventionOutOfRange(k_prime)
    return k_prime


def one_way_speed(k: float, direction: str) -> float:
    """One-way light speed assigned by convention k: C/(1 -+ k) for +-x.

    Returns :data:`INFINITE_SPEED` when the denominator vanishes (the
    convention declares light instantaneous in that direction).
    """
    _check_k(k)
    if direction == PLUS_X:
        denom = 1.0 - k
    elif direction == MINUS_X:
        denom = 1.0 + k
    else:
        raise ValueError(f"direction must be '+x' or '-x', got {direction!r}")
    if denom == 0.0:
        return INFINITE_SPEED
    return C / denom


def resynchronize(e: Event, k_from: float, k_to: float) -> Event:
    """Re-set the clocks of ``e``'s frame from convention k_from to k_to.

    Coordinates change as t -> t + (k_from - k_to)*x/C with x, y, z fixed;
    a worldline of speed C/(1 - k_from) toward +x afterwards has coordinate
    speed C/(1 - k_to).  Resynchronizing back restores the event exactly.
    """
    return resync_coeffs(k_from, k_to).apply(e)


def _velocity_through(coeffs: TransformCoeffs, u: float) -> float:
    """Image of the coordinate velocity u under a linear chart map.

    ``u`` may be +-inf (an instantaneous worldline).  Returns
    :data:`INFINITE_SPEED` (signed) when the image worldline lies in a
    surface of constant image-time.
    """
    if math.isinf(u):
        dt, dx = 0.0, math.copysign(1.0, u)
    else:
        dt, dx = 1.0, u
    dt_img = coeffs.a_tt * dt + coeffs.a_tx * dx
    dx_img = coeffs.a_xt * dt + coeffs.a_xx * dx
    if dt_img == 0.0:
        return math.copysign(INFINITE_SPEED, dx_img)
    return dx_img / dt_img


def resync_velocity(u: float, k_from: float, k_to: float) -> float:
    """How a coordinate velocity reads after a clock re-setting."""
    return _velocity_through(resync_coeffs(k_from, k_to), u)


def between_coeffs(frame_from: FrameSpec, frame_to: FrameSpec) -> TransformCoeffs:
    """Chart map from one registered frame to another, through the isotropy chart."""
    return frame_coeffs(frame_to) @ frame_coeffs(frame_from).inverse()


def transform_between(e: Event, frame_from: FrameSpec, frame_to: FrameSpec) -> Event:
    """Map ``e`` from ``frame_from``'s chart to ``frame_to``'s chart.

    Both legs go through the isotropy chart, so arbitrary frame pairs
    compose consistently.  ``e.chart`` must equal ``frame_from.label``.
    """
    if e.chart != frame_from.label:
        raise ValueError(
            f"event lives in chart {e.chart!r}, expected {frame_from.label!r}"
        )
    return between_coeffs(frame_from, frame_to).apply(e, frame_to.label)


def map_velocity(u: float, frame_from: FrameSpec, frame_to: FrameSpec) -> float:
    """Coordinate velocity of the worldline x = u*t seen from another chart.

    Computed exactly from the linear chart map by transforming two events on
    the worldline.  For isotropic conventions this reduces to the standard
    relativistic velocity composition; returns a signed
    :data:`INFINITE_SPEED` when the image is instantaneous.
    """
    if math.isnan(u):
        raise ValueError("velocity must be a number (may be +-inf)")
    return _velocity_through(between_coeffs(frame_from, frame_to), u)
