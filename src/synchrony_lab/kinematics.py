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

with ``eta = 1 / sqrt((1 + beta*k)^2 - beta^2)``.  This one formula builds
both named members: the isotropic one (k = k' = 0) is the ordinary Lorentz
boost, and the one with ``k = 0``, ``k' = -beta`` has the x-independent time
map ``t' = sqrt(1 - beta^2) * t`` (its ``a_tx = eta*((-beta + 0) - (-beta))``
is exactly 0) and hence absolute simultaneity: the superluminal-synchrony boost.

Everything here is a pure function of scalars; all types are immutable and
safe to share between threads.  Instantaneous propagation is representable:
speed-valued functions return the module constant :data:`INFINITE_SPEED`
(``math.inf``) instead of raising.

Public functions and constructors validate their arguments once; a number
passes the library's one rule, :func:`_is_number` (an int or a float, not a
bool: else TypeError), and fits a float (else ValueError).  The
``_``-prefixed kernels behind them take plain floats and 2x2 tuples, assume
validated inputs, are not API and hold the only copy of each formula.  Only
entries a caller gives :class:`TransformCoeffs` (or its ``_make``/``_replace``)
and the determinant ``inverse()`` divides by are checked; the library's own maps
have determinant 1 by construction, and a product ``@`` the product of its
factors', so rounding never calls a valid chart or composition singular.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import ConventionOutOfRange, DegenerateConvention

#: Round-trip light speed in natural units.  All library internals assume
#: C = 1; SI scaling is a presentation concern (see the CLI).
C = 1.0

#: Tagged value for instantaneous propagation (a measurement outcome, not an
#: error).  Compare with ``math.isinf``.
INFINITE_SPEED = math.inf

PLUS_X = "+x"
MINUS_X = "-x"

_SINGULAR = "transform is singular (zero determinant)"


def _is_number(value) -> bool:
    """The library's number rule: an int or a float counts, but a bool does not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A number that a float holds finitely; an int past the largest float is not."""
    try:
        return _is_number(value) and math.isfinite(value)
    except OverflowError:  # math.isfinite converts an int to float
        return False


def _floats(values, name: str) -> tuple:
    """``values`` as a tuple of floats, or the rule's error naming ``name``; checked per type."""
    values = tuple(values)
    types = set(map(type, values))
    if types == {float}:  # the common case: nothing to refuse or convert
        return values
    if not all(issubclass(t, (int, float)) and not issubclass(t, bool) for t in types):
        bad = next(v for v in values if not _is_number(v))
        raise TypeError(f"{name} must be int or float, not {type(bad).__name__}")
    try:
        return tuple(map(float, values))
    except OverflowError:  # an int past the largest float
        raise ValueError(f"{name} must be finite") from None


def _check_beta(beta: float) -> None:
    if not (isinstance(beta, float) and beta > -1.0 and beta < 1.0):  # floats skip _floats
        if not abs(_floats((beta,), "beta")[0]) < 1.0:  # also NaN
            raise ValueError(f"boost velocity must satisfy |beta| < 1, got {beta!r}")


def _check_k(k: float, name: str = "k") -> None:
    if not (isinstance(k, float) and k >= -1.0 and k <= 1.0):  # floats skip _floats
        if not abs(_floats((k,), name)[0]) <= 1.0:  # also NaN
            raise ValueError(f"synchrony parameter {name} must lie in [-1, 1], got {k!r}")


class _Value:
    """Base of the checked value types: a tuple's ``+``, ``*`` and ordering raise TypeError.

    ``_make``, and so the namedtuple ``_replace``, builds through the type's
    checks.  It must precede the namedtuple fields base, or their methods win.
    """

    __slots__ = ()

    def _refuse(self, other):
        raise TypeError(f"{type(self).__name__} supports no tuple concatenation, "
                        "repetition or ordering")

    __add__ = __radd__ = __mul__ = __rmul__ = _refuse
    __lt__ = __le__ = __gt__ = __ge__ = _refuse

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


_EventFields = namedtuple("_EventFields", "t x y z chart", defaults=(0.0, 0.0, "S"))


class Event(_Value, _EventFields):
    """A spacetime point (t, x, y, z) in a named coordinate chart."""

    __slots__ = ()

    def __new__(cls, t, x, y=0.0, z=0.0, chart="S"):
        if not (isinstance(t, float) and isinstance(x, float) and isinstance(y, float)
                and isinstance(z, float) and math.isfinite(t + x + y + z)):  # only if each is
            for name, value in zip("txyz", (t, x, y, z)):
                if not math.isfinite(_floats((value,), f"event component {name}")[0]):
                    raise ValueError(f"event component {name} must be finite")
        if not chart:
            raise ValueError("event chart must be a non-empty identifier")
        return tuple.__new__(cls, (t, x, y, z, chart))


_FrameSpecFields = namedtuple("_FrameSpecFields", "beta k label", defaults=(0.0, "S'"))


class FrameSpec(_Value, _FrameSpecFields):
    """A frame's velocity relative to the isotropy chart plus its synchrony k.

    ``beta`` is the coordinate velocity of the frame measured in the
    isotropy (absolute) chart; ``k`` is the synchrony parameter its clocks
    realize.  The isotropy chart itself is ``FrameSpec(0.0, 0.0, "S")``.
    """

    __slots__ = ()

    def __new__(cls, beta, k=0.0, label="S'"):
        _check_beta(beta)
        _check_k(k)
        if not label:
            raise ValueError("frame label must be non-empty")
        return tuple.__new__(cls, (beta, k, label))


#: The preferred chart: at rest, isotropic convention.
ABSOLUTE_FRAME = FrameSpec(beta=0.0, k=0.0, label="S")


_TransformCoeffsFields = namedtuple("_TransformCoeffsFields", "a_tt a_tx a_xt a_xx")


class TransformCoeffs(_Value, _TransformCoeffsFields):
    """Linear normal form of a chart map: (t, x) block plus y, z pass-through.

    Applies as ``t' = a_tt*t + a_tx*x`` and ``x' = a_xt*t + a_xx*x``.  Every
    named map has a ``*_coeffs`` constructor for one of these, built by the
    kernels its transform runs, so composition and inversion are 2x2 algebra.
    An instance is the ``(a_tt, a_tx, a_xt, a_xx)`` tuple the kernels take.  Given
    entries must be finite with a nonzero determinant, ``inverse()`` refuses a
    zero one, and the ``*_coeffs`` maps and products ``@`` are built unchecked.
    Where the determinant is 0.0 or not finite, both tests take it again at
    an exact power-of-two scale (:func:`_scaled`): a product that overflowed
    or underflowed does not decide.
    """

    __slots__ = ()

    def __new__(cls, a_tt, a_tx, a_xt, a_xx):
        m = tuple.__new__(cls, (a_tt, a_tx, a_xt, a_xx))  # the entries are kept as given
        # The number rule, then each entry on its own: a sum of finite entries can overflow.
        if not all(map(math.isfinite, _floats(m, "transform coefficients"))):
            raise ValueError("transform coefficients must be finite")
        if not 0.0 < abs(m.determinant) < math.inf and _scaled(m)[1] == 0.0:
            raise ValueError(_SINGULAR)
        return m

    @property
    def determinant(self) -> float:
        return self.a_tt * self.a_xx - self.a_tx * self.a_xt

    def apply(self, e: Event, chart: str | None = None) -> Event:
        return _image(self, e, chart if chart is not None else e.chart)

    def __matmul__(self, inner: "TransformCoeffs") -> "TransformCoeffs":
        """Composition ``self after inner`` (matrix product)."""
        (o_tt, o_tx, o_xt, o_xx), (i_tt, i_tx, i_xt, i_xx) = self, inner
        return tuple.__new__(TransformCoeffs, (
            o_tt * i_tt + o_tx * i_xt, o_tt * i_tx + o_tx * i_xx,
            o_xt * i_tt + o_xx * i_xt, o_xt * i_tx + o_xx * i_xx))

    def inverse(self) -> "TransformCoeffs":
        d = self.determinant
        if 0.0 < abs(d) < math.inf:
            return TransformCoeffs(self.a_xx / d, -self.a_tx / d, -self.a_xt / d, self.a_tt / d)
        e, d, (a_tt, a_tx, a_xt, a_xx) = _scaled(self)
        if d == 0.0:
            raise ValueError(_SINGULAR)
        try:
            entries = [math.ldexp(a / d, -e) for a in (a_xx, -a_tx, -a_xt, a_tt)]
        except OverflowError:  # past the float range, where a plain division gives inf
            raise ValueError("transform coefficients must be finite") from None
        return TransformCoeffs(*entries)


def _scaled(m: tuple) -> tuple:
    """``(e, d, s)``: ``s`` is ``m`` times 2**-e, ``e`` the binary exponent of its
    largest entry, and ``d`` is the determinant of ``s``.

    :class:`TransformCoeffs` takes it where ``m``'s own determinant is 0.0,
    inf or NaN (inf - inf), that is, where a product overflowed or
    underflowed.  ``s``'s products do not overflow: its largest entry lies in
    [0.5, 1).  A power-of-two scale is exact for every entry it leaves at or
    above 2**-1022, so ``m``'s inverse is ``s``'s times 2**-e.
    """
    e = math.frexp(max(map(abs, m)))[1]
    s = [math.ldexp(a, -e) for a in m]
    return e, s[0] * s[3] - s[1] * s[2], s


def _eta(beta: float, k: float) -> float:
    """1/sqrt((1 + beta*k - beta) * (1 + beta*k + beta)), within a few ulps.

    Where the radicand is below :data:`_EDGE`, the roundings in ``1 + beta*k`` can
    be all that is left of the smaller factor, so each factor is rounded once
    from its exact terms.  Above it, the plain factors keep the result within
    about 7e-16 (relative); the common path pays one comparison.
    """
    a = 1.0 + beta * k
    disc = (a - beta) * (a + beta)  # a*a - beta*beta cancels near |beta| = 1
    if disc < _EDGE:
        p, e = _two_product(beta, k)
        disc = math.fsum((1.0, -beta, p, e)) * math.fsum((1.0, beta, p, e))
        if disc <= 0.0:
            raise DegenerateConvention(beta, k)
    return 1.0 / math.sqrt(disc)


#: _eta's radicand below which it takes each factor exactly.
_EDGE = 2.0 ** -2
#: Dekker's splitting constant for doubles, 2**27 + 1.
_SPLIT = 134217729.0


def _two_product(a: float, b: float) -> tuple:
    """``(p, e)``: ``p`` is ``a*b`` rounded and ``p + e`` is ``a*b`` exactly (Dekker 1971).

    Exact unless a partial product underflows, which for |a|, |b| <= 1 can
    only happen where ``a*b`` is far below the terms it is added to.
    """
    p = a * b
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLIT * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _rate(b: float) -> float:
    """Tick rate of a clock moving at ``b*C``; ``1 / _rate(b)`` is ``_eta(b, 0.0)`` bit for bit."""
    return math.sqrt((1.0 - b) * (1.0 + b))


def _edwards(beta: float, k: float, k_prime: float) -> tuple:
    h = _eta(beta, k)
    return (h * (1.0 + beta * (k + k_prime)),
            h * (beta * (k * k - 1.0) + k - k_prime) / C, -h * beta * C, h)


def _induced(k: float, beta: float) -> float:
    return beta * (k * k - 1.0) + k


def _between(frame_from: FrameSpec, frame_to: FrameSpec) -> tuple:
    # a_xt is b_from - b_to as given; each other entry is an m-term +- a p-term.
    b_from, k_from, b_to, k_to = frame_from.beta, frame_from.k, frame_to.beta, frame_to.k
    m, p = (1.0 - b_to) * (1.0 + b_from), (1.0 + b_to) * (1.0 - b_from)
    s = 2.0 * math.sqrt(m * p)
    # With k = -beta in both frames, a_tx's pairs of k factors are p and m bit for bit:
    # grouped, both of its terms round to m*p and cancel to exactly 0.0.
    return ((p * (1.0 + k_to) + m * (1.0 - k_to)) / s,
            (m * ((1.0 + k_from) * (1.0 - k_to))
             - p * ((1.0 - k_from) * (1.0 + k_to))) / (s * C),
            2.0 * (b_from - b_to) * C / s,
            (p * (1.0 - k_from) + m * (1.0 + k_from)) / s)


def _image(m: tuple, e: Event, chart: str) -> Event:
    """``e`` mapped through ``m`` into ``chart``; only the new t, x and chart need checks."""
    a_tt, a_tx, a_xt, a_xx = m
    t = a_tt * e.t + a_tx * e.x
    x = a_xt * e.t + a_xx * e.x
    if not (math.isfinite(t) and math.isfinite(x) and chart):
        Event(t, x, e.y, e.z, chart)  # raises, naming the first bad field
    return tuple.__new__(Event, (t, x, e.y, e.z, chart))


def _velocity_through(m: tuple, u: float) -> float:
    """Image of the coordinate velocity u under a linear chart map.

    ``u`` may be +-inf (an instantaneous worldline), but not an int past the
    float range; |u| > 1 is traced along (1/|u|, sign u), so huge velocities
    do not overflow.  Returns :data:`INFINITE_SPEED` (signed) when the image
    worldline lies in a surface of constant image-time.
    """
    if not (isinstance(u, float) and u == u) and math.isnan(_floats((u,), "velocity")[0]):
        raise ValueError("velocity must be a number (may be +-inf)")
    a_tt, a_tx, a_xt, a_xx = m
    dt, dx = (1.0, u) if abs(u) <= 1.0 else (1.0 / abs(u), math.copysign(1.0, u))
    dt_img = a_tt * dt + a_tx * dx
    dx_img = a_xt * dt + a_xx * dx
    if dt_img == 0.0:
        return math.copysign(INFINITE_SPEED, dx_img)
    return dx_img / dt_img


def _checked_edwards(beta: float, k: float, k_prime: float) -> tuple:
    _check_k(k_prime, "k_prime")
    _check_beta(beta)
    _check_k(k)
    return _edwards(beta, k, k_prime)


def eta(beta: float, k: float) -> float:
    """Normalization factor 1/sqrt((1 + beta*k)^2 - beta^2).

    Equals the Lorentz gamma when k = 0.  Raises
    :class:`DegenerateConvention` when the radicand is not positive, i.e.
    when the chart's simultaneity surfaces stop being spacelike.
    """
    _check_beta(beta)
    _check_k(k)
    return _eta(beta, k)


def edwards_coeffs(beta: float, k: float, k_prime: float) -> TransformCoeffs:
    """Coefficients of the general two-convention boost (k-chart to k'-chart)."""
    return tuple.__new__(TransformCoeffs, _checked_edwards(beta, k, k_prime))


def resync_coeffs(k_from: float, k_to: float) -> TransformCoeffs:
    """Pure clock re-setting within one frame: t -> t + (k_from - k_to)*x/C."""
    _check_k(k_from, "k_from")
    _check_k(k_to, "k_to")
    return tuple.__new__(TransformCoeffs, (1.0, (k_from - k_to) / C, 0.0, 1.0))


def frame_coeffs(frame: FrameSpec) -> TransformCoeffs:
    """Map from the isotropy chart into ``frame``'s chart."""
    return tuple.__new__(TransformCoeffs, _edwards(frame.beta, 0.0, frame.k))


def edwards_transform(e: Event, beta: float, k: float, k_prime: float) -> Event:
    """Boost ``e`` from a k-synchronized chart into a k'-synchronized chart S'."""
    return _image(_checked_edwards(beta, k, k_prime), e, "S'")


def lorentz_transform(e: Event, beta: float) -> Event:
    """Standard boost: :func:`edwards_transform` with k = k' = 0."""
    _check_beta(beta)
    return _image(_edwards(beta, 0.0, 0.0), e, "S'")


def superluminal_transform(e: Event, beta: float) -> Event:
    """Absolute-simultaneity member (k = 0, k' = -beta); its a_tx cancels to exactly 0.0."""
    _check_beta(beta)
    return _image(_edwards(beta, 0.0, _induced(0.0, beta)), e, "S'")


def induced_synchrony(k: float, beta: float) -> float:
    """The k' a zero-delay synchronization signal forces on the boosted frame.

    Requiring the boost's time row to be independent of x gives
    k' = beta*(k^2 - 1) + k; at k = 0 this is -beta.  Raises
    :class:`ConventionOutOfRange` if the induced parameter leaves [-1, 1]
    (possible for extreme k, beta combinations, e.g. k=0.5, beta=-0.9).
    """
    _check_beta(beta)
    _check_k(k)
    k_prime = _induced(k, beta)
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


def resync_velocity(u: float, k_from: float, k_to: float) -> float:
    """How a coordinate velocity reads after a clock re-setting."""
    return _velocity_through(resync_coeffs(k_from, k_to), u)


def between_coeffs(frame_from: FrameSpec, frame_to: FrameSpec) -> TransformCoeffs:
    """Chart map between frames: resync(0 -> k_to) . L(beta_rel) . resync(k_from -> 0).

    Closed form in m = (1 - b_to)(1 + b_from) and p = (1 + b_to)(1 - b_from).
    """
    return tuple.__new__(TransformCoeffs, _between(frame_from, frame_to))


def transform_between(e: Event, frame_from: FrameSpec, frame_to: FrameSpec) -> Event:
    """Map ``e`` from ``frame_from``'s chart to ``frame_to``'s chart.

    Through :func:`between_coeffs`'s closed form, unchecked, so it never calls
    valid frames singular.  ``e.chart`` must equal ``frame_from.label``.
    """
    if e.chart != frame_from.label:
        raise ValueError(
            f"event lives in chart {e.chart!r}, expected {frame_from.label!r}"
        )
    return _image(_between(frame_from, frame_to), e, frame_to.label)


def map_velocity(u: float, frame_from: FrameSpec, frame_to: FrameSpec) -> float:
    """Coordinate velocity of the worldline x = u*t seen from another chart.

    Pushes the worldline's direction through :func:`between_coeffs`'s closed form,
    unchecked, so it never calls valid frames singular; isotropic conventions give
    the standard relativistic velocity composition.  Returns a signed
    :data:`INFINITE_SPEED` when the image is instantaneous.
    """
    return _velocity_through(_between(frame_from, frame_to), u)
