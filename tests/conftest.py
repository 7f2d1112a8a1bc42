"""Shared oracles and helpers, coded independently of the library paths they check."""

from __future__ import annotations

import csv
import io
import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction

from synchrony_lab import cli
from synchrony_lab.errors import ConventionOutOfRange, DegenerateConvention
from synchrony_lab.probe import CollapseSample
from synchrony_lab.syncsim import (
    SUPERLUMINAL,
    ClockLattice,
    ScanPoint,
    measure_one_way,
    run_protocol,
)

# Constants restated here on purpose: the fixtures must not borrow them from
# the code under test.
ORACLE_HBAR_EV_S = 6.582119569e-16
ORACLE_PLANCK_ENERGY_EV = 1.22e28


def textbook_boost(t: float, x: float, beta: float) -> tuple[float, float]:
    """Plain special-relativity boost, written from scratch as an oracle."""
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    return gamma * (t - beta * x), gamma * (x - beta * t)


def absolute_sync_boost(t: float, x: float, beta: float) -> tuple[float, float]:
    """Absolute-simultaneity boost evaluated directly from its closed form."""
    root = math.sqrt(1.0 - beta * beta)
    return root * t, (x - beta * t) / root


class OracleKinematics:
    """The kinematics API as one composition of coefficient objects.

    Every call validates all of its arguments, builds a 2x2 map (``coeffs``:
    ``edwards`` -> ``Coeffs`` -> ``apply``, then ``inverse`` and ``@``) and
    applies it, in the argument order and with the messages of the public
    functions.  As in the library, a ``Coeffs`` built from given entries (and
    the result of ``@`` and ``inverse``) checks its determinant, ``inverse``
    refuses a zero one, and the maps built here are unchecked.  Events are
    ``(t, x, y, z, chart)`` tuples and maps are ``Coeffs``; the library's
    kernels must agree bit for bit.  The frame-to-frame maps are not here: the
    library evaluates them in a closed form whose bits differ from this
    composition, and :func:`oracle_between` holds them to 50 digits instead.
    """

    class Coeffs:
        def __init__(self, a_tt, a_tx, a_xt, a_xx, checked=True):
            self.entries = (a_tt, a_tx, a_xt, a_xx)
            if checked and not all(math.isfinite(a) for a in self.entries):
                raise ValueError("transform coefficients must be finite")
            if checked and self.singular():
                raise ValueError("transform is singular (zero determinant)")

        @property
        def determinant(self):
            a_tt, a_tx, a_xt, a_xx = self.entries
            return a_tt * a_xx - a_tx * a_xt

        def rescaled(self):
            """(e, entries times 2**-e), e the exponent of the largest entry: an exact scale."""
            e = math.frexp(max(abs(a) for a in self.entries))[1]
            return e, OracleKinematics.Coeffs(*(math.ldexp(a, -e) for a in self.entries),
                                              checked=False)

        def singular(self):
            """A zero, infinite or NaN determinant is decided again at the rescaled entries."""
            d = self.determinant
            if d != 0.0 and math.isfinite(d):
                return False
            return self.rescaled()[1].determinant == 0.0

        def apply(self, e, chart=None):
            a_tt, a_tx, a_xt, a_xx = self.entries
            t, x, y, z, own = e
            return OracleKinematics.event(
                a_tt * t + a_tx * x, a_xt * t + a_xx * x, y, z, own if chart is None else chart
            )

        def __matmul__(self, inner):
            o_tt, o_tx, o_xt, o_xx = self.entries
            i_tt, i_tx, i_xt, i_xx = inner.entries
            return OracleKinematics.Coeffs(
                o_tt * i_tt + o_tx * i_xt, o_tt * i_tx + o_tx * i_xx,
                o_xt * i_tt + o_xx * i_xt, o_xt * i_tx + o_xx * i_xx, checked=False,
            )

        def inverse(self):
            d = self.determinant
            if d != 0.0 and math.isfinite(d):
                a_tt, a_tx, a_xt, a_xx = self.entries
                return OracleKinematics.Coeffs(a_xx / d, -a_tx / d, -a_xt / d, a_tt / d)
            # The inverse of 2**e * S is 2**-e times the inverse of S.
            e, scaled = self.rescaled()
            if scaled.singular():
                raise ValueError("transform is singular (zero determinant)")
            try:
                entries = [math.ldexp(a, -e) for a in scaled.inverse().entries]
            except OverflowError:
                raise ValueError("transform coefficients must be finite") from None
            return OracleKinematics.Coeffs(*entries)

    @staticmethod
    def event(t, x, y=0.0, z=0.0, chart="S"):
        for name, value in (("t", t), ("x", x), ("y", y), ("z", z)):
            if not math.isfinite(value):
                raise ValueError(f"event component {name} must be finite")
        if not chart:
            raise ValueError("event chart must be a non-empty identifier")
        return (t, x, y, z, chart)

    @staticmethod
    def check_beta(beta):
        if not (math.isfinite(beta) and abs(beta) < 1.0):
            raise ValueError(f"boost velocity must satisfy |beta| < 1, got {beta!r}")

    @staticmethod
    def check_k(k, name="k"):
        if not (math.isfinite(k) and abs(k) <= 1.0):
            raise ValueError(f"synchrony parameter {name} must lie in [-1, 1], got {k!r}")

    def eta(self, beta, k):
        self.check_beta(beta)
        self.check_k(k)
        a = 1.0 + beta * k
        disc = (a - beta) * (a + beta)
        if disc < 2.0 ** -2:
            # Near the edge each factor is its exact value, rounded once.
            exact = 1 + Fraction(beta) * Fraction(k)
            disc = float(exact - Fraction(beta)) * float(exact + Fraction(beta))
            if disc <= 0.0:
                raise DegenerateConvention(beta, k)
        return 1.0 / math.sqrt(disc)

    def edwards_coeffs(self, beta, k, k_prime):
        self.check_k(k_prime, "k_prime")
        h = self.eta(beta, k)
        return self.Coeffs(
            h * (1.0 + beta * (k + k_prime)), h * (beta * (k * k - 1.0) + k - k_prime),
            -h * beta, h, checked=False,
        )

    def induced_synchrony(self, k, beta):
        self.check_beta(beta)
        self.check_k(k)
        k_prime = beta * (k * k - 1.0) + k
        if abs(k_prime) > 1.0:
            raise ConventionOutOfRange(k_prime)
        return k_prime

    def resync_coeffs(self, k_from, k_to):
        self.check_k(k_from, "k_from")
        self.check_k(k_to, "k_to")
        return self.Coeffs(1.0, k_from - k_to, 0.0, 1.0, checked=False)

    def frame_coeffs(self, frame):
        return self.edwards_coeffs(frame.beta, 0.0, frame.k)

    def edwards_transform(self, e, beta, k, k_prime):
        return self.edwards_coeffs(beta, k, k_prime).apply(e, "S'")

    def lorentz_transform(self, e, beta):
        return self.edwards_transform(e, beta, 0.0, 0.0)

    def superluminal_transform(self, e, beta):
        return self.edwards_transform(e, beta, 0.0, self.induced_synchrony(0.0, beta))

    def resynchronize(self, e, k_from, k_to):
        return self.resync_coeffs(k_from, k_to).apply(e)

    @staticmethod
    def velocity_through(coeffs, u):
        if math.isnan(u):
            raise ValueError("velocity must be a number (may be +-inf)")
        dt, dx = (1.0, u) if abs(u) <= 1.0 else (1.0 / abs(u), math.copysign(1.0, u))
        a_tt, a_tx, a_xt, a_xx = coeffs.entries
        dt_img = a_tt * dt + a_tx * dx
        dx_img = a_xt * dt + a_xx * dx
        if dt_img == 0.0:
            return math.copysign(math.inf, dx_img)
        return dx_img / dt_img

    def resync_velocity(self, u, k_from, k_to):
        return self.velocity_through(self.resync_coeffs(k_from, k_to), u)


def oracle_between(frame_from, frame_to) -> tuple[Decimal, ...]:
    """(a_tt, a_tx, a_xt, a_xx) of the map between two frames, to 50 digits.

    Composes E(to) @ E(from)^-1 the plain way, where E(beta, k) =
    gamma * ((1 + beta*k, -beta - k), (-beta, 1)) maps the isotropy chart
    into the frame's chart, for the frames' float beta and k.  Near
    |beta| = 1 the product cancels some 16 digits, which 50 can spare.
    """
    with localcontext(Context(prec=50)):
        def edwards(frame):
            b, k = Decimal(frame.beta), Decimal(frame.k)
            gamma = 1 / ((1 - b) * (1 + b)).sqrt()
            return gamma * (1 + b * k), gamma * (-b - k), -gamma * b, gamma

        o_tt, o_tx, o_xt, o_xx = edwards(frame_to)
        f_tt, f_tx, f_xt, f_xx = edwards(frame_from)
        d = f_tt * f_xx - f_tx * f_xt
        i_tt, i_tx, i_xt, i_xx = f_xx / d, -f_tx / d, -f_xt / d, f_tt / d
        return (o_tt * i_tt + o_tx * i_xt, o_tt * i_tx + o_tx * i_xx,
                o_xt * i_tt + o_xx * i_xt, o_xt * i_tx + o_xx * i_xx)


def lattice_scan(betas) -> list[ScanPoint]:
    """The isotropy scan through the public lattice path: one lattice per point.

    Each point builds a two-node lattice at positions 0 and 1, runs the
    superluminal protocol from node 0 and measures light one way in each
    direction.  ``isotropy_scan`` must agree with it bit for bit, errors
    included.
    """
    points = []
    for beta in betas:
        lattice = ClockLattice.build(beta, (0.0, 1.0))
        run_protocol(lattice, SUPERLUMINAL)
        c_plus = measure_one_way(lattice, 0, 1).speed
        c_minus = measure_one_way(lattice, 1, 0).speed
        points.append(ScanPoint(float(beta), c_plus, c_minus, c_plus - c_minus))
    return points


def velocity_subtract(u: float, v: float) -> float:
    """Standard relativistic composition (u - v)/(1 - u*v)."""
    return (u - v) / (1.0 - u * v)


def synth_collapse_samples(beta0, velocities, delta_E=1.0, sigma=0.0, rng=None):
    """Generate collapse-time samples straight from the model formula.

    Deliberately independent of the probe module: the velocity composition
    and gamma factor are computed inline.
    """
    samples = []
    for u in velocities:
        w = velocity_subtract(float(u), beta0)
        gamma = 1.0 / math.sqrt(1.0 - w * w)
        t_c = gamma * ORACLE_HBAR_EV_S * ORACLE_PLANCK_ENERGY_EV / delta_E**2
        if sigma:
            t_c *= 1.0 + sigma * rng.standard_normal()
        samples.append(CollapseSample(delta_E=delta_E, beta=float(u), t_c=t_c))
    return samples


def oracle_load_samples(text: str) -> list[CollapseSample]:
    """The sample-file rules applied row by row to CSV text.

    Restated with ``csv.reader`` and explicit indices instead of
    ``DictReader``: a repeated column name means its last column, blank lines
    are skipped, a row longer than the header and then a row that stops before
    a required column are refused first, and the fields then parse with
    ``float`` and pass :class:`CollapseSample`'s checks.  Each error names the
    physical line of the first bad row.
    """
    required = ("delta_E", "lab_beta", "t_c")
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, [])
    if not set(required) <= set(header):
        raise ValueError("sample file must have columns delta_E, lab_beta, t_c")
    where = {name: i for i, name in enumerate(header)}
    samples = []
    for row in reader:
        if not row:
            continue
        bad = f"bad sample on line {reader.line_num}: "
        if len(row) > len(header):
            raise ValueError(bad + "row has more fields than the header")
        missing = [name for name in required if where[name] >= len(row)]
        if missing:
            raise ValueError(bad + f"row ends before column {missing[0]}")
        sigma = row[where["sigma"]].strip() if where.get("sigma", len(row)) < len(row) else ""
        try:
            samples.append(CollapseSample(*(float(row[where[name]]) for name in required),
                                          float(sigma) if sigma else None))
        except ValueError as exc:
            raise ValueError(bad + str(exc)) from None
    if not samples:
        raise ValueError("sample file contains no rows")
    return samples


def oracle_collapse_time(delta_E: float, beta: float) -> Decimal:
    """gamma * hbar * E_p / delta_E^2 for the float inputs and constants, to 50 digits."""
    with localcontext(Context(prec=50)):
        b = Decimal(beta)
        gamma = 1 / ((1 - b) * (1 + b)).sqrt()
        hbar_e_p = Decimal(ORACLE_HBAR_EV_S) * Decimal(ORACLE_PLANCK_ENERGY_EV)
        return gamma * hbar_e_p / Decimal(delta_E) ** 2


def oracle_gamma(beta: float) -> Decimal:
    """1/sqrt(1 - beta^2) for the float beta, to 50 digits."""
    with localcontext(Context(prec=50)):
        b = Decimal(beta)
        return 1 / ((1 - b) * (1 + b)).sqrt()


def oracle_scan_speeds(beta: float) -> tuple[Decimal, Decimal]:
    """One scan point's (c_plus, c_minus) to 50 digits, from the literal light chase.

    Clocks at rest positions 0 and 1 drift at -beta, tick at 1/gamma and
    read zero offsets; light covers the gap 1 in time 1/(1 -+ (-beta)), and
    the speed is the rest length gamma over the reading.
    """
    with localcontext(Context(prec=50)):
        b, gamma = -Decimal(beta), oracle_gamma(beta)
        return tuple(gamma / (t / gamma) for t in (1 / (1 - b), 1 / (1 + b)))


def oracle_residuals(samples, grid) -> list[Decimal]:
    """The probe fit's residual at each grid point, to 50 digits.

    With y = t_c * delta_E^2 and g_b(u) = gamma((u - b)/(1 - u*b)), the
    residual at b is y.y - (g_b.y)^2 / (g_b.g_b).  Since g_b(u) =
    gamma(b) * gamma(u) * (1 - u*b), both dot products are quadratics in b
    over six sums taken once; 50 digits leave about 19 after the worst
    cancellation in the tests.
    """
    with localcontext(Context(prec=50)):
        sums = [Decimal(0)] * 6  # y.y, g.g, g.ug, ug.ug, g.y, ug.y with g = gamma(u)
        for s in samples:
            u, y = Decimal(s.beta), Decimal(s.t_c) * Decimal(s.delta_E) ** 2
            g = 1 / ((1 - u) * (1 + u)).sqrt()
            for k, term in enumerate((y * y, g * g, g * u * g, u * g * u * g, g * y, u * g * y)):
                sums[k] += term
        yy, a, ab, bb, p, q = sums
        residuals = []
        for beta in grid:
            b = Decimal(beta)
            residuals.append(yy - (p - b * q) ** 2 / (a - 2 * b * ab + b * b * bb))
        return residuals


def oracle_argmin(samples) -> float:
    """The probe fit's exact least-squares minimizer over all b, to 50 digits.

    With phi = gamma(u) and y = t_c * delta_E^2, the curve at b is
    proportional to phi*(1 - u*b), so g_b.y = A - b*B and g_b.g_b = C - 2*b*D
    + b^2*E over the raw sums below; (A - b*B)^2/(C - 2*b*D + b^2*E) is
    stationary at b* = (B*C - A*D)/(B*D - A*E).  No basis is built.
    """
    with localcontext(Context(prec=50)):
        A = B = C = D = E = Decimal(0)
        for s in samples:
            u, y = Decimal(s.beta), Decimal(s.t_c) * Decimal(s.delta_E) ** 2
            phi = 1 / ((1 - u) * (1 + u)).sqrt()
            A, B, C = A + phi * y, B + u * phi * y, C + phi * phi
            D, E = D + u * phi * phi, E + u * u * phi * phi
        return float((B * C - A * D) / (B * D - A * E))


def run_cli(argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()
