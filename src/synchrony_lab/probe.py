"""Collapse-time model and the least-squares estimator for the preferred frame.

The model: a wave function with energy spread ``delta_E`` collapses after

    t_c = gamma * hbar * E_p / delta_E**2,    gamma = 1/sqrt(1 - beta^2),

where ``beta`` is the laboratory's velocity relative to the preferred frame
and ``E_p`` is the Planck energy.  Collapse is fastest in the preferred
frame itself, so fitting measured collapse times against laboratory
velocity and finding where the fitted curve bottoms out estimates that
frame's velocity.  That bottom has a closed form; a beta grid gives the
residual curve around it.

Only the shape of the curve is identified: the proportionality constant is
absorbed into a per-candidate least-squares scale, and samples taken at
different ``delta_E`` are first normalized by ``delta_E**2``.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from array import array
from collections import namedtuple

from .errors import FileInvalid, IllConditioned
from .kinematics import _Value, _floats, _is_finite, _is_number, _rate

#: Reduced Planck constant in eV*s (CODATA).
HBAR_EV_S = 6.582119569e-16

#: Planck energy in eV (1.22e19 GeV).
PLANCK_ENERGY_EV = 1.22e28

#: Most rows a sample file may hold; :func:`load_samples` stops reading one row past it.
MAX_SAMPLE_ROWS = 10**6

_REQUIRED = ("delta_E", "lab_beta", "t_c")
_INF = math.inf


_CollapseSampleFields = namedtuple("_CollapseSampleFields", "delta_E beta t_c sigma",
                                   defaults=(None,))


class CollapseSample(_Value, _CollapseSampleFields):
    """One observed collapse time at a known laboratory velocity.

    Fields follow the number rule of :mod:`~synchrony_lab.kinematics`, types
    first; an int past the float range is not finite and fails its field's check.
    """

    __slots__ = ()

    def __new__(cls, delta_E, beta, t_c, sigma=None):
        # The loaders' and the fit's samples are exact floats, checked in one test.
        # Unchained: CPython specializes a float comparison followed by a jump, not a chain.
        if (type(delta_E) is float and type(beta) is float and type(t_c) is float
                and delta_E > 0.0 and delta_E < _INF and t_c > 0.0 and t_c < _INF
                and beta > -1.0 and beta < 1.0
                and (sigma is None or type(sigma) is float and sigma > 0.0 and sigma < _INF)):
            return tuple.__new__(cls, (delta_E, beta, t_c, sigma))
        for value in (delta_E, beta, t_c) if sigma is None else (delta_E, beta, t_c, sigma):
            if not _is_number(value):
                raise TypeError(f"a sample field must be a number, not a {type(value).__name__}")
        if not (_is_finite(delta_E) and delta_E > 0.0):
            raise ValueError("delta_E must be positive")
        if not (_is_finite(t_c) and t_c > 0.0):
            raise ValueError("t_c must be positive")
        if not (_is_finite(beta) and abs(beta) < 1.0):
            raise ValueError("|beta| must be < 1")
        if sigma is not None and not (_is_finite(sigma) and sigma > 0.0):
            raise ValueError("sigma must be positive and finite when given")
        return tuple.__new__(cls, (delta_E, beta, t_c, sigma))


class SampleColumns:
    """Collapse samples as float64 columns, as :func:`load_samples` returns them.

    ``sigma`` is NaN where the file left it blank.  ``len`` counts the rows
    and indexing builds one row as a :class:`CollapseSample` (``sigma=None``
    for a blank), so the columns read like a list of samples.  The loader
    checks the values; the constructor does not.
    """

    __slots__ = ("delta_E", "beta", "t_c", "sigma")

    def __init__(self, delta_E, beta, t_c, sigma):
        self.delta_E, self.beta, self.t_c, self.sigma = delta_E, beta, t_c, sigma

    def __len__(self) -> int:
        return len(self.beta)

    def __getitem__(self, i) -> CollapseSample:
        sigma = float(self.sigma[i])
        return CollapseSample(float(self.delta_E[i]), float(self.beta[i]), float(self.t_c[i]),
                              None if math.isnan(sigma) else sigma)


def collapse_time(delta_E: float, beta: float) -> float:
    """gamma * hbar * E_p / delta_E^2 in seconds, for delta_E in eV; beta = 0 is the rest formula.

    Strictly increasing in |beta| and exactly inverse-square in delta_E:
    doubling delta_E divides the result by four.
    """
    if not (isinstance(delta_E, float) and isinstance(beta, float)):  # floats skip _floats
        _floats((delta_E, beta), "delta_E and beta")
    if not (math.isfinite(delta_E) and delta_E > 0.0):
        raise ValueError(f"delta_E must be positive, got {delta_E!r}")
    if not (math.isfinite(beta) and abs(beta) < 1.0):
        raise ValueError(f"|beta| must be < 1, got {beta!r}")
    gamma = 1.0 / _rate(beta)
    square = delta_E * delta_E  # 0.0 once delta_E is below about 1e-162
    if square == 0.0 or math.isinf(t_c := gamma * HBAR_EV_S * PLANCK_ENERGY_EV / square):
        raise ValueError(f"collapse time overflows a float for delta_E={delta_E!r}")
    return t_c


class FitReport(namedtuple("FitReport", "beta_hat grid_beta_hat refined scale beta_grid "
                                        "residuals n_samples distinct_velocities")):
    """Everything the estimator decided; ``to_dict`` adds the model constants.

    ``refined`` means the closed-form minimizer b* lies within the grid's span
    and is ``beta_hat``; otherwise ``beta_hat`` is ``grid_beta_hat``, the grid
    argmin.  ``beta_grid`` and ``residuals`` are tuples of floats.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        """The published fit report, with the residual curve as (beta, residual) pairs."""
        return {
            "beta_hat": self.beta_hat,
            "grid_beta_hat": self.grid_beta_hat,
            "refined": self.refined,
            "scale": self.scale,
            "n_samples": self.n_samples,
            "distinct_velocities": self.distinct_velocities,
            "velocity_composition": "relativistic-subtraction",
            "constants": {"hbar": HBAR_EV_S, "planck_energy": PLANCK_ENERGY_EV, "units": "eV,s"},
            "residual_curve": [
                {"beta": b, "residual": r} for b, r in zip(self.beta_grid, self.residuals)
            ],
        }


def estimate_absolute_frame(samples, beta_grid) -> tuple[float, FitReport]:
    """Locate the preferred-frame velocity from collapse-time samples.

    ``samples`` is a :class:`SampleColumns` or rows in :class:`CollapseSample`'s
    field order; rows of another width raise ``ValueError``.  Each row that is
    not a sample, such as a plain tuple, is built as one, so the first bad row
    raises its own error: ``ValueError`` for a value out of range, ``TypeError``
    for a non-number such as a numeric string.  The fit reads delta_E, beta, t_c.
    ``beta_grid`` follows the number rule of :mod:`~synchrony_lab.kinematics`.

    Each grid point ``b`` composes the lab velocities u with it (u ominus b
    = (u - b)/(1 - u*b)), scales the gamma curve to the delta_E^2-normalized
    times y by least squares and records the squared residual.  As gamma(u
    ominus b) = gamma(b)*gamma(u)*(1 - u*b), every curve lies in the plane of
    gamma(u) and u*gamma(u): y is projected onto it once, so the fit is
    O(samples + grid) in time and memory.  The residual is least where the
    curve is parallel to that projection, so the least-squares minimizer b*
    is one division; it is the estimate when it lies within the grid's span,
    and the grid argmin is otherwise.  There is no optimizer.

    Raises :class:`IllConditioned` when fewer than three distinct lab
    velocities are present (the curve's location and scale would be
    unconstrained or untestable), when the normalized times underflow, or
    when a residual is not finite (samples or grid points so close to
    |beta| = 1, or times so large, that the arithmetic overflows).  The
    distinct velocities are counted on the sorted velocities, as the
    neighbours that differ plus one (none for no samples), so -0.0 and 0.0
    are one velocity, as in ``np.unique``.
    """
    import numpy as np  # deferred so that importing the package does not load numpy

    beta_grid = _floats(beta_grid, "beta_grid")  # the report's tuple of floats
    grid = np.array(beta_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("beta_grid must be non-empty")
    if not np.all(np.abs(grid) < 1.0):  # also rejects NaN
        raise ValueError("beta_grid values must satisfy |beta| < 1")

    if isinstance(samples, SampleColumns):
        delta_E, u, t_c = samples.delta_E, samples.beta, samples.t_c  # u: lab velocities
    else:  # rows in CollapseSample's field order
        rows = list(samples)
        try:  # no rows: four empty columns
            fields = list(zip(*rows, strict=True)) if rows else [()] * 4
            width = len(fields)
        except ValueError:  # zip met rows of mixed widths
            width = "mixed widths"
        if width != 4:
            raise ValueError(f"sample rows need 4 fields ({', '.join(CollapseSample._fields)}), "
                             f"got {width}")
        if set(map(type, rows)) - {CollapseSample}:  # a sample checked itself when it was made
            for row in rows:
                if type(row) is not CollapseSample:
                    CollapseSample(*row)  # the first bad row raises its own error
        delta_E, u, t_c = (np.array(f, dtype=float) for f in fields[:3])
    s = np.sort(u)  # not np.unique, which imports numpy.ma on numpy >= 2.3
    distinct = np.count_nonzero(s[1:] != s[:-1]) + (s.size > 0)
    if distinct < 3:
        raise IllConditioned(
            f"need at least 3 samples at 3 distinct velocities, "
            f"got {u.size} samples at {distinct}"
        )

    with np.errstate(all="ignore"):  # overflow shows up as a non-finite residual
        # Normalized times y; an overflowing square is inf (** would raise).
        y = t_c * (delta_E * delta_E)
        yy = float(y @ y)
        if not (np.all(y > 0.0) and yy >= np.finfo(float).tiny):  # all residuals would be 0
            raise IllConditioned("normalized collapse times underflow")
        phi1 = 1.0 / np.sqrt((1.0 - u) * (1.0 + u))
        # Orthonormal q1, q2 with u*phi1 = p12*q1 + n2*q2: one Gram-Schmidt pass
        # loses orthogonality when the velocities cluster, two passes do not.
        n1 = math.sqrt(phi1 @ phi1)
        q1 = phi1 / n1
        q2, p12 = u * phi1, 0.0
        for _ in range(2):
            p = q1 @ q2
            q2, p12 = q2 - p * q1, p12 + p
        n2 = math.sqrt(q2 @ q2)
        q2 /= n2
        c1, c2 = q1 @ y, q2 @ y
        # Curve b is gamma(b)*(d1*q1 + d2*q2); both residual terms are non-negative.
        d1, d2 = n1 - grid * p12, -grid * n2
        dd = d1 * d1 + d2 * d2
        residuals = np.sum((y - c1 * q1 - c2 * q2) ** 2) + (c1 * d2 - c2 * d1) ** 2 / dd
        # The second residual term vanishes where d(b) is parallel to c.
        b_star = c2 * n1 / (c2 * p12 - c1 * n2)
    if not np.isfinite(residuals).all():
        raise IllConditioned("fit residuals are not finite")

    grid_b = float(grid[np.argmin(residuals)])
    refined = bool(grid.min() <= b_star <= grid.max())  # False for nan and +-inf
    b = float(b_star) if refined else grid_b
    d1, d2 = n1 - b * p12, -b * n2
    report = FitReport(
        beta_hat=b,
        grid_beta_hat=grid_b,
        refined=refined,
        scale=float((c1 * d1 + c2 * d2) / (d1 * d1 + d2 * d2)) * _rate(b),
        beta_grid=beta_grid,
        residuals=tuple(residuals.tolist()),
        n_samples=u.size,
        distinct_velocities=int(distinct),
    )
    return report.beta_hat, report


def load_samples(path) -> SampleColumns:
    """Read samples from CSV with columns delta_E, lab_beta, t_c and, optionally, sigma.

    Returns :class:`SampleColumns`, whose rows are :class:`CollapseSample` records.
    Columns may come in any order; a name the header repeats means its last
    column, and other columns are ignored.  Blank lines are skipped, a row may
    omit trailing fields that no required column needs, and a blank or missing
    sigma reads as none.

    The path is opened once, and two readers share these rules.  numpy's C
    reader (``np.loadtxt``), asked once, takes a file if every row gives every
    header column a number it parses, the samples pass the checks and the OS
    reports the file's size.  Any other file (a blank sigma, a text
    column, a short row, ``1_0`` or non-ASCII digits, a bad sample, a pipe) is
    read from the end of its header, row by row, by :func:`_read_rows`, which
    returns the columns or names the first bad line; such files load more
    slowly.  Both readers give the same columns and the same errors.  Raises
    :class:`FileInvalid` if the file is not readable UTF-8 CSV, ValueError on
    malformed rows and, as soon as the row after the cap is read, on more
    than :data:`MAX_SAMPLE_ROWS` rows.
    """
    import numpy as np  # deferred so that importing the package does not load numpy

    try:
        with open(os.fspath(path), newline="", encoding="utf-8") as fh:
            reader = csv.reader(iter(fh.readline, ""))  # not next(fh), which disables fh.tell()
            header, index = _read_header(reader)
            if fh.seekable():  # a pipe could not be read again
                body = fh.tell()
                if (columns := _table(fh, header, index, np)) is not None:
                    return columns
                fh.seek(body)
            return _read_rows(reader, header, index, np)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:  # file errors only, not row errors
        raise FileInvalid(type(exc).__name__) from exc


def _read_header(reader):
    """The header and its {name: column}; a repeated name keeps its last column."""
    header = next(reader, [])
    if any(c not in header for c in _REQUIRED):
        raise ValueError(f"sample file must have columns {', '.join(_REQUIRED)}")
    return header, {name: i for i, name in enumerate(header)}


def _table(fh, header, index, np) -> SampleColumns | None:
    """The rest of ``fh`` read by numpy's C reader as checked columns, or None.

    None means that reader does not take the file: a field, a blank sigma
    included, is not a number as numpy parses it, a row has another width
    than the header, a sample is out of range, or there are no rows or more
    than :data:`MAX_SAMPLE_ROWS`.
    """
    # loadtxt allocates max_rows rows up front.  Each row it parses takes at
    # least 2 bytes per column, a character and a delimiter or line end (the
    # header makes up for a last row without one), so only a file past the
    # cap, or grown since fstat, reaches the bound.
    max_rows = min(MAX_SAMPLE_ROWS + 1, os.fstat(fh.fileno()).st_size // (2 * len(header)) + 1)
    sigma = index.get("sigma")
    try:
        with warnings.catch_warnings():  # an empty body or a blank line warns
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2,
                               dtype=float, max_rows=max_rows)
        if not 0 < len(table) < max_rows or table.shape[1] != len(header):
            return None
        columns = [table[:, index[c]].copy() for c in _REQUIRED]
        columns.append(table[:, sigma].copy() if sigma is not None
                       else np.full(len(table), math.nan))
        _check(*columns, sigma is None, np)
    except ValueError:  # a field numpy cannot parse, a row of another width, a bad sample
        return None
    return SampleColumns(*columns)


def _check(delta_E, beta, t_c, sigma, blank, np) -> None:
    """Raise ValueError, naming no sample, if a sample fails :class:`CollapseSample`'s checks.

    The samples are float columns.  ``blank`` says the file has no sigma
    column, so every sigma is NaN and none is checked.
    """
    def positive(x):
        return np.isfinite(x) & (x > 0.0)

    if not (positive(delta_E) & positive(t_c) & (np.abs(beta) < 1.0)
            & (blank | positive(sigma))).all():
        raise ValueError("a sample is out of range")


def _read_rows(reader, header, index, np) -> SampleColumns:
    """The rest of ``reader``, row by row, as checked columns, or its first bad row raised.

    The one row rule, in order: a non-blank row is no longer than the header,
    reaches every required column and parses into a :class:`CollapseSample`.
    The row after :data:`MAX_SAMPLE_ROWS` is read but not parsed.  Reading is
    sequential, so a bad row is raised before any file error that follows it.
    """
    fields = [index[c] for c in _REQUIRED]
    sigma = index.get("sigma", len(header))  # no row reaches a missing sigma column
    values = array("d")  # delta_E, beta, t_c and sigma (NaN if blank) of each row in turn
    for n, row in enumerate(filter(None, reader), 1):
        if n > MAX_SAMPLE_ROWS:
            raise ValueError(f"sample file has more than {MAX_SAMPLE_ROWS} rows")
        try:
            if len(row) > len(header):
                raise ValueError("row has more fields than the header")
            if short := [c for c in _REQUIRED if index[c] >= len(row)]:
                raise ValueError(f"row ends before column {short[0]}")
            text = row[sigma] if sigma < len(row) else ""
            sample = CollapseSample(*(float(row[i]) for i in fields),
                                    float(text) if text.strip() else None)
        except ValueError as exc:
            raise ValueError(f"bad sample on line {reader.line_num}: {exc}") from None
        values.extend(sample[:3])
        values.append(math.nan if sample.sigma is None else sample.sigma)
    if not values:
        raise ValueError("sample file contains no rows")
    table = np.frombuffer(values).reshape(-1, 4)
    return SampleColumns(*(table[:, j].copy() for j in range(4)))
