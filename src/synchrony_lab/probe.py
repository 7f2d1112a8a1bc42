"""Collapse-time model and the grid estimator for the preferred frame.

The model: a wave function with energy spread ``delta_E`` collapses after

    t_c = gamma * hbar * E_p / delta_E**2,    gamma = 1/sqrt(1 - beta^2),

where ``beta`` is the laboratory's velocity relative to the preferred frame
and ``E_p`` is the Planck energy.  Collapse is fastest in the preferred
frame itself, so fitting measured collapse times against laboratory
velocity and finding where the fitted curve bottoms out estimates that
frame's velocity.

Only the shape of the curve is identified: the proportionality constant is
absorbed into a per-candidate least-squares scale, and samples taken at
different ``delta_E`` are first normalized by ``delta_E**2``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import FileInvalid, IllConditioned

#: Reduced Planck constant in eV*s (CODATA).
HBAR_EV_S = 6.582119569e-16

#: Planck energy in eV (1.22e19 GeV).
PLANCK_ENERGY_EV = 1.22e28


@dataclass(frozen=True)
class CollapseSample:
    """One observed collapse time at a known laboratory velocity."""

    delta_E: float
    beta: float
    t_c: float
    sigma: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.delta_E) and self.delta_E > 0.0):
            raise ValueError("delta_E must be positive")
        if not (math.isfinite(self.t_c) and self.t_c > 0.0):
            raise ValueError("t_c must be positive")
        if not (math.isfinite(self.beta) and abs(self.beta) < 1.0):
            raise ValueError("|beta| must be < 1")
        if self.sigma is not None and not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("sigma must be positive and finite when given")


def collapse_time(delta_E: float, beta: float) -> float:
    """gamma * hbar * E_p / delta_E^2 in seconds, for delta_E in eV; beta = 0 is the rest formula.

    Strictly increasing in |beta| and exactly quartic-inverse in delta_E:
    doubling delta_E divides the result by four.
    """
    if not (math.isfinite(delta_E) and delta_E > 0.0):
        raise ValueError(f"delta_E must be positive, got {delta_E!r}")
    if not (math.isfinite(beta) and abs(beta) < 1.0):
        raise ValueError(f"|beta| must be < 1, got {beta!r}")
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    return gamma * HBAR_EV_S * PLANCK_ENERGY_EV / (delta_E * delta_E)


@dataclass(frozen=True)
class FitReport:
    """Everything the estimator decided; ``to_dict`` adds the model constants."""

    beta_hat: float
    grid_beta_hat: float
    refined: bool
    scale: float
    beta_grid: tuple[float, ...]
    residuals: tuple[float, ...]
    n_samples: int
    distinct_velocities: int

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


def _parabolic_vertex(bs, rs) -> float | None:
    """Vertex of the quadratic through three points; None if not a minimum.

    Newton form: with divided differences s = f[b0, b1] and
    a = f[b0, b1, b2], the vertex of s*(b - b0) + a*(b - b0)*(b - b1) is
    (b0 + b1)/2 - s/(2a).
    """
    (b0, b1, b2), (r0, r1, r2) = bs, rs
    slope = (r1 - r0) / (b1 - b0)
    a = ((r2 - r1) / (b2 - b1) - slope) / (b2 - b0)
    if a <= 0.0:
        return None
    vertex = 0.5 * (b0 + b1) - slope / (2.0 * a)
    if not (b0 <= vertex <= b2):
        return None
    return float(vertex)


def estimate_absolute_frame(samples, beta_grid) -> tuple[float, FitReport]:
    """Locate the preferred-frame velocity from collapse-time samples.

    For each candidate ``b`` on the grid the samples' lab velocities are
    composed relativistically with ``b`` (u ominus b = (u - b)/(1 - u*b)),
    the gamma curve is scaled to the delta_E^2-normalized times by least
    squares, and the squared residual is recorded.  The grid argmin gets one
    step of parabolic refinement through its neighbors.  Deterministic by
    construction: no optimizer, grid order fixed.

    Raises :class:`IllConditioned` when fewer than three distinct lab
    velocities are present (the curve's location and scale would be
    unconstrained or untestable), or when a residual is not finite (samples
    or grid points so close to |beta| = 1, or times so large, that the
    arithmetic overflows).
    """
    import numpy as np  # deferred so that importing the package does not load numpy

    samples = list(samples)
    grid = np.asarray(list(beta_grid), dtype=float)
    if grid.size == 0:
        raise ValueError("beta_grid must be non-empty")
    if not np.all(np.abs(grid) < 1.0):  # also rejects NaN
        raise ValueError("beta_grid values must satisfy |beta| < 1")

    u = np.array([s.beta for s in samples], dtype=float)
    # An overflowing square is inf (** would raise) and fails the residual check below.
    y = np.array([s.t_c * (s.delta_E * s.delta_E) for s in samples], dtype=float)
    distinct = np.unique(u).size
    if distinct < 3:
        raise IllConditioned(
            f"need at least 3 samples at 3 distinct velocities, "
            f"got {len(samples)} samples at {distinct}"
        )

    with np.errstate(all="ignore"):  # overflow shows up as a non-finite residual
        w = (u[None, :] - grid[:, None]) / (1.0 - u[None, :] * grid[:, None])
        g = 1.0 / np.sqrt(1.0 - w * w)
        gy = g @ y
        gg = np.sum(g * g, axis=1)
        scales = gy / gg
        residuals = float(y @ y) - gy * gy / gg
    if not np.isfinite(residuals).all():
        raise IllConditioned("fit residuals are not finite")
    residuals = np.maximum(residuals, 0.0)  # clip rounding just below zero

    i = int(np.argmin(residuals))
    beta_hat = float(grid[i])
    refined = False
    if 0 < i < grid.size - 1:
        vertex = _parabolic_vertex(grid[i - 1 : i + 2], residuals[i - 1 : i + 2])
        if vertex is not None:
            beta_hat = vertex
            refined = True

    report = FitReport(
        beta_hat=beta_hat,
        grid_beta_hat=float(grid[i]),
        refined=refined,
        scale=float(scales[i]),
        beta_grid=tuple(float(b) for b in grid),
        residuals=tuple(float(r) for r in residuals),
        n_samples=len(samples),
        distinct_velocities=int(distinct),
    )
    return beta_hat, report


def load_samples(path) -> list[CollapseSample]:
    """Read samples from CSV with columns delta_E, lab_beta, t_c, sigma.

    The sigma column may be empty.  Raises :class:`FileInvalid` if the file
    is not readable UTF-8 CSV, ValueError on malformed rows.
    """
    required = ("delta_E", "lab_beta", "t_c")
    samples = []
    try:
        with open(Path(path), newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or any(c not in reader.fieldnames for c in required):
                raise ValueError(f"sample file must have columns {', '.join(required)}")
            for lineno, row in enumerate(reader, start=2):
                try:
                    sigma_raw = (row.get("sigma") or "").strip()
                    samples.append(
                        CollapseSample(
                            delta_E=float(row["delta_E"]),
                            beta=float(row["lab_beta"]),
                            t_c=float(row["t_c"]),
                            sigma=float(sigma_raw) if sigma_raw else None,
                        )
                    )
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"bad sample on line {lineno}: {exc}") from None
    except (OSError, UnicodeDecodeError, csv.Error) as exc:  # file errors only, not row errors
        raise FileInvalid(type(exc).__name__) from exc
    if not samples:
        raise ValueError("sample file contains no rows")
    return samples
