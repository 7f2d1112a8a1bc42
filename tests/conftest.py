"""Shared oracles and helpers, coded independently of the library paths they check."""

from __future__ import annotations

import io
import math

from synchrony_lab import cli
from synchrony_lab.probe import CollapseSample

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


def run_cli(argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()
