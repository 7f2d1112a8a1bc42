"""Cross-layer closure: the scan, the probe and the protocols agree on one preferred frame.

In a reference chart the preferred frame moves at ``B`` and the laboratory at
``u``.  Seen from the lab, the preferred frame drifts at ``B ⊖ u``; that is
the simulator's drift, the lattice's own frame moves at ``u ⊖ B``
(``lattice.frame.beta``), and the probe reads lab velocities ``u`` and
composes them as ``u ⊖ beta``.  If these conventions agree, the anisotropy
scan, the collapse-time fit and the realized synchrony all point at ``B``.
"""

from __future__ import annotations

import pytest

from synchrony_lab import (
    ClockLattice,
    CollapseSample,
    FrameSpec,
    collapse_time,
    estimate_absolute_frame,
    isotropy_scan,
    run_protocol,
)
from synchrony_lab.syncsim import SUPERLUMINAL

B = 0.3
STEP = 0.1
LAB = [-0.8 + STEP * i for i in range(17)]
PROBE_GRID = [-0.9 + 0.01 * i for i in range(181)]


def closure(flip=None):
    """(scan_ok, probe_ok, k_ok) over the lab velocities, with one sign optionally flipped.

    ``flip`` names the boundary whose sign is flipped: ``"drift"`` (lab to
    simulator: ``u ⊖ B`` used as the drift), ``"frame"`` (the lattice's frame
    taken to move at ``+drift``, the wind's own direction) or ``"lab_beta"``
    (simulator to probe: the samples carry ``-u``).  The collapse time is even
    in its velocity, so the lab velocity is the sign the probe can see.
    """
    drifts, samples, k_ok = [], [], True
    for i, u in enumerate(LAB):
        drift = (B - u) / (1.0 - u * B)
        if flip == "drift":
            drift = -drift
        if flip == "frame":  # the frame ClockLattice.build would give, sign-flipped
            lattice = ClockLattice(FrameSpec(drift, 0.0, "lab"), (0.0, 1.0))
        else:
            lattice = ClockLattice.build(drift, (0.0, 1.0))
        run_protocol(lattice, SUPERLUMINAL)
        k_ok = k_ok and lattice.frame.k == drift
        delta_E = (0.5, 1.0, 2.0)[i % 3]
        lab_beta = -u if flip == "lab_beta" else u
        t_c = collapse_time(delta_E, lattice.frame.beta)
        samples.append(CollapseSample(delta_E, lab_beta, t_c))
        drifts.append(drift)

    # The zero of the anisotropy sits at u = B, with faster +x light below B
    # (the preferred frame drifts toward +x) and slower above.
    a = [point.anisotropy for point in isotropy_scan(drifts)]
    i = min(range(len(a)), key=lambda j: abs(a[j]))
    scan_ok = abs(LAB[i] - B) < STEP and a[i - 1] > 0.0 > a[i + 1]

    beta_hat, _ = estimate_absolute_frame(samples, PROBE_GRID)
    probe_ok = abs(beta_hat - B) <= 1e-4
    return scan_ok, probe_ok, k_ok


def test_scan_probe_and_protocol_agree_on_the_preferred_frame():
    assert closure() == (True, True, True)


@pytest.mark.parametrize("flip, caught_by", [("drift", 0), ("lab_beta", 1), ("frame", 2)])
def test_a_sign_flip_at_any_boundary_is_caught(flip, caught_by):
    assert closure(flip) == tuple(check != caught_by for check in range(3))
