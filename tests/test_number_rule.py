"""The library's one number rule, applied at every public entry that takes a number.

An int or a float counts, but a bool does not; anything else raises
``TypeError`` naming the argument, and an int past the float range raises
``ValueError``.  No bad input ends in ``OverflowError`` or in a result.  A
small int, or an ``np.float64``, gives the result its float value gives, bit
for bit.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from synchrony_lab import (
    ABSOLUTE_FRAME,
    ClockLattice,
    Event,
    FrameSpec,
    TransformCoeffs,
    edwards_coeffs,
    edwards_transform,
    estimate_absolute_frame,
    eta,
    induced_synchrony,
    kinematics,
    lorentz_transform,
    map_velocity,
    one_way_speed,
    probe,
    resync_coeffs,
    resync_velocity,
    resynchronize,
    superluminal_transform,
    syncsim,
    transform_between,
)
from synchrony_lab.probe import CollapseSample, collapse_time

SRC = Path(__file__).resolve().parent.parent / "src" / "synchrony_lab"

FRAME_A, FRAME_B = FrameSpec(0.3, 0.1, "A"), FrameSpec(-0.2, -0.5, "B")
EVENT = Event(1.0, 0.5)
LAB = FrameSpec(-0.6, 0.0, "lab")
COEFFS = "transform coefficients"
FIT_ROWS = [(1.0, u, collapse_time(1.0, u), None) for u in (-0.5, -0.1, 0.2, 0.6)]


def _sample(**fields):
    return CollapseSample(**{"delta_E": 1.0, "beta": 0.1, "t_c": 8e12, "sigma": 1e10, **fields})


#: entry, the name its TypeError gives the argument, and a call taking the argument
ENTRIES = [
    ("FrameSpec.beta", "beta", lambda v: FrameSpec(v, 0.0)),
    ("FrameSpec.k", "k", lambda v: FrameSpec(0.5, v)),
    ("eta.beta", "beta", lambda v: eta(v, 0.0)),
    ("eta.k", "k", lambda v: eta(0.5, v)),
    ("edwards_coeffs.beta", "beta", lambda v: edwards_coeffs(v, 0.0, 0.0)),
    ("edwards_coeffs.k", "k", lambda v: edwards_coeffs(0.5, v, 0.0)),
    ("edwards_coeffs.k_prime", "k_prime", lambda v: edwards_coeffs(0.5, 0.0, v)),
    ("edwards_transform.beta", "beta", lambda v: edwards_transform(EVENT, v, 0.0, 0.0)),
    ("edwards_transform.k", "k", lambda v: edwards_transform(EVENT, 0.5, v, 0.0)),
    ("edwards_transform.k_prime", "k_prime", lambda v: edwards_transform(EVENT, 0.5, 0.0, v)),
    ("lorentz_transform.beta", "beta", lambda v: lorentz_transform(EVENT, v)),
    ("superluminal_transform.beta", "beta", lambda v: superluminal_transform(EVENT, v)),
    ("induced_synchrony.k", "k", lambda v: induced_synchrony(v, 0.3)),
    ("induced_synchrony.beta", "beta", lambda v: induced_synchrony(0.0, v)),
    ("one_way_speed.k", "k", lambda v: one_way_speed(v, "+x")),
    ("resync_coeffs.k_from", "k_from", lambda v: resync_coeffs(v, 0.0)),
    ("resync_coeffs.k_to", "k_to", lambda v: resync_coeffs(0.0, v)),
    ("resynchronize.k_from", "k_from", lambda v: resynchronize(EVENT, v, 0.0)),
    ("resynchronize.k_to", "k_to", lambda v: resynchronize(EVENT, 0.0, v)),
    ("resync_velocity.u", "velocity", lambda v: resync_velocity(v, 0.0, 0.5)),
    ("resync_velocity.k_from", "k_from", lambda v: resync_velocity(0.5, v, 0.0)),
    ("resync_velocity.k_to", "k_to", lambda v: resync_velocity(0.5, 0.0, v)),
    ("map_velocity.u", "velocity", lambda v: map_velocity(v, FRAME_A, FRAME_B)),
    ("Event.t", "event component t", lambda v: Event(v, 0.0)),
    ("Event.x", "event component x", lambda v: Event(0.0, v)),
    ("Event.y", "event component y", lambda v: Event(0.0, 0.0, v)),
    ("Event.z", "event component z", lambda v: Event(0.0, 0.0, 0.0, v)),
    ("TransformCoeffs.a_tt", COEFFS, lambda v: TransformCoeffs(v, 0.0, 0.0, 1.0)),
    ("TransformCoeffs.a_tx", COEFFS, lambda v: TransformCoeffs(1.0, v, 0.0, 1.0)),
    ("TransformCoeffs.a_xt", COEFFS, lambda v: TransformCoeffs(1.0, 0.0, v, 1.0)),
    ("TransformCoeffs.a_xx", COEFFS, lambda v: TransformCoeffs(1.0, 0.0, 0.0, v)),
    ("collapse_time.delta_E", "delta_E and beta", lambda v: collapse_time(v, 0.0)),
    ("collapse_time.beta", "delta_E and beta", lambda v: collapse_time(1.0, v)),
    ("CollapseSample.delta_E", None, lambda v: _sample(delta_E=v)),
    ("CollapseSample.beta", None, lambda v: _sample(beta=v)),
    ("CollapseSample.t_c", None, lambda v: _sample(t_c=v)),
    ("CollapseSample.sigma", None, lambda v: _sample(sigma=v)),
    ("estimate_absolute_frame.beta_grid", "beta_grid",
     lambda v: estimate_absolute_frame(FIT_ROWS, [-0.5, v, 0.5])),
    ("ClockLattice.positions", "node positions", lambda v: ClockLattice(LAB, (-1.0, v))),
]

NOT_NUMBERS = [True, False, "0.5", None, 1j]
PAST_THE_FLOAT_RANGE = [10**400, -10**400]


def _type_error(name, value) -> str:
    """The TypeError message the rule gives ``value`` at an argument named ``name``."""
    kind = type(value).__name__
    if name is None:  # CollapseSample's own wording
        return f"a sample field must be a number, not a {kind}"
    return f"{name} must be int or float, not {kind}"


@pytest.mark.parametrize("entry, name, call", ENTRIES, ids=[entry for entry, _, _ in ENTRIES])
def test_bools_non_numbers_and_ints_past_the_float_range_are_refused(entry, name, call):
    for value in NOT_NUMBERS:
        if value is None and entry == "CollapseSample.sigma":
            continue  # a sample given no sigma
        with pytest.raises(TypeError) as info:
            call(value)
        assert str(info.value) == _type_error(name, value), value
    for value in PAST_THE_FLOAT_RANGE:
        with pytest.raises(ValueError):  # not OverflowError, which is no ValueError
            call(value)


def _bits(result):
    """``result`` with every number as its float's hex digits, so -0.0 and 0.0 differ."""
    if isinstance(result, ClockLattice):
        return _bits((result.frame, result.positions))
    if isinstance(result, (tuple, list)):
        return tuple(map(_bits, result))
    if isinstance(result, (int, float)) and not isinstance(result, bool):
        return float(result).hex()
    return result


#: entry, a call taking one valid argument, and values for it: an int, then np.float64s
VALID = [
    ("FrameSpec.beta", lambda v: transform_between(Event(1.0, 2.0, chart="V"),
                                                   FrameSpec(v, 0.0, "V"), FRAME_B), [0, -0.6]),
    ("FrameSpec.k", lambda v: transform_between(Event(1.0, 2.0, chart="V"),
                                                FrameSpec(0.5, v, "V"), FRAME_B), [-1, 0.25]),
    ("eta.beta", lambda v: eta(v, 0.5), [0, 0.6]),
    ("edwards_transform.k", lambda v: edwards_transform(EVENT, 0.6, v, 0.2), [1, -0.3]),
    ("edwards_transform.k_prime", lambda v: edwards_transform(EVENT, 0.6, 0.2, v), [-1, 0.7]),
    ("lorentz_transform.beta", lambda v: lorentz_transform(EVENT, v), [0, -0.8]),
    ("superluminal_transform.beta", lambda v: superluminal_transform(EVENT, v), [0, 0.6]),
    ("induced_synchrony.k", lambda v: induced_synchrony(v, 0.3), [0, 0.4]),
    ("one_way_speed.k", lambda v: one_way_speed(v, "+x"), [1, -0.6]),
    ("resync_velocity.u", lambda v: resync_velocity(v, 0.0, 0.5), [3, -0.4]),
    ("map_velocity.u", lambda v: map_velocity(v, FRAME_A, FRAME_B), [-2, 0.9]),
    ("map_velocity.u-inf", lambda v: map_velocity(v, ABSOLUTE_FRAME, FRAME_A), [1, -np.inf]),
    ("Event.t", lambda v: lorentz_transform(Event(v, 0.5), 0.6), [3, 0.1]),
    ("Event.y", lambda v: Event(1.0, 0.5, v), [-7, 2.5]),
    ("TransformCoeffs.a_tx", lambda v: TransformCoeffs(1.0, v, 0.0, 1.0).apply(EVENT), [2, 0.3]),
    ("collapse_time.delta_E", lambda v: collapse_time(v, 0.6), [2, 1.5]),
    ("collapse_time.beta", lambda v: collapse_time(1.0, v), [0, -0.6]),
    ("CollapseSample.t_c", lambda v: estimate_absolute_frame(
        [*FIT_ROWS, (1.0, 0.0, v, None)], [-0.5, 0.0, 0.5]), [9 * 10**12, 8.5e12]),
    ("estimate_absolute_frame.beta_grid",
     lambda v: estimate_absolute_frame(FIT_ROWS, [-0.5, v, 0.5]), [0, 0.25]),
    ("ClockLattice.positions", lambda v: syncsim.run_protocol(
        ClockLattice(LAB, (-1.0, v, 4.0)), "einstein").offsets, [2, 0.5]),
]


@pytest.mark.parametrize("call, values", [(call, values) for _, call, values in VALID],
                         ids=[entry for entry, _, _ in VALID])
def test_small_ints_and_numpy_floats_give_the_float_result_bit_for_bit(call, values):
    small_int, *reals = values
    assert _bits(call(small_int)) == _bits(call(float(small_int)))
    for real in reals:
        assert _bits(call(np.float64(real))) == _bits(call(float(real)))


def test_the_lattice_constructor_refuses_bools_and_keeps_a_tuple_of_floats():
    with pytest.raises(TypeError, match="^node positions must be int or float, not bool$"):
        ClockLattice(LAB, (False, True))
    given = [0, 1.5, np.float64(3.0)]
    lattice = ClockLattice(LAB, given)
    given[0] = 2.0  # the caller's list is not the lattice's
    assert lattice.positions == (0.0, 1.5, 3.0)
    assert type(lattice.positions) is tuple
    assert list(map(type, lattice.positions)) == [float] * 3


def test_the_rule_is_defined_once_in_kinematics():
    for helper in ("_is_number", "_is_finite", "_floats"):
        defined = [path.name for path in sorted(SRC.glob("*.py"))
                   if re.search(rf"^def {helper}\(", path.read_text(encoding="utf-8"), re.M)]
        assert defined == ["kinematics.py"], helper
    assert syncsim._floats is probe._floats is kinematics._floats
    assert not hasattr(probe, "_finite")
