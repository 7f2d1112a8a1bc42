"""The result records are immutable values: no field can be reassigned, equal fields are equal.

The checked value types (``Event``, ``FrameSpec``, ``TransformCoeffs`` and
``CollapseSample``) are such records too, and every way of building one from
values (the constructor, ``_make`` and ``_replace``) runs the same checks.  They
read like tuples but refuse a tuple's ``+``, ``*`` and ordering.
"""

from __future__ import annotations

import math
import operator
from pathlib import Path

import pytest

from synchrony_lab import (
    ClockLattice,
    Event,
    FitReport,
    FrameSpec,
    ScanPoint,
    Scenario,
    SignalRecord,
    SpeedMeasurement,
    TransformCoeffs,
    edwards_coeffs,
    estimate_absolute_frame,
    isotropy_scan,
    load_samples,
    lorentz_transform,
    measure_one_way,
    propagate,
    run_protocol,
)
from synchrony_lab.probe import CollapseSample, collapse_time
from synchrony_lab.syncsim import SignalSpec, parse_scenario

DATA = Path(__file__).parent / "data"


def _lattice():
    return run_protocol(ClockLattice.build(0.6, (0.0, 1.0, 3.0)), "superluminal")


def _fit():
    samples = [CollapseSample(1.0, u, collapse_time(1.0, u)) for u in (-0.5, 0.0, 0.2, 0.7)]
    return estimate_absolute_frame(samples, [-0.5, 0.0, 0.5])[1]


def _scenario():
    return parse_scenario({"beta": 0.6, "node_positions": [0.0, 1.0], "protocol": "einstein",
                           "signals": [{"from": 0, "to": 1, "two_way": True}]})


#: record type, a library call that returns one, and its fields in order
RECORDS = {
    "SignalRecord": (SignalRecord, lambda: propagate(_lattice(), 0, 2, "light"),
                     ("kind", "emit", "absorb", "speed_abs")),
    "SpeedMeasurement": (SpeedMeasurement, lambda: measure_one_way(_lattice(), 2, 0),
                         ("direction", "distance", "elapsed", "speed")),
    "ScanPoint": (ScanPoint, lambda: isotropy_scan([0.3])[0],
                  ("beta", "c_plus", "c_minus", "anisotropy")),
    "SignalSpec": (SignalSpec, lambda: _scenario().signals[0],
                   ("source", "target", "kind", "two_way", "speed")),
    "Scenario": (Scenario, _scenario, ("beta", "node_positions", "protocol", "signals")),
    "FitReport": (FitReport, _fit,
                  ("beta_hat", "grid_beta_hat", "refined", "scale", "beta_grid", "residuals",
                   "n_samples", "distinct_velocities")),
    "Event": (Event, lambda: lorentz_transform(Event(1.0, 0.5, 2.0, 3.0), 0.6),
              ("t", "x", "y", "z", "chart")),
    "FrameSpec": (FrameSpec, lambda: _lattice().frame, ("beta", "k", "label")),
    "TransformCoeffs": (TransformCoeffs, lambda: edwards_coeffs(0.6, 0.0, -0.6),
                        ("a_tt", "a_tx", "a_xt", "a_xx")),
    "CollapseSample": (CollapseSample,
                       lambda: load_samples(DATA / "collapse_samples_beta03.csv")[0],
                       ("delta_E", "beta", "t_c", "sigma")),
}

#: For each checked type, field values that break its rules and the message each
#: raises, in the order the checks run: each case mends the field the case
#: before it broke, so a check that moves or goes changes a message.
BAD_VALUES = {
    "Event": [
        ((math.nan, math.inf, -math.inf, math.nan, ""), "event component t must be finite"),
        ((0.0, math.inf, -math.inf, math.nan, ""), "event component x must be finite"),
        ((0.0, 0.0, -math.inf, math.nan, ""), "event component y must be finite"),
        ((0.0, 0.0, 0.0, math.nan, ""), "event component z must be finite"),
        ((0.0, 0.0, 0.0, 0.0, ""), "event chart must be a non-empty identifier"),
    ],
    "FrameSpec": [
        ((1.0, 1.5, ""), "boost velocity must satisfy |beta| < 1, got 1.0"),
        ((0.5, 1.5, ""), "synchrony parameter k must lie in [-1, 1], got 1.5"),
        ((0.5, 0.5, ""), "frame label must be non-empty"),
    ],
    "TransformCoeffs": [
        ((math.nan, math.inf, -math.inf, math.nan), "transform coefficients must be finite"),
        ((1.0, math.inf, -math.inf, math.nan), "transform coefficients must be finite"),
        ((1.0, 2.0, -math.inf, math.nan), "transform coefficients must be finite"),
        ((1.0, 2.0, 0.5, math.nan), "transform coefficients must be finite"),
        ((1.0, 2.0, 0.5, 1.0), "transform is singular (zero determinant)"),
    ],
    "CollapseSample": [
        ((0.0, 1.0, -1.0, 0.0), "delta_E must be positive"),
        ((1.0, 1.0, -1.0, 0.0), "t_c must be positive"),
        ((1.0, 1.0, 1.0, 0.0), "|beta| must be < 1"),
        ((1.0, 0.5, 1.0, 0.0), "sigma must be positive and finite when given"),
    ],
}
BAD_CASES = [(name, values, message)
             for name, cases in BAD_VALUES.items() for values, message in cases]


@pytest.mark.parametrize("name", RECORDS)
def test_no_field_can_be_reassigned(name):
    cls, make, fields = RECORDS[name]
    record = make()
    assert type(record) is cls
    for field in fields:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        assert getattr(record, field) is before


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_equals_one_built_from_its_values(name):
    cls, make, fields = RECORDS[name]
    record = make()
    values = [getattr(record, field) for field in fields]
    by_keyword = cls(**dict(zip(fields, values)))
    assert cls(*values) == by_keyword == record
    assert hash(by_keyword) == hash(record)
    assert repr(by_keyword) == repr(record)
    assert repr(record).startswith(f"{name}({fields[0]}=")


@pytest.mark.parametrize("name", RECORDS)
def test_no_new_attribute_can_be_set(name):
    record = RECORDS[name][1]()
    with pytest.raises(AttributeError):
        record.note = "extra"


@pytest.mark.parametrize("name", BAD_VALUES)
def test_a_checked_record_is_the_tuple_of_its_fields(name):
    cls, make, fields = RECORDS[name]
    record = make()
    values = tuple(getattr(record, field) for field in fields)
    assert record == values and hash(record) == hash(values)
    assert values == record and not record != values and (*record,) == values
    assert type(cls._make(values)) is cls and cls._make(values) == record
    required = values[:len(fields) - len(cls._field_defaults)]
    assert cls(*required) == (*required, *cls._field_defaults.values())
    assert record._asdict() == dict(zip(fields, values))
    assert type(record._replace()) is cls and record._replace() == record


@pytest.mark.parametrize("name, values, message", BAD_CASES)
def test_each_bad_field_raises_its_message_in_check_order(name, values, message):
    cls, _, fields = RECORDS[name]
    for build in (lambda: cls(*values), lambda: cls(**dict(zip(fields, values)))):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


@pytest.mark.parametrize("name, values, message", BAD_CASES)
def test_make_and_replace_run_the_checks(name, values, message):
    cls, make, fields = RECORDS[name]
    for build in (lambda: cls._make(values),
                  lambda: make()._replace(**dict(zip(fields, values)))):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


def test_events_built_unchecked_equal_checked_ones():
    image = lorentz_transform(Event(1.0, 0.5, 2.0, 3.0, "A"), 0.6)
    signal = propagate(_lattice(), 0, 2, "light")
    for event in (image, signal.emit, signal.absorb):
        assert type(event) is Event
        assert repr(event) == repr(Event(*event))


#: Each tuple operator a checked type refuses, on a record ``r`` and a plain tuple ``t``;
#: a plain tuple on the left reaches the record's reflected method first.
TUPLE_ALGEBRA = {
    "r + t": lambda r, t: r + t,
    "t + r": lambda r, t: t + r,
    "r + r": lambda r, t: r + r,
    "r += t": lambda r, t: operator.iadd(r, t),
    "r * 2": lambda r, t: r * 2,
    "2 * r": lambda r, t: 2 * r,
    "r < t": lambda r, t: r < t,
    "r <= t": lambda r, t: r <= t,
    "r > t": lambda r, t: r > t,
    "r >= t": lambda r, t: r >= t,
    "t < r": lambda r, t: t < r,
    "t >= r": lambda r, t: t >= r,
    "sorted": lambda r, t: sorted([r, r]),
    "max": lambda r, t: max(r, r),
}


@pytest.mark.parametrize("op", TUPLE_ALGEBRA)
@pytest.mark.parametrize("name", BAD_VALUES)
def test_checked_records_refuse_tuple_algebra(name, op):
    record = RECORDS[name][1]()
    with pytest.raises(TypeError, match=f"^{name} supports no tuple concatenation, "
                                        "repetition or ordering$"):
        TUPLE_ALGEBRA[op](record, tuple(record))

