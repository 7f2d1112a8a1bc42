"""The result records are immutable values: no field can be reassigned, equal fields are equal."""

from __future__ import annotations

import pytest

from synchrony_lab import (
    ClockLattice,
    FitReport,
    ScanPoint,
    Scenario,
    SignalRecord,
    SpeedMeasurement,
    estimate_absolute_frame,
    isotropy_scan,
    measure_one_way,
    propagate,
    run_protocol,
)
from synchrony_lab.probe import CollapseSample, collapse_time
from synchrony_lab.syncsim import SignalSpec, parse_scenario


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
}


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
