"""Synchrony-convention kinematics, clock-sync simulation, and frame probes."""

from .errors import (
    ConventionOutOfRange,
    DegenerateConvention,
    FileInvalid,
    IllConditioned,
    NotSynchronized,
    SynchronyError,
    UnresolvableChase,
)
from .kinematics import (
    ABSOLUTE_FRAME,
    C,
    INFINITE_SPEED,
    Event,
    FrameSpec,
    TransformCoeffs,
    edwards_coeffs,
    edwards_transform,
    eta,
    induced_synchrony,
    lorentz_transform,
    map_velocity,
    one_way_speed,
    resync_coeffs,
    resync_velocity,
    resynchronize,
    superluminal_coeffs,
    superluminal_transform,
    transform_between,
)
from .probe import (
    CollapseSample,
    FitReport,
    collapse_time,
    estimate_absolute_frame,
    load_samples,
)
from .syncsim import (
    ClockLattice,
    ScanPoint,
    Scenario,
    SignalLog,
    SignalRecord,
    SpeedMeasurement,
    isotropy_scan,
    load_scenario,
    measure_one_way,
    measure_two_way,
    propagate,
    run_protocol,
    run_scenario,
)

__version__ = "0.1.0"
