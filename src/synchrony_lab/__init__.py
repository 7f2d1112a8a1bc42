"""Synchrony-convention kinematics, clock-sync simulation, and frame probes.

Each export is imported from its submodule on first use (PEP 562), so a
program loads only the layers it touches: the CLI's ``sync`` never loads
``probe``, its ``transform`` and ``oneway`` never load ``syncsim``, and
nothing loads numpy until a fit or a sample file needs it.
"""

#: Every export, mapped to the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys((
        "ConventionOutOfRange", "DegenerateConvention", "FileInvalid", "IllConditioned",
        "NotSynchronized", "SynchronyError", "UnresolvableChase",
    ), "errors"),
    **dict.fromkeys((
        "ABSOLUTE_FRAME", "C", "INFINITE_SPEED", "Event", "FrameSpec", "TransformCoeffs",
        "edwards_coeffs", "edwards_transform", "eta", "induced_synchrony", "lorentz_transform",
        "map_velocity", "one_way_speed", "resync_coeffs", "resync_velocity", "resynchronize",
        "superluminal_transform", "transform_between",
    ), "kinematics"),
    **dict.fromkeys((
        "CollapseSample", "FitReport", "SampleColumns", "collapse_time",
        "estimate_absolute_frame", "load_samples",
    ), "probe"),
    **dict.fromkeys((
        "ClockLattice", "ScanPoint", "Scenario", "SignalRecord", "SpeedMeasurement",
        "isotropy_scan", "load_scenario", "measure_one_way", "measure_two_way", "propagate",
        "run_protocol", "run_scenario",
    ), "syncsim"),
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    """An export or one of the four layer submodules, imported on first use and then cached."""
    module = _EXPORTS.get(name, name)
    if module not in _EXPORTS.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import statement's own machinery, unlike importlib.import_module, shows in
    # ``python -X importtime``; it also binds the submodule in this namespace.
    __import__(f"{__name__}.{module}")
    value = globals()[module] if module == name else getattr(globals()[module], name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_EXPORTS.values()})
