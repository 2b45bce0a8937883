"""Simulated measurement devices: profiles, roofline engine, noise model,
measurement exceptions, and seeded fault injection."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    ".cache": "AnalyticalCache CacheInfo",
    ".profiles": "DeviceProfile DEVICES DEVICE_NAMES device_by_name",
    ".roofline": "layer_time compute_efficiency",
    ".simulator": "SimulatedDevice",
    ".errors": "MeasurementError MeasurementTimeout",
    ".faults": "FaultPlan FaultyDevice",
})
