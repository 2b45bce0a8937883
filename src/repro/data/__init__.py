"""Latency dataset container and JSON (de)serialisation."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    ".dataset": "LatencyDataset LatencySample DatasetError FORMAT_VERSION",
})
