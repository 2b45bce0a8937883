"""Latency dataset container and JSON (de)serialisation."""

from .dataset import FORMAT_VERSION, DatasetError, LatencyDataset, LatencySample

__all__ = [
    "LatencyDataset",
    "LatencySample",
    "DatasetError",
    "FORMAT_VERSION",
]
