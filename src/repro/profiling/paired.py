"""Paired-sample campaigns: the same configs measured on two devices.

Cross-device transfer (``repro.transfer``) learns its monotone latency
map from *pairs*: one architecture, one latency on the proxy device, one
on the target.  `measure_paired` produces exactly that: the identical
config list measured on both devices, one `measure_batch` per device on
seed-derived streams, as the budget-sweep experiments use.  A QC'd,
resumable transfer is ``ESMLoop(transfer_from=...)``, whose target
samples go through `CampaignRunner`.

The result is a `PairedMeasurementSet`: aligned latency arrays,
``prefix(n)`` views for nested budget sweeps (budget 25 is literally the
first 25 pairs of budget 100 — how a real lab would grow a paired
sample), versioned JSON persistence, and `LatencyDataset` views for
anything downstream that speaks datasets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..archspace.config import ArchConfig
from ..data.dataset import LatencyDataset, LatencySample
from ..utils import atomic_write_text, load_json, require_header
from .protocol import MeasurementProtocol

__all__ = ["PairedMeasurementSet", "measure_paired", "PAIRED_FORMAT_VERSION"]

PAIRED_FORMAT_VERSION = 1
_KIND = "paired_measurements"

# Seed slots separating the paired streams from everything else.
_SLOT_PAIRED = 0x9A17
_SLOT_PROXY = 0
_SLOT_TARGET = 1


@dataclass(frozen=True)
class PairedMeasurementSet:
    """Aligned (proxy, target) latencies for one shared config list."""

    configs: Tuple[ArchConfig, ...]
    proxy_device: str
    target_device: str
    proxy_latencies: np.ndarray
    target_latencies: np.ndarray
    # Noise-free analytical ground truth, when the devices expose it
    # (simulators do; real hardware would leave these None).
    proxy_true: Optional[np.ndarray] = None
    target_true: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        n = len(self.configs)
        for name in ("proxy_latencies", "target_latencies"):
            arr = np.asarray(getattr(self, name), dtype=float).reshape(-1)
            object.__setattr__(self, name, arr)
            if arr.size != n:
                raise ValueError(
                    f"{name} has {arr.size} values for {n} configs"
                )
        for name in ("proxy_true", "target_true"):
            val = getattr(self, name)
            if val is not None:
                arr = np.asarray(val, dtype=float).reshape(-1)
                object.__setattr__(self, name, arr)
                if arr.size != n:
                    raise ValueError(
                        f"{name} has {arr.size} values for {n} configs"
                    )
        object.__setattr__(self, "configs", tuple(self.configs))

    def __len__(self) -> int:
        return len(self.configs)

    def prefix(self, n: int) -> "PairedMeasurementSet":
        """The first ``n`` pairs — nested budget views for sweeps."""
        if not 0 < n <= len(self):
            raise ValueError(
                f"prefix size must be in [1, {len(self)}], got {n}"
            )
        return PairedMeasurementSet(
            configs=self.configs[:n],
            proxy_device=self.proxy_device,
            target_device=self.target_device,
            proxy_latencies=self.proxy_latencies[:n],
            target_latencies=self.target_latencies[:n],
            proxy_true=None if self.proxy_true is None else self.proxy_true[:n],
            target_true=(
                None if self.target_true is None else self.target_true[:n]
            ),
        )

    def datasets(self) -> Tuple[LatencyDataset, LatencyDataset]:
        """``(proxy, target)`` `LatencyDataset` views of the pairs."""

        def build(device: str, measured, true) -> LatencyDataset:
            return LatencyDataset(
                [
                    LatencySample(
                        config=c,
                        latency_s=float(m),
                        device=device,
                        true_latency_s=(
                            None if true is None else float(true[i])
                        ),
                    )
                    for i, (c, m) in enumerate(zip(self.configs, measured))
                ]
            )

        return (
            build(self.proxy_device, self.proxy_latencies, self.proxy_true),
            build(self.target_device, self.target_latencies, self.target_true),
        )

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        return {
            "format_version": PAIRED_FORMAT_VERSION,
            "kind": _KIND,
            "proxy_device": self.proxy_device,
            "target_device": self.target_device,
            "configs": [c.to_dict() for c in self.configs],
            "proxy_latencies": self.proxy_latencies.tolist(),
            "target_latencies": self.target_latencies.tolist(),
            "proxy_true": (
                None if self.proxy_true is None else self.proxy_true.tolist()
            ),
            "target_true": (
                None if self.target_true is None else self.target_true.tolist()
            ),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PairedMeasurementSet":
        require_header(d, "paired payload", PAIRED_FORMAT_VERSION, _KIND)
        return cls(
            configs=tuple(ArchConfig.from_dict(c) for c in d["configs"]),
            proxy_device=str(d["proxy_device"]),
            target_device=str(d["target_device"]),
            proxy_latencies=np.asarray(d["proxy_latencies"], dtype=float),
            target_latencies=np.asarray(d["target_latencies"], dtype=float),
            proxy_true=(
                None
                if d.get("proxy_true") is None
                else np.asarray(d["proxy_true"], dtype=float)
            ),
            target_true=(
                None
                if d.get("target_true") is None
                else np.asarray(d["target_true"], dtype=float)
            ),
        )

    def save(self, path: Union[str, Path]) -> None:
        atomic_write_text(path, json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "PairedMeasurementSet":
        return load_json(path, cls.from_dict, what="paired file")


def _as_device(device, seed: int):
    if isinstance(device, str):
        # Imported here: `hardware.simulator` itself imports this
        # package's `protocol` module, so a top-level import would cycle.
        from ..hardware.simulator import SimulatedDevice

        return SimulatedDevice(device, seed=seed)
    return device


def _device_name(device) -> str:
    name = getattr(getattr(device, "profile", None), "name", None)
    if name is None:
        raise ValueError("device has no .profile.name; pass a registry name")
    return name


def measure_paired(
    configs: Sequence[ArchConfig],
    proxy_device,
    target_device,
    *,
    protocol: Optional[MeasurementProtocol] = None,
    seed: int = 0,
) -> PairedMeasurementSet:
    """Measure ``configs`` on both devices.

    Devices are registry names or instances.  Each side runs one
    `measure_batch` on its own seed-derived stream, so the result is
    deterministic in ``(configs, seed)``.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("paired measurement needs at least one config")
    proxy = _as_device(proxy_device, seed)
    target = _as_device(target_device, seed)
    protocol = protocol or MeasurementProtocol()
    proxy_lat, proxy_true = proxy.measure_batch(
        configs,
        rng=np.random.default_rng([seed, _SLOT_PAIRED, _SLOT_PROXY]),
        protocol=protocol,
    )
    target_lat, target_true = target.measure_batch(
        configs,
        rng=np.random.default_rng([seed, _SLOT_PAIRED, _SLOT_TARGET]),
        protocol=protocol,
    )
    return PairedMeasurementSet(
        configs=tuple(configs),
        proxy_device=_device_name(proxy),
        target_device=_device_name(target),
        proxy_latencies=proxy_lat,
        target_latencies=target_lat,
        proxy_true=proxy_true,
        target_true=target_true,
    )
