"""Latency datasets: measured samples with JSON persistence.

The serialised form is the ``format_version: 1`` schema used by the
committed dataset fixture under ``tests/fixtures/``::

    {"format_version": 1,
     "samples": [{"config": {...}, "latency_s": 0.0241,
                  "device": "rtx3080maxq",
                  "true_latency_s": 0.0240, "is_reference": false}, ...]}

``true_latency_s`` (the simulator's noise-free ground truth, unavailable on
real hardware) and ``is_reference`` (quality-control reference models) are
optional per sample but always written, so round trips are lossless.
``qc_passed`` records that a sample came from a batch whose reference-model
QC gate failed even after retries; it defaults to true and is only written
when false, so datasets that predate the QC layer round-trip byte-for-byte.

`LatencyDataset.save` writes exactly ``json.dumps(dataset.to_dict())``,
rendered from each config's text (`ArchConfig.to_json`) rather than a
dict tree; anything that text cannot render goes through the dict path.

Files are written atomically (`repro.utils.atomic_write_text`) and loads
wrap every failure mode — missing file, truncated/invalid JSON, schema
violations — in `DatasetError`, which names the file and the problem.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..archspace.config import ArchConfig
from ..archspace.spaces import SpaceSpec
from ..encodings import Encoding, encoder_for
from ..utils import atomic_write_text, ensure_rng, load_json, require_header

__all__ = ["LatencySample", "LatencyDataset", "DatasetError", "FORMAT_VERSION"]

FORMAT_VERSION = 1


class DatasetError(ValueError):
    """A dataset file or payload is missing, unreadable, or malformed."""


@dataclass(frozen=True)
class LatencySample:
    """One measured architecture."""

    config: ArchConfig
    latency_s: float
    device: str
    true_latency_s: Optional[float] = None
    is_reference: bool = False
    qc_passed: bool = True

    def _fields(self) -> dict:
        """Every field after ``config``, in written order: the one
        definition `to_dict` and `LatencyDataset.to_json` share."""
        d = {
            "latency_s": self.latency_s,
            "device": self.device,
            "true_latency_s": self.true_latency_s,
            "is_reference": self.is_reference,
        }
        # Written only when set, so pre-QC datasets round-trip unchanged.
        if not self.qc_passed:
            d["qc_passed"] = False
        return d

    def to_dict(self) -> dict:
        return {"config": self.config.to_dict(), **self._fields()}

    @classmethod
    def from_dict(cls, d: dict) -> "LatencySample":
        latency = float(d["latency_s"])
        if not (math.isfinite(latency) and latency > 0):
            raise DatasetError(
                f"latency_s must be a finite positive number, got {d['latency_s']!r}"
            )
        true_latency = d.get("true_latency_s")
        return cls(
            config=ArchConfig.from_dict(d["config"]),
            latency_s=latency,
            device=str(d["device"]),
            true_latency_s=None if true_latency is None else float(true_latency),
            is_reference=bool(d.get("is_reference", False)),
            qc_passed=bool(d.get("qc_passed", True)),
        )


class LatencyDataset:
    """An ordered collection of `LatencySample` with array/encoding views."""

    def __init__(self, samples: Sequence[LatencySample] = ()):
        self.samples: List[LatencySample] = list(samples)

    # ---------------------------- container --------------------------- #

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[LatencySample]:
        return iter(self.samples)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return LatencyDataset(self.samples[index])
        return self.samples[index]

    def append(self, sample: LatencySample) -> None:
        self.samples.append(sample)

    def extend(self, samples: Sequence[LatencySample]) -> None:
        self.samples.extend(samples)

    def __add__(self, other: "LatencyDataset") -> "LatencyDataset":
        """Concatenation, preserving order — how the ESM loop grows its
        dataset across extension rounds without mutating either operand."""
        if not isinstance(other, LatencyDataset):
            return NotImplemented
        return LatencyDataset(self.samples + other.samples)

    def __eq__(self, other: object) -> bool:
        """Sample-wise equality (samples are frozen dataclasses), used by
        the byte-identity tests around serial vs parallel campaigns."""
        if not isinstance(other, LatencyDataset):
            return NotImplemented
        return self.samples == other.samples

    # ----------------------------- views ------------------------------ #

    @property
    def configs(self) -> List[ArchConfig]:
        return [s.config for s in self.samples]

    @property
    def latencies(self) -> np.ndarray:
        return np.array([s.latency_s for s in self.samples])

    @property
    def total_depths(self) -> np.ndarray:
        return np.array([s.config.total_blocks for s in self.samples])

    def encode(self, encoding: Union[str, Encoding], spec: SpaceSpec) -> np.ndarray:
        """Feature matrix of all configs under the given encoding."""
        return encoder_for(encoding, spec).encode_batch(self.configs, spec)

    def split(
        self,
        train_fraction: float,
        rng: "int | np.random.Generator | None" = None,
    ) -> Tuple["LatencyDataset", "LatencyDataset"]:
        """Shuffled train/test split (seeded, disjoint, exhaustive)."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        order = ensure_rng(rng).permutation(len(self.samples))
        n_train = int(round(train_fraction * len(self.samples)))
        train = [self.samples[i] for i in order[:n_train]]
        test = [self.samples[i] for i in order[n_train:]]
        return LatencyDataset(train), LatencyDataset(test)

    # -------------------------- persistence --------------------------- #

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "samples": [s.to_dict() for s in self.samples],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LatencyDataset":
        require_header(d, "dataset", FORMAT_VERSION)
        samples = []
        for index, raw in enumerate(d["samples"]):
            try:
                samples.append(LatencySample.from_dict(raw))
            except DatasetError as exc:
                raise DatasetError(f"sample {index}: {exc}") from exc
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise DatasetError(
                    f"sample {index} violates the sample schema: {exc!r}"
                ) from exc
        return cls(samples)

    def to_json(self) -> str:
        """Exactly ``json.dumps(self.to_dict())``, without the dict tree.

        Each sample is ``{"config": `` + its config's text
        (`ArchConfig.to_json`, joined from shared block fragments) + the
        ``json.dumps`` of its other fields.  Whatever that cannot render
        is rendered, or raised, by ``json.dumps(self.to_dict())`` itself.
        """
        try:
            samples = [
                '{"config": ' + s.config.to_json() + ", " + json.dumps(s._fields())[1:]
                for s in self.samples
            ]
        except (AttributeError, TypeError, ValueError):
            return json.dumps(self.to_dict())
        return (
            '{"format_version": %d, "samples": [' % FORMAT_VERSION
            + ", ".join(samples)
            + "]}"
        )

    def save(self, path: Union[str, Path]) -> None:
        """Serialise to ``path`` atomically (temp file + `os.replace`)."""
        atomic_write_text(path, self.to_json())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "LatencyDataset":
        """Load from ``path``; every failure mode raises `DatasetError`."""
        return load_json(path, cls.from_dict, error=DatasetError, what="dataset file")
