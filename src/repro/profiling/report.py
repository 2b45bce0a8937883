"""Campaign bookkeeping: per-attempt / per-batch records and the report.

Everything the QC machinery decides — drifts, verdicts, retries, transient
failures, wall-clock — is recorded here, JSON-serialisable, and persisted
in the campaign manifest after every batch.  A `CampaignReport` is just
the rendered view of that manifest, so a resumed campaign reports the full
history, not only the batches the final process happened to run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

from ..utils import atomic_write_text

__all__ = ["AttemptRecord", "BatchRecord", "CampaignReport"]


@dataclass(frozen=True)
class AttemptRecord:
    """One execution of one batch (the QC gate may demand several)."""

    attempt: int  # 0 = first execution, >0 = QC-triggered re-execution
    qc_passed: bool
    drifts: List[float]  # per-reference relative drift vs baseline
    max_drift: float
    transient_retries: int  # per-measurement error/timeout/garbage retries
    backoff_s: float  # sleep imposed *after* this attempt failed QC
    wall_clock_s: float

    def to_dict(self) -> dict:
        return {
            "attempt": self.attempt,
            "qc_passed": self.qc_passed,
            "drifts": list(self.drifts),
            "max_drift": self.max_drift,
            "transient_retries": self.transient_retries,
            "backoff_s": self.backoff_s,
            "wall_clock_s": self.wall_clock_s,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AttemptRecord":
        return cls(
            attempt=int(d["attempt"]),
            qc_passed=bool(d["qc_passed"]),
            drifts=[float(x) for x in d["drifts"]],
            max_drift=float(d["max_drift"]),
            transient_retries=int(d["transient_retries"]),
            backoff_s=float(d.get("backoff_s", 0.0)),
            wall_clock_s=float(d["wall_clock_s"]),
        )


@dataclass
class BatchRecord:
    """Final state of one batch of the sweep."""

    index: int
    n_configs: int
    shard: Optional[str] = None  # shard filename relative to the campaign dir
    attempts: List[AttemptRecord] = field(default_factory=list)
    qc_passed: bool = True
    resumed: bool = False  # completed by an earlier process, skipped here

    @property
    def n_attempts(self) -> int:
        return len(self.attempts)

    @property
    def qc_retries(self) -> int:
        """QC-triggered re-executions (attempts beyond the first)."""
        return max(0, self.n_attempts - 1)

    @property
    def transient_retries(self) -> int:
        return sum(a.transient_retries for a in self.attempts)

    @property
    def max_drift(self) -> float:
        return max((a.max_drift for a in self.attempts), default=0.0)

    @property
    def wall_clock_s(self) -> float:
        return sum(a.wall_clock_s for a in self.attempts)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "n_configs": self.n_configs,
            "shard": self.shard,
            "attempts": [a.to_dict() for a in self.attempts],
            "qc_passed": self.qc_passed,
            "resumed": self.resumed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BatchRecord":
        return cls(
            index=int(d["index"]),
            n_configs=int(d["n_configs"]),
            shard=d.get("shard"),
            attempts=[AttemptRecord.from_dict(a) for a in d.get("attempts", [])],
            qc_passed=bool(d.get("qc_passed", True)),
            resumed=bool(d.get("resumed", False)),
        )


@dataclass
class CampaignReport:
    """Everything a campaign did, ready for JSON."""

    device: str
    seed: int
    n_configs: int
    batch_size: int
    protocol: dict
    drift_threshold: float
    max_qc_retries: int
    batches: List[BatchRecord] = field(default_factory=list)
    wall_clock_s: float = 0.0
    # Executor degradations survived mid-campaign (e.g. a process pool
    # whose workers died and whose pending batches fell back to serial).
    degradations: List[dict] = field(default_factory=list)

    # ----------------------------- digests ----------------------------- #

    @property
    def n_batches(self) -> int:
        return len(self.batches)

    @property
    def total_qc_retries(self) -> int:
        return sum(b.qc_retries for b in self.batches)

    @property
    def total_transient_retries(self) -> int:
        return sum(b.transient_retries for b in self.batches)

    @property
    def n_qc_failed_batches(self) -> int:
        return sum(1 for b in self.batches if not b.qc_passed)

    @property
    def max_drift(self) -> float:
        return max((b.max_drift for b in self.batches), default=0.0)

    @property
    def all_qc_passed(self) -> bool:
        return all(b.qc_passed for b in self.batches)

    # --------------------------- persistence --------------------------- #

    def to_dict(self) -> dict:
        d = {
            "device": self.device,
            "seed": self.seed,
            "n_configs": self.n_configs,
            "batch_size": self.batch_size,
            "protocol": dict(self.protocol),
            "drift_threshold": self.drift_threshold,
            "max_qc_retries": self.max_qc_retries,
            "batches": [b.to_dict() for b in self.batches],
            "wall_clock_s": self.wall_clock_s,
            "summary": {
                "n_batches": self.n_batches,
                "total_qc_retries": self.total_qc_retries,
                "total_transient_retries": self.total_transient_retries,
                "n_qc_failed_batches": self.n_qc_failed_batches,
                "max_drift": self.max_drift,
                "all_qc_passed": self.all_qc_passed,
            },
        }
        # Written only when present, so reports of campaigns that never
        # degraded keep their original bytes.
        if self.degradations:
            d["degradations"] = [dict(x) for x in self.degradations]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignReport":
        return cls(
            device=str(d["device"]),
            seed=int(d["seed"]),
            n_configs=int(d["n_configs"]),
            batch_size=int(d["batch_size"]),
            protocol=dict(d["protocol"]),
            drift_threshold=float(d["drift_threshold"]),
            max_qc_retries=int(d["max_qc_retries"]),
            batches=[BatchRecord.from_dict(b) for b in d.get("batches", [])],
            wall_clock_s=float(d.get("wall_clock_s", 0.0)),
            degradations=[dict(x) for x in d.get("degradations", [])],
        )

    def save(self, path: Union[str, Path]) -> None:
        atomic_write_text(path, json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CampaignReport":
        return cls.from_dict(json.loads(Path(path).read_text()))
