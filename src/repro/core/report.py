"""Run reports: what the ESM loop did, iteration by iteration.

`ESMRunReport` is the provenance a NAS consumer loads next to the trained
surrogate: which config produced it, the depth bins used, every
iteration's bin-wise accuracies and extension plan, how the dataset grew,
and whether the run converged.  Serialisation is *deterministic by
construction* — no timestamps, no wall-clock — so a seeded run writes
byte-identical report JSON whether it ran serially, on a process pool, or
across a checkpoint/resume boundary; the golden-trace regression test
locks exactly these bytes.  Wall-clock lives on the in-memory object only
(``wall_clock_s``) and never enters ``to_dict``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..data.dataset import DatasetError
from ..utils import atomic_write_text, load_json, require_header

__all__ = ["IterationRecord", "ESMRunReport", "ESM_REPORT_FORMAT_VERSION"]

ESM_REPORT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class IterationRecord:
    """One train -> evaluate -> (extend) round.

    ``bin_accuracies`` maps every depth-bin index to its paper accuracy on
    the held-out split (0.0 for bins the split left empty — an unmeasured
    bin is a failing bin).  ``samples_added`` is the Algorithm 1 extension
    plan this evaluation triggered; empty when the iteration passed or the
    budget ended the run.  ``predictor_model`` names the model that scored
    this iteration — the config's predictor for fixed surrogates, the
    per-refit CV winner for the adaptive switcher (``None`` only in
    reports written before the predictor zoo existed).
    """

    iteration: int
    dataset_size: int  # samples available *before* this iteration's extension
    train_size: int
    test_size: int
    bin_accuracies: Dict[int, float]
    failing_bins: List[int]
    samples_added: Dict[int, int]
    passed: bool
    predictor_model: Optional[str] = None

    @property
    def n_added(self) -> int:
        return sum(self.samples_added.values())

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "dataset_size": self.dataset_size,
            "train_size": self.train_size,
            "test_size": self.test_size,
            # JSON object keys are strings; from_dict restores the ints.
            "bin_accuracies": {str(b): a for b, a in self.bin_accuracies.items()},
            "failing_bins": list(self.failing_bins),
            "samples_added": {str(b): n for b, n in self.samples_added.items()},
            "passed": self.passed,
            "predictor_model": self.predictor_model,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "IterationRecord":
        return cls(
            iteration=int(d["iteration"]),
            dataset_size=int(d["dataset_size"]),
            train_size=int(d["train_size"]),
            test_size=int(d["test_size"]),
            bin_accuracies={
                int(b): float(a) for b, a in d["bin_accuracies"].items()
            },
            failing_bins=[int(b) for b in d["failing_bins"]],
            samples_added={int(b): int(n) for b, n in d["samples_added"].items()},
            passed=bool(d["passed"]),
            # Absent in pre-zoo reports; those load with None.
            predictor_model=d.get("predictor_model"),
        )


@dataclass
class ESMRunReport:
    """Full provenance of one ESM run, ready for JSON."""

    config: dict  # ESMConfig.to_dict() echo
    bins: List[Tuple[int, int]]  # inclusive (lo, hi) total-depth ranges
    iterations: List[IterationRecord] = field(default_factory=list)
    converged: bool = False
    # Informational only: excluded from to_dict so report bytes stay
    # deterministic across serial / parallel / resumed runs.
    wall_clock_s: float = 0.0

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    @property
    def final_dataset_size(self) -> int:
        """Samples after the last extension (0 for an empty report)."""
        if not self.iterations:
            return 0
        last = self.iterations[-1]
        return last.dataset_size + last.n_added

    @property
    def total_samples_added(self) -> int:
        return sum(record.n_added for record in self.iterations)

    @property
    def final_bin_accuracies(self) -> Dict[int, float]:
        if not self.iterations:
            return {}
        return dict(self.iterations[-1].bin_accuracies)

    def accuracy_trace(self) -> List[Dict[int, float]]:
        """Per-iteration bin accuracies, the quantity Fig. 11 plots."""
        return [dict(record.bin_accuracies) for record in self.iterations]

    def predictor_models(self) -> List[Optional[str]]:
        """Which model scored each iteration — for a fixed predictor a
        constant sequence, for the adaptive switcher the CV-winner trace."""
        return [record.predictor_model for record in self.iterations]

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        return {
            "format_version": ESM_REPORT_FORMAT_VERSION,
            "kind": "esm_run_report",
            "config": dict(self.config),
            "bins": [[int(lo), int(hi)] for lo, hi in self.bins],
            "iterations": [record.to_dict() for record in self.iterations],
            "converged": self.converged,
            "final_dataset_size": self.final_dataset_size,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ESMRunReport":
        require_header(
            d, "report", ESM_REPORT_FORMAT_VERSION, "esm_run_report", DatasetError
        )
        return cls(
            config=dict(d["config"]),
            bins=[(int(lo), int(hi)) for lo, hi in d["bins"]],
            iterations=[IterationRecord.from_dict(r) for r in d["iterations"]],
            converged=bool(d["converged"]),
        )

    def save(self, path: Union[str, Path]) -> None:
        """Write the report atomically as canonical (sorted-key) JSON."""
        atomic_write_text(path, json.dumps(self.to_dict(), sort_keys=True))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ESMRunReport":
        return load_json(path, cls.from_dict, error=DatasetError, what="report file")
