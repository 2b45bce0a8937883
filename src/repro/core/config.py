"""User inputs of an ESM run, as one serialisable dataclass.

The paper's framework takes the architecture space, target device,
encoding, predictor, the bin-wise accuracy threshold ``Acc_TH``, the
number of depth bins, the initial/extension dataset sizes, and an
iteration budget.  `ESMConfig` captures exactly those (plus the
measurement-protocol and QC knobs the campaigns need) and round-trips
through JSON, so a finished run's report can state precisely which inputs
produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Optional

from ..archspace.spaces import SPACE_NAMES
from ..encodings import ENCODINGS
from ..hardware.profiles import DEVICE_NAMES
from ..predictors import PREDICTORS

__all__ = ["ESMConfig"]

_SAMPLERS = ("balanced", "random")


def _check_name(field: str, name: str, names) -> None:
    if name not in names:
        raise ValueError(f"unknown {field} {name!r}; available: {', '.join(names)}")


@dataclass(frozen=True)
class ESMConfig:
    """Everything a reproducible ESM run depends on.

    ``space`` / ``device`` are registry names (`space_by_name`,
    `device_by_name`); `ESMLoop` accepts explicit instances for both, in
    which case the names here only label the run.  So the names are
    checked where they are resolved (`validate_space`,
    `validate_device`): `ESMLoop` refuses an unknown one with a
    `ValueError` listing the valid names before anything runs.
    ``predictor_params`` are forwarded to the predictor constructor on
    every (re)fit — predictors that accept a ``seed`` default to this
    config's ``seed``.
    """

    # What the surrogate is for.
    space: str = "resnet"
    device: str = "rtx4090"
    encoding: str = "fcc"
    predictor: str = "mlp"
    predictor_params: Dict[str, Any] = field(default_factory=dict)

    # The convergence criterion.
    acc_th: float = 90.0  # bin-wise accuracy threshold, percent
    n_bins: int = 6
    max_iterations: int = 10
    train_fraction: float = 0.8

    # Dataset generation.
    initial_size: int = 100
    extension_size: int = 20
    initial_sampler: str = "balanced"
    seed: int = 0

    # Cross-device transfer warm start: path to a finished proxy-device
    # run directory (``report.json`` + ``predictor.json``).  When set, the
    # loop wraps that run's predictor in a frozen-proxy
    # `TransferPredictor` and every measurement this run pays for is a
    # target-device pair that only refits the monotone latency map.
    transfer_from: Optional[str] = None

    # Measurement protocol + campaign QC (paper defaults).
    runs: int = 150
    trim_fraction: float = 0.2
    n_references: int = 3
    batch_size: int = 25
    drift_threshold: float = 0.03
    max_qc_retries: int = 2
    max_transient_retries: int = 3

    def __post_init__(self) -> None:
        if self.encoding not in ENCODINGS:
            raise ValueError(
                f"unknown encoding {self.encoding!r}; "
                f"available: {', '.join(ENCODINGS)}"
            )
        if self.predictor not in PREDICTORS:
            raise ValueError(
                f"unknown predictor {self.predictor!r}; "
                f"available: {', '.join(PREDICTORS)}"
            )
        if self.transfer_from is not None and self.predictor != "transfer":
            raise ValueError(
                "transfer_from requires predictor='transfer' "
                f"(got predictor={self.predictor!r}); the warm start wraps "
                "the proxy run's surrogate in a TransferPredictor"
            )
        if self.initial_sampler not in _SAMPLERS:
            raise ValueError(
                f"initial_sampler must be one of {_SAMPLERS}, "
                f"got {self.initial_sampler!r}"
            )
        if not 0.0 < self.acc_th <= 100.0:
            raise ValueError(f"acc_th must be in (0, 100], got {self.acc_th}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        for name in (
            "n_bins",
            "max_iterations",
            "initial_size",
            "extension_size",
            "n_references",
            "batch_size",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    def validate_space(self) -> None:
        """Check ``space`` is a registry name (skipped for explicit specs)."""
        _check_name("space", self.space, SPACE_NAMES)

    def validate_device(self) -> None:
        """Check ``device`` is a registry name (skipped for explicit devices)."""
        _check_name("device", self.device, DEVICE_NAMES)

    def with_sampler(self, sampler: str) -> "ESMConfig":
        """This config with a different initial sampler (Fig. 11 sweeps)."""
        return replace(self, initial_sampler=sampler)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["predictor_params"] = dict(self.predictor_params)
        # Written only when set, so configs (and the golden fixtures built
        # on them) that predate the transfer layer round-trip unchanged.
        if self.transfer_from is None:
            del d["transfer_from"]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ESMConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(
                f"unknown ESMConfig field(s): {', '.join(sorted(unknown))}"
            )
        return cls(**d)
