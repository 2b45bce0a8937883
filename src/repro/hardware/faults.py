"""Seeded fault injection for measurement devices.

The QC gate and retry logic in `repro.profiling` exist to survive real
failure modes: a laptop GPU that thermally throttles for a whole batch, a
driver that intermittently errors out, a trace buffer that comes back
full of NaNs, a benchmark process that hangs until the harness kills it.
`FaultyDevice` wraps any device implementing the measure API and injects
exactly those faults from a seeded RNG, so the recovery machinery can be
tested against the conditions it was built for — deterministically.

Fault model:

* **Sustained thermal throttle** — decided per *session* (see
  ``begin_session``), scaling every trace in the session by
  ``throttle_factor``.  This is the failure Fig. 6's reference-model gate
  detects: everything measured in the session, references included, runs
  slow together.
* **Transient errors** — per measurement call, `MeasurementError` with
  probability ``error_prob`` and `MeasurementTimeout` (a hang surfaced by
  the harness deadline) with probability ``timeout_prob``.
* **Trace corruption** — with probability ``corrupt_prob`` a fraction of
  the trace's entries are replaced by NaNs and negative garbage, which
  `MeasurementProtocol.validate_trace` rejects.

All draws come from the RNG passed to the call (falling back to the
wrapper's own stream), so a campaign that derives one generator per
(batch, attempt) gets bit-reproducible faults — including across a
checkpoint/resume boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from ..utils import ensure_rng
from .errors import MeasurementError, MeasurementTimeout

__all__ = ["FaultPlan", "FaultyDevice"]


@dataclass(frozen=True)
class FaultPlan:
    """Probabilities and magnitudes of the injected faults."""

    throttle_prob: float = 0.0  # per-session sustained thermal throttle
    throttle_factor: float = 1.25  # slowdown of a throttled session
    error_prob: float = 0.0  # per-call transient MeasurementError
    timeout_prob: float = 0.0  # per-call hang surfaced as MeasurementTimeout
    corrupt_prob: float = 0.0  # per-call NaN/garbage trace
    corrupt_fraction: float = 0.1  # fraction of runs corrupted when it fires

    def __post_init__(self) -> None:
        for field in (
            "throttle_prob",
            "error_prob",
            "timeout_prob",
            "corrupt_prob",
        ):
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field} must be in [0, 1], got {value}")
        if self.throttle_factor <= 0.0:
            raise ValueError("throttle_factor must be positive")
        if not 0.0 < self.corrupt_fraction <= 1.0:
            raise ValueError("corrupt_fraction must be in (0, 1]")


class FaultyDevice:
    """Wrap a measurement device and inject faults from a seeded RNG.

    Implements the same measure API as `SimulatedDevice` (``measure``,
    ``measure_latency``, ``true_latency``, ``profile``), so it drops into
    any code path that takes a device — in particular `CampaignRunner`,
    which additionally calls ``begin_session`` at each batch attempt so
    sustained throttles align with measurement sessions.
    """

    def __init__(
        self,
        device,
        plan: FaultPlan,
        seed: "int | np.random.Generator | None" = None,
    ):
        self.device = device
        self.plan = plan
        self.rng = ensure_rng(seed)
        self._session_factor = 1.0

    # ------------------------------------------------------------------ #
    # Delegation
    # ------------------------------------------------------------------ #

    @property
    def profile(self):
        return self.device.profile

    def true_latency(self, target) -> float:
        """Ground truth is the wrapped device's — faults are noise, not physics."""
        return self.device.true_latency(target)

    # ------------------------------------------------------------------ #
    # Sessions
    # ------------------------------------------------------------------ #

    def begin_session(
        self, rng: "int | np.random.Generator | None" = None
    ) -> bool:
        """Start a measurement session; returns whether it is throttled.

        A throttled session multiplies *every* trace measured until the
        next ``begin_session`` by ``throttle_factor`` — the sustained,
        correlated slowdown that per-run trimming cannot remove and that
        reference-model QC exists to catch.
        """
        rng = self.rng if rng is None else ensure_rng(rng)
        throttled = bool(rng.random() < self.plan.throttle_prob)
        self._session_factor = self.plan.throttle_factor if throttled else 1.0
        return throttled

    @property
    def session_throttled(self) -> bool:
        return self._session_factor != 1.0

    # ------------------------------------------------------------------ #
    # Faulty measurement
    # ------------------------------------------------------------------ #

    def measure(
        self,
        target,
        runs: int = 150,
        rng: "int | np.random.Generator | None" = None,
    ) -> np.ndarray:
        """Raw trace with injected faults; may raise instead of returning."""
        rng = self.rng if rng is None else ensure_rng(rng)
        plan = self.plan
        # Draw the per-call fault decisions up front, in a fixed order, so
        # the stream stays aligned regardless of which fault (if any) fires.
        u_error, u_timeout, u_corrupt = rng.random(3)
        if u_error < plan.error_prob:
            raise MeasurementError("injected transient measurement failure")
        if u_timeout < plan.timeout_prob:
            raise MeasurementTimeout("injected hang abandoned at deadline")
        trace = self.device.measure(target, runs=runs, rng=rng) * self._session_factor
        if u_corrupt < plan.corrupt_prob:
            trace = self._corrupt(trace, rng)
        return trace

    def _corrupt(self, trace: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        trace = trace.copy()
        n_bad = max(1, int(np.ceil(self.plan.corrupt_fraction * trace.size)))
        idx = rng.choice(trace.size, size=min(n_bad, trace.size), replace=False)
        # Alternate NaN poisoning with negative garbage readings.
        trace[idx[0::2]] = np.nan
        trace[idx[1::2]] = -1.0
        return trace

    def measure_latency(
        self,
        target,
        runs: int = 150,
        rng: "int | np.random.Generator | None" = None,
        protocol: "MeasurementProtocol | None" = None,
    ) -> float:
        """Protocol-collapsed latency; raises on injected/invalid traces."""
        from ..profiling.protocol import MeasurementProtocol

        if protocol is None:
            protocol = MeasurementProtocol(runs=runs)
        return protocol.measure(self, target, rng=rng)

    def measure_batch(
        self,
        targets,
        runs: int = 150,
        rng: "int | np.random.Generator | None" = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Measure many configs through the fault layer (same contract as
        `SimulatedDevice.measure_batch`); any injected fault propagates."""
        rng = self.rng if rng is None else ensure_rng(rng)
        measured = np.empty(len(targets))
        true = np.empty(len(targets))
        for i, target in enumerate(targets):
            true[i] = self.true_latency(target)
            measured[i] = self.measure_latency(target, runs=runs, rng=rng)
        return measured, true
