"""Supervised, fault-tolerant measurement campaigns.

`CampaignRunner` turns "call ``measure_latency`` in a loop" into the
paper's dataset-generation protocol:

* the sweep runs in batches, each batch bracketed by a measurement
  *session* (``device.begin_session`` when the device has one);
* every batch re-measures the enrolled reference models and is re-executed
  with exponential backoff when their latency drifts past the threshold
  (paper: 3%, Fig. 6) — up to a bounded retry budget, after which the
  batch is kept but flagged ``qc_passed=False``, never silently dropped;
* per-measurement transient faults (`MeasurementError`, including
  timeouts and garbage traces) are retried in place;
* each completed batch is written as an atomic shard plus a manifest
  update, so a killed campaign resumes from the last completed batch and
  re-measures nothing.

Determinism is the load-bearing property: every stochastic draw of batch
``b``, attempt ``a`` comes from ``default_rng([seed, b + 1, a])`` — a
stream independent of campaign history — so an interrupted-and-resumed
campaign produces byte-identical shards to an uninterrupted one.  The same
independence makes batches embarrassingly parallel: ``workers=N`` farms
whole batches out to a spawn-safe process pool (each worker gets a
picklable `_BatchTask` and runs the *same* `_execute_batch` function the
sequential path uses), and the shards come back byte-identical to a
sequential run because no sample ever depends on cross-batch state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..archspace.config import ArchConfig
from ..data.dataset import DatasetError, LatencyDataset, LatencySample
from ..hardware.errors import MeasurementError
from ..utils import fingerprint as fingerprint_of
from ..utils import quarantine, run_pooled
from .protocol import MeasurementProtocol
from .reference import ReferenceSet
from .report import AttemptRecord, BatchRecord, CampaignReport
from .storage import MANIFEST_VERSION, CampaignStore

__all__ = ["CampaignError", "CampaignResult", "CampaignRunner"]

_ENROLL_SLOT = 0  # batch-rng slot reserved for baseline enrollment
_JITTER_SLOT = 0x6A17  # namespace for backoff-jitter streams (≠ any batch slot)


class CampaignError(RuntimeError):
    """A campaign cannot proceed (bad resume state, exhausted retries)."""


def _attempt_rng(seed: int, slot: int, attempt: int) -> np.random.Generator:
    """The RNG stream for one (batch, attempt) — independent of history."""
    return np.random.default_rng([seed, slot, attempt])


# ---------------------------------------------------------------------- #
# Batch execution (shared by the sequential path and pool workers)
# ---------------------------------------------------------------------- #


@dataclass
class _BatchTask:
    """Everything one batch needs, picklable so a pool worker can run it.

    The device travels *by value* into the worker; that is safe because
    every stochastic draw flows through the per-(batch, attempt) RNG, so a
    copy measures the same bytes the parent's device would have.
    """

    device: object
    configs: List[ArchConfig]
    references: ReferenceSet
    protocol: MeasurementProtocol
    seed: int
    index: int
    drift_threshold: float
    max_qc_retries: int
    max_transient_retries: int
    backoff_s: float
    backoff_factor: float
    backoff_jitter: float
    device_name: str


def _measure_one(
    task: _BatchTask, config: ArchConfig, rng: np.random.Generator
) -> Tuple[float, int]:
    """One protocol latency with in-place transient retries.

    Returns ``(latency_s, retries_used)``; raises `CampaignError` once the
    transient budget is exhausted.
    """
    last_error: Optional[MeasurementError] = None
    for attempt in range(task.max_transient_retries + 1):
        try:
            return task.protocol.measure(task.device, config, rng=rng), attempt
        except MeasurementError as exc:
            last_error = exc
    raise CampaignError(
        f"measurement failed {task.max_transient_retries + 1} times in a row: "
        f"{last_error}"
    ) from last_error


def _make_sample(
    task: _BatchTask, config: ArchConfig, latency: float, *, is_reference: bool
) -> LatencySample:
    true_latency = None
    if hasattr(task.device, "true_latency"):
        true_latency = float(task.device.true_latency(config))
    return LatencySample(
        config=config,
        latency_s=float(latency),
        device=task.device_name,
        true_latency_s=true_latency,
        is_reference=is_reference,
    )


def _run_attempt(
    task: _BatchTask, attempt: int
) -> Tuple[List[LatencySample], List[float], AttemptRecord]:
    """Execute one attempt of one batch: configs, then references."""
    started = time.monotonic()
    rng = _attempt_rng(task.seed, task.index + 1, attempt)
    if hasattr(task.device, "begin_session"):
        task.device.begin_session(rng)
    transient_retries = 0
    samples: List[LatencySample] = []
    for config in task.configs:
        latency, retries = _measure_one(task, config, rng)
        transient_retries += retries
        samples.append(_make_sample(task, config, latency, is_reference=False))
    ref_measured: List[float] = []
    for config in task.references.configs:
        latency, retries = _measure_one(task, config, rng)
        transient_retries += retries
        ref_measured.append(latency)
    qc = task.references.check(ref_measured, task.drift_threshold)
    samples.extend(
        _make_sample(task, c, m, is_reference=True)
        for c, m in zip(task.references.configs, ref_measured)
    )
    record = AttemptRecord(
        attempt=attempt,
        qc_passed=qc.passed,
        drifts=list(qc.drifts),
        max_drift=qc.max_drift,
        transient_retries=transient_retries,
        backoff_s=0.0,
        wall_clock_s=time.monotonic() - started,
    )
    return samples, ref_measured, record


def _backoff_with_jitter(task: _BatchTask, attempt: int) -> float:
    """The post-QC-failure sleep for ``attempt``: exponential, jittered.

    The jitter multiplier is drawn from a dedicated per-(batch, attempt)
    stream — *not* the measurement stream, which must stay byte-aligned
    with jitterless runs — so the whole backoff schedule is reproducible
    from the campaign seed alone, and desynchronises retries across a
    fleet of concurrently failing batches the way production jitter is
    meant to.
    """
    backoff = task.backoff_s * task.backoff_factor**attempt
    if backoff > 0 and task.backoff_jitter > 0:
        u = np.random.default_rng(
            [task.seed, _JITTER_SLOT, task.index + 1, attempt]
        ).random()
        backoff *= 1.0 + task.backoff_jitter * (2.0 * u - 1.0)
    return backoff


def _execute_batch(
    task: _BatchTask, sleep: Callable[[float], None] = time.sleep
) -> Tuple[List[LatencySample], BatchRecord]:
    """Run a batch to QC verdict, re-executing with backoff on drift."""
    attempts: List[AttemptRecord] = []
    samples: List[LatencySample] = []
    for attempt in range(task.max_qc_retries + 1):
        samples, _, record = _run_attempt(task, attempt)
        if not record.qc_passed and attempt < task.max_qc_retries:
            backoff = _backoff_with_jitter(task, attempt)
            if backoff > 0:
                sleep(backoff)
            record = AttemptRecord(**{**record.to_dict(), "backoff_s": backoff})
        attempts.append(record)
        if record.qc_passed:
            break
    qc_passed = attempts[-1].qc_passed
    if not qc_passed:
        # Retry budget exhausted: keep the data, flag it, never drop it.
        samples = [
            LatencySample(**{**s.__dict__, "qc_passed": False}) for s in samples
        ]
    record = BatchRecord(
        index=task.index,
        n_configs=len(task.configs),
        attempts=attempts,
        qc_passed=qc_passed,
    )
    return samples, record


@dataclass
class CampaignResult:
    """What a finished (or resumed-to-finished) campaign hands back."""

    dataset: LatencyDataset  # every sample, references included
    report: CampaignReport

    @property
    def measurements(self) -> LatencyDataset:
        """The sweep's samples with QC references filtered out."""
        return LatencyDataset([s for s in self.dataset if not s.is_reference])


class CampaignRunner:
    """Run a sweep of configs through the QC'd, checkpointed pipeline."""

    def __init__(
        self,
        device,
        configs: Sequence[ArchConfig],
        campaign_dir,
        references: ReferenceSet,
        *,
        protocol: Optional[MeasurementProtocol] = None,
        batch_size: int = 25,
        seed: int = 0,
        drift_threshold: float = 0.03,
        max_qc_retries: int = 2,
        max_transient_retries: int = 3,
        backoff_s: float = 0.25,
        backoff_factor: float = 2.0,
        backoff_jitter: float = 0.1,
        sleep: Optional[Callable[[float], None]] = None,
        device_name: Optional[str] = None,
        workers: int = 1,
        mp_context: Optional[str] = None,
    ):
        if not configs:
            raise ValueError("a campaign needs at least one config")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if max_qc_retries < 0 or max_transient_retries < 0:
            raise ValueError("retry budgets must be >= 0")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if not 0.0 <= backoff_jitter < 1.0:
            raise ValueError("backoff_jitter must be in [0, 1)")
        self.device = device
        self.configs = list(configs)
        self.store = CampaignStore(campaign_dir)
        self.references = references
        self.protocol = protocol or MeasurementProtocol()
        self.batch_size = batch_size
        self.seed = int(seed)
        self.drift_threshold = float(drift_threshold)
        self.max_qc_retries = int(max_qc_retries)
        self.max_transient_retries = int(max_transient_retries)
        self.backoff_s = float(backoff_s)
        self.backoff_factor = float(backoff_factor)
        self.backoff_jitter = float(backoff_jitter)
        # Backoff sleeps go through an injectable callable so tests and
        # benchmarks can record the schedule without blocking on real time.
        self.sleep = time.sleep if sleep is None else sleep
        self.workers = int(workers)
        # Pool start method: "spawn" is the portable, always-safe default;
        # "fork" starts workers in milliseconds on POSIX (they inherit the
        # already-imported interpreter) and is worth requesting explicitly
        # for short campaigns from single-threaded parents.  Shard bytes
        # are identical either way, so neither this nor `workers` enters
        # the fingerprint.
        self.mp_context = "spawn" if mp_context is None else str(mp_context)
        if device_name is None:
            device_name = getattr(getattr(device, "profile", None), "name", None)
        if device_name is None:
            raise ValueError(
                "device has no .profile.name; pass device_name= explicitly"
            )
        self.device_name = device_name

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #

    @property
    def n_batches(self) -> int:
        return (len(self.configs) + self.batch_size - 1) // self.batch_size

    def _batch_configs(self, index: int) -> List[ArchConfig]:
        lo = index * self.batch_size
        return self.configs[lo : lo + self.batch_size]

    def fingerprint(self) -> str:
        """Hash of everything that determines the campaign's shard bytes.

        Stored in the manifest; a resume against a directory whose
        fingerprint differs (different configs, seed, protocol, device,
        batching, or references) is refused rather than silently mixed.
        The configs reach the hash one sorted-key text at a time
        (`ArchConfig.to_json`), never as dicts or one document.
        """
        payload = {
            "protocol": self.protocol.to_dict(),
            "batch_size": self.batch_size,
            "seed": self.seed,
            "drift_threshold": self.drift_threshold,
            "max_qc_retries": self.max_qc_retries,
            "max_transient_retries": self.max_transient_retries,
            "device": self.device_name,
        }

        def texts(configs):
            return (c.to_json(sort_keys=True) for c in configs)

        lists = {
            "configs": texts(self.configs),
            "references": texts(self.references.configs),
        }
        return fingerprint_of(payload, lists)

    # ------------------------------------------------------------------ #
    # Measurement primitives
    # ------------------------------------------------------------------ #

    def _task(self, batch_index: int) -> _BatchTask:
        """The picklable work order for one batch."""
        return _BatchTask(
            device=self.device,
            configs=self._batch_configs(batch_index),
            references=self.references,
            protocol=self.protocol,
            seed=self.seed,
            index=batch_index,
            drift_threshold=self.drift_threshold,
            max_qc_retries=self.max_qc_retries,
            max_transient_retries=self.max_transient_retries,
            backoff_s=self.backoff_s,
            backoff_factor=self.backoff_factor,
            backoff_jitter=self.backoff_jitter,
            device_name=self.device_name,
        )

    def _run_batch(self, batch_index: int) -> "tuple[List[LatencySample], BatchRecord]":
        """Run a batch in-process (the sequential path)."""
        return _execute_batch(self._task(batch_index), sleep=self.sleep)

    # ------------------------------------------------------------------ #
    # Enrollment
    # ------------------------------------------------------------------ #

    def _enroll_references(self) -> None:
        rng = _attempt_rng(self.seed, _ENROLL_SLOT, 0)
        if hasattr(self.device, "begin_session"):
            self.device.begin_session(rng)
        task = self._task(0)
        self.references.enroll(
            lambda config: _measure_one(task, config, rng)[0]
        )

    # ------------------------------------------------------------------ #
    # Manifest plumbing
    # ------------------------------------------------------------------ #

    def _fresh_manifest(self, fingerprint: str) -> dict:
        return {
            "manifest_version": MANIFEST_VERSION,
            "fingerprint": fingerprint,
            "device": self.device_name,
            "seed": self.seed,
            "n_configs": len(self.configs),
            "batch_size": self.batch_size,
            "n_batches": self.n_batches,
            "protocol": self.protocol.to_dict(),
            "drift_threshold": self.drift_threshold,
            "max_qc_retries": self.max_qc_retries,
            "references": self.references.to_dict(),
            "batches": {},  # str(batch_index) -> BatchRecord dict
        }

    def _load_or_init_manifest(self) -> dict:
        fingerprint = self.fingerprint()
        manifest = self.store.load_manifest(
            fingerprint,
            CampaignError(
                f"campaign directory {self.store.root} belongs to a different "
                "campaign (fingerprint mismatch); refusing to mix shards"
            ),
        )
        if manifest is None:
            self.store.ensure_layout()
            if not self.references.enrolled:
                self._enroll_references()
            manifest = self._fresh_manifest(fingerprint)
            self.store.save_manifest(manifest)
            return manifest
        stored = ReferenceSet.from_dict(manifest["references"])
        if not stored.enrolled:
            # Crash between mkdir and enrollment: enroll now.
            self._enroll_references()
            manifest["references"] = self.references.to_dict()
            self.store.save_manifest(manifest)
        else:
            self.references.baselines = stored.baselines
        return manifest

    # ------------------------------------------------------------------ #
    # The sweep
    # ------------------------------------------------------------------ #

    def run(self, max_batches: Optional[int] = None) -> CampaignResult:
        """Run (or resume) the campaign.

        ``max_batches`` bounds how many *pending* batches this call
        executes before returning — the hook tests use to interrupt a
        campaign mid-sweep; production callers leave it None.  The result
        always reflects every batch completed so far, by this process or a
        previous one, in batch order.  Batches this call commits come from
        memory: the samples each shard was just written from.  Only
        batches inherited from an earlier call are loaded from their
        shards, up front; a corrupt one is quarantined (kept as
        ``batch-NNNN.json.corrupt``) and re-measured.

        With ``workers > 1`` the pending batches are farmed out to a
        spawn-safe process pool.  Each batch's RNG streams depend only on
        ``(seed, batch, attempt)``, so the shards a parallel run writes
        are byte-identical to a sequential run's — only the completion
        order (and therefore the manifest's commit order) differs, and
        shards commit atomically as they finish, so a killed parallel
        campaign resumes exactly like a sequential one.  A pool that
        cannot start or breaks mid-run leaves its uncommitted batches to
        the sequential path, and the report records the degradation.
        """
        started = time.monotonic()
        manifest = self._load_or_init_manifest()
        pending, batches = self._pending_batches(manifest, max_batches)

        def commit(index: int, result) -> None:
            self._commit_batch(index, *result, manifest)
            batches[index] = result[0]

        degradations = run_pooled(
            pending,
            self._task,
            _execute_batch,
            self._run_batch,
            commit,
            workers=self.workers,
            mp_context=self.mp_context,
        )
        if degradations:
            # Durable provenance: "the pool died and we limped home
            # serially" rides in the manifest, so every later report —
            # including one after a resume — shows it.
            manifest.setdefault("degradations", []).extend(degradations)
            self.store.save_manifest(manifest)

        report = self._report(manifest)
        report.wall_clock_s = time.monotonic() - started
        report.save(self.store.report_path)
        dataset = LatencyDataset()
        for index in sorted(batches):
            dataset.extend(batches[index])
        return CampaignResult(dataset=dataset, report=report)

    def _pending_batches(
        self, manifest: dict, max_batches: Optional[int] = None
    ) -> Tuple[List[int], Dict[int, List[LatencySample]]]:
        """Batches still to run, and the samples of inherited ones.

        A batch is inherited when the manifest records it and its shard
        loads; it is marked resumed.  A recorded shard that fails to load
        is quarantined, its record dropped, and the batch run again: its
        RNG streams depend only on ``(seed, batch, attempt)``, so the new
        shard is byte-identical to the lost one.
        """
        pending: List[int] = []
        inherited: Dict[int, List[LatencySample]] = {}
        for index in range(self.n_batches):
            recorded = manifest["batches"].get(str(index))
            if recorded is not None and self.store.has_shard(index):
                try:
                    inherited[index] = self.store.read_shard(index).samples
                except DatasetError:
                    quarantine(self.store.shard_path(index))
                    del manifest["batches"][str(index)]
                else:
                    recorded["resumed"] = True
                    continue
            if max_batches is None or len(pending) < max_batches:
                pending.append(index)
        return pending, inherited

    def _commit_batch(
        self,
        index: int,
        samples: List[LatencySample],
        record: BatchRecord,
        manifest: dict,
    ) -> None:
        """Durably persist one finished batch: shard first, then manifest.

        The manifest's batch map is re-sorted by index on every commit so
        its on-disk ordering is deterministic regardless of the order a
        parallel run's batches happen to complete in.
        """
        record.shard = self.store.write_shard(index, LatencyDataset(samples))
        manifest["batches"][str(index)] = record.to_dict()
        manifest["batches"] = dict(
            sorted(manifest["batches"].items(), key=lambda kv: int(kv[0]))
        )
        self.store.save_manifest(manifest)

    @property
    def complete(self) -> bool:
        manifest = self.store.load_manifest()
        if manifest is None:
            return False
        return all(
            str(i) in manifest["batches"] and self.store.has_shard(i)
            for i in range(self.n_batches)
        )

    def _report(self, manifest: dict) -> CampaignReport:
        batches = [
            BatchRecord.from_dict(manifest["batches"][key])
            for key in sorted(manifest["batches"], key=int)
        ]
        return CampaignReport(
            device=self.device_name,
            seed=self.seed,
            n_configs=len(self.configs),
            batch_size=self.batch_size,
            protocol=self.protocol.to_dict(),
            drift_threshold=self.drift_threshold,
            max_qc_retries=self.max_qc_retries,
            batches=batches,
            degradations=[dict(x) for x in manifest.get("degradations", [])],
        )
