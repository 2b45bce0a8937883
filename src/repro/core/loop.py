"""`ESMLoop`: the paper's Algorithm 1, end to end and resumable.

One run owns a directory::

    run_dir/
      campaign-0000/   # initial dataset (checkpointed CampaignRunner dir)
      campaign-0001/   # extension measured after iteration 0
      ...
      report.json      # ESMRunReport (deterministic bytes)
      dataset.json     # every measurement the surrogate was trained on
      predictor.json   # the trained predictor, when it supports save()

Determinism and resumability are inherited from the layers below: every
RNG is derived from ``(config.seed, slot, iteration)``, and every
measurement goes through a `CampaignRunner` whose shards are
byte-identical across serial, parallel, and interrupted-then-resumed
executions.  Re-running `ESMLoop.run` over a *finished* ``run_dir``
(report, dataset and predictor all load, and the report's config is this
one) loads that run and fits nothing.  Over any other ``run_dir`` it
recomputes sampling, training and evaluation — training dominates: every
iteration refits the predictor — and reuses every completed measurement
batch, so a loop killed mid-extension finishes with exactly the bytes an
uninterrupted run would have written.  A ``run_dir`` holding campaigns
from a *different* config is refused via the campaign fingerprint rather
than silently mixed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Union

import numpy as np

from ..archspace.config import ArchConfig
from ..archspace.sampling import (
    BalancedSampler,
    RandomSampler,
    assign_depth_bin,
    depth_bins,
)
from ..archspace.spaces import SpaceSpec, space_by_name
from ..data.dataset import LatencyDataset
from ..encodings import encoder_for
from ..hardware.simulator import SimulatedDevice
from ..metrics import binwise_accuracy, failing_bins
from ..predictors import get_predictor
from ..profiling.campaign import CampaignRunner
from ..profiling.protocol import MeasurementProtocol
from ..profiling.reference import ReferenceSet
from ..utils import load_json
from .config import ESMConfig
from .extension import extension_plan
from .report import ESMRunReport, IterationRecord

__all__ = ["ESMLoop", "ESMRunResult", "load_run"]

# Slots separating the loop's independent RNG streams; campaign-internal
# streams use default_rng([campaign_seed, batch, attempt]) below these.
_SLOT_REFERENCES = 101
_SLOT_SAMPLER = 103
_SLOT_SPLIT = 107
_SLOT_CAMPAIGN = 109

REPORT_FILENAME = "report.json"
DATASET_FILENAME = "dataset.json"
PREDICTOR_FILENAME = "predictor.json"


def _stream(seed: int, slot: int, iteration: int) -> np.random.Generator:
    return np.random.default_rng([seed, slot, iteration])


@dataclass
class ESMRunResult:
    """What a finished run hands back (and `load_run` reconstructs)."""

    report: ESMRunReport
    dataset: LatencyDataset  # sweep measurements (references excluded)
    predictor: object  # trained on the final train split
    run_dir: Path

    @property
    def converged(self) -> bool:
        return self.report.converged

    def latency_oracle(self, spec: Optional[SpaceSpec] = None):
        """This run's surrogate as a search-facing `PredictorOracle`.

        The loop -> search hand-off: the report's config names the encoding
        and space the predictor was trained under, so a NAS driver can
        consume a finished run without re-stating either.  Pass ``spec``
        when the run used an explicit (non-registry) space.
        """
        from ..predictors.oracle import PredictorOracle

        if self.predictor is None:
            raise ValueError(
                "run has no predictor (not trained, or loaded from a run "
                "whose predictor type does not persist)"
            )
        config = self.report.config
        if spec is None:
            spec = space_by_name(config["space"])
        return PredictorOracle(
            self.predictor,
            config["encoding"],
            spec,
            name=f"{config['predictor']}+{config['encoding']}",
        )


class ESMLoop:
    """Drive train -> evaluate -> extend -> retrain to bin convergence.

    ``device`` / ``spec`` default to the registry entries named by the
    config; pass instances to run against e.g. a `FaultyDevice` wrapper or
    a reduced test space.  ``workers``/``mp_context`` parallelise each
    campaign's batches and never change any produced bytes, so they are
    runtime knobs here rather than `ESMConfig` fields.
    """

    def __init__(
        self,
        config: ESMConfig,
        run_dir: Union[str, Path],
        *,
        device=None,
        spec: Optional[SpaceSpec] = None,
        workers: int = 1,
        mp_context: Optional[str] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.config = config
        self.run_dir = Path(run_dir)
        if spec is None:
            config.validate_space()
            spec = space_by_name(config.space)
        self.spec = spec
        if device is None:
            config.validate_device()
            device = SimulatedDevice(config.device, seed=config.seed)
        self.device = device
        self.workers = int(workers)
        self.mp_context = mp_context
        self.sleep = sleep
        self.bins = depth_bins(self.spec, config.n_bins)
        self.protocol = MeasurementProtocol(
            runs=config.runs, trim_fraction=config.trim_fraction
        )
        self.references = ReferenceSet.from_space(
            self.spec,
            k=config.n_references,
            rng=_stream(config.seed, _SLOT_REFERENCES, 0),
        )
        # Transfer warm start: load (and sanity-check) the proxy-device
        # run's predictor payload once, up front, so a missing or
        # incompatible proxy run fails before any measurement is spent.
        self._proxy_payload = (
            None
            if config.transfer_from is None
            else self._load_proxy_payload(Path(config.transfer_from))
        )

    def _load_proxy_payload(self, proxy_dir: Path) -> dict:
        """The proxy run's predictor payload, compatibility-checked.

        The proxy surrogate's feature space is fixed by the run that
        trained it, so its encoding and architecture space must match this
        config's — a mismatch would silently feed garbage features through
        the frozen proxy, which is exactly the failure mode transfer tests
        exist to catch.  The proxy *device* is expected to differ; that is
        the point.
        """
        predictor_path = proxy_dir / PREDICTOR_FILENAME
        if not predictor_path.exists():
            raise ValueError(
                f"transfer_from run {proxy_dir} has no {PREDICTOR_FILENAME}; "
                "the proxy run must have been trained with a persistable "
                "predictor"
            )
        report_path = proxy_dir / REPORT_FILENAME
        if report_path.exists():
            proxy_config = ESMRunReport.load(report_path).config
            for field in ("encoding", "space"):
                ours = getattr(self.config, field)
                theirs = proxy_config.get(field)
                if theirs != ours:
                    raise ValueError(
                        f"transfer_from run {proxy_dir} was trained with "
                        f"{field}={theirs!r} but this config uses "
                        f"{field}={ours!r}; the frozen proxy's feature "
                        "space must match"
                    )
        return load_json(predictor_path, dict, what="transfer_from predictor file")

    # ------------------------------------------------------------------ #
    # Pieces
    # ------------------------------------------------------------------ #

    def campaign_dir(self, iteration: int) -> Path:
        """Campaign 0 measures the initial dataset; campaign ``i`` the
        extension planned by iteration ``i - 1``."""
        return self.run_dir / f"campaign-{iteration:04d}"

    def _campaign_seed(self, iteration: int) -> int:
        return int(
            _stream(self.config.seed, _SLOT_CAMPAIGN, iteration).integers(2**31 - 1)
        )

    def _sampler(self, iteration: int, kind: str):
        rng = _stream(self.config.seed, _SLOT_SAMPLER, iteration)
        if kind == "balanced":
            return BalancedSampler(self.spec, rng=rng, n_bins=self.config.n_bins)
        return RandomSampler(self.spec, rng=rng)

    def _make_predictor(self):
        params = dict(self.config.predictor_params)
        if self._proxy_payload is not None:
            # The transfer warm start: every refit wraps the same frozen
            # proxy surrogate, so only the monotone map learns from this
            # run's (target-device) measurements.
            params.setdefault("proxy_payload", self._proxy_payload)
        predictor = get_predictor(self.config.predictor, **params)
        # Predictors with their own init RNG follow the run seed unless
        # the params pin one explicitly.
        if hasattr(predictor, "seed") and "seed" not in params:
            predictor.seed = self.config.seed
        return predictor

    def _measure(self, configs: List[ArchConfig], iteration: int) -> LatencyDataset:
        """Measure ``configs`` through a checkpointed, QC'd campaign."""
        cfg = self.config
        runner = CampaignRunner(
            self.device,
            configs,
            self.campaign_dir(iteration),
            self.references,
            protocol=self.protocol,
            batch_size=cfg.batch_size,
            seed=self._campaign_seed(iteration),
            drift_threshold=cfg.drift_threshold,
            max_qc_retries=cfg.max_qc_retries,
            max_transient_retries=cfg.max_transient_retries,
            sleep=self.sleep,
            device_name=cfg.device,
            workers=self.workers,
            mp_context=self.mp_context,
        )
        return runner.run().measurements

    def _evaluate(self, predictor, test: LatencyDataset, encoding):
        """Bin-wise paper accuracy on the held-out split.

        Bins the split left empty score 0.0: a bin with no evidence is a
        failing bin, and the extension step will direct samples at it.
        """
        pred = predictor.predict(test.encode(encoding, self.spec))
        groups = [assign_depth_bin(int(d), self.bins) for d in test.total_depths]
        measured = binwise_accuracy(test.latencies, pred, groups)
        return {
            b: float(measured.get(b, 0.0)) for b in range(len(self.bins))
        }

    # ------------------------------------------------------------------ #
    # The loop
    # ------------------------------------------------------------------ #

    def _finished_run(self) -> Optional[ESMRunResult]:
        """The run ``run_dir`` already holds, if it finished under this config.

        None when any of its three files is missing, torn, or written
        under another config: `run` then resumes from the campaigns.
        """
        names = (REPORT_FILENAME, DATASET_FILENAME, PREDICTOR_FILENAME)
        if not all((self.run_dir / name).is_file() for name in names):
            return None
        try:
            finished = load_run(self.run_dir)
        except ValueError:
            return None
        # Through JSON, as the stored config went: tuples become lists.
        config = json.loads(json.dumps(self.config.to_dict()))
        if finished.report.config != config:
            return None
        return finished

    def run(self) -> ESMRunResult:
        """Run (or resume) Algorithm 1 to convergence or budget.

        A ``run_dir`` this config already finished is loaded, not rerun.
        """
        finished = self._finished_run()
        if finished is not None:
            return finished
        started = time.monotonic()
        cfg = self.config
        encoding = encoder_for(cfg.encoding, self.spec)
        self.run_dir.mkdir(parents=True, exist_ok=True)

        initial = self._sampler(0, cfg.initial_sampler).sample_batch(
            cfg.initial_size
        )
        dataset = self._measure(initial, 0)

        records: List[IterationRecord] = []
        converged = False
        predictor = None
        for iteration in range(cfg.max_iterations):
            train, test = dataset.split(
                cfg.train_fraction,
                rng=_stream(cfg.seed, _SLOT_SPLIT, iteration),
            )
            predictor = self._make_predictor()
            predictor.fit(train.encode(encoding, self.spec), train.latencies)
            accuracies = self._evaluate(predictor, test, encoding)
            # The adaptive switcher exposes its per-refit CV winner; fixed
            # predictors are their own (constant) model.
            model_used = getattr(predictor, "winner_", None) or cfg.predictor
            failing = failing_bins(accuracies, cfg.acc_th)
            passed = not failing
            last_iteration = iteration == cfg.max_iterations - 1
            plan = (
                {}
                if passed or last_iteration
                else extension_plan(accuracies, cfg.acc_th, cfg.extension_size)
            )
            records.append(
                IterationRecord(
                    iteration=iteration,
                    dataset_size=len(dataset),
                    train_size=len(train),
                    test_size=len(test),
                    bin_accuracies=accuracies,
                    failing_bins=failing,
                    samples_added={b: int(n) for b, n in plan.items()},
                    passed=passed,
                    predictor_model=model_used,
                )
            )
            if passed:
                converged = True
                break
            if not plan:  # iteration budget exhausted
                break
            # Extensions always sample *within* the failing bins, whatever
            # strategy seeded the initial dataset (Algorithm 1, line 7).
            sampler = self._sampler(iteration + 1, "balanced")
            extension = sampler.sample_counts(plan)
            dataset = dataset + self._measure(extension, iteration + 1)

        report = ESMRunReport(
            config=cfg.to_dict(),
            bins=self.bins,
            iterations=records,
            converged=converged,
            wall_clock_s=time.monotonic() - started,
        )
        report.save(self.run_dir / REPORT_FILENAME)
        dataset.save(self.run_dir / DATASET_FILENAME)
        if predictor is not None and hasattr(predictor, "save"):
            predictor.save(self.run_dir / PREDICTOR_FILENAME)
        return ESMRunResult(
            report=report,
            dataset=dataset,
            predictor=predictor,
            run_dir=self.run_dir,
        )


def load_run(run_dir: Union[str, Path]) -> ESMRunResult:
    """Load a finished run — surrogate plus provenance, no re-measuring.

    The predictor is restored when a ``predictor.json`` exists (predictors
    without persistence support load as ``None``); `load_predictor`
    dispatches on the saved ``kind``, so runs made with any zoo member —
    including the adaptive switcher — round-trip.
    """
    from ..predictors import load_predictor

    run_dir = Path(run_dir)
    report = ESMRunReport.load(run_dir / REPORT_FILENAME)
    dataset = LatencyDataset.load(run_dir / DATASET_FILENAME)
    predictor = None
    predictor_path = run_dir / PREDICTOR_FILENAME
    if predictor_path.exists():
        predictor = load_predictor(predictor_path)
    return ESMRunResult(
        report=report, dataset=dataset, predictor=predictor, run_dir=run_dir
    )
