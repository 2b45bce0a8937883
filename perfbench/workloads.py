"""The three batch workloads: two ESM loops and one faulty QC campaign.

Each workload is built from the seed by `make_inputs` (untimed), then
`body(inputs)` runs one cold, timed execution through the public API and
returns a `BodyResult`.  Every body writes into a fresh directory, so
nothing is reused from an earlier body or an earlier run: a user running
the workflow pays for all of it.

Backoff sleeps go through the programs' own ``sleep=`` parameter to a
recorder that returns at once; the seconds requested are reported as
``profiling.backoff_requested_s``.  A real device would pay them.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

__all__ = ["BodyResult", "make_inputs", "body", "ready"]

DEVICE = "raspberrypi4"
PROBE_SIZE = 400  # held-out configs the surrogate is scored on
_SLOT_PROBE = 0x9B0E  # seed stream of the probe set (never used by the program)
_SLOT_CAMPAIGN = 0xCA3E  # seed stream of the campaign's configs and references

# acc_th is set above what these budgets reach, so every seed runs the
# whole iteration budget: the work per run does not depend on the seed.
ESM = {
    "esm_mlp_search": dict(
        space="resnet",
        predictor="mlp",
        predictor_params={"epochs": 600},
        initial_size=300,
        extension_size=60,
        max_iterations=3,
    ),
    "esm_adaptive": dict(
        space="mobilenetv3",
        predictor="as",
        # The default five-member zoo; the two tree ensembles are sized
        # down so one run fits the measuring window.
        predictor_params={"zoo_params": {"rf": {"n_estimators": 15}, "gb": {"n_estimators": 40}}},
        initial_size=100,
        extension_size=25,
        max_iterations=2,
    ),
}
SEARCH = dict(population_size=24, generations=10)

CAMPAIGN_SPACE = "densenet"
# A low-noise device, so QC re-executions come mostly from the injected
# throttles and the work per campaign varies little from seed to seed.
CAMPAIGN_DEVICE = "rtx4090"
CAMPAIGN_CONFIGS = 1200
FAULTS = dict(
    throttle_prob=0.08,
    error_prob=0.02,
    timeout_prob=0.01,
    corrupt_prob=0.01,
)
# Six in-place tries per measurement: with the fault rates above, a
# config fails all of them with probability ~4e-9, so no config is lost.
CAMPAIGN_TRANSIENT_RETRIES = 5


class SleepRecorder:
    """The ``sleep=`` callable handed to the programs: records, never blocks."""

    def __init__(self) -> None:
        self.requested: List[float] = []

    def __call__(self, seconds: float) -> None:
        self.requested.append(float(seconds))

    @property
    def total_s(self) -> float:
        return float(sum(self.requested))


@dataclass
class BodyResult:
    wall_s: float
    cpu_s: float  # CPU seconds of this (single-threaded) process
    attempted: int  # operations the body tried
    delivered: int  # of which succeeded
    items: int  # configs measured
    fingerprint: str  # digest of every deterministic output
    batch_latencies_s: List[float]  # one per QC'd measurement batch
    accuracy_pct: float  # paper accuracy of the delivered latencies
    rank_tau: float
    extra: Dict[str, float] = field(default_factory=dict)  # per-layer figures
    info: Dict[str, tuple] = field(default_factory=dict)  # (value, unit), printed only


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()


def _esm_config(name: str, seed: int):
    from repro import ESMConfig

    return ESMConfig(
        device=DEVICE,
        encoding="fcc",
        acc_th=99.5,
        n_bins=6,
        runs=150,
        trim_fraction=0.2,
        n_references=3,
        batch_size=25,
        seed=seed,
        **ESM[name],
    )


def make_inputs(name: str, seed: int, work_root: Path) -> dict:
    """Everything the workload's bodies consume, built from the seed."""
    from repro import RandomSampler, SimulatedDevice, space_by_name

    inputs = {"name": name, "seed": seed, "work_root": work_root, "ops": 1}
    if name in ESM:
        config = _esm_config(name, seed)
        spec = space_by_name(config.space)
        probe = RandomSampler(
            spec, rng=np.random.default_rng([seed, _SLOT_PROBE])
        ).sample_batch(PROBE_SIZE)
        truth = SimulatedDevice(DEVICE, seed=seed)
        inputs.update(
            config=config,
            spec=spec,
            probe=probe,
            probe_true=np.array([truth.true_latency(c) for c in probe]),
        )
        return inputs
    if name == "campaign_qc":
        from repro.profiling.reference import ReferenceSet

        spec = space_by_name(CAMPAIGN_SPACE)
        sampler = RandomSampler(spec, rng=np.random.default_rng([seed, _SLOT_CAMPAIGN]))
        configs, seen = [], set()
        while len(configs) < CAMPAIGN_CONFIGS:  # distinct: the cache stays cold
            config = sampler.sample()
            if config.cache_key() not in seen:
                seen.add(config.cache_key())
                configs.append(config)
        references = ReferenceSet.from_space(
            spec, k=3, rng=np.random.default_rng([seed, _SLOT_CAMPAIGN, 1])
        )
        inputs.update(
            spec=spec,
            configs=configs,
            reference_configs=references.configs,
            ops=len(configs),
        )
        return inputs
    raise KeyError(f"unknown batch workload {name!r}")


def ready(inputs: dict):
    """Construct what a body constructs, without running it (set-up probe)."""
    name = inputs["name"]
    if name in ESM:
        from repro import ESMLoop, SimulatedDevice

        config = inputs["config"]
        device = SimulatedDevice(DEVICE, seed=config.seed)
        return ESMLoop(config, inputs["work_root"] / "ready", device=device)
    return _campaign_runner(inputs, inputs["work_root"] / "ready", SleepRecorder())[0]


def _noop() -> None:
    pass


def body(inputs: dict, start=_noop, stop=_noop) -> BodyResult:
    """One cold execution; ``start``/``stop`` bracket exactly the timed part
    (the traced run installs and removes its span wrappers there)."""
    work = Path(tempfile.mkdtemp(prefix="body-", dir=inputs["work_root"]))
    try:
        if inputs["name"] in ESM:
            return _esm_body(inputs, work, start, stop)
        return _campaign_body(inputs, work, start, stop)
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------- #
# ESM loop (+ search)
# ---------------------------------------------------------------------- #


def _quality(true: np.ndarray, predicted: np.ndarray):
    """(paper accuracy %, MAPE %, Kendall's tau) of ``predicted``."""
    from repro.metrics import kendall_tau, mape, paper_accuracy

    return (
        paper_accuracy(true, predicted),
        float(mape(true, predicted)),
        float(kendall_tau(true, predicted)),
    )


def _esm_body(inputs: dict, work: Path, start, stop) -> BodyResult:
    from repro import ESMLoop, SimulatedDevice
    from repro.profiling.report import CampaignReport

    config = inputs["config"]
    sleep = SleepRecorder()
    start()
    t0 = time.perf_counter()
    c0 = time.process_time()
    device = SimulatedDevice(DEVICE, seed=config.seed)
    result = ESMLoop(config, work / "run", device=device, sleep=sleep).run()
    oracle = result.latency_oracle()
    search_payload = None
    hypervolume = None
    if inputs["name"] == "esm_mlp_search":
        search_payload, hypervolume = _search(inputs, oracle, device)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    stop()

    accuracy, mape, tau = _quality(inputs["probe_true"], oracle.latency_batch(inputs["probe"]))
    batches = []
    for path in sorted((work / "run").glob("campaign-*/report.json")):
        batches.extend(b.wall_clock_s for b in CampaignReport.load(path).batches)
    fingerprint = _digest(
        {
            "report": result.report.to_dict(),
            "dataset": result.dataset.to_dict(),
            "search": search_payload,
        }
    )
    extra = {
        "hardware.cache_hit_rate": device.cache_info().hit_rate,
        "profiling.backoff_requested_s": sleep.total_s,
    }
    info = {
        "surrogate_mape_pct": (mape, "%"),
        "surrogate_kendall_tau": (tau, "ratio"),
        "samples_measured": (len(result.dataset), "count"),
    }
    if hypervolume is not None:
        extra["nas.front_hypervolume"] = hypervolume
        info["front_hypervolume"] = (hypervolume, "ratio")
    return BodyResult(
        wall_s=wall,
        cpu_s=cpu,
        attempted=1,
        delivered=1,
        items=len(result.dataset),
        fingerprint=fingerprint,
        batch_latencies_s=batches,
        accuracy_pct=accuracy,
        rank_tau=tau,
        extra=extra,
        info=info,
    )


def _search(inputs: dict, oracle, device):
    """NSGA-II over the surrogate; the front re-scored at true latency."""
    from repro.nas.pareto import ParetoFront, ParetoPoint
    from repro.nas.proxy import SyntheticAccuracyProxy
    from repro.nas.search import EvolutionarySearch

    spec = inputs["spec"]
    seed = inputs["seed"]
    proxy = SyntheticAccuracyProxy(spec, seed=seed)
    found = EvolutionarySearch(spec, oracle, proxy, seed=seed, **SEARCH).run()
    front = ParetoFront.from_points(
        [
            ParetoPoint(
                latency_s=float(device.true_latency(c)),
                accuracy=float(proxy.accuracy(c)),
                config=c,
            )
            for c in found.front_configs
        ]
    )
    ref_latency = float(inputs["probe_true"].max())
    return found.to_dict(), float(front.hypervolume(ref_latency, proxy.floor))


# ---------------------------------------------------------------------- #
# Cold QC campaign through a faulty device
# ---------------------------------------------------------------------- #


def _campaign_runner(inputs: dict, directory: Path, sleep: SleepRecorder):
    from repro import SimulatedDevice
    from repro.hardware.faults import FaultPlan, FaultyDevice
    from repro.profiling.campaign import CampaignRunner
    from repro.profiling.protocol import MeasurementProtocol
    from repro.profiling.reference import ReferenceSet

    seed = inputs["seed"]
    simulated = SimulatedDevice(CAMPAIGN_DEVICE, seed=seed)
    device = FaultyDevice(simulated, FaultPlan(**FAULTS), seed=seed)
    runner = CampaignRunner(
        device,
        inputs["configs"],
        directory,
        ReferenceSet(list(inputs["reference_configs"])),
        protocol=MeasurementProtocol(runs=150, trim_fraction=0.2),
        batch_size=25,
        seed=seed,
        max_transient_retries=CAMPAIGN_TRANSIENT_RETRIES,
        sleep=sleep,
        device_name=CAMPAIGN_DEVICE,
    )
    return runner, simulated


def _campaign_body(inputs: dict, work: Path, start, stop) -> BodyResult:
    sleep = SleepRecorder()
    start()
    t0 = time.perf_counter()
    c0 = time.process_time()
    runner, simulated = _campaign_runner(inputs, work / "campaign", sleep)
    result = runner.run()
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    stop()

    measured = result.measurements
    report = result.report
    true = np.array([s.true_latency_s for s in measured])
    accuracy, mape, tau = _quality(true, measured.latencies)
    counters = {
        "n_batches": report.n_batches,
        "qc_retries": report.total_qc_retries,
        "transient_retries": report.total_transient_retries,
        "qc_failed_batches": report.n_qc_failed_batches,
        "attempts": [b.n_attempts for b in report.batches],
        "backoff_s": [a.backoff_s for b in report.batches for a in b.attempts],
    }
    fingerprint = _digest({"dataset": result.dataset.to_dict(), "counters": counters})
    return BodyResult(
        wall_s=wall,
        cpu_s=cpu,
        attempted=len(inputs["configs"]),
        delivered=len(measured),
        items=len(measured),
        fingerprint=fingerprint,
        batch_latencies_s=[b.wall_clock_s for b in report.batches],
        accuracy_pct=accuracy,
        rank_tau=tau,
        extra={
            "hardware.cache_hit_rate": simulated.cache_info().hit_rate,
            "profiling.backoff_requested_s": sleep.total_s,
        },
        info={
            "measured_mape_pct": (mape, "%"),
            "qc_retries": (report.total_qc_retries, "count"),
            "transient_retries": (report.total_transient_retries, "count"),
        },
    )
