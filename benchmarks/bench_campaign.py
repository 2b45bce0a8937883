"""End-to-end campaign wall clock: cached vs the pre-caching hot path.

A campaign re-resolves the same analytical latencies constantly — the QC
references are re-measured on every batch attempt and every sample stores
its ground truth — so the analytical cache is worth a large factor on the
whole pipeline, not just on microbenchmarks.  The baseline runs the same
200-config campaign with the per-config cache disabled (``cache_size=0``).
The device's per-block roofline rows stay on in both runs, so the baseline
sums block rows instead of re-lowering every network, as it did before
those rows existed.

The parallel path (``workers > 1``) is timed too, with the host's CPU
count recorded next to the number: batches only overlap when there are
spare cores, so on a single-core runner the entry documents overhead, not
speedup.  Its dataset is compared against the sequential run's — the
latencies must match exactly regardless of worker count.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import time
from pathlib import Path

from .common import sample_configs, write_result

FAMILY = "densenet"
DEVICE = "raspberrypi4"
CAMPAIGN_SEED = 5
PARALLEL_WORKERS = 4


def _run_campaign(configs, spec, *, batch_size, runs, cache_size, workers=1):
    from repro import (
        CampaignRunner,
        MeasurementProtocol,
        ReferenceSet,
        SimulatedDevice,
    )

    references = ReferenceSet.from_space(spec, k=3, rng=11)
    device = SimulatedDevice(DEVICE, cache_size=cache_size)
    mp_context = (
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )
    root = Path(tempfile.mkdtemp(prefix="bench_campaign_"))
    try:
        runner = CampaignRunner(
            device,
            configs,
            root / "campaign",
            references,
            protocol=MeasurementProtocol(runs=runs),
            batch_size=batch_size,
            seed=CAMPAIGN_SEED,
            workers=workers,
            mp_context=mp_context,
            sleep=lambda s: None,
        )
        t0 = time.perf_counter()
        result = runner.run()
        wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return wall, result, device.cache_info()


def run(smoke: bool = False, out_dir=None):
    n, batch_size, runs = (30, 5, 25) if smoke else (200, 10, 150)
    configs, spec = sample_configs(FAMILY, n, seed=7)

    baseline_s, _, _ = _run_campaign(
        configs, spec, batch_size=batch_size, runs=runs, cache_size=0
    )
    wall_s, sequential, info = _run_campaign(
        configs, spec, batch_size=batch_size, runs=runs, cache_size=4096
    )
    parallel_s, parallel, _ = _run_campaign(
        configs,
        spec,
        batch_size=batch_size,
        runs=runs,
        cache_size=4096,
        workers=PARALLEL_WORKERS,
    )
    matches = [s.latency_s for s in sequential.dataset] == [
        s.latency_s for s in parallel.dataset
    ]

    return write_result(
        "campaign",
        params={
            "family": FAMILY,
            "device": DEVICE,
            "n_configs": n,
            "batch_size": batch_size,
            "runs": runs,
            "seed": CAMPAIGN_SEED,
            "smoke": smoke,
        },
        wall_s=wall_s,
        per_item_us=wall_s / n * 1e6,
        cache_hit_rate=info.hit_rate,
        out_dir=out_dir,
        baseline_wall_s=round(baseline_s, 6),
        speedup=round(baseline_s / wall_s, 2),
        parallel_wall_s=round(parallel_s, 6),
        parallel_workers=PARALLEL_WORKERS,
        parallel_matches_sequential=bool(matches),
        cpu_count=os.cpu_count(),
    )


if __name__ == "__main__":
    path, payload = run()
    print(path)
