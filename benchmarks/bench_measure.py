"""Repeated-config measurement: cached batch path vs the uncached loop.

The workload is the shape the ESM loop actually produces: a handful of
distinct architectures each measured many times (reference re-measurement,
protocol sweeps, repeated QC).  The baseline is the pre-caching hot path:
``measure_latency`` per config on a device whose per-config LRU is
disabled (``cache_size=0``), re-summing the config's block rows every
call.  The device's per-block roofline rows are always on, so the baseline
no longer re-lowers the network on each call and the factor is smaller
than in records taken before those rows existed.  The optimised path
feeds the same workload through ``measure_batch`` on a caching device.
Both consume one seeded generator stream, so beyond timing them the
benchmark asserts the results are bit-identical.
"""

from __future__ import annotations

import time

import numpy as np

from .common import best_of, sample_configs, write_result

FAMILY = "densenet"
DEVICE = "rtx4090"
RNG_SEED = 123


def run(smoke: bool = False, out_dir=None):
    from repro import SimulatedDevice

    distinct, repeats, runs = (3, 5, 25) if smoke else (8, 25, 150)
    configs, _ = sample_configs(FAMILY, distinct, seed=1)
    workload = [configs[i % distinct] for i in range(distinct * repeats)]

    def baseline():
        device = SimulatedDevice(DEVICE, cache_size=0)
        rng = np.random.default_rng(RNG_SEED)
        return np.array(
            [device.measure_latency(c, runs=runs, rng=rng) for c in workload]
        )

    def optimised():
        device = SimulatedDevice(DEVICE)
        rng = np.random.default_rng(RNG_SEED)
        measured, _ = device.measure_batch(workload, runs=runs, rng=rng)
        return measured, device.cache_info()

    repeat = 1 if smoke else 3
    baseline_s, baseline_vals = best_of(baseline, repeat)
    wall_s, (measured, info) = best_of(optimised, repeat)

    return write_result(
        "measure",
        params={
            "family": FAMILY,
            "device": DEVICE,
            "distinct_configs": distinct,
            "repeats": repeats,
            "runs": runs,
            "rng_seed": RNG_SEED,
            "smoke": smoke,
        },
        wall_s=wall_s,
        per_item_us=wall_s / len(workload) * 1e6,
        cache_hit_rate=info.hit_rate,
        out_dir=out_dir,
        baseline_wall_s=round(baseline_s, 6),
        speedup=round(baseline_s / wall_s, 2),
        bit_identical=bool(np.array_equal(baseline_vals, measured)),
    )


if __name__ == "__main__":
    path, payload = run()
    print(path)
