"""Bounded prediction LRU: repeat queries short-circuit the batcher.

A served surrogate sees heavily repeated traffic — NAS clients re-query
the architectures near the Pareto front, dashboards refresh the same
configs — and a fitted predictor is deterministic, so the answer for a
given ``(space, device, encoding, config)`` never changes until the model
is hot-swapped.  `PredictionLRU` sits in front of the micro-batcher,
keyed on `ArchConfig.cache_key()`, and stores the predicted latency
*together with the model version and batch sequence* that produced it, so
cached responses carry exactly the same provenance as computed ones.

The LRU itself is `repro.hardware.cache.AnalyticalCache` (bounded,
hit/miss counters, ``maxsize=0`` disables, `CacheInfo` snapshots); only
the stored value differs.  The server keeps one instance per registry
key and replaces it wholesale on hot-swap, which is both the
invalidation story and a pointer flip — no lock, no sweep.
"""

from __future__ import annotations

from typing import NamedTuple

from ..hardware.cache import AnalyticalCache

__all__ = ["CachedPrediction", "PredictionLRU"]


class CachedPrediction(NamedTuple):
    """A memoized prediction plus the provenance of the flush that made it."""

    latency_s: float
    model_version: int
    batch_seq: int


class PredictionLRU(AnalyticalCache):
    """Bounded LRU mapping ``cache_key -> CachedPrediction`` with counters."""
