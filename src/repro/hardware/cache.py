"""Bounded LRU cache for per-config analytical results.

The simulator's analytical latency of a config is identical for every one
of the 150 noisy runs of that config, and reference models are
re-measured in *every* campaign batch.  `AnalyticalCache` memoizes the
latency behind the config's `cache_key()` so a repeated measurement costs
a dict lookup instead of a sum over the config's block rows.

The cache is bounded (least-recently-used eviction) so a long campaign
over a large sweep cannot grow memory without limit, and it keeps
hit/miss counters so benchmarks and tests can assert cache behaviour
instead of guessing at it.  ``maxsize=0`` disables this per-config cache
entirely -- every lookup misses and nothing is stored -- so each call sums
the config's block rows again.  It does not disable the device's
per-block roofline rows (see `repro.hardware.simulator`), which are always
on: no block is lowered twice on one device profile either way.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional

__all__ = ["AnalyticalCache", "CacheInfo"]


@dataclass(frozen=True)
class CacheInfo:
    """Point-in-time snapshot of a cache's accounting."""

    hits: int
    misses: int
    size: int
    maxsize: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": self.size,
            "maxsize": self.maxsize,
            "hit_rate": self.hit_rate,
        }


class AnalyticalCache:
    """Bounded LRU mapping ``cache_key -> float`` with hit/miss counters."""

    def __init__(self, maxsize: int = 4096):
        if maxsize < 0:
            raise ValueError("maxsize must be >= 0")
        self.maxsize = int(maxsize)
        self._data: "OrderedDict[Hashable, float]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable) -> Optional[float]:
        """The cached value, refreshed to most-recently-used, or None."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: float) -> None:
        """Store ``value``, evicting the least-recently-used entry if full."""
        if self.maxsize == 0:
            return
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry; counters keep accumulating across clears."""
        self._data.clear()

    def info(self) -> CacheInfo:
        return CacheInfo(
            hits=self.hits,
            misses=self.misses,
            size=len(self._data),
            maxsize=self.maxsize,
        )
