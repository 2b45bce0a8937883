"""The simulated measurement device standing in for physical hardware.

``true_latency`` is the deterministic analytical latency: per-layer
roofline times, a cache-pressure multiplier on memory-bound layers driven
by the *whole model's* working set, and a sub-linear kernel-launch term.
The last two are global, non-additive contributions — precisely what makes
purely additive lookup-table surrogates fail, as the paper reports.

``measure`` wraps it in the measurement-noise model (per-session
thermal/clock factor with occasional throttled sessions, warm-up
transient, multiplicative jitter, sparse positive outliers);
``measure_latency`` applies a `MeasurementProtocol` — by default the
paper's: discard the fastest and slowest 20% of runs, average the middle
60%.

Three structural properties make the measurement hot path cheap:

* The analytical latency of an `ArchConfig` is memoized in a bounded LRU
  (`AnalyticalCache`, keyed by `ArchConfig.cache_key()`), so the 150 noisy
  runs of one config — and the reference models re-measured every campaign
  batch — cost one latency evaluation.
* That evaluation lowers each distinct block once per device profile.
  The block walk (`repro.network.builders.block_walk`) keys every block
  by the local values its layers depend on; the device keeps one compact
  roofline row per key (per-layer seconds and memory-bound flags, and
  the block's footprint: weight bytes and largest input+output pair) and
  lowers a block only the first time its key appears -- through
  `build_network`, given just the config's unseen blocks.  A config's
  latency is then its rows summed left to right in layer order under the
  two global terms — bit-identical to sweeping the full layer IR.  The
  rows belong to the device profile: they are dropped with the LRU when
  the profile is swapped, and are always on (``cache_size`` sizes only
  the per-config LRU).
* The noise model is generated block-wise: `_trace_block` draws each
  config's randomness in the canonical order (session, throttle, jitter,
  outlier positions, outlier heights) and then applies the deterministic
  scaling to the whole ``(n_configs, runs)`` block in a handful of numpy
  operations.  The per-config draw order is preserved, so block results
  are bit-identical to measuring the configs one at a time from the same
  seeded generator — a regression test locks this in.
"""

from __future__ import annotations

from itertools import groupby
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..archspace.config import ArchConfig
from ..network.analysis import Footprint, footprint, working_set
from ..network.builders import block_walk, build_network
from ..network.ir import Layer, Network
from ..profiling.protocol import MeasurementProtocol
from ..utils import ensure_rng
from .cache import AnalyticalCache, CacheInfo
from .profiles import DeviceProfile, device_by_name
from .roofline import layer_time

__all__ = ["SimulatedDevice"]

#: One block's roofline row: per-layer seconds and memory-bound flags, and
#: the block's footprint (weight bytes, largest input+output pair).
_Row = Tuple[Tuple[float, ...], Tuple[bool, ...], Footprint]


def _block_name(layer: Layer) -> str:
    # `lower_block` names a block's layers ``{block name}.<layer>``.
    return layer.name.rpartition(".")[0]


class SimulatedDevice:
    """Analytical latency model plus a seeded measurement-noise model."""

    def __init__(
        self,
        profile: Union[DeviceProfile, str],
        seed: "int | np.random.Generator | None" = None,
        cache_size: int = 4096,
    ):
        if isinstance(profile, str):
            profile = device_by_name(profile)
        self.profile = profile
        self.rng = ensure_rng(seed)
        self.analytical_cache = AnalyticalCache(cache_size)
        self._block_rows: Dict[tuple, _Row] = {}
        self._cache_profile = profile

    # ------------------------------------------------------------------ #
    # Deterministic analytical latency
    # ------------------------------------------------------------------ #

    def _row(self, layers: Sequence[Layer]) -> _Row:
        """Roofline row of a run of layers: everything the sum needs.

        ``layer_time`` is resolved through this module's namespace, so a
        profiler hooked there counts every roofline evaluation.
        """
        seconds, memory_bound = [], []
        for layer in layers:
            s, mb = layer_time(layer, self.profile)
            seconds.append(s)
            memory_bound.append(mb)
        return tuple(seconds), tuple(memory_bound), footprint(layers)

    def _sum_rows(self, rows: Sequence[_Row]) -> float:
        """Per-layer roofline times plus the two global terms.

        The working set of the rows' footprints sets a cache-pressure
        multiplier on memory-bound layers, and the layer count sets the
        launch overhead.  The seconds are accumulated left to right in
        layer order with one plain ``+=`` each (no pairwise ``np.sum``,
        no compensated builtin ``sum``), which fixes every bit of the
        result.
        """
        p = self.profile
        ws = working_set(row[2] for row in rows)
        if ws <= p.cache_bytes:
            pressure = 1.0
        else:
            pressure = 1.0 + p.cache_penalty * (1.0 - p.cache_bytes / ws)
        total = 0.0
        n_layers = 0
        for seconds, memory_bound, _ in rows:
            n_layers += len(seconds)
            for s, mb in zip(seconds, memory_bound):
                total += s * (pressure if mb else 1.0)
        return total + p.launch_overhead_s * n_layers**p.launch_exponent

    def _config_latency(self, config: ArchConfig) -> float:
        """Sum the memoised block rows of ``config``, lowering new blocks.

        The blocks the memo has not seen are lowered together in one
        `build_network` call, resolved through this module's namespace so
        a profiler hooked there times every lowering.
        """
        blocks = block_walk(config)  # validates before any lookup
        memo = self._block_rows
        rows = [memo.get(key) for _, key in blocks]
        if None in rows:
            new = {}
            for (name, key), row in zip(blocks, rows):
                if row is None and key not in new:
                    new[key] = name
            lowered = build_network(config, [(name, key) for key, name in new.items()])
            for key, (_, layers) in zip(new, groupby(lowered.layers, _block_name)):
                memo[key] = self._row(tuple(layers))
            rows = [memo[key] for _, key in blocks]
        return self._sum_rows(rows)

    def true_latency(self, target: Union[ArchConfig, Network]) -> float:
        """Noise-free end-to-end latency in seconds.

        `ArchConfig` targets are memoized behind `ArchConfig.cache_key()`,
        and each of their blocks' roofline rows behind its block key; a
        pre-built `Network` bypasses both (it has no canonical key and
        callers who lowered it themselves own its lifetime) and is summed
        as one row by the same routine.
        """
        if not isinstance(target, ArchConfig):
            return self._sum_rows((self._row(target.layers),))
        if self.profile != self._cache_profile:
            # The profile was swapped out underneath us: every cached
            # latency and block row belongs to the old device.
            self.analytical_cache.clear()
            self._block_rows.clear()
            self._cache_profile = self.profile
        key = target.cache_key()
        value = self.analytical_cache.get(key)
        if value is None:
            value = self._config_latency(target)
            self.analytical_cache.put(key, value)
        return value

    def cache_info(self) -> CacheInfo:
        """Hit/miss accounting of the analytical-latency cache."""
        return self.analytical_cache.info()

    # ------------------------------------------------------------------ #
    # Noisy measurement
    # ------------------------------------------------------------------ #

    def _trace_block(
        self, bases: np.ndarray, runs: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Noise-model traces for a block of configs: ``(n, runs)`` seconds.

        Stochastic draws happen per config in the canonical order (session
        factor, throttle coin, jitter, outlier positions, outlier heights)
        so the stream consumed for config ``i`` is exactly what a lone
        ``measure`` call would consume; the deterministic arithmetic —
        session scaling, warm-up transient, outlier application — is then
        applied to the whole block at once.
        """
        p = self.profile
        n = int(bases.shape[0])
        session = np.empty(n)
        jitter = np.empty((n, runs))
        spike_mask = np.zeros((n, runs), dtype=bool)
        spike_boost = np.empty((n, runs))
        for i in range(n):
            factor = float(np.exp(rng.normal(0.0, p.session_sigma)))
            if rng.random() < p.throttle_prob:
                factor *= p.throttle_factor
            session[i] = factor
            jitter[i] = rng.normal(0.0, p.jitter_cv, size=runs)
            spikes = rng.random(runs) < p.outlier_prob
            if spikes.any():
                spike_mask[i] = spikes
                spike_boost[i, spikes] = 1.0 + rng.exponential(
                    p.outlier_scale, size=int(spikes.sum())
                )
        traces = (bases * session)[:, None] * np.exp(jitter)

        # Warm-up transient: geometric decay toward steady state.
        idx = np.arange(min(p.warmup_iters, runs))
        traces[:, : idx.size] *= 1.0 + (p.warmup_factor - 1.0) * 0.5**idx

        if spike_mask.any():
            traces[spike_mask] *= spike_boost[spike_mask]
        return traces

    def measure(
        self,
        target: Union[ArchConfig, Network],
        runs: int = 150,
        rng: "int | np.random.Generator | None" = None,
    ) -> np.ndarray:
        """Raw latency trace of ``runs`` consecutive iterations (seconds)."""
        if runs < 1:
            raise ValueError("runs must be >= 1")
        rng = self.rng if rng is None else ensure_rng(rng)
        base = self.true_latency(target)
        return self._trace_block(np.array([base]), runs, rng)[0]

    def measure_latency(
        self,
        target: Union[ArchConfig, Network],
        runs: int = 150,
        rng: "int | np.random.Generator | None" = None,
        protocol: Optional[MeasurementProtocol] = None,
    ) -> float:
        """Protocol-collapsed latency (default: the paper's trim-20% mean).

        ``protocol`` overrides the whole measurement recipe; when given, its
        ``runs`` takes precedence over the ``runs`` argument.
        """
        if protocol is None:
            protocol = MeasurementProtocol(runs=runs)
        return protocol.measure(self, target, rng=rng)

    def measure_batch(
        self,
        targets: List[Union[ArchConfig, Network]],
        runs: int = 150,
        rng: "int | np.random.Generator | None" = None,
        protocol: Optional[MeasurementProtocol] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Measure many configs from one seeded stream.

        Returns ``(measured, true)`` latency arrays; deterministic given
        the rng state and the order of ``targets``, and bit-identical to
        calling ``measure_latency`` per config on the same stream.  The
        analytical latency of each target is resolved exactly once (via
        the cache for `ArchConfig`, directly for a pre-built `Network`)
        and threaded through to both the noise model and the returned
        ground truth — no target is lowered twice.
        """
        rng = self.rng if rng is None else ensure_rng(rng)
        if protocol is None:
            protocol = MeasurementProtocol(runs=runs)
        bases = np.array([self.true_latency(t) for t in targets], dtype=float)
        traces = self._trace_block(bases, protocol.runs, rng)
        measured = np.array([protocol.trimmed_mean(trace) for trace in traces])
        return measured, bases
