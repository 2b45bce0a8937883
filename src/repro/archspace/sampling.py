"""Samplers over architecture spaces: random and depth-balanced.

The paper's dataset generation samples configurations either uniformly per
choice (*random*) or *balanced* over depth bins: random per-unit depth draws
concentrate the total depth around its mean (CLT), starving the shallow and
deep corner bins that the ESM loop's bin-wise accuracy criterion insists on.
The balanced sampler first picks a target total-depth bin uniformly, then
draws per-unit depths constrained to land in it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..utils import ensure_rng, pick
from .config import ArchConfig, shared_block
from .spaces import SpaceSpec

__all__ = ["depth_bins", "assign_depth_bin", "RandomSampler", "BalancedSampler"]


def depth_bins(spec: SpaceSpec, n_bins: int) -> List[Tuple[int, int]]:
    """Partition the total-depth range into ``n_bins`` contiguous bins.

    Returns inclusive ``(lo, hi)`` integer ranges covering
    ``[spec.min_total_depth, spec.max_total_depth]`` with near-equal widths
    (earlier bins take the remainder).
    """
    lo, hi = spec.min_total_depth, spec.max_total_depth
    span = hi - lo + 1
    if not 1 <= n_bins <= span:
        raise ValueError(f"n_bins must be in [1, {span}], got {n_bins}")
    base, rem = divmod(span, n_bins)
    bins = []
    start = lo
    for i in range(n_bins):
        width = base + (1 if i < rem else 0)
        bins.append((start, start + width - 1))
        start += width
    return bins


def assign_depth_bin(total_depth: int, bins: List[Tuple[int, int]]) -> int:
    """Index of the bin containing ``total_depth`` (raises if outside all bins)."""
    for i, (lo, hi) in enumerate(bins):
        if lo <= total_depth <= hi:
            return i
    raise ValueError(f"total depth {total_depth} falls outside the given bins")


class RandomSampler:
    """Uniform per-choice sampling: unit depths, then per-block choices."""

    def __init__(self, spec: SpaceSpec, rng: "int | np.random.Generator | None" = None):
        self.spec = spec
        self.rng = ensure_rng(rng)

    def sample(self) -> ArchConfig:
        depths = [
            int(pick(self.rng, self.spec.depth_choices))
            for _ in range((self.spec.num_units))
        ]
        return self._fill_blocks(depths)

    def sample_batch(self, n: int) -> List[ArchConfig]:
        return [self.sample() for _ in range(n)]

    def _fill_blocks(self, depths: List[int]) -> ArchConfig:
        spec = self.spec
        units = []
        for depth in depths:
            if spec.uniform_kernel:
                kernel = int(pick(self.rng, spec.kernel_choices))
                kernels = [kernel] * depth
            else:
                kernels = [int(pick(self.rng, spec.kernel_choices)) for _ in range(depth)]
            blocks = tuple(
                shared_block(
                    k,
                    None
                    if spec.expand_choices is None
                    else float(pick(self.rng, spec.expand_choices)),
                )
                for k in kernels
            )
            units.append(blocks)
        return ArchConfig(family=spec.family, units=tuple(units))


class BalancedSampler(RandomSampler):
    """Depth-balanced sampling: uniform over total-depth bins.

    Picks a bin uniformly, then draws unit depths sequentially, restricting
    each draw to values that keep the remaining units able to reach the bin
    — an exact-feasibility walk, so no rejection loop is needed.
    """

    def __init__(
        self,
        spec: SpaceSpec,
        rng: "int | np.random.Generator | None" = None,
        n_bins: int = 6,
    ):
        super().__init__(spec, rng)
        self.bins = depth_bins(spec, n_bins)

    def sample(self) -> ArchConfig:
        lo, hi = self.bins[int(self.rng.integers(len(self.bins)))]
        return self._fill_blocks(self._depths_in_range(lo, hi))

    def sample_in_bin(self, bin_index: int) -> ArchConfig:
        """Sample a configuration whose total depth lands in a specific bin."""
        lo, hi = self.bins[bin_index]
        return self._fill_blocks(self._depths_in_range(lo, hi))

    def sample_counts(self, counts: "dict[int, int]") -> List[ArchConfig]:
        """Draw ``counts[bin] `` configs inside each requested depth bin.

        This is the measurement order Algorithm 1's extension step uses:
        bins ascending, each bin's draws consecutive, so one seeded RNG
        reproduces the exact extension set regardless of dict ordering.
        """
        configs: List[ArchConfig] = []
        for bin_index in sorted(counts):
            n = counts[bin_index]
            if n < 0:
                raise ValueError(
                    f"sample count for bin {bin_index} must be >= 0, got {n}"
                )
            configs.extend(self.sample_in_bin(bin_index) for _ in range(n))
        return configs

    def _depths_in_range(self, lo: int, hi: int) -> List[int]:
        spec = self.spec
        choices = sorted(spec.depth_choices)
        depths: List[int] = []
        remaining = spec.num_units
        total = 0
        for _ in range(spec.num_units):
            remaining -= 1
            rest_min = remaining * choices[0]
            rest_max = remaining * choices[-1]
            feasible = [
                d
                for d in choices
                if total + d + rest_min <= hi and total + d + rest_max >= lo
            ]
            d = int(pick(self.rng, feasible))
            depths.append(d)
            total += d
        return depths
