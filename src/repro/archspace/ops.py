"""Block-level variation operators: mutation and crossover within a space.

The evolutionary NAS driver (`repro.nas.search`) perturbs architectures at
the granularity the spaces are defined on:

* **mutation** — per unit, optionally resample the depth (growing units
  append freshly drawn blocks, shrinking ones truncate), then resample
  individual block choices; uniform-kernel families (DenseNet) mutate the
  whole unit's kernel at once so the constraint can never be violated.
* **crossover** — unit-wise uniform crossover.  Units are independently
  valid in every Table I space, so swapping whole units between two valid
  parents always yields valid children.

Both operators construct children from the spec's own choice sets and
assert membership before returning, so a search can never leave its space
regardless of parameter settings.  Children hold shared blocks
(`repro.archspace.config.shared_block`): mutation takes each block from
the table, crossover reuses its parents' units.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..utils import ensure_rng, pick
from .config import ArchConfig, shared_block
from .spaces import SpaceSpec

__all__ = ["mutate", "crossover"]


def _check_member(config: ArchConfig, spec: SpaceSpec, op: str) -> ArchConfig:
    if not spec.contains(config):  # pragma: no cover - defensive guard
        raise ValueError(f"{op} produced a config outside the {spec.family} space")
    return config


def mutate(
    config: ArchConfig,
    spec: SpaceSpec,
    rng: "int | np.random.Generator | None" = None,
    *,
    p_depth: float = 0.25,
    p_block: float = 0.2,
) -> ArchConfig:
    """A mutated copy of ``config``, guaranteed to stay inside ``spec``.

    ``p_depth`` is the per-unit probability of resampling that unit's
    depth; ``p_block`` the per-block probability of resampling a kernel or
    expand choice (per-unit for uniform-kernel families).  Draws happen in
    a fixed order, so a seeded generator reproduces the child exactly.
    """
    if not 0.0 <= p_depth <= 1.0 or not 0.0 <= p_block <= 1.0:
        raise ValueError("mutation probabilities must be in [0, 1]")
    rng = ensure_rng(rng)
    units = []
    for blocks in config.units:
        kernels: List[int] = [b.kernel_size for b in blocks]
        expands: List[Optional[float]] = [b.expand_ratio for b in blocks]

        if rng.random() < p_depth:
            depth = int(pick(rng, spec.depth_choices))
            if depth <= len(kernels):
                kernels, expands = kernels[:depth], expands[:depth]
            else:
                for _ in range(depth - len(kernels)):
                    # New blocks of a uniform-kernel unit inherit its kernel.
                    kernels.append(
                        kernels[0]
                        if spec.uniform_kernel
                        else int(pick(rng, spec.kernel_choices))
                    )
                    expands.append(
                        None
                        if spec.expand_choices is None
                        else float(pick(rng, spec.expand_choices))
                    )

        if spec.uniform_kernel:
            if rng.random() < p_block:
                kernels = [int(pick(rng, spec.kernel_choices))] * len(kernels)
        else:
            for i in range(len(kernels)):
                if rng.random() < p_block:
                    kernels[i] = int(pick(rng, spec.kernel_choices))
        if spec.expand_choices is not None:
            for i in range(len(expands)):
                if rng.random() < p_block:
                    expands[i] = float(pick(rng, spec.expand_choices))

        units.append(tuple(shared_block(k, e) for k, e in zip(kernels, expands)))
    child = ArchConfig(family=spec.family, units=tuple(units))
    return _check_member(child, spec, "mutate")


def crossover(
    a: ArchConfig,
    b: ArchConfig,
    spec: SpaceSpec,
    rng: "int | np.random.Generator | None" = None,
) -> Tuple[ArchConfig, ArchConfig]:
    """Unit-wise uniform crossover: two children from two valid parents.

    Each unit index is assigned to one parent by a coin flip; the first
    child takes the flipped pattern and the second its complement, so the
    pair jointly preserves every parental unit.
    """
    for parent in (a, b):
        if parent.family != spec.family or parent.num_units != spec.num_units:
            raise ValueError(
                f"crossover parents must belong to the {spec.family} space"
            )
    rng = ensure_rng(rng)
    take_a = rng.random(spec.num_units) < 0.5
    first = tuple(
        a.units[u] if take_a[u] else b.units[u] for u in range(spec.num_units)
    )
    second = tuple(
        b.units[u] if take_a[u] else a.units[u] for u in range(spec.num_units)
    )
    return (
        _check_member(ArchConfig(spec.family, first), spec, "crossover"),
        _check_member(ArchConfig(spec.family, second), spec, "crossover"),
    )
