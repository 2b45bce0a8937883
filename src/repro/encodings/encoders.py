"""Architecture encodings: the paper's FCC/FC plus the SoTA baselines.

Every encoding maps an `ArchConfig` to a fixed-length float vector whose
length depends only on the `SpaceSpec`:

* **onehot** — per-unit depth one-hot plus a one-hot over the joint
  (kernel, expand) choice for every block slot (zeros where absent).
  Injective but very long.
* **feature** — per-unit normalised depth plus normalised (kernel, expand)
  numerics per block slot.
* **statistical** — HAT-style summary: per unit ``[depth, mean_k, std_k,
  mean_e, std_e]``.  Collapses the joint (kernel, expand) distribution to
  marginal moments, so configurations with very different latencies can
  collide.
* **fc** (paper) — per-unit *marginal* counts of each kernel value and
  each expand value.
* **fcc** (paper) — per-unit counts of each *joint* (kernel, expand)
  combination; keeps exactly the information a block-additive latency
  function needs.

Families without an expansion dimension (DenseNet) are handled by treating
``expand_ratio=None`` as a single dummy choice.

``encode_batch`` is the hot path of predictor training inside the ESM
loop, so every encoder vectorizes it: one flattening pass gathers every
block of the batch into index arrays (`_BlockTable`), and the encoding is
then materialised with a handful of fancy-indexing / ``np.add.at``
operations on the preallocated ``(n, length)`` matrix.  ``encode`` is a
one-config batch, so each encoding has exactly one implementation; the
per-config reference loops live in ``tests/test_encodings.py`` as the
oracle the batch path is checked against.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..archspace.config import ArchConfig
from ..archspace.spaces import SpaceSpec

__all__ = [
    "Encoding",
    "OneHotEncoding",
    "FeatureEncoding",
    "StatisticalEncoding",
    "FCEncoding",
    "FCCEncoding",
]


def _expand_choices(spec: SpaceSpec) -> Tuple[Optional[float], ...]:
    return spec.expand_choices if spec.expand_choices is not None else (None,)


@lru_cache(maxsize=64)
def _spec_tables(spec: SpaceSpec):
    """Per-spec lookup state shared by every `_BlockTable` built against it.

    `SpaceSpec` is a frozen dataclass, so the joint (kernel, expand) lookup
    table and the depth-membership set are pure functions of it.  Memoizing
    them means a serving path flushing thousands of micro-batches per
    second rebuilds neither dict per call.
    """
    n_expand = len(_expand_choices(spec))
    joint_lut = {
        (k, e): ki * n_expand + ei
        for ki, k in enumerate(spec.kernel_choices)
        for ei, e in enumerate(_expand_choices(spec))
    }
    return n_expand, joint_lut, frozenset(spec.depth_choices)


def _reject(config: ArchConfig, spec: SpaceSpec) -> None:
    raise ValueError(
        f"config (family={config.family!r}) is not a member of the "
        f"{spec.family!r} space"
    )


def config_rows(config: ArchConfig, spec: SpaceSpec):
    """``(depths_row, unit_idx, pos_idx, joint_idx)`` arrays for one config.

    Validates space membership along the way (this is the only walk over
    the config's blocks), and memoizes the result on the config instance
    keyed by the *identity* of ``spec``: encoders, the serving path, and
    the dataset pipeline all pass one long-lived `SpaceSpec` instance, so
    the identity check is a pointer compare instead of hashing the spec's
    nested tuples per lookup.  A different spec instance simply rebuilds
    (and re-validates) the rows.  The index rows are small ``np.intp``
    arrays, so a batch assembles with ``np.concatenate`` instead of
    re-walking Python tuples per flush.
    """
    memo = config.__dict__.get("_block_rows")
    if memo is not None and memo[0] is spec:
        return memo[1]
    n_expand, joint_lut, depth_ok = _spec_tables(spec)
    # `cache_key()[1]` is the per-unit (kernel, expand) tuples in exactly
    # joint_lut's key shape, memoized on the config — the loop below runs
    # on flat primitives, never touching the nested `BlockConfig` objects.
    units_ke = config.cache_key()[1]
    if config.family != spec.family or len(units_ke) != spec.num_units:
        _reject(config, spec)
    uniform = spec.uniform_kernel
    row: List[int] = []
    unit: List[int] = []
    pos: List[int] = []
    joint: List[int] = []
    for u, blocks_ke in enumerate(units_ke):
        d = len(blocks_ke)
        if d not in depth_ok:
            _reject(config, spec)
        if uniform and len({k for k, _ in blocks_ke}) != 1:
            _reject(config, spec)
        row.append(d)
        unit.extend(repeat(u, d))
        pos.extend(range(d))
        try:
            joint.extend(joint_lut[ke] for ke in blocks_ke)
        except KeyError:
            _reject(config, spec)
    rows = (
        np.asarray(row, dtype=np.intp),
        np.asarray(unit, dtype=np.intp),
        np.asarray(pos, dtype=np.intp),
        np.asarray(joint, dtype=np.intp),
    )
    object.__setattr__(config, "_block_rows", (spec, rows))
    return rows


class _BlockTable:
    """Every block of a batch, flattened into parallel index arrays.

    One Python pass over the configs produces integer arrays (``cfg``,
    ``unit``, ``pos``, ``kidx``, ``eidx``) of length total-blocks plus the
    per-config depth matrix; all five encoders then vectorize over these
    with numpy scatter operations.  Space membership is validated inline
    during the same pass (an out-of-space choice simply misses the lookup
    tables), so the batch never needs a second `spec.contains` sweep.
    """

    def __init__(self, configs: Sequence[ArchConfig], spec: SpaceSpec):
        num_units = spec.num_units
        n = len(configs)
        depth_rows = []
        unit_rows = []
        pos_rows = []
        joint_rows = []
        counts = np.empty(n, dtype=np.intp)
        for i, config in enumerate(configs):
            row, unit_r, pos_r, joint_r = config_rows(config, spec)
            depth_rows.append(row)
            unit_rows.append(unit_r)
            pos_rows.append(pos_r)
            joint_rows.append(joint_r)
            counts[i] = len(joint_r)
        n_expand = self.n_expand = len(_expand_choices(spec))
        if n:
            self.cfg = np.repeat(np.arange(n, dtype=np.intp), counts)
            self.unit = np.concatenate(unit_rows)
            self.pos = np.concatenate(pos_rows)
            self.joint = np.concatenate(joint_rows)
        else:
            self.cfg = self.unit = self.pos = self.joint = np.empty(
                0, dtype=np.intp
            )
        self.kidx = self.joint // n_expand
        self.eidx = self.joint - self.kidx * n_expand
        self.depths = (
            np.vstack(depth_rows)
            if n
            else np.empty((0, num_units), dtype=np.intp)
        )

    def kernel_values(self, spec: SpaceSpec) -> np.ndarray:
        return np.asarray(spec.kernel_choices, dtype=float)[self.kidx]

    def expand_values(self, spec: SpaceSpec) -> np.ndarray:
        """Per-block expand ratios; only valid when the space has them."""
        return np.asarray(spec.expand_choices, dtype=float)[self.eidx]


class Encoding:
    """Base class: subclasses implement `length` and `encode_batch`."""

    name: str = "base"

    def length(self, spec: SpaceSpec) -> int:
        raise NotImplementedError

    def encode_batch(self, configs: Sequence[ArchConfig], spec: SpaceSpec) -> np.ndarray:
        """``(n, length)`` feature matrix; rejects configs outside ``spec``."""
        raise NotImplementedError

    def encode(self, config: ArchConfig, spec: SpaceSpec) -> np.ndarray:
        return self.encode_batch([config], spec)[0]


class OneHotEncoding(Encoding):
    name = "onehot"

    def length(self, spec: SpaceSpec) -> int:
        n_joint = len(spec.kernel_choices) * len(_expand_choices(spec))
        return spec.num_units * (len(spec.depth_choices) + spec.max_depth * n_joint)

    def encode_batch(self, configs: Sequence[ArchConfig], spec: SpaceSpec) -> np.ndarray:
        table = _BlockTable(configs, spec)
        n_expand = len(_expand_choices(spec))
        n_joint = len(spec.kernel_choices) * n_expand
        n_depth = len(spec.depth_choices)
        unit_len = n_depth + spec.max_depth * n_joint
        out = np.zeros((len(configs), self.length(spec)))
        if not configs:
            return out
        depth_lut = {d: i for i, d in enumerate(spec.depth_choices)}
        depth_idx = np.vectorize(depth_lut.__getitem__, otypes=[np.intp])(
            table.depths
        )
        unit_base = np.arange(spec.num_units, dtype=np.intp) * unit_len
        rows = np.arange(len(configs), dtype=np.intp)[:, None]
        out[rows, unit_base[None, :] + depth_idx] = 1.0
        cols = table.unit * unit_len + n_depth + table.pos * n_joint + table.joint
        out[table.cfg, cols] = 1.0
        return out


class FeatureEncoding(Encoding):
    name = "feature"

    def length(self, spec: SpaceSpec) -> int:
        return spec.num_units * (1 + 2 * spec.max_depth)

    def encode_batch(self, configs: Sequence[ArchConfig], spec: SpaceSpec) -> np.ndarray:
        table = _BlockTable(configs, spec)
        k_max = max(spec.kernel_choices)
        unit_len = 1 + 2 * spec.max_depth
        out = np.zeros((len(configs), self.length(spec)))
        if not configs:
            return out
        unit_base = np.arange(spec.num_units, dtype=np.intp) * unit_len
        rows = np.arange(len(configs), dtype=np.intp)[:, None]
        out[rows, unit_base[None, :]] = table.depths / spec.max_depth
        block_base = table.unit * unit_len + 1 + 2 * table.pos
        out[table.cfg, block_base] = table.kernel_values(spec) / k_max
        if spec.expand_choices is not None:
            e_max = max(spec.expand_choices)
            out[table.cfg, block_base + 1] = table.expand_values(spec) / e_max
        return out


class StatisticalEncoding(Encoding):
    name = "statistical"

    def length(self, spec: SpaceSpec) -> int:
        return spec.num_units * 5

    @staticmethod
    def _moments(
        values: np.ndarray, table: _BlockTable, depths: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-(config, unit) mean and population std of block values."""
        sums = np.zeros(depths.shape)
        np.add.at(sums, (table.cfg, table.unit), values)
        means = sums / depths
        sq = np.zeros(depths.shape)
        np.add.at(sq, (table.cfg, table.unit), (values - means[table.cfg, table.unit]) ** 2)
        return means, np.sqrt(sq / depths)

    def encode_batch(self, configs: Sequence[ArchConfig], spec: SpaceSpec) -> np.ndarray:
        table = _BlockTable(configs, spec)
        out = np.zeros((len(configs), self.length(spec)))
        if not configs:
            return out
        depths = table.depths.astype(float)
        out[:, 0::5] = depths
        mean_k, std_k = self._moments(table.kernel_values(spec), table, depths)
        out[:, 1::5] = mean_k
        out[:, 2::5] = std_k
        if spec.expand_choices is not None:
            mean_e, std_e = self._moments(table.expand_values(spec), table, depths)
            out[:, 3::5] = mean_e
            out[:, 4::5] = std_e
        return out


class FCEncoding(Encoding):
    """Feature-Count: per-unit marginal counts per feature value."""

    name = "fc"

    def length(self, spec: SpaceSpec) -> int:
        n_expand = len(spec.expand_choices) if spec.expand_choices else 0
        return spec.num_units * (len(spec.kernel_choices) + n_expand)

    def encode_batch(self, configs: Sequence[ArchConfig], spec: SpaceSpec) -> np.ndarray:
        table = _BlockTable(configs, spec)
        n_kernel = len(spec.kernel_choices)
        n_expand = len(spec.expand_choices) if spec.expand_choices else 0
        unit_len = n_kernel + n_expand
        out = np.zeros((len(configs), self.length(spec)))
        np.add.at(out, (table.cfg, table.unit * unit_len + table.kidx), 1.0)
        if n_expand:
            np.add.at(
                out, (table.cfg, table.unit * unit_len + n_kernel + table.eidx), 1.0
            )
        return out


class FCCEncoding(Encoding):
    """Feature-Combination-Count: per-unit counts per joint (kernel, expand)."""

    name = "fcc"

    def length(self, spec: SpaceSpec) -> int:
        return spec.num_units * len(spec.kernel_choices) * len(_expand_choices(spec))

    def encode_batch(self, configs: Sequence[ArchConfig], spec: SpaceSpec) -> np.ndarray:
        table = _BlockTable(configs, spec)
        n_expand = len(_expand_choices(spec))
        n_joint = len(spec.kernel_choices) * n_expand
        out = np.zeros((len(configs), self.length(spec)))
        np.add.at(out, (table.cfg, table.unit * n_joint + table.joint), 1.0)
        return out
