"""Supernet architecture spaces (the paper's Table I).

Three OFA-style spaces over a fixed macro-architecture:

* **ResNet** — 4 units, 1–7 bottleneck blocks per unit, per-block kernel
  size in {3, 5, 7} and width-expansion ratio in {0.20, 0.25, 0.35}.
* **MobileNetV3** — 4 units, 1–7 MBConv blocks per unit, per-block kernel
  size in {3, 5, 7} and expansion ratio in {3, 4, 6}.
* **DenseNet** — 5 units, 1–20 dense layers per unit, one kernel size in
  {1, 3, 5, 7, 9} shared by all blocks of a unit, no expansion choice.

Exact cardinalities (verified by tests against Table I):

* ResNet / MobileNetV3: ``(sum_{d=1..7} 9^d)^4 = 8.3830e26``
* DenseNet: ``(20 * 5)^5 = 1.0000e10``
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

from .config import ArchConfig, BlockConfig, shared_block

__all__ = [
    "SpaceSpec",
    "resnet_space",
    "mobilenetv3_space",
    "densenet_space",
    "space_by_name",
    "SPACE_NAMES",
]


@dataclass(frozen=True)
class SpaceSpec:
    """A layer/block-wise search space over a fixed macro-architecture.

    ``expand_choices is None`` means the family has no expansion dimension
    (blocks carry ``expand_ratio=None``).  ``uniform_kernel=True`` means all
    blocks of a unit share one kernel size (DenseNet).
    """

    family: str
    num_units: int
    depth_choices: Tuple[int, ...]
    kernel_choices: Tuple[int, ...]
    expand_choices: Optional[Tuple[float, ...]] = None
    uniform_kernel: bool = False

    @property
    def min_depth(self) -> int:
        return min(self.depth_choices)

    @property
    def max_depth(self) -> int:
        return max(self.depth_choices)

    @property
    def min_total_depth(self) -> int:
        return self.num_units * self.min_depth

    @property
    def max_total_depth(self) -> int:
        return self.num_units * self.max_depth

    def block_choices(self) -> Tuple[BlockConfig, ...]:
        """All distinct per-block (kernel, expand) combinations."""
        expands: Tuple[Optional[float], ...] = self.expand_choices or (None,)
        return tuple(
            BlockConfig(kernel_size=k, expand_ratio=e)
            for k in self.kernel_choices
            for e in expands
        )

    def cardinality(self) -> int:
        """Exact number of architectures in the space (integer combinatorics)."""
        per_block = len(self.block_choices())
        if self.uniform_kernel:
            per_unit = len(self.depth_choices) * per_block
        else:
            per_unit = sum(per_block**d for d in self.depth_choices)
        return per_unit**self.num_units

    def contains(self, config: ArchConfig) -> bool:
        """Whether ``config`` is a valid member of this space."""
        if config.family != self.family or config.num_units != self.num_units:
            return False
        expands: Tuple[Optional[float], ...] = self.expand_choices or (None,)
        for blocks in config.units:
            if len(blocks) not in self.depth_choices:
                return False
            for block in blocks:
                if block.kernel_size not in self.kernel_choices:
                    return False
                if block.expand_ratio not in expands:
                    return False
            if self.uniform_kernel and len({b.kernel_size for b in blocks}) != 1:
                return False
        return True

    def make_config(
        self,
        depths: Sequence[int],
        kernels: Sequence,
        expands: Optional[Sequence] = None,
    ) -> ArchConfig:
        """Build a validated `ArchConfig`.

        ``kernels``/``expands`` entries may be scalars (shared by the whole
        unit) or per-block sequences of length ``depths[u]``.
        """
        if len(depths) != self.num_units:
            raise ValueError(f"expected {self.num_units} depths, got {len(depths)}")
        if expands is None:
            expands = [None] * self.num_units

        def per_block(value, depth):
            if isinstance(value, (list, tuple)):
                if len(value) != depth:
                    raise ValueError("per-block sequence length must equal unit depth")
                return list(value)
            return [value] * depth

        units = []
        for d, ks, es in zip(depths, kernels, expands):
            ks = per_block(ks, d)
            es = per_block(es, d)
            units.append(
                tuple(
                    shared_block(int(k), None if e is None else float(e))
                    for k, e in zip(ks, es)
                )
            )
        config = ArchConfig(family=self.family, units=tuple(units))
        if not self.contains(config):
            raise ValueError(f"configuration is not a member of the {self.family} space")
        return config


# The space factories are memoized: `SpaceSpec` is frozen, so one shared
# instance per family is safe, and the identity-keyed caches downstream
# (`encoder_for`, the per-config block-row memo in `repro.encodings`) hit
# across every caller instead of once per freshly built spec.
@lru_cache(maxsize=None)
def resnet_space() -> SpaceSpec:
    """Table I ResNet space: 8.3830e26 architectures."""
    return SpaceSpec(
        family="resnet",
        num_units=4,
        depth_choices=tuple(range(1, 8)),
        kernel_choices=(3, 5, 7),
        expand_choices=(0.2, 0.25, 0.35),
    )


@lru_cache(maxsize=None)
def mobilenetv3_space() -> SpaceSpec:
    """Table I MobileNetV3 space: 8.3830e26 architectures."""
    return SpaceSpec(
        family="mobilenetv3",
        num_units=4,
        depth_choices=tuple(range(1, 8)),
        kernel_choices=(3, 5, 7),
        expand_choices=(3.0, 4.0, 6.0),
    )


@lru_cache(maxsize=None)
def densenet_space() -> SpaceSpec:
    """Table I DenseNet space: 1.0000e10 architectures."""
    return SpaceSpec(
        family="densenet",
        num_units=5,
        depth_choices=tuple(range(1, 21)),
        kernel_choices=(1, 3, 5, 7, 9),
        expand_choices=None,
        uniform_kernel=True,
    )


_SPACE_FACTORIES: Dict[str, "type(resnet_space)"] = {
    "resnet": resnet_space,
    "mobilenetv3": mobilenetv3_space,
    "densenet": densenet_space,
}

SPACE_NAMES: Tuple[str, ...] = tuple(_SPACE_FACTORIES)


def space_by_name(name: str) -> SpaceSpec:
    """Look up a Table I space by family name."""
    try:
        return _SPACE_FACTORIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown space {name!r}; available: {', '.join(SPACE_NAMES)}"
        ) from None
