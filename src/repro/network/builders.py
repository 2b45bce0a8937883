"""Lower an `ArchConfig` to the concrete layer IR, per family.

Lowering is one *block walk* per family: `block_walk` lists, per block,
its name and a hashable key holding the local values the block's layers
are a pure function of (input/middle/output channels, spatial size,
stride, kernel, and the downsample/residual flag); `lower_block` turns
one key into that block's layers.  `build_network` concatenates them,
for the whole walk or for a chosen subset of its blocks.
Because a block's layers depend only on its key, a consumer can lower a
key once and reuse the result wherever it recurs -- the simulator keeps
one compact roofline row per key this way.  The walk also validates the
config (unit count, kernel sizes, expand ratios) with a `ValueError`
naming the offending unit, block and field.

Channel/stride schedules follow the usual published macro-architectures
(224x224 input).  The cost structure the simulator and encodings rely on
falls straight out of the arithmetic:

* ResNet bottleneck: the k x k middle conv runs on ``mid = round(C * e)``
  channels, so its FLOPs scale with ``k^2 * e^2`` — a strong *joint*
  kernel-expand interaction.
* MobileNetV3 MBConv: the two pointwise convs (cost ~ ``e``) dominate and
  the kernel only enters the cheap depthwise conv — a weak interaction.
* DenseNet-BC: one kernel per unit and channel counts that grow across a
  unit, so per-block cost depends on cross-block context.
"""

from __future__ import annotations

import math
import numbers
from itertools import chain
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

from ..archspace.config import ArchConfig
from .ir import Layer, Network

__all__ = ["build_network", "block_walk", "lower_block", "BUILDER_FAMILIES"]

_BYTES = 4  # fp32

#: ``(kind, *local values)``: everything one block's layers depend on.
BlockKey = Tuple


def _conv(
    name: str,
    cin: int,
    cout: int,
    k: int,
    spatial_in: int,
    stride: int = 1,
    groups: int = 1,
) -> Layer:
    spatial_out = max(1, spatial_in // stride)
    out_elems = cout * spatial_out * spatial_out
    flops = 2.0 * out_elems * (cin // groups) * k * k
    params = float(cout * (cin // groups) * k * k)
    return Layer(
        name=name,
        kind="dwconv" if groups == cin and cin == cout and groups > 1 else "conv",
        flops=flops,
        params=params,
        input_bytes=float(cin * spatial_in * spatial_in * _BYTES),
        output_bytes=float(out_elems * _BYTES),
        weight_bytes=params * _BYTES,
        out_elems=out_elems,
    )


def _pool(name: str, channels: int, spatial_in: int, stride: int = 2) -> Layer:
    spatial_out = max(1, spatial_in // stride)
    out_elems = channels * spatial_out * spatial_out
    return Layer(
        name=name,
        kind="pool",
        flops=float(out_elems * stride * stride),
        params=0.0,
        input_bytes=float(channels * spatial_in * spatial_in * _BYTES),
        output_bytes=float(out_elems * _BYTES),
        weight_bytes=0.0,
        out_elems=out_elems,
    )


def _eltwise(name: str, channels: int, spatial: int) -> Layer:
    elems = channels * spatial * spatial
    return Layer(
        name=name,
        kind="eltwise",
        flops=float(elems),
        params=0.0,
        input_bytes=float(2 * elems * _BYTES),
        output_bytes=float(elems * _BYTES),
        weight_bytes=0.0,
        out_elems=elems,
    )


def _concat(name: str, cin_a: int, cin_b: int, spatial: int) -> Layer:
    elems = (cin_a + cin_b) * spatial * spatial
    return Layer(
        name=name,
        kind="concat",
        flops=0.0,
        params=0.0,
        input_bytes=float(elems * _BYTES),
        output_bytes=float(elems * _BYTES),
        weight_bytes=0.0,
        out_elems=elems,
    )


def _linear(name: str, cin: int, cout: int) -> Layer:
    params = float(cin * cout)
    return Layer(
        name=name,
        kind="linear",
        flops=2.0 * cin * cout,
        params=params,
        input_bytes=float(cin * _BYTES),
        output_bytes=float(cout * _BYTES),
        weight_bytes=params * _BYTES,
        out_elems=cout,
    )


# ---------------------------------------------------------------------- #
# Per-block lowering: a block's layers from its key alone
# ---------------------------------------------------------------------- #


def _resnet_stem(name: str) -> Tuple[Layer, ...]:
    return (
        _conv(f"{name}.conv", 3, 64, 7, 224, stride=2),
        _pool(f"{name}.pool", 64, 112),
    )


def _resnet_bottleneck(
    name: str, cin: int, mid: int, cout: int, k: int, spatial: int, stride: int, downsample: bool
) -> Tuple[Layer, ...]:
    spatial_out = max(1, spatial // stride)
    layers = [
        _conv(f"{name}.conv1", cin, mid, 1, spatial),
        _conv(f"{name}.conv2", mid, mid, k, spatial, stride=stride),
        _conv(f"{name}.conv3", mid, cout, 1, spatial_out),
    ]
    if downsample:
        layers.append(_conv(f"{name}.downsample", cin, cout, 1, spatial, stride=stride))
    layers.append(_eltwise(f"{name}.add", cout, spatial_out))
    return tuple(layers)


def _resnet_head(name: str, cin: int, spatial: int) -> Tuple[Layer, ...]:
    return (
        _pool(f"{name}.avgpool", cin, spatial, stride=spatial),
        _linear(f"{name}.fc", cin, 1000),
    )


def _mobilenetv3_stem(name: str) -> Tuple[Layer, ...]:
    return (_conv(f"{name}.conv", 3, 16, 3, 224, stride=2),)


def _mobilenetv3_mbconv(
    name: str, cin: int, hidden: int, cout: int, k: int, spatial: int, stride: int, residual: bool
) -> Tuple[Layer, ...]:
    spatial_out = max(1, spatial // stride)
    layers = [
        _conv(f"{name}.expand", cin, hidden, 1, spatial),
        _conv(f"{name}.dwconv", hidden, hidden, k, spatial, stride=stride, groups=hidden),
        _conv(f"{name}.project", hidden, cout, 1, spatial_out),
    ]
    if residual:
        layers.append(_eltwise(f"{name}.add", cout, spatial_out))
    return tuple(layers)


def _mobilenetv3_head(name: str, cin: int, spatial: int) -> Tuple[Layer, ...]:
    return (
        _conv(f"{name}.conv", cin, 960, 1, spatial),
        _pool(f"{name}.avgpool", 960, spatial, stride=spatial),
        _linear(f"{name}.fc", 960, 1000),
    )


_DENSE_GROWTH = 32
_DENSE_BOTTLENECK = 4 * _DENSE_GROWTH


def _densenet_dense(name: str, cin: int, spatial: int, k: int) -> Tuple[Layer, ...]:
    return (
        _conv(f"{name}.bottleneck", cin, _DENSE_BOTTLENECK, 1, spatial),
        _conv(f"{name}.conv", _DENSE_BOTTLENECK, _DENSE_GROWTH, k, spatial),
        _concat(f"{name}.concat", cin, _DENSE_GROWTH, spatial),
    )


def _densenet_transition(name: str, cin: int, spatial: int) -> Tuple[Layer, ...]:
    cout = cin // 2
    return (
        _conv(f"{name}.conv", cin, cout, 1, spatial),
        _pool(f"{name}.pool", cout, spatial),
    )


_LOWERINGS: Dict[str, Callable[..., Tuple[Layer, ...]]] = {
    "resnet.stem": _resnet_stem,
    "resnet.bottleneck": _resnet_bottleneck,
    "resnet.head": _resnet_head,
    "mobilenetv3.stem": _mobilenetv3_stem,
    "mobilenetv3.mbconv": _mobilenetv3_mbconv,
    "mobilenetv3.head": _mobilenetv3_head,
    "densenet.stem": _resnet_stem,  # same 7x7 stem + max-pool as ResNet
    "densenet.dense": _densenet_dense,
    "densenet.transition": _densenet_transition,
    "densenet.head": _resnet_head,  # global pool + fc, as ResNet
}


def lower_block(name: str, key: BlockKey) -> Tuple[Layer, ...]:
    """The layers of one block, named ``{name}.<layer>``, from its key."""
    return _LOWERINGS[key[0]](name, *key[1:])


# ---------------------------------------------------------------------- #
# Block walks: one per family
# ---------------------------------------------------------------------- #


def _is_int(value) -> bool:
    # The exact-type test is the fast path; bools are never sizes.
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


def _is_real(value) -> bool:
    return type(value) is float or (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
    )


def _checked_units(config: ArchConfig, n_units: int, uses_expand: bool):
    """``config.units`` after checking it fits the family's schedule."""
    if config.num_units > n_units:
        raise ValueError(
            f"unit {n_units}: {config.family} has {n_units} units, "
            f"config has {config.num_units}"
        )
    for u, blocks in enumerate(config.units):
        for b, block in enumerate(blocks):
            k = block.kernel_size
            if not (_is_int(k) and k > 0):
                raise ValueError(
                    f"unit {u} block {b}: kernel_size must be a positive int, got {k!r}"
                )
            e = block.expand_ratio
            if uses_expand and not (_is_real(e) and math.isfinite(e) and e > 0):
                raise ValueError(
                    f"unit {u} block {b}: expand_ratio must be a finite "
                    f"number > 0, got {e!r}"
                )
    return config.units


def _walk_resnet(config: ArchConfig) -> Iterator[Tuple[str, BlockKey]]:
    """ResNet with elastic bottleneck blocks (stem -> 4 units -> head)."""
    unit_channels = (256, 512, 1024, 2048)
    unit_strides = (1, 2, 2, 2)
    units = _checked_units(config, len(unit_channels), uses_expand=True)
    yield "stem", ("resnet.stem",)
    cin, spatial = 64, 56
    for u, blocks in enumerate(units):
        cout = unit_channels[u]
        for b, block in enumerate(blocks):
            stride = unit_strides[u] if b == 0 else 1
            mid = max(8, int(round(cout * block.expand_ratio)))
            downsample = b == 0 and (stride != 1 or cin != cout)
            yield f"unit{u}.block{b}", (
                "resnet.bottleneck", cin, mid, cout, block.kernel_size, spatial, stride, downsample
            )
            cin, spatial = cout, max(1, spatial // stride)
    yield "head", ("resnet.head", cin, spatial)


def _walk_mobilenetv3(config: ArchConfig) -> Iterator[Tuple[str, BlockKey]]:
    """MobileNetV3 with elastic MBConv blocks (stem -> 4 units -> head)."""
    unit_channels = (24, 40, 80, 160)
    unit_strides = (2, 2, 2, 2)
    units = _checked_units(config, len(unit_channels), uses_expand=True)
    yield "stem", ("mobilenetv3.stem",)
    cin, spatial = 16, 112
    for u, blocks in enumerate(units):
        cout = unit_channels[u]
        for b, block in enumerate(blocks):
            stride = unit_strides[u] if b == 0 else 1
            hidden = max(8, int(round(cin * block.expand_ratio)))
            residual = stride == 1 and cin == cout
            yield f"unit{u}.block{b}", (
                "mobilenetv3.mbconv", cin, hidden, cout, block.kernel_size, spatial, stride, residual
            )
            cin, spatial = cout, max(1, spatial // stride)
    yield "head", ("mobilenetv3.head", cin, spatial)


def _walk_densenet(config: ArchConfig) -> Iterator[Tuple[str, BlockKey]]:
    """DenseNet-BC with elastic dense units (stem -> 5 units -> head)."""
    unit_spatials = (56, 28, 14, 7, 4)
    units = _checked_units(config, len(unit_spatials), uses_expand=False)
    yield "stem", ("densenet.stem",)
    cin = 64
    for u, blocks in enumerate(units):
        spatial = unit_spatials[u]
        for b, block in enumerate(blocks):
            yield f"unit{u}.block{b}", ("densenet.dense", cin, spatial, block.kernel_size)
            cin += _DENSE_GROWTH
        if u < len(units) - 1:
            yield f"transition{u}", ("densenet.transition", cin, spatial)
            cin //= 2
    yield "head", ("densenet.head", cin, unit_spatials[-1])


_WALKS = {
    "resnet": _walk_resnet,
    "mobilenetv3": _walk_mobilenetv3,
    "densenet": _walk_densenet,
}

BUILDER_FAMILIES = tuple(_WALKS)


def block_walk(config: ArchConfig) -> Tuple[Tuple[str, BlockKey], ...]:
    """Every block of ``config`` in execution order, as ``(name, key)``.

    Raises `ValueError` for a config outside its family's schedule and
    `KeyError` for an unknown family -- before anything is lowered.
    """
    try:
        walk = _WALKS[config.family]
    except KeyError:
        raise KeyError(
            f"no builder for family {config.family!r}; available: {', '.join(BUILDER_FAMILIES)}"
        ) from None
    return tuple(walk(config))


def build_network(
    config: ArchConfig, blocks: Optional[Sequence[Tuple[str, BlockKey]]] = None
) -> Network:
    """Lower an architecture configuration to its layer IR.

    ``blocks``, if given, are ``(name, key)`` pairs taken from
    ``block_walk(config)``: only they are lowered, in the order given,
    and the result holds just their layers.  This is how a consumer that
    memoises per block (the simulator's roofline rows) lowers the blocks
    it has not seen yet; each block's layers are the consecutive run named
    ``{name}.<layer>``.
    """
    if blocks is None:
        blocks = block_walk(config)
    return Network(
        family=config.family,
        layers=tuple(chain.from_iterable(lower_block(n, k) for n, k in blocks)),
    )
