"""Whole-network cost analysis over the layer IR."""

from __future__ import annotations

from typing import Iterable, NamedTuple, Tuple

from .ir import Layer, Network

#: ``(weight bytes, largest input+output bytes)``: the two parts of the
#: working-set rule, for any run of layers.
Footprint = Tuple[float, float]

__all__ = [
    "total_flops",
    "total_params",
    "total_traffic_bytes",
    "footprint",
    "working_set",
    "working_set_bytes",
    "num_kernels",
    "NetworkCosts",
    "network_costs",
]


def total_flops(net: Network) -> float:
    """End-to-end floating point operations for one inference."""
    return sum(layer.flops for layer in net.layers)


def total_params(net: Network) -> float:
    """Total learnable parameters."""
    return sum(layer.params for layer in net.layers)


def total_traffic_bytes(net: Network) -> float:
    """Total DRAM bytes moved for one inference (unfused execution)."""
    return sum(layer.traffic_bytes for layer in net.layers)


def footprint(layers: Iterable[Layer]) -> Footprint:
    """``(weight bytes, largest input+output bytes)`` of a run of layers."""
    weights = peak_io = 0.0
    for layer in layers:
        weights += layer.weight_bytes
        io = layer.input_bytes + layer.output_bytes
        if io > peak_io:
            peak_io = io
    return weights, peak_io


def working_set(parts: Iterable[Footprint]) -> float:
    """Resident bytes competing for cache, from the parts' footprints.

    Model weights are touched once per inference and stay hot across the
    run loop, so the whole parameter footprint counts; activations
    contribute their single largest producer/consumer pair.  A part is
    any run of layers (one block, or the whole network), so the rule
    composes: the working set of a network is that of its blocks'
    footprints.  Every byte count is an integer-valued float below 2**53,
    so the result is exact in any order.
    """
    weights = peak_io = 0.0
    for part_weights, part_peak_io in parts:
        weights += part_weights
        if part_peak_io > peak_io:
            peak_io = part_peak_io
    return weights + peak_io


def working_set_bytes(net: Network) -> float:
    """Resident bytes competing for cache during one inference."""
    return working_set((footprint(net.layers),))


def num_kernels(net: Network) -> int:
    """Number of launched kernels (all IR layers launch exactly one)."""
    return len(net.layers)


class NetworkCosts(NamedTuple):
    """The static per-inference cost summary of one lowered network.

    This is the deployment-budget view of an architecture — the quantities
    a `repro.nas.constraints.SearchConstraints` budget is written against —
    collected in one call so constraint evaluation does not re-walk the
    layer list once per budget axis.
    """

    flops: float
    params: float
    traffic_bytes: float
    working_set_bytes: float
    num_kernels: int


def network_costs(net: Network) -> NetworkCosts:
    """All static cost totals of ``net``: one pass for the sums, plus the
    working-set rule."""
    flops = params = traffic = 0.0
    for layer in net.layers:
        flops += layer.flops
        params += layer.params
        traffic += layer.traffic_bytes
    return NetworkCosts(
        flops=flops,
        params=params,
        traffic_bytes=traffic,
        working_set_bytes=working_set_bytes(net),
        num_kernels=len(net.layers),
    )
