"""The block-row latency kernel against the full-IR sweep it replaced.

`SimulatedDevice.true_latency` sums memoised per-block roofline rows
(`repro.network.builders.block_walk` + `lower_block`).  The oracle below
is the code it replaced, kept verbatim: the three monolithic family
builders and the device's full-IR sweep (``_cache_pressure`` +
``_analytical_latency``), with the working-set rule it called
(``working_set_bytes``) inlined so the oracle shares no helper with the
kernel.  Every comparison is exact (``==`` on floats),
over all three spaces and all four device profiles, on cold and warm
block memos, for `ArchConfig` and pre-built `Network` targets.

Run after touching ``network/`` or ``hardware/``::

    PYTHONPATH=src python -m pytest -q tests/test_latency_oracle.py tests/test_latency_bitlock.py
"""

from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hardware.roofline as roofline
import repro.hardware.simulator as simulator
import repro.network.builders as builders
from repro import (
    DEVICE_NAMES,
    ArchConfig,
    SimulatedDevice,
    build_network,
    device_by_name,
    network_costs,
    space_by_name,
)
from repro.nas.constraints import static_costs
from repro.network.builders import _concat, _conv, _eltwise, _linear, _pool
from repro.network.ir import Layer, Network

SPACES = ("resnet", "mobilenetv3", "densenet")

# ---------------------------------------------------------------------- #
# The oracle: the pre-block-walk builders and the full-IR sweep, verbatim
# ---------------------------------------------------------------------- #


def _build_resnet(config: ArchConfig) -> Network:
    """ResNet with elastic bottleneck blocks (stem -> 4 units -> head)."""
    unit_channels = (256, 512, 1024, 2048)
    unit_strides = (1, 2, 2, 2)
    layers: List[Layer] = [
        _conv("stem.conv", 3, 64, 7, 224, stride=2),
        _pool("stem.pool", 64, 112),
    ]
    cin, spatial = 64, 56
    for u, blocks in enumerate(config.units):
        cout = unit_channels[u]
        for b, block in enumerate(blocks):
            stride = unit_strides[u] if b == 0 else 1
            mid = max(8, int(round(cout * block.expand_ratio)))
            prefix = f"unit{u}.block{b}"
            layers.append(_conv(f"{prefix}.conv1", cin, mid, 1, spatial))
            layers.append(_conv(f"{prefix}.conv2", mid, mid, block.kernel_size, spatial, stride=stride))
            spatial_out = max(1, spatial // stride)
            layers.append(_conv(f"{prefix}.conv3", mid, cout, 1, spatial_out))
            if b == 0 and (stride != 1 or cin != cout):
                layers.append(_conv(f"{prefix}.downsample", cin, cout, 1, spatial, stride=stride))
            layers.append(_eltwise(f"{prefix}.add", cout, spatial_out))
            cin, spatial = cout, spatial_out
    layers.append(_pool("head.avgpool", cin, spatial, stride=spatial))
    layers.append(_linear("head.fc", cin, 1000))
    return Network(family="resnet", layers=tuple(layers))


def _build_mobilenetv3(config: ArchConfig) -> Network:
    """MobileNetV3 with elastic MBConv blocks (stem -> 4 units -> head)."""
    unit_channels = (24, 40, 80, 160)
    unit_strides = (2, 2, 2, 2)
    layers: List[Layer] = [_conv("stem.conv", 3, 16, 3, 224, stride=2)]
    cin, spatial = 16, 112
    for u, blocks in enumerate(config.units):
        cout = unit_channels[u]
        for b, block in enumerate(blocks):
            stride = unit_strides[u] if b == 0 else 1
            hidden = max(8, int(round(cin * block.expand_ratio)))
            prefix = f"unit{u}.block{b}"
            layers.append(_conv(f"{prefix}.expand", cin, hidden, 1, spatial))
            layers.append(
                _conv(f"{prefix}.dwconv", hidden, hidden, block.kernel_size, spatial, stride=stride, groups=hidden)
            )
            spatial_out = max(1, spatial // stride)
            layers.append(_conv(f"{prefix}.project", hidden, cout, 1, spatial_out))
            if stride == 1 and cin == cout:
                layers.append(_eltwise(f"{prefix}.add", cout, spatial_out))
            cin, spatial = cout, spatial_out
    layers.append(_conv("head.conv", cin, 960, 1, spatial))
    layers.append(_pool("head.avgpool", 960, spatial, stride=spatial))
    layers.append(_linear("head.fc", 960, 1000))
    return Network(family="mobilenetv3", layers=tuple(layers))


def _build_densenet(config: ArchConfig) -> Network:
    """DenseNet-BC with elastic dense units (stem -> 5 units -> head)."""
    growth = 32
    unit_spatials = (56, 28, 14, 7, 4)
    layers: List[Layer] = [
        _conv("stem.conv", 3, 64, 7, 224, stride=2),
        _pool("stem.pool", 64, 112),
    ]
    cin = 64
    for u, blocks in enumerate(config.units):
        spatial = unit_spatials[u]
        for b, block in enumerate(blocks):
            prefix = f"unit{u}.block{b}"
            bottleneck = 4 * growth
            layers.append(_conv(f"{prefix}.bottleneck", cin, bottleneck, 1, spatial))
            layers.append(_conv(f"{prefix}.conv", bottleneck, growth, block.kernel_size, spatial))
            layers.append(_concat(f"{prefix}.concat", cin, growth, spatial))
            cin += growth
        if u < len(config.units) - 1:
            cout = cin // 2
            layers.append(_conv(f"transition{u}.conv", cin, cout, 1, spatial))
            layers.append(_pool(f"transition{u}.pool", cout, spatial))
            cin = cout
    layers.append(_pool("head.avgpool", cin, unit_spatials[-1], stride=unit_spatials[-1]))
    layers.append(_linear("head.fc", cin, 1000))
    return Network(family="densenet", layers=tuple(layers))


_ORACLE_BUILDERS = {
    "resnet": _build_resnet,
    "mobilenetv3": _build_mobilenetv3,
    "densenet": _build_densenet,
}


def oracle_network(config: ArchConfig) -> Network:
    return _ORACLE_BUILDERS[config.family](config)


def _working_set_bytes(net: Network) -> float:
    weights = sum(layer.weight_bytes for layer in net.layers)
    peak_activation = max(
        (layer.input_bytes + layer.output_bytes for layer in net.layers), default=0.0
    )
    return weights + peak_activation


def _cache_pressure(profile, net: Network) -> float:
    """Slowdown multiplier for memory-bound layers (global term)."""
    working_set = _working_set_bytes(net)
    if working_set <= profile.cache_bytes:
        return 1.0
    overflow = 1.0 - profile.cache_bytes / working_set
    return 1.0 + profile.cache_penalty * overflow


def oracle_latency(profile, net: Network) -> float:
    """The full IR sweep: per-layer roofline plus the global terms."""
    pressure = _cache_pressure(profile, net)
    total = 0.0
    for layer in net.layers:
        seconds, memory_bound = roofline.layer_time(layer, profile)
        total += seconds * (pressure if memory_bound else 1.0)
    launch = profile.launch_overhead_s * len(net.layers) ** profile.launch_exponent
    return total + launch


# ---------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------- #


@st.composite
def configs(draw, family=None):
    """Any member of a Table I space, depths drawn from the whole range."""
    spec = space_by_name(family or draw(st.sampled_from(SPACES)))
    depths = [draw(st.sampled_from(spec.depth_choices)) for _ in range(spec.num_units)]
    kernels, expands = [], []
    for depth in depths:
        if spec.uniform_kernel:
            kernels.append(draw(st.sampled_from(spec.kernel_choices)))
        else:
            kernels.append([draw(st.sampled_from(spec.kernel_choices)) for _ in range(depth)])
        if spec.expand_choices is not None:
            expands.append([draw(st.sampled_from(spec.expand_choices)) for _ in range(depth)])
    return spec.make_config(depths, kernels, expands if spec.expand_choices else None)


def corner_configs(family):
    """Min and max depth with every kernel, and every expand, uniformly."""
    spec = space_by_name(family)
    expands = spec.expand_choices or (None,)
    out = []
    for depth in (spec.min_depth, spec.max_depth):
        for k in spec.kernel_choices:
            for e in expands:
                out.append(
                    spec.make_config(
                        [depth] * spec.num_units,
                        [k] * spec.num_units,
                        None if e is None else [e] * spec.num_units,
                    )
                )
    return out


# ---------------------------------------------------------------------- #
# Bit-equality
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("family", SPACES)
@pytest.mark.parametrize("device_name", DEVICE_NAMES)
def test_corners_match_the_oracle_bit_for_bit(family, device_name):
    device = SimulatedDevice(device_name)
    profile = device_by_name(device_name)
    for config in corner_configs(family):
        net = oracle_network(config)
        expected = oracle_latency(profile, net)
        assert build_network(config) == net
        assert device.true_latency(config) == expected
        assert device.true_latency(net) == expected


@settings(max_examples=60, deadline=None)
@given(config=configs(), device_name=st.sampled_from(DEVICE_NAMES))
def test_cold_memo_matches_the_oracle(config, device_name):
    profile = device_by_name(device_name)
    net = oracle_network(config)
    expected = oracle_latency(profile, net)
    assert build_network(config) == net
    assert SimulatedDevice(profile).true_latency(config) == expected
    assert SimulatedDevice(profile).true_latency(build_network(config)) == expected


@settings(max_examples=15, deadline=None)
@given(
    family=st.sampled_from(SPACES),
    device_name=st.sampled_from(DEVICE_NAMES),
    data=st.data(),
)
def test_warm_memo_matches_the_oracle(family, device_name, data):
    """Rows memoised by earlier configs sum to the same bits."""
    batch = data.draw(st.lists(configs(family), min_size=2, max_size=12))
    profile = device_by_name(device_name)
    device = SimulatedDevice(profile, cache_size=0)
    for config in batch + batch[::-1]:
        assert device.true_latency(config) == oracle_latency(profile, oracle_network(config))


def test_profile_swap_drops_the_block_rows():
    config = corner_configs("resnet")[0]
    device = SimulatedDevice("rtx4090", cache_size=0)
    device.true_latency(config)
    device.profile = device_by_name("raspberrypi4")
    expected = oracle_latency(device.profile, oracle_network(config))
    assert device.true_latency(config) == expected


@settings(max_examples=40, deadline=None)
@given(config=configs())
def test_static_costs_match_the_ir_analysis(config):
    """Cost totals are integer-valued floats below 2**53: exact in any order."""
    net = build_network(config)
    costs = network_costs(net)
    assert static_costs(config) == costs
    for layer in net.layers:
        for value in (layer.flops, layer.params, layer.traffic_bytes, layer.weight_bytes):
            assert value == int(value)
    for total in (costs.flops, costs.params, costs.traffic_bytes, costs.working_set_bytes):
        assert total == int(total) and total < 2**53


# ---------------------------------------------------------------------- #
# The profiler hook points and the row memo
# ---------------------------------------------------------------------- #


def test_simulator_keeps_the_profiler_hook_points():
    """Profilers wrap these two names on the simulator module itself."""
    assert simulator.build_network is builders.build_network
    assert simulator.layer_time is roofline.layer_time


def test_lowering_goes_through_the_hooked_build_network(monkeypatch):
    """A block-memo miss lowers the unseen blocks in one hooked call."""
    lowered = []

    def counting_build_network(config, blocks=None):
        net = builders.build_network(config, blocks)
        lowered.append(len(net.layers))
        return net

    monkeypatch.setattr(simulator, "build_network", counting_build_network)
    spec = space_by_name("resnet")
    small = spec.make_config([2] * 4, [3] * 4, [0.25] * 4)
    device = SimulatedDevice("rtx4090", cache_size=0)
    device.true_latency(small)
    keys = {key for _, key in builders.block_walk(small)}
    assert lowered == [sum(len(builders.lower_block("b", key)) for key in keys)]
    device.true_latency(small)
    assert len(lowered) == 1  # every row came from the memo
    # A new kernel in unit 0 only: its two blocks are new, the other
    # units' keys (channels, spatial size, stride) are not.
    wider = spec.make_config([2] * 4, [5, 3, 3, 3], [0.25] * 4)
    device.true_latency(wider)
    new_blocks = [
        (name, key) for name, key in builders.block_walk(wider) if key not in keys
    ]
    assert [name for name, _ in new_blocks] == ["unit0.block0", "unit0.block1"]
    assert lowered[1:] == [sum(len(builders.lower_block(n, k)) for n, k in new_blocks)]


def test_layer_time_runs_once_per_new_block_layer(monkeypatch):
    calls = []

    def counting_layer_time(layer, profile):
        calls.append(layer.kind)
        return roofline.layer_time(layer, profile)

    monkeypatch.setattr(simulator, "layer_time", counting_layer_time)
    spec = space_by_name("resnet")
    config = spec.make_config([4] * 4, [3] * 4, [0.25] * 4)  # repeated blocks
    device = SimulatedDevice("rtx4090", cache_size=0)
    first = device.true_latency(config)
    keys = {key for _, key in builders.block_walk(config)}
    n_distinct_layers = sum(len(builders.lower_block("b", key)) for key in keys)
    assert len(calls) == n_distinct_layers < len(build_network(config).layers)
    assert device.true_latency(config) == first
    assert len(calls) == n_distinct_layers  # every row came from the memo
