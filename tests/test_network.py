"""Network builders and cost analysis: monotonicity and determinism."""

import pytest

from repro import (
    ArchConfig,
    BlockConfig,
    RandomSampler,
    SimulatedDevice,
    build_network,
    num_kernels,
    space_by_name,
    total_flops,
    total_params,
    total_traffic_bytes,
    working_set_bytes,
    SPACE_NAMES,
)
from repro.nas.constraints import static_costs


@pytest.mark.parametrize("family", SPACE_NAMES)
def test_build_produces_positive_costs(family):
    spec = space_by_name(family)
    net = build_network(RandomSampler(spec, rng=0).sample())
    assert net.family == family
    assert len(net) > 0
    assert total_flops(net) > 0
    assert total_params(net) > 0
    assert total_traffic_bytes(net) > 0
    assert working_set_bytes(net) > 0
    assert num_kernels(net) == len(net.layers)


@pytest.mark.parametrize("family", SPACE_NAMES)
def test_builder_is_deterministic(family):
    spec = space_by_name(family)
    config = RandomSampler(spec, rng=1).sample()
    assert build_network(config) == build_network(config)


def test_deeper_config_costs_more(resnet_spec):
    shallow = resnet_spec.make_config([1] * 4, [3] * 4, [0.25] * 4)
    deep = resnet_spec.make_config([7] * 4, [3] * 4, [0.25] * 4)
    assert total_flops(build_network(deep)) > total_flops(build_network(shallow))
    assert num_kernels(build_network(deep)) > num_kernels(build_network(shallow))


def test_bigger_kernel_costs_more(resnet_spec):
    small = resnet_spec.make_config([2] * 4, [3] * 4, [0.25] * 4)
    big = resnet_spec.make_config([2] * 4, [7] * 4, [0.25] * 4)
    assert total_flops(build_network(big)) > total_flops(build_network(small))


def test_bigger_expand_costs_more(mobilenetv3_spec):
    small = mobilenetv3_spec.make_config([2] * 4, [5] * 4, [3.0] * 4)
    big = mobilenetv3_spec.make_config([2] * 4, [5] * 4, [6.0] * 4)
    assert total_flops(build_network(big)) > total_flops(build_network(small))


def test_resnet_joint_kernel_expand_interaction(resnet_spec):
    """The k x k conv runs on expand-scaled channels: joint superadditivity.

    The FLOP increase from raising the kernel must itself grow with the
    expand ratio — the interaction FCC preserves and marginal encodings
    lose.
    """

    def flops(k, e):
        return total_flops(build_network(resnet_spec.make_config([2] * 4, [k] * 4, [e] * 4)))

    gain_at_small_expand = flops(7, 0.2) - flops(3, 0.2)
    gain_at_big_expand = flops(7, 0.35) - flops(3, 0.35)
    assert gain_at_big_expand > gain_at_small_expand


def test_unknown_family_raises():
    config = ArchConfig(family="vgg", units=((BlockConfig(3),),))
    with pytest.raises(KeyError):
        build_network(config)


# ---------------------------------------------------------------------- #
# Out-of-schedule configs: a typed error naming the unit, block and field
# ---------------------------------------------------------------------- #


def _resnet_with(block, units=4):
    """Unit 1, block 1 set to ``block``; the rest a valid ResNet."""
    good = BlockConfig(3, 0.25)
    return ArchConfig(
        family="resnet",
        units=tuple((good, block) if u == 1 else (good,) for u in range(units)),
    )


_BAD_CONFIGS = {
    "resnet_5_units": (_resnet_with(BlockConfig(3, 0.25), units=5), "unit 4: resnet has 4 units"),
    "densenet_6_units": (
        ArchConfig(family="densenet", units=((BlockConfig(3),),) * 6),
        "unit 5: densenet has 5 units",
    ),
    "expand_none": (_resnet_with(BlockConfig(3, None)), "unit 1 block 1: expand_ratio"),
    "expand_nan": (_resnet_with(BlockConfig(3, float("nan"))), "unit 1 block 1: expand_ratio"),
    "expand_inf": (_resnet_with(BlockConfig(3, float("inf"))), "unit 1 block 1: expand_ratio"),
    "expand_negative": (_resnet_with(BlockConfig(3, -1.0)), "unit 1 block 1: expand_ratio"),
    "kernel_str": (_resnet_with(BlockConfig("3", 0.25)), "unit 1 block 1: kernel_size"),
    "kernel_zero": (_resnet_with(BlockConfig(0, 0.25)), "unit 1 block 1: kernel_size"),
    "kernel_negative": (_resnet_with(BlockConfig(-3, 0.25)), "unit 1 block 1: kernel_size"),
}


def _true_latency(config):
    return SimulatedDevice("rtx4090").true_latency(config)


def _measure_batch(config):
    return SimulatedDevice("rtx4090", seed=0).measure_batch([config], runs=5)


_ENTRY_POINTS = {
    "build_network": build_network,
    "true_latency": _true_latency,
    "measure_batch": _measure_batch,
    "static_costs": static_costs,
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("case", sorted(_BAD_CONFIGS))
def test_out_of_schedule_config_raises_value_error(case, entry):
    config, message = _BAD_CONFIGS[case]
    with pytest.raises(ValueError, match=message):
        _ENTRY_POINTS[entry](config)


def test_densenet_ignores_expand_ratio():
    """DenseNet has no width choice: its blocks' expand_ratio is unused."""
    plain = ArchConfig(family="densenet", units=((BlockConfig(3),),) * 5)
    odd = ArchConfig(family="densenet", units=((BlockConfig(3, float("nan")),),) * 5)
    assert build_network(odd) == build_network(plain)
