"""Encodings: registry, vector lengths, and the FCC/FC count invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    RandomSampler,
    SPACE_NAMES,
    get_encoding,
    list_encodings,
    space_by_name,
)

ALL_ENCODINGS = ("onehot", "feature", "statistical", "fc", "fcc")


def test_registry_lists_all_five():
    assert set(list_encodings()) == set(ALL_ENCODINGS)


def test_unknown_encoding_raises():
    with pytest.raises(KeyError):
        get_encoding("gcn")


@pytest.mark.parametrize("family", SPACE_NAMES)
@pytest.mark.parametrize("name", ALL_ENCODINGS)
def test_vector_length_matches_spec(family, name):
    spec = space_by_name(family)
    encoding = get_encoding(name)
    for config in RandomSampler(spec, rng=0).sample_batch(10):
        assert encoding.encode(config, spec).shape == (encoding.length(spec),)


def test_expected_lengths_resnet(resnet_spec):
    # U=4, D=7 depth choices, Dmax=7, K=3, E=3.
    assert get_encoding("onehot").length(resnet_spec) == 4 * (7 + 7 * 9)
    assert get_encoding("feature").length(resnet_spec) == 4 * (1 + 2 * 7)
    assert get_encoding("statistical").length(resnet_spec) == 4 * 5
    assert get_encoding("fc").length(resnet_spec) == 4 * (3 + 3)
    assert get_encoding("fcc").length(resnet_spec) == 4 * 9


def test_expected_lengths_densenet(densenet_spec):
    # U=5, K=5, no expansion dimension.
    assert get_encoding("fc").length(densenet_spec) == 5 * 5
    assert get_encoding("fcc").length(densenet_spec) == 5 * 5
    assert get_encoding("statistical").length(densenet_spec) == 5 * 5


@pytest.mark.parametrize("family", SPACE_NAMES)
def test_fcc_counts_sum_to_unit_depths(family):
    spec = space_by_name(family)
    encoding = get_encoding("fcc")
    per_unit = encoding.length(spec) // spec.num_units
    for config in RandomSampler(spec, rng=1).sample_batch(20):
        vec = encoding.encode(config, spec).reshape(spec.num_units, per_unit)
        assert tuple(int(s) for s in vec.sum(axis=1)) == config.depths


@pytest.mark.parametrize("family", SPACE_NAMES)
def test_fc_counts_sum_to_unit_depths_per_feature(family):
    spec = space_by_name(family)
    encoding = get_encoding("fc")
    n_kernel = len(spec.kernel_choices)
    per_unit = encoding.length(spec) // spec.num_units
    for config in RandomSampler(spec, rng=2).sample_batch(20):
        vec = encoding.encode(config, spec).reshape(spec.num_units, per_unit)
        kernel_sums = vec[:, :n_kernel].sum(axis=1)
        assert tuple(int(s) for s in kernel_sums) == config.depths
        if spec.expand_choices is not None:
            expand_sums = vec[:, n_kernel:].sum(axis=1)
            assert tuple(int(s) for s in expand_sums) == config.depths


def test_fcc_determines_fc(resnet_spec):
    """FC is the marginalisation of FCC: summing joint counts over one axis
    must reproduce the marginal counts exactly."""
    spec = resnet_spec
    fcc, fc = get_encoding("fcc"), get_encoding("fc")
    n_k, n_e = len(spec.kernel_choices), len(spec.expand_choices)
    for config in RandomSampler(spec, rng=3).sample_batch(20):
        joint = fcc.encode(config, spec).reshape(spec.num_units, n_k, n_e)
        marginal = fc.encode(config, spec).reshape(spec.num_units, n_k + n_e)
        np.testing.assert_array_equal(joint.sum(axis=2), marginal[:, :n_k])
        np.testing.assert_array_equal(joint.sum(axis=1), marginal[:, n_k:])


def test_onehot_is_injective(resnet_spec):
    encoding = get_encoding("onehot")
    configs = RandomSampler(resnet_spec, rng=4).sample_batch(200)
    distinct = set(configs)
    vectors = {tuple(encoding.encode(c, resnet_spec)) for c in distinct}
    assert len(vectors) == len(distinct)


def test_statistical_collides_joint_permutations(resnet_spec):
    """Re-pairing kernels and expands within a unit preserves the marginal
    summary — the information loss the paper's FCC encoding avoids."""
    spec = resnet_spec
    a = spec.make_config([2] * 4, [[3, 7]] * 4, [[0.2, 0.35]] * 4)
    b = spec.make_config([2] * 4, [[3, 7]] * 4, [[0.35, 0.2]] * 4)
    stat = get_encoding("statistical")
    np.testing.assert_allclose(stat.encode(a, spec), stat.encode(b, spec))
    fcc = get_encoding("fcc")
    assert not np.array_equal(fcc.encode(a, spec), fcc.encode(b, spec))


def test_encode_batch_stacks_rows(resnet_spec):
    encoding = get_encoding("fcc")
    configs = RandomSampler(resnet_spec, rng=5).sample_batch(7)
    X = encoding.encode_batch(configs, resnet_spec)
    assert X.shape == (7, encoding.length(resnet_spec))
    np.testing.assert_array_equal(X[3], encoding.encode(configs[3], resnet_spec))


def test_encoding_rejects_foreign_config(resnet_spec, densenet_spec):
    config = RandomSampler(densenet_spec, rng=0).sample()
    with pytest.raises(ValueError):
        get_encoding("fcc").encode(config, resnet_spec)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_property_count_invariants(data):
    """Hypothesis: for any sampled config of any family, FCC/FC counts sum
    to the blocks per unit."""
    spec = space_by_name(data.draw(st.sampled_from(SPACE_NAMES)))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    config = RandomSampler(spec, rng=seed).sample()
    fcc_vec = get_encoding("fcc").encode(config, spec)
    per_unit = fcc_vec.size // spec.num_units
    sums = fcc_vec.reshape(spec.num_units, per_unit).sum(axis=1)
    assert tuple(int(s) for s in sums) == config.depths
    assert int(fcc_vec.sum()) == config.total_blocks


# --------------------------------------------------------------------- #
# Reference oracle: one plain loop per encoding over a single config's
# blocks, kept only to check the vectorized `encode_batch` against.
# --------------------------------------------------------------------- #


def _expands(spec):
    return spec.expand_choices if spec.expand_choices is not None else (None,)


def _joint_index(block, spec):
    expands = _expands(spec)
    return spec.kernel_choices.index(block.kernel_size) * len(
        expands
    ) + expands.index(block.expand_ratio)


def _ref_onehot(config, spec, length):
    n_joint = len(spec.kernel_choices) * len(_expands(spec))
    unit_len = len(spec.depth_choices) + spec.max_depth * n_joint
    vec = np.zeros(length)
    for u, blocks in enumerate(config.units):
        base = u * unit_len
        vec[base + spec.depth_choices.index(len(blocks))] = 1.0
        for b, block in enumerate(blocks):
            joint = _joint_index(block, spec)
            vec[base + len(spec.depth_choices) + b * n_joint + joint] = 1.0
    return vec


def _ref_feature(config, spec, length):
    k_max = max(spec.kernel_choices)
    e_max = max(spec.expand_choices) if spec.expand_choices else 1.0
    unit_len = 1 + 2 * spec.max_depth
    vec = np.zeros(length)
    for u, blocks in enumerate(config.units):
        base = u * unit_len
        vec[base] = len(blocks) / spec.max_depth
        for b, block in enumerate(blocks):
            vec[base + 1 + 2 * b] = block.kernel_size / k_max
            if block.expand_ratio is not None:
                vec[base + 2 + 2 * b] = block.expand_ratio / e_max
    return vec


def _ref_statistical(config, spec, length):
    vec = np.zeros(length)
    for u, blocks in enumerate(config.units):
        kernels = np.array([b.kernel_size for b in blocks], dtype=float)
        base = u * 5
        vec[base] = len(blocks)
        vec[base + 1] = kernels.mean()
        vec[base + 2] = kernels.std()
        if spec.expand_choices is not None:
            expands = np.array([b.expand_ratio for b in blocks], dtype=float)
            vec[base + 3] = expands.mean()
            vec[base + 4] = expands.std()
    return vec


def _ref_fc(config, spec, length):
    n_kernel = len(spec.kernel_choices)
    n_expand = len(spec.expand_choices) if spec.expand_choices else 0
    unit_len = n_kernel + n_expand
    vec = np.zeros(length)
    for u, blocks in enumerate(config.units):
        base = u * unit_len
        for block in blocks:
            vec[base + spec.kernel_choices.index(block.kernel_size)] += 1.0
            if n_expand:
                vec[
                    base + n_kernel + spec.expand_choices.index(block.expand_ratio)
                ] += 1.0
    return vec


def _ref_fcc(config, spec, length):
    n_joint = len(spec.kernel_choices) * len(_expands(spec))
    vec = np.zeros(length)
    for u, blocks in enumerate(config.units):
        for block in blocks:
            vec[u * n_joint + _joint_index(block, spec)] += 1.0
    return vec


REFERENCE = {
    "onehot": _ref_onehot,
    "feature": _ref_feature,
    "statistical": _ref_statistical,
    "fc": _ref_fc,
    "fcc": _ref_fcc,
}


def reference_batch(name, configs, spec):
    """Stack the per-config reference vectors into an ``(n, length)`` matrix."""
    length = get_encoding(name).length(spec)
    out = np.zeros((len(configs), length))
    for i, config in enumerate(configs):
        assert spec.contains(config)
        out[i] = REFERENCE[name](config, spec, length)
    return out


@pytest.mark.parametrize("family", SPACE_NAMES)
@pytest.mark.parametrize("name", ALL_ENCODINGS)
def test_encode_batch_matches_loop(family, name):
    """The vectorized encode_batch must agree with the per-config oracle.

    Exactly for the index-scatter encoders; to float tolerance for the
    statistical one, whose numpy reductions sum in pairwise rather than
    sequential order.
    """
    spec = space_by_name(family)
    configs = RandomSampler(spec, rng=33).sample_batch(64)
    encoding = get_encoding(name)
    loop = reference_batch(name, configs, spec)
    vec = encoding.encode_batch(configs, spec)
    assert vec.shape == loop.shape
    assert vec.dtype == loop.dtype
    if name == "statistical":
        np.testing.assert_allclose(vec, loop, rtol=1e-12, atol=1e-14)
    else:
        np.testing.assert_array_equal(vec, loop)


@pytest.mark.parametrize("name", ALL_ENCODINGS)
def test_encode_batch_empty(name):
    spec = space_by_name("resnet")
    encoding = get_encoding(name)
    out = encoding.encode_batch([], spec)
    assert out.shape == (0, encoding.length(spec))


@pytest.mark.parametrize("name", ALL_ENCODINGS)
def test_encode_batch_rejects_foreign_config(name):
    resnet = space_by_name("resnet")
    densenet = space_by_name("densenet")
    batch = RandomSampler(resnet, rng=5).sample_batch(3)
    foreign = RandomSampler(densenet, rng=5).sample()
    encoding = get_encoding(name)
    with pytest.raises(ValueError):
        encoding.encode_batch(batch + [foreign], resnet)


class TestEncoderCache:
    """`encoder_for` shares one encoder instance per (encoding, space)."""

    def test_same_pair_returns_same_instance(self):
        from repro import clear_encoder_cache, encoder_for

        clear_encoder_cache()
        spec = space_by_name("resnet")
        first = encoder_for("fcc", spec)
        assert encoder_for("fcc", spec) is first
        # A different space or encoding gets its own instance.
        assert encoder_for("fcc", space_by_name("densenet")) is not first
        assert encoder_for("fc", spec) is not first

    def test_instance_passthrough(self):
        from repro import encoder_for

        spec = space_by_name("resnet")
        mine = get_encoding("fcc")
        assert encoder_for(mine, spec) is mine

    def test_cached_encoder_encodes_identically(self):
        from repro import clear_encoder_cache, encoder_for

        clear_encoder_cache()
        spec = space_by_name("mobilenetv3")
        batch = RandomSampler(spec, rng=3).sample_batch(8)
        fresh = get_encoding("fcc").encode_batch(batch, spec)
        for _ in range(2):  # second call exercises the cached instance
            np.testing.assert_array_equal(
                encoder_for("fcc", spec).encode_batch(batch, spec), fresh
            )

    def test_dataset_and_oracle_reuse_cached_encoder(self):
        from repro import clear_encoder_cache, encoder_for
        from repro.predictors import PredictorOracle, RidgePredictor

        clear_encoder_cache()
        spec = space_by_name("resnet")
        shared = encoder_for("fcc", spec)
        oracle = PredictorOracle(RidgePredictor(), "fcc", spec)
        assert oracle.encoding is shared
