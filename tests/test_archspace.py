"""Architecture spaces: Table I cardinalities, samplers, depth bins."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ArchConfig,
    BalancedSampler,
    BlockConfig,
    RandomSampler,
    SPACE_NAMES,
    assign_depth_bin,
    depth_bins,
    space_by_name,
)

# Exact integer cardinality of the ResNet / MobileNetV3 spaces:
# (sum_{d=1..7} 9^d)^4.
_RESNET_CARDINALITY = sum(9**d for d in range(1, 8)) ** 4


class TestCardinality:
    """Table I: 8.3830e26 / 8.3830e26 / 1.0000e10, exactly."""

    def test_resnet_exact(self, resnet_spec):
        assert resnet_spec.cardinality() == _RESNET_CARDINALITY
        assert f"{resnet_spec.cardinality():.4e}" == "8.3830e+26"

    def test_mobilenetv3_exact(self, mobilenetv3_spec):
        assert mobilenetv3_spec.cardinality() == _RESNET_CARDINALITY
        assert f"{mobilenetv3_spec.cardinality():.4e}" == "8.3830e+26"

    def test_densenet_exact(self, densenet_spec):
        assert densenet_spec.cardinality() == 10**10
        assert f"{densenet_spec.cardinality():.4e}" == "1.0000e+10"


class TestSpaceSpec:
    def test_registry_names(self):
        assert set(SPACE_NAMES) == {"resnet", "mobilenetv3", "densenet"}
        for name in SPACE_NAMES:
            assert space_by_name(name).family == name

    def test_unknown_space_raises(self):
        with pytest.raises(KeyError):
            space_by_name("vgg")

    def test_make_config_and_contains(self, resnet_spec):
        config = resnet_spec.make_config(
            depths=[2, 2, 2, 2],
            kernels=[[3, 5], [3, 3], [7, 3], [5, 5]],
            expands=[[0.2, 0.25]] + [[0.25, 0.25]] * 3,
        )
        assert resnet_spec.contains(config)
        assert config.depths == (2, 2, 2, 2)
        assert config.total_blocks == 8

    def test_make_config_scalar_broadcast(self, densenet_spec):
        config = densenet_spec.make_config(depths=[3, 1, 2, 4, 1], kernels=[3, 5, 1, 9, 7])
        assert densenet_spec.contains(config)
        assert [b.kernel_size for b in config.units[0]] == [3, 3, 3]
        assert all(b.expand_ratio is None for _, b in config.iter_blocks())

    def test_make_config_rejects_invalid_kernel(self, resnet_spec):
        with pytest.raises(ValueError):
            resnet_spec.make_config(
                depths=[1, 1, 1, 1], kernels=[4, 3, 3, 3], expands=[0.2] * 4
            )

    def test_contains_rejects_nonuniform_densenet_unit(self, densenet_spec):
        mixed = ArchConfig(
            family="densenet",
            units=tuple(
                [(BlockConfig(3), BlockConfig(5))] + [(BlockConfig(3),)] * 4
            ),
        )
        assert not densenet_spec.contains(mixed)


class TestRandomSampler:
    @pytest.mark.parametrize("family", SPACE_NAMES)
    def test_samples_are_members(self, family):
        spec = space_by_name(family)
        for config in RandomSampler(spec, rng=0).sample_batch(50):
            assert spec.contains(config)

    def test_seeded_determinism(self, resnet_spec):
        a = RandomSampler(resnet_spec, rng=123).sample_batch(20)
        b = RandomSampler(resnet_spec, rng=123).sample_batch(20)
        assert a == b

    def test_different_seeds_differ(self, resnet_spec):
        a = RandomSampler(resnet_spec, rng=1).sample_batch(20)
        b = RandomSampler(resnet_spec, rng=2).sample_batch(20)
        assert a != b


class TestBalancedSampler:
    def test_samples_are_members_and_deterministic(self, resnet_spec):
        a = BalancedSampler(resnet_spec, rng=7).sample_batch(30)
        b = BalancedSampler(resnet_spec, rng=7).sample_batch(30)
        assert a == b
        assert all(resnet_spec.contains(c) for c in a)

    def test_covers_all_bins(self, resnet_spec):
        sampler = BalancedSampler(resnet_spec, rng=3, n_bins=6)
        hits = {
            assign_depth_bin(c.total_blocks, sampler.bins)
            for c in sampler.sample_batch(120)
        }
        assert hits == set(range(6))

    def test_sample_in_bin(self, densenet_spec):
        sampler = BalancedSampler(densenet_spec, rng=1, n_bins=6)
        for index, (lo, hi) in enumerate(sampler.bins):
            config = sampler.sample_in_bin(index)
            assert lo <= config.total_blocks <= hi

    def test_corner_bins_reached_more_than_random(self, resnet_spec):
        """Random sampling's CLT depth bias starves the corner bins."""
        bins = depth_bins(resnet_spec, 6)
        n = 240
        random_configs = RandomSampler(resnet_spec, rng=0).sample_batch(n)
        balanced_configs = BalancedSampler(resnet_spec, rng=0, n_bins=6).sample_batch(n)

        def corner_count(configs):
            ids = [assign_depth_bin(c.total_blocks, bins) for c in configs]
            return sum(1 for i in ids if i in (0, 5))

        assert corner_count(balanced_configs) > corner_count(random_configs)


class TestDepthBins:
    def test_partition_is_exact(self, resnet_spec):
        bins = depth_bins(resnet_spec, 6)
        assert bins[0][0] == resnet_spec.min_total_depth
        assert bins[-1][1] == resnet_spec.max_total_depth
        for (_, hi), (lo, _) in zip(bins, bins[1:]):
            assert lo == hi + 1

    def test_every_total_depth_is_binned(self, densenet_spec):
        bins = depth_bins(densenet_spec, 8)
        for depth in range(densenet_spec.min_total_depth, densenet_spec.max_total_depth + 1):
            assert 0 <= assign_depth_bin(depth, bins) < 8

    def test_invalid_bin_counts_raise(self, resnet_spec):
        with pytest.raises(ValueError):
            depth_bins(resnet_spec, 0)
        with pytest.raises(ValueError):
            depth_bins(resnet_spec, 10**6)


class TestConfigRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_dict_round_trip(self, data):
        spec = space_by_name(data.draw(st.sampled_from(SPACE_NAMES)))
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        config = RandomSampler(spec, rng=seed).sample()
        assert ArchConfig.from_dict(config.to_dict()) == config

    def test_configs_are_hashable(self, resnet_spec):
        sampler = RandomSampler(resnet_spec, rng=0)
        assert len({sampler.sample() for _ in range(30)}) > 1

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_parsed_config_matches_the_constructed_one(self, data):
        """Same ``==``, hash, `cache_key` and fields as building the
        config from its blocks, so the parser's up-front key is the one
        `cache_key` would compute."""
        spec = space_by_name(data.draw(st.sampled_from(SPACE_NAMES)))
        config = RandomSampler(spec, rng=data.draw(st.integers(0, 2**32 - 1))).sample()
        parsed = ArchConfig.from_dict(config.to_dict())
        built = ArchConfig(parsed.family, parsed.units)
        assert parsed == built == config
        assert hash(parsed) == hash(built) == hash(config)
        assert parsed.cache_key() == built.cache_key() == config.cache_key()
        assert parsed.units == config.units
        assert all(type(b) is BlockConfig for _, b in parsed.iter_blocks())
        assert parsed.to_dict() == config.to_dict()

    def test_parser_keeps_the_schema_coercions(self):
        config = ArchConfig.from_dict(
            {"family": "resnet",
             "units": [[{"kernel_size": "5", "expand_ratio": "0.25"},
                        {"kernel_size": 3.0, "expand_ratio": 1}],
                       [{"kernel_size": True, "expand_ratio": None}]]}
        )
        blocks = [b for _, b in config.iter_blocks()]
        assert blocks == [BlockConfig(5, 0.25), BlockConfig(3, 1.0), BlockConfig(1, None)]
        assert [type(b.kernel_size) for b in blocks] == [int, int, int]
        assert type(blocks[1].expand_ratio) is float
        assert config.cache_key() == ("resnet", (((5, 0.25), (3, 1.0)), ((1, None),)))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: "oops", r"^config must be an object, got str$"),
            (lambda d: d.__delitem__("family"), r"^config\.family is missing$"),
            (lambda d: d.__delitem__("units"), r"^config\.units is missing$"),
            (lambda d: d.update(units="abc"), r"^config\.units must be a list of lists, got str$"),
            (lambda d: d.update(units={"a": 1}), r"^config\.units must be a list of lists, got dict$"),
            (lambda d: d["units"].__setitem__(1, {"kernel_size": 3}),
             r"^config\.units\[1\] must be a list of blocks, got dict$"),
            (lambda d: d["units"].__setitem__(2, []),
             r"^config\.units\[2\] is empty: every unit must contain at least one block$"),
            (lambda d: d["units"][2].__setitem__(0, 7),
             r"^config\.units\[2\]\[0\] must be an object, got int$"),
            (lambda d: d["units"][2][0].__delitem__("kernel_size"),
             r"^config\.units\[2\]\[0\]\.kernel_size is missing$"),
            (lambda d: d["units"][2][0].__delitem__("expand_ratio"),
             r"^config\.units\[2\]\[0\]\.expand_ratio is missing$"),
            (lambda d: d["units"][2][0].update(kernel_size="big"),
             r"^config\.units\[2\]\[0\]\.kernel_size must be a finite number, got 'big'$"),
            (lambda d: d["units"][2][0].update(kernel_size=None),
             r"^config\.units\[2\]\[0\]\.kernel_size must be a finite number, got None$"),
            (lambda d: d["units"][2][0].update(kernel_size=float("inf")),
             r"^config\.units\[2\]\[0\]\.kernel_size must be a finite number, got inf$"),
            (lambda d: d["units"][2][0].update(kernel_size=float("nan")),
             r"^config\.units\[2\]\[0\]\.kernel_size must be a finite number, got nan$"),
            (lambda d: d["units"][2][0].update(expand_ratio=[0.25]),
             r"^config\.units\[2\]\[0\]\.expand_ratio must be a finite number, got \[0\.25\]$"),
            (lambda d: d["units"][2][0].update(expand_ratio=float("nan")),
             r"^config\.units\[2\]\[0\]\.expand_ratio must be a finite number, got nan$"),
            (lambda d: d["units"][2][0].update(expand_ratio="-inf"),
             r"^config\.units\[2\]\[0\]\.expand_ratio must be a finite number, got '-inf'$"),
        ],
    )
    def test_malformed_dicts_name_the_field(self, edit, message):
        """``edit`` changes a valid dict in place or returns a replacement."""
        d = {
            "family": "resnet",
            "units": [[{"kernel_size": 3, "expand_ratio": 0.25}] for _ in range(4)],
        }
        replacement = edit(d)
        with pytest.raises(ValueError, match=message):
            ArchConfig.from_dict(d if replacement is None else replacement)

    def test_block_table_is_bounded(self):
        """Ever-new choices (a hostile request stream) cannot grow the
        shared block table past its cap; they still parse correctly, and
        a real choice is shared again after them."""
        from repro.archspace import config as config_mod

        def parse(k, e):
            d = {"family": "resnet", "units": [[{"kernel_size": k, "expand_ratio": e}]]}
            return ArchConfig.from_dict(d).units[0][0]

        for k in range(3 * config_mod._INTERN_CAP):
            assert parse(1000 + k, 0.5) == BlockConfig(1000 + k, 0.5)
            assert len(config_mod._INTERNED) <= config_mod._INTERN_CAP
        assert parse(3, 0.25) is parse(3, 0.25)


class TestUniformDrawStream:
    """`repro.utils.pick` is a drop-in for ``rng.choice(seq)``: sampling and
    mutation draw the same configs and leave the generator in the same
    state as the ``choice`` version, so every seeded stream is unchanged."""

    @staticmethod
    def _draw(spec, seed):
        from repro.archspace.ops import mutate

        rng = np.random.default_rng(seed)
        configs = RandomSampler(spec, rng=rng).sample_batch(12)
        balanced = BalancedSampler(spec, rng=rng, n_bins=4)
        configs += balanced.sample_batch(12)
        configs += balanced.sample_counts({0: 3, 3: 3})
        configs += [mutate(c, spec, rng, p_depth=0.5, p_block=0.5) for c in configs]
        return configs, rng.bit_generator.state

    @pytest.mark.parametrize("space", SPACE_NAMES)
    def test_same_configs_and_generator_state_as_choice(self, space, monkeypatch):
        import repro.archspace.ops as ops
        import repro.archspace.sampling as sampling

        spec = space_by_name(space)
        for seed in range(4):
            picked = self._draw(spec, seed)
            with monkeypatch.context() as m:
                for module in (sampling, ops):
                    m.setattr(module, "pick", lambda rng, seq: rng.choice(seq))
                chosen = self._draw(spec, seed)
            assert picked[0] == chosen[0]
            assert [c.cache_key() for c in picked[0]] == [c.cache_key() for c in chosen[0]]
            assert picked[1] == chosen[1]
