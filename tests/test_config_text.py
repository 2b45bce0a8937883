"""Config and dataset JSON text: exact, whichever way it is rendered.

`ArchConfig.to_json` joins the shared blocks' fragments, `LatencyDataset`
joins each sample's config text with its other fields, and a campaign
fingerprint streams the configs into the hash.  Each must give exactly the
bytes ``json.dumps`` of the dict tree gives, or raise exactly what it
raises.  The sha256 locks below were recorded before config text was
rendered from fragments, so they pin the old bytes.
"""

import hashlib
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ArchConfig,
    BlockConfig,
    CampaignRunner,
    FaultPlan,
    FaultyDevice,
    LatencyDataset,
    LatencySample,
    MeasurementProtocol,
    RandomSampler,
    ReferenceSet,
    SimulatedDevice,
    densenet_space,
    mobilenetv3_space,
    resnet_space,
)
from repro.archspace.config import shared_block
from repro.archspace.ops import crossover, mutate
from repro.utils import fingerprint

SPACES = [resnet_space(), mobilenetv3_space(), densenet_space()]


def _campaign(spec, device, seed, sampler_seed, ref_seed, tmp_path, **kw):
    runner = CampaignRunner(
        device,
        RandomSampler(spec, rng=sampler_seed).sample_batch(7),
        tmp_path,
        ReferenceSet.from_space(spec, k=2, rng=ref_seed),
        protocol=MeasurementProtocol(runs=25),
        batch_size=3,
        seed=seed,
        sleep=lambda s: None,
        **kw,
    )
    return runner, runner.run()


def _shard_digests(tmp_path):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((tmp_path / "shards").iterdir())
    }


class TestByteLocks:
    def test_densenet_campaign(self, tmp_path):
        """DenseNet has no expand choice: every block's ``expand_ratio`` is
        ``null``."""
        runner, _ = _campaign(
            densenet_space(), SimulatedDevice("rtx4090", seed=0), 11, 3, 5, tmp_path
        )
        assert runner.fingerprint() == (
            "c98444a1a8e84cc4b145e56fa8ffb73984b4453e127c4ee20521f736a0be7cc3"
        )
        assert _shard_digests(tmp_path) == {
            "batch-0000.json": "0e1c0e38224f4c536f549926fead7a08dd63768866a2f8ad1a6ff6f71244d752",
            "batch-0001.json": "c4d6e1c5d74b3e3c384303cb63effdec0b833e046eae8dd96fa9c59ceddd22af",
            "batch-0002.json": "0c4ffe43ba76cfed78139ed724135c055f23a3eae977e86dd6cbdda8e60d5703",
        }

    def test_resnet_campaign_with_a_failed_qc_batch(self, tmp_path):
        """Throttled sessions and no QC retries: the failed batches write
        ``"qc_passed": false`` on every sample."""
        device = FaultyDevice(
            SimulatedDevice("rtx4090", seed=1),
            FaultPlan(throttle_prob=0.35, throttle_factor=1.25),
            seed=0,
        )
        runner, result = _campaign(
            resnet_space(), device, 42, 4, 6, tmp_path, max_qc_retries=0
        )
        assert [b.qc_passed for b in result.report.batches] == [True, False, False]
        assert runner.fingerprint() == (
            "f9e58f4f33b6031e6e7f901bd39322196ff2c4d785d09997bf4250f0f385e6ca"
        )
        assert _shard_digests(tmp_path) == {
            "batch-0000.json": "ad1744314b2e12ce1cebc122d96ca11f9aac5ab8d96b72803e0de8800bb57464",
            "batch-0001.json": "4a8e992e3d00ef56134f4b6020255d2852372135b2dbdc894ffcc45440637887",
            "batch-0002.json": "431280d013b90edcc7c212037d26fc5597872abdac3b97a16881e2b347bb5ab7",
        }
        shard = json.loads((tmp_path / "shards" / "batch-0001.json").read_text())
        assert all(s["qc_passed"] is False for s in shard["samples"])


# ---------------------------------------------------------------------- #
# Property: the text equals json.dumps of the dict tree
# ---------------------------------------------------------------------- #


def _dumps(thunk):
    """``("ok", text)`` or ``("raise", type, message)`` of ``thunk()``."""
    try:
        return ("ok", thunk())
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return ("raise", type(exc), str(exc))


def _assert_config_exact(config):
    for sort_keys in (False, True):
        assert _dumps(lambda: config.to_json(sort_keys=sort_keys)) == _dumps(
            lambda: json.dumps(config.to_dict(), sort_keys=sort_keys)
        )


def _assert_dataset_exact(dataset):
    assert _dumps(dataset.to_json) == _dumps(lambda: json.dumps(dataset.to_dict()))


space_configs = st.sampled_from(SPACES).flatmap(
    lambda spec: st.integers(0, 2**32 - 1).map(
        lambda seed: (spec, np.random.default_rng(seed))
    )
)

# Choices a hand-built block may hold: the table's own kinds and the ones
# the table must never hand back for them.
kernels = st.one_of(
    st.integers(-3, 11),
    st.just(True),
    st.just(False),
    st.integers(1, 9).map(np.int64),
)
expands = st.one_of(
    st.none(),
    st.sampled_from([0.25, 3.0, 1.0, 0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.integers(0, 6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.just(np.float64(0.5)),
)
families = st.one_of(st.sampled_from(["resnet", "densenet"]), st.text(max_size=8))


@st.composite
def hostile_configs(draw):
    """Configs of blocks built every way: shared, parsed, or by hand."""
    units = []
    for _ in range(draw(st.integers(1, 3))):
        blocks = []
        for _ in range(draw(st.integers(1, 4))):
            k, e = draw(kernels), draw(expands)
            how = draw(st.sampled_from(["hand", "shared", "parsed"]))
            if how == "shared":
                block = shared_block(k, e)
            elif how == "parsed" and type(k) is int and (
                e is None or math.isfinite(e)
            ):
                d = {"family": "x", "units": [[{"kernel_size": k, "expand_ratio": e}]]}
                block = ArchConfig.from_dict(d).units[0][0]
            else:
                block = BlockConfig(k, e)
            blocks.append(block)
        units.append(blocks)
    return ArchConfig(draw(families), units)


class TestConfigText:
    @settings(max_examples=60)
    @given(space_configs)
    def test_sampled_mutated_and_crossed_configs(self, drawn):
        spec, rng = drawn
        a, b = RandomSampler(spec, rng=rng).sample_batch(2)
        configs = [a, b, mutate(a, spec, rng), *crossover(a, b, spec, rng)]
        configs.append(ArchConfig.from_dict(json.loads(a.to_json())))
        for config in configs:
            _assert_config_exact(config)

    @settings(max_examples=200)
    @given(hostile_configs())
    def test_hostile_blocks(self, config):
        _assert_config_exact(config)

    def test_np_int64_kernel_raises_the_same_type_error(self):
        config = ArchConfig("resnet", [[BlockConfig(np.int64(3), 0.25)]])
        with pytest.raises(TypeError, match="int64 is not JSON serializable"):
            config.to_json()
        _assert_config_exact(config)

    def test_a_user_block_equal_to_a_shared_one_keeps_its_own_text(self):
        shared = shared_block(1, 1.0)
        for k, e in [(1, 1), (True, 1.0), (1, True)]:
            block = BlockConfig(k, e)
            assert block == shared
            config = ArchConfig("resnet", [[block]])
            assert config.to_json() == json.dumps(config.to_dict())
            assert config.to_json() != ArchConfig("resnet", [[shared]]).to_json()

    def test_shared_block_never_changes_a_choice(self):
        for k, e in [(True, None), (3, 1), (3, -0.0), (3, 0.0), (3, math.nan)]:
            block = shared_block(k, e)
            assert type(block.kernel_size) is type(k)
            assert type(block.expand_ratio) is type(e)
            assert json.dumps(block.to_dict()) == json.dumps(BlockConfig(k, e).to_dict())
        assert shared_block(3, 0.25) is shared_block(3, 0.25)

    def test_a_parsed_zero_expand_keeps_its_sign(self):
        def parse(e):
            d = {"family": "x", "units": [[{"kernel_size": 3, "expand_ratio": e}]]}
            return ArchConfig.from_dict(d)

        for first, second in [(-0.0, 0.0), (0.0, -0.0)]:
            parse(first)
            assert parse(second).to_json() == json.dumps(
                {"family": "x", "units": [[{"kernel_size": 3, "expand_ratio": second}]]}
            )

    def test_sampled_configs_render_without_block_dicts(self, monkeypatch):
        """The sampler and mutation take their blocks from the table, so
        their configs render from fragments: no dict tree is built."""
        spec = densenet_space()
        configs = RandomSampler(spec, rng=0).sample_batch(5)
        configs.append(mutate(configs[0], spec, rng=1))
        configs.append(spec.make_config([2] * spec.num_units, [3] * spec.num_units))
        expected = [json.dumps(c.to_dict(), sort_keys=True) for c in configs]

        def no_dicts(self):
            raise AssertionError("rendered through the dict tree")

        monkeypatch.setattr(ArchConfig, "to_dict", no_dicts)
        assert [c.to_json(sort_keys=True) for c in configs] == expected


latencies = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.just(np.float64(1e-3)),
    st.integers(-5, 5),
)


@st.composite
def samples(draw):
    if draw(st.booleans()):
        config = draw(hostile_configs())
    else:
        spec, rng = draw(space_configs)
        config = RandomSampler(spec, rng=rng).sample()
    return LatencySample(
        config=config,
        latency_s=draw(latencies),
        device=draw(st.one_of(st.text(max_size=6), st.just("rtx4090"))),
        true_latency_s=draw(st.one_of(st.none(), latencies)),
        is_reference=draw(st.booleans()),
        qc_passed=draw(st.booleans()),
    )


class TestDatasetText:
    @settings(max_examples=100)
    @given(st.lists(samples(), max_size=4))
    def test_dataset_text_is_the_dict_dump(self, drawn):
        _assert_dataset_exact(LatencyDataset(drawn))

    def test_save_writes_the_text(self, tmp_path):
        spec = resnet_space()
        dataset = LatencyDataset(
            [
                LatencySample(c, 1e-3 * (i + 1), "rtx4090", None, i == 1, i != 2)
                for i, c in enumerate(RandomSampler(spec, rng=2).sample_batch(3))
            ]
        )
        dataset.save(tmp_path / "d.json")
        assert (tmp_path / "d.json").read_text() == json.dumps(dataset.to_dict())
        assert LatencyDataset.load(tmp_path / "d.json") == dataset

    def test_unserialisable_sample_raises_what_the_dict_path_raises(self):
        config = RandomSampler(resnet_space(), rng=0).sample()
        dataset = LatencyDataset([LatencySample(config, 1e-3, object())])
        _assert_dataset_exact(dataset)
        with pytest.raises(TypeError, match="object is not JSON serializable"):
            dataset.to_json()


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=8,
)


class TestStreamedFingerprint:
    @settings(max_examples=150)
    @given(
        st.dictionaries(st.text(max_size=6), json_values, max_size=4),
        st.dictionaries(
            st.text(max_size=6),
            st.lists(st.dictionaries(st.text(max_size=4), json_values, max_size=3), max_size=3),
            min_size=1,
            max_size=2,
        ),
    )
    def test_equals_the_digest_of_the_whole_payload(self, payload, lists):
        texts = {
            key: [json.dumps(item, sort_keys=True) for item in items]
            for key, items in lists.items()
        }
        assert fingerprint(payload, texts) == fingerprint({**payload, **lists})


# ---------------------------------------------------------------------- #
# Pickled configs keep their shared blocks
# ---------------------------------------------------------------------- #


def _shareable(block):
    """Whether `shared_block` keeps ``block``'s choice in its table."""
    e = block.expand_ratio
    return type(block.kernel_size) is int and (
        e is None or (type(e) is float and math.isfinite(e) and e != 0.0)
    )


class TestPickledBlocks:
    """A spawn pool worker hands its configs back pickled: they must come
    back holding the table's blocks, or render through the dict path."""

    def test_sampled_config_comes_back_with_the_table_blocks(self):
        for spec in SPACES:
            config = RandomSampler(spec, rng=0).sample()
            back = pickle.loads(pickle.dumps(config))
            assert back == config
            for _, block in back.iter_blocks():
                assert block is shared_block(block.kernel_size, block.expand_ratio)
            assert back._joined(2) is not None
            assert back.to_json() == config.to_json()

    @settings(max_examples=200)
    @given(hostile_configs())
    def test_hostile_blocks_round_trip_equal_and_unshared(self, config):
        back = pickle.loads(pickle.dumps(config))
        for (_, block), (_, got) in zip(config.iter_blocks(), back.iter_blocks()):
            assert type(got.kernel_size) is type(block.kernel_size)
            assert type(got.expand_ratio) is type(block.expand_ratio)
            assert _dumps(lambda: json.dumps(got.to_dict())) == _dumps(
                lambda: json.dumps(block.to_dict())
            )
            if _shareable(block):
                assert got is shared_block(block.kernel_size, block.expand_ratio)
            else:
                assert got is not shared_block(block.kernel_size, block.expand_ratio)
        _assert_config_exact(back)

    def test_two_worker_densenet_campaign_matches_the_byte_locks(self, tmp_path):
        """The serial DenseNet campaign's locks (`TestByteLocks`), from a
        spawn pool whose configs come back shared."""
        runner, result = _campaign(
            densenet_space(), SimulatedDevice("rtx4090", seed=0), 11, 3, 5,
            tmp_path, workers=2,
        )
        assert runner.fingerprint() == (
            "c98444a1a8e84cc4b145e56fa8ffb73984b4453e127c4ee20521f736a0be7cc3"
        )
        assert _shard_digests(tmp_path) == {
            "batch-0000.json": "0e1c0e38224f4c536f549926fead7a08dd63768866a2f8ad1a6ff6f71244d752",
            "batch-0001.json": "c4d6e1c5d74b3e3c384303cb63effdec0b833e046eae8dd96fa9c59ceddd22af",
            "batch-0002.json": "0c4ffe43ba76cfed78139ed724135c055f23a3eae977e86dd6cbdda8e60d5703",
        }
        assert result.report.degradations == []
        for sample in result.dataset:
            for _, block in sample.config.iter_blocks():
                assert block is shared_block(block.kernel_size, block.expand_ratio)
