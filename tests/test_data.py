"""Dataset layer: JSON round trips and the format_version 1 schema lock."""

import json

import numpy as np
import pytest

from repro import (
    DatasetError,
    LatencyDataset,
    LatencySample,
    RandomSampler,
    SimulatedDevice,
    resnet_space,
)


@pytest.fixture(scope="module")
def tiny_dataset():
    spec = resnet_space()
    device = SimulatedDevice("rtx4090", seed=0)
    configs = RandomSampler(spec, rng=0).sample_batch(6)
    measured, true = device.measure_batch(configs, runs=5, rng=np.random.default_rng(1))
    return LatencyDataset(
        [
            LatencySample(c, float(m), "rtx4090", float(t), is_reference=(i == 0))
            for i, (c, m, t) in enumerate(zip(configs, measured, true))
        ]
    )


class TestContainer:
    def test_len_iter_getitem(self, tiny_dataset):
        assert len(tiny_dataset) == 6
        assert len(list(tiny_dataset)) == 6
        assert isinstance(tiny_dataset[0], LatencySample)
        assert isinstance(tiny_dataset[1:3], LatencyDataset)
        assert len(tiny_dataset[1:3]) == 2

    def test_array_views(self, tiny_dataset):
        assert tiny_dataset.latencies.shape == (6,)
        assert (tiny_dataset.latencies > 0).all()
        assert tiny_dataset.total_depths.shape == (6,)

    def test_encode(self, tiny_dataset):
        X = tiny_dataset.encode("fcc", resnet_space())
        assert X.shape == (6, 36)

    def test_split_is_seeded_and_exhaustive(self, tiny_dataset):
        a_train, a_test = tiny_dataset.split(0.5, rng=3)
        b_train, b_test = tiny_dataset.split(0.5, rng=3)
        assert [s.latency_s for s in a_train] == [s.latency_s for s in b_train]
        assert len(a_train) + len(a_test) == len(tiny_dataset)
        merged = {id(s) for s in a_train.samples} | {id(s) for s in a_test.samples}
        assert len(merged) == len(tiny_dataset)

    def test_split_rejects_degenerate_fraction(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.split(1.0)


class TestRoundTrip:
    def test_dict_round_trip_is_lossless(self, tiny_dataset):
        clone = LatencyDataset.from_dict(tiny_dataset.to_dict())
        assert clone.to_dict() == tiny_dataset.to_dict()
        assert clone[0].config == tiny_dataset[0].config
        assert clone[0].is_reference and not clone[1].is_reference

    def test_file_round_trip(self, tiny_dataset, tmp_path):
        path = tmp_path / "ds.json"
        tiny_dataset.save(path)
        clone = LatencyDataset.load(path)
        assert clone.to_dict() == tiny_dataset.to_dict()

    def test_unsupported_format_version_raises(self):
        with pytest.raises(ValueError):
            LatencyDataset.from_dict({"format_version": 2, "samples": []})
        with pytest.raises(ValueError):
            LatencyDataset.from_dict({"samples": []})

    def test_qc_flag_round_trips_and_is_omitted_when_true(self, tiny_dataset):
        sample = tiny_dataset[0]
        assert "qc_passed" not in sample.to_dict()
        flagged = LatencySample(**{**sample.__dict__, "qc_passed": False})
        assert flagged.to_dict()["qc_passed"] is False
        clone = LatencySample.from_dict(flagged.to_dict())
        assert not clone.qc_passed
        assert LatencySample.from_dict(sample.to_dict()).qc_passed


class TestAtomicSave:
    def test_save_leaves_no_temp_files(self, tiny_dataset, tmp_path):
        path = tmp_path / "ds.json"
        tiny_dataset.save(path)
        tiny_dataset.save(path)  # overwrite in place
        assert [p.name for p in tmp_path.iterdir()] == ["ds.json"]
        assert LatencyDataset.load(path).to_dict() == tiny_dataset.to_dict()

    def test_failed_serialisation_preserves_existing_file(self, tiny_dataset, tmp_path):
        from repro.utils import atomic_write_text

        path = tmp_path / "ds.json"
        tiny_dataset.save(path)
        before = path.read_bytes()

        with pytest.raises(TypeError):
            atomic_write_text(path, object())  # not writable text
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ds.json"]


class TestLoadErrors:
    """Every load failure mode names the file and the problem."""

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="does not exist"):
            LatencyDataset.load(tmp_path / "nope.json")

    def test_truncated_json(self, tiny_dataset, tmp_path):
        path = tmp_path / "ds.json"
        tiny_dataset.save(path)
        path.write_text(path.read_text()[:-20])
        with pytest.raises(DatasetError, match="not valid JSON"):
            LatencyDataset.load(path)

    def test_non_object_payload(self, tmp_path):
        path = tmp_path / "ds.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(DatasetError, match="expected a JSON object"):
            LatencyDataset.load(path)

    def test_schema_violation_names_file(self, tmp_path):
        path = tmp_path / "ds.json"
        path.write_text(json.dumps({"format_version": 1, "samples": [{"bad": 1}]}))
        with pytest.raises(DatasetError, match="ds.json"):
            LatencyDataset.load(path)

    def test_dataset_error_is_a_value_error(self):
        assert issubclass(DatasetError, ValueError)

    @pytest.mark.parametrize("latency", [0.0, -0.2, float("nan"), float("inf")])
    def test_nonpositive_latency_rejected(self, tiny_dataset, latency):
        d = tiny_dataset[0].to_dict()
        d["latency_s"] = latency
        with pytest.raises(DatasetError, match="latency_s"):
            LatencySample.from_dict(d)


class TestCommittedFixture:
    """Lock the schema against the committed tests/fixtures dataset."""

    @pytest.fixture(scope="class")
    def fixture_raw(self, densenet_fixture_path):
        return json.loads(densenet_fixture_path.read_text())

    @pytest.fixture(scope="class")
    def fixture_dataset(self, fixture_raw):
        return LatencyDataset.from_dict(fixture_raw)

    def test_loads_with_expected_size(self, fixture_dataset):
        assert len(fixture_dataset) == 7000

    def test_schema_fields(self, fixture_raw):
        assert fixture_raw["format_version"] == 1
        sample = fixture_raw["samples"][0]
        assert set(sample) == {
            "config",
            "latency_s",
            "device",
            "true_latency_s",
            "is_reference",
        }
        assert set(sample["config"]) == {"family", "units"}
        block = sample["config"]["units"][0][0]
        assert set(block) == {"kernel_size", "expand_ratio"}

    def test_densenet_semantics(self, fixture_dataset):
        from repro import densenet_space

        spec = densenet_space()
        for sample in fixture_dataset[:50]:
            assert sample.config.family == "densenet"
            assert sample.device == "rtx3080maxq"
            assert sample.latency_s > 0
            # No expansion dimension: expand_ratio is null throughout.
            assert all(b.expand_ratio is None for _, b in sample.config.iter_blocks())
            assert spec.contains(sample.config)

    def test_round_trip_preserves_fixture_exactly(self, fixture_raw, fixture_dataset):
        assert fixture_dataset.to_dict() == fixture_raw
