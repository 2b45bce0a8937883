"""`repro.profiling.paired`: aligned two-device measurement campaigns.

Direct mode (seed-derived `measure_batch` per device) and campaign mode
(one checkpointed `CampaignRunner` per side) both produce a
`PairedMeasurementSet`; this file locks the invariants the transfer
experiments lean on:

* the config list is *shared* — index i is the same architecture on both
  devices — and ``prefix(n)`` is a true nested view (budget 25 is the
  first 25 pairs of budget 100),
* direct mode is deterministic in ``(configs, seed)`` and independent
  across sides (the proxy stream does not shift when the target device
  changes),
* persistence round-trips through versioned JSON,
* campaign mode inherits QC and yields the same aligned shape.
"""

import numpy as np
import pytest

from repro import RandomSampler, SimulatedDevice, resnet_space
from repro.profiling import MeasurementProtocol, PairedMeasurementSet, measure_paired

PROTOCOL = MeasurementProtocol(runs=5)


@pytest.fixture(scope="module")
def spec():
    return resnet_space()


@pytest.fixture(scope="module")
def configs(spec):
    return RandomSampler(spec, rng=0).sample_batch(12)


@pytest.fixture(scope="module")
def paired(configs):
    return measure_paired(
        configs, "rtx4090", "raspberrypi4", protocol=PROTOCOL, seed=5
    )


class TestDirectMode:
    def test_aligned_shapes_and_devices(self, paired, configs):
        assert len(paired) == len(configs)
        assert paired.configs == tuple(configs)
        assert paired.proxy_device == "rtx4090"
        assert paired.target_device == "raspberrypi4"
        for arr in (
            paired.proxy_latencies,
            paired.target_latencies,
            paired.proxy_true,
            paired.target_true,
        ):
            assert arr.shape == (len(configs),)
            assert np.isfinite(arr).all()
            assert (arr > 0).all()

    def test_deterministic_in_seed(self, paired, configs):
        again = measure_paired(
            configs, "rtx4090", "raspberrypi4", protocol=PROTOCOL, seed=5
        )
        np.testing.assert_array_equal(
            again.proxy_latencies, paired.proxy_latencies
        )
        np.testing.assert_array_equal(
            again.target_latencies, paired.target_latencies
        )

    def test_different_seed_differs(self, paired, configs):
        other = measure_paired(
            configs, "rtx4090", "raspberrypi4", protocol=PROTOCOL, seed=6
        )
        assert not np.array_equal(
            other.proxy_latencies, paired.proxy_latencies
        )

    def test_proxy_stream_independent_of_target_device(self, paired, configs):
        # Swapping the target must not move the proxy's measurements:
        # each side draws from its own seed-derived stream.
        swapped = measure_paired(
            configs,
            "rtx4090",
            "threadripper5975wx",
            protocol=PROTOCOL,
            seed=5,
        )
        np.testing.assert_array_equal(
            swapped.proxy_latencies, paired.proxy_latencies
        )

    def test_accepts_device_instances(self, configs, paired):
        explicit = measure_paired(
            configs,
            SimulatedDevice("rtx4090", seed=5),
            SimulatedDevice("raspberrypi4", seed=5),
            protocol=PROTOCOL,
            seed=5,
        )
        np.testing.assert_array_equal(
            explicit.proxy_latencies, paired.proxy_latencies
        )

    def test_empty_configs_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            measure_paired([], "rtx4090", "raspberrypi4")


class TestPrefix:
    def test_prefix_is_a_true_nested_view(self, paired):
        for n in (1, 5, len(paired)):
            pre = paired.prefix(n)
            assert len(pre) == n
            assert pre.configs == paired.configs[:n]
            np.testing.assert_array_equal(
                pre.target_latencies, paired.target_latencies[:n]
            )
            np.testing.assert_array_equal(
                pre.proxy_true, paired.proxy_true[:n]
            )
            assert pre.proxy_device == paired.proxy_device

    def test_out_of_range_prefix_rejected(self, paired):
        with pytest.raises(ValueError, match="prefix size"):
            paired.prefix(0)
        with pytest.raises(ValueError, match="prefix size"):
            paired.prefix(len(paired) + 1)


class TestDatasetViews:
    def test_datasets_carry_device_and_truth(self, paired):
        proxy_ds, target_ds = paired.datasets()
        assert len(proxy_ds) == len(target_ds) == len(paired)
        assert all(s.device == "rtx4090" for s in proxy_ds)
        assert all(s.device == "raspberrypi4" for s in target_ds)
        np.testing.assert_array_equal(
            proxy_ds.latencies, paired.proxy_latencies
        )
        np.testing.assert_array_equal(
            [s.true_latency_s for s in target_ds], paired.target_true
        )


class TestPersistence:
    def test_round_trip(self, paired, tmp_path):
        path = tmp_path / "paired.json"
        paired.save(path)
        loaded = PairedMeasurementSet.load(path)
        assert loaded.configs == paired.configs
        np.testing.assert_array_equal(
            loaded.proxy_latencies, paired.proxy_latencies
        )
        np.testing.assert_array_equal(
            loaded.target_true, paired.target_true
        )
        assert loaded.proxy_device == paired.proxy_device

    def test_save_is_deterministic(self, paired, tmp_path):
        paired.save(tmp_path / "a.json")
        paired.save(tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (
            tmp_path / "b.json"
        ).read_bytes()

    def test_missing_truth_round_trips_as_none(self, paired, tmp_path):
        stripped = PairedMeasurementSet(
            configs=paired.configs,
            proxy_device=paired.proxy_device,
            target_device=paired.target_device,
            proxy_latencies=paired.proxy_latencies,
            target_latencies=paired.target_latencies,
        )
        stripped.save(tmp_path / "s.json")
        loaded = PairedMeasurementSet.load(tmp_path / "s.json")
        assert loaded.proxy_true is None
        assert loaded.target_true is None
        assert loaded.prefix(3).proxy_true is None

    def test_corrupt_payloads_rejected(self, paired, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            PairedMeasurementSet.load(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            PairedMeasurementSet.load(bad)
        wrong = paired.to_dict()
        wrong["format_version"] = 99
        import json

        versioned = tmp_path / "versioned.json"
        versioned.write_text(json.dumps(wrong))
        with pytest.raises(ValueError, match="format_version"):
            PairedMeasurementSet.load(versioned)

    def test_misaligned_arrays_rejected(self, paired):
        with pytest.raises(ValueError, match="values for"):
            PairedMeasurementSet(
                configs=paired.configs,
                proxy_device="a",
                target_device="b",
                proxy_latencies=paired.proxy_latencies[:-1],
                target_latencies=paired.target_latencies,
            )
