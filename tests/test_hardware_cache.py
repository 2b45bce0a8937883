"""Analytical-latency caching and the vectorized noise model.

The cache tests pin down the accounting contract (hit/miss counters,
LRU bound, profile-swap invalidation, ``cache_size=0`` opt-out).  The
bit-identity tests replicate the original scalar noise model verbatim
and assert ``measure`` / ``measure_batch`` reproduce it bit for bit from
the same seeded stream: the vectorization must not move a single draw.
"""

import numpy as np
import pytest

from repro import (
    AnalyticalCache,
    RandomSampler,
    SimulatedDevice,
    build_network,
    densenet_space,
    device_by_name,
    resnet_space,
    space_by_name,
)


@pytest.fixture(scope="module")
def configs():
    return RandomSampler(resnet_space(), rng=21).sample_batch(6)


# ---------------------------------------------------------------------- #
# AnalyticalCache in isolation
# ---------------------------------------------------------------------- #


class TestAnalyticalCache:
    def test_hit_miss_accounting(self):
        cache = AnalyticalCache(maxsize=8)
        assert cache.get("a") is None
        cache.put("a", 1.0)
        assert cache.get("a") == 1.0
        assert cache.get("a") == 1.0
        info = cache.info()
        assert (info.hits, info.misses, info.size) == (2, 1, 1)
        assert info.hit_rate == pytest.approx(2 / 3)

    def test_hit_rate_zero_before_any_lookup(self):
        assert AnalyticalCache().info().hit_rate == 0.0

    def test_eviction_is_least_recently_used(self):
        cache = AnalyticalCache(maxsize=2)
        cache.put("a", 1.0)
        cache.put("b", 2.0)
        cache.get("a")  # refresh: "b" is now the LRU entry
        cache.put("c", 3.0)
        assert "b" not in cache
        assert cache.get("a") == 1.0
        assert cache.get("c") == 3.0
        assert len(cache) == 2

    def test_put_refreshes_existing_key(self):
        cache = AnalyticalCache(maxsize=2)
        cache.put("a", 1.0)
        cache.put("b", 2.0)
        cache.put("a", 1.5)  # overwrite refreshes, so "b" gets evicted next
        cache.put("c", 3.0)
        assert "b" not in cache
        assert cache.get("a") == 1.5

    def test_zero_maxsize_disables_storage(self):
        cache = AnalyticalCache(maxsize=0)
        cache.put("a", 1.0)
        assert cache.get("a") is None
        assert len(cache) == 0
        assert cache.info().misses == 1

    def test_clear_drops_entries_keeps_counters(self):
        cache = AnalyticalCache()
        cache.put("a", 1.0)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        info = cache.info()
        assert (info.hits, info.misses) == (1, 0)

    def test_negative_maxsize_rejected(self):
        with pytest.raises(ValueError):
            AnalyticalCache(maxsize=-1)


class TestCacheKey:
    def test_equal_configs_share_key(self, configs):
        clone = RandomSampler(resnet_space(), rng=21).sample_batch(6)
        for a, b in zip(configs, clone):
            assert a.cache_key() == b.cache_key()

    def test_distinct_configs_get_distinct_keys(self, configs):
        keys = {c.cache_key() for c in configs}
        assert len(keys) == len(configs)

    def test_key_is_hashable_and_family_scoped(self):
        resnet = RandomSampler(resnet_space(), rng=0).sample()
        densenet = RandomSampler(densenet_space(), rng=0).sample()
        assert hash(resnet.cache_key()) is not None
        assert resnet.cache_key() != densenet.cache_key()


# ---------------------------------------------------------------------- #
# The cache wired into SimulatedDevice
# ---------------------------------------------------------------------- #


class TestDeviceCache:
    def test_repeat_lookups_hit(self, configs):
        device = SimulatedDevice("rtx4090")
        values = [device.true_latency(c) for c in configs]
        info = device.cache_info()
        assert (info.hits, info.misses, info.size) == (0, 6, 6)
        again = [device.true_latency(c) for c in configs]
        info = device.cache_info()
        assert (info.hits, info.misses) == (6, 6)
        assert values == again

    def test_cached_equals_uncached(self, configs):
        cached = SimulatedDevice("raspberrypi4")
        uncached = SimulatedDevice("raspberrypi4", cache_size=0)
        for config in configs:
            cached.true_latency(config)  # warm
            assert cached.true_latency(config) == uncached.true_latency(config)
        assert cached.cache_info().hits == len(configs)
        assert uncached.cache_info().hits == 0

    def test_cache_is_bounded(self, configs):
        device = SimulatedDevice("rtx4090", cache_size=2)
        for config in configs:
            device.true_latency(config)
        info = device.cache_info()
        assert info.size == 2
        assert info.maxsize == 2

    def test_profile_swap_invalidates(self, configs):
        device = SimulatedDevice("rtx4090")
        fast = device.true_latency(configs[0])
        device.profile = device_by_name("raspberrypi4")
        slow = device.true_latency(configs[0])
        assert slow > fast  # not the stale rtx4090 entry
        assert slow == SimulatedDevice("raspberrypi4").true_latency(configs[0])

    def test_network_targets_bypass_cache(self, configs):
        device = SimulatedDevice("rtx4090")
        net = build_network(configs[0])
        direct = device.true_latency(net)
        info = device.cache_info()
        assert (info.hits, info.misses, info.size) == (0, 0, 0)
        assert direct == device.true_latency(configs[0])

    def test_measure_batch_populates_cache(self, configs):
        device = SimulatedDevice("rtx4090")
        device.measure_batch(configs * 3, runs=5, rng=np.random.default_rng(0))
        info = device.cache_info()
        assert info.misses == len(configs)
        assert info.hits == 2 * len(configs)


# ---------------------------------------------------------------------- #
# Bit-identity of the vectorized noise model
# ---------------------------------------------------------------------- #


def _legacy_measure(device, target, runs, rng):
    """The original scalar noise model, verbatim: the regression oracle."""
    p = device.profile
    base = device.true_latency(target)

    session = float(np.exp(rng.normal(0.0, p.session_sigma)))
    if rng.random() < p.throttle_prob:
        session *= p.throttle_factor

    trace = base * session * np.exp(rng.normal(0.0, p.jitter_cv, size=runs))

    idx = np.arange(min(p.warmup_iters, runs))
    trace[: idx.size] *= 1.0 + (p.warmup_factor - 1.0) * 0.5**idx

    spikes = rng.random(runs) < p.outlier_prob
    if spikes.any():
        trace[spikes] *= 1.0 + rng.exponential(
            p.outlier_scale, size=int(spikes.sum())
        )
    return trace


@pytest.mark.parametrize("device_name", ["rtx4090", "raspberrypi4"])
@pytest.mark.parametrize("family", ["resnet", "densenet"])
class TestBitIdentity:
    def test_measure_matches_legacy_scalar_model(self, device_name, family):
        config = RandomSampler(space_by_name(family), rng=13).sample()
        device = SimulatedDevice(device_name)
        got = device.measure(config, runs=150, rng=np.random.default_rng(99))
        want = _legacy_measure(
            device, config, runs=150, rng=np.random.default_rng(99)
        )
        np.testing.assert_array_equal(got, want)

    def test_measure_batch_matches_per_config_loop(self, device_name, family):
        configs = RandomSampler(space_by_name(family), rng=17).sample_batch(7)
        device = SimulatedDevice(device_name)
        measured, true = device.measure_batch(
            configs, runs=40, rng=np.random.default_rng(7)
        )
        # One shared stream, one config at a time — the pre-vectorization
        # semantics of measure_batch.
        rng = np.random.default_rng(7)
        for i, config in enumerate(configs):
            assert measured[i] == device.measure_latency(
                config, runs=40, rng=rng
            )
            assert true[i] == device.true_latency(config)
        # Repeated configs, the shape reference re-measurement produces:
        # a caching device's batch against the per-config loop on a device
        # whose config cache is disabled.
        repeated = configs * 3
        measured, _ = SimulatedDevice(device_name).measure_batch(
            repeated, runs=40, rng=np.random.default_rng(7)
        )
        uncached = SimulatedDevice(device_name, cache_size=0)
        rng = np.random.default_rng(7)
        want = [uncached.measure_latency(c, runs=40, rng=rng) for c in repeated]
        np.testing.assert_array_equal(measured, np.array(want))

    def test_outlier_draws_stay_per_config(self, device_name, family):
        # Outliers are rare; a long trace forces spike draws in some
        # configs and none in others, exercising the conditional
        # exponential draw that is easiest to get wrong when blocking.
        configs = RandomSampler(space_by_name(family), rng=29).sample_batch(4)
        device = SimulatedDevice(device_name)
        measured, _ = device.measure_batch(
            configs, runs=400, rng=np.random.default_rng(3)
        )
        rng = np.random.default_rng(3)
        want = [
            device.measure_latency(c, runs=400, rng=rng) for c in configs
        ]
        np.testing.assert_array_equal(measured, np.array(want))
