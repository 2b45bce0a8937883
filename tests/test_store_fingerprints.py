"""Pinned campaign and search fingerprints.

A store refuses a directory whose manifest fingerprint differs from its
own, so a change to how either hashes its identity would strand
every directory written before it.  The digests below were recorded
before the stores shared one fingerprint helper; this file imports
nothing newer than that so it runs against either side of the change.
"""

import pytest

from repro import (
    CampaignRunner,
    DeviceOracle,
    EvolutionarySearch,
    MeasurementProtocol,
    RandomSampler,
    RandomSearch,
    ReferenceSet,
    SearchConstraints,
    SimulatedDevice,
    SyntheticAccuracyProxy,
    resnet_space,
)

CONSTRAINTS = SearchConstraints(max_latency_s=0.0009)


@pytest.fixture(scope="module")
def harness():
    spec = resnet_space()
    device = SimulatedDevice("rtx4090", seed=0)
    return spec, device, SyntheticAccuracyProxy(spec, seed=0)


class TestPinnedFingerprints:
    def test_campaign(self, harness, tmp_path):
        spec, device, _ = harness
        runner = CampaignRunner(
            device,
            RandomSampler(spec, rng=1).sample_batch(3),
            tmp_path,
            ReferenceSet.from_space(spec, k=2, rng=7),
            protocol=MeasurementProtocol(runs=25),
            batch_size=2,
            seed=42,
        )
        assert runner.fingerprint() == (
            "376b0b291f97ae66abda9e781171551b48df59bc3b9b9c1aa20e8d51ab63f0b7"
        )

    def test_searches(self, harness):
        spec, device, proxy = harness
        oracle = DeviceOracle(device)
        evo = EvolutionarySearch(
            spec, oracle, proxy, population_size=6, generations=2, seed=3,
            constraints=CONSTRAINTS,
        )
        assert evo.fingerprint() == (
            "95da1015ac02a9e4290559f6f3d67a1433b40ac71cae3627f90bf5b8d397d1e0"
        )
        rand = RandomSearch(spec, oracle, proxy, budget=12, seed=11)
        assert rand.fingerprint() == (
            "392a7311e6b0db5eacd6d5279914d47d9362a69bbf0474c0171bf9b220f330c5"
        )
