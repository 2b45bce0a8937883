"""Shared fixtures: Table I specs, a small measured ResNet dataset, and a
spy on MLP fits."""

from pathlib import Path

import numpy as np
import pytest

from repro import (
    LatencyDataset,
    LatencySample,
    MLPPredictor,
    RandomSampler,
    SimulatedDevice,
    densenet_space,
    mobilenetv3_space,
    resnet_space,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def mlp_fits(monkeypatch):
    """The ``epochs`` of every `MLPPredictor.fit` call the test makes."""
    fits = []
    original = MLPPredictor.fit

    def counted(self, X, y):
        fits.append(self.epochs)
        return original(self, X, y)

    monkeypatch.setattr(MLPPredictor, "fit", counted)
    return fits


@pytest.fixture(scope="session")
def resnet_spec():
    return resnet_space()


@pytest.fixture(scope="session")
def mobilenetv3_spec():
    return mobilenetv3_space()


@pytest.fixture(scope="session")
def densenet_spec():
    return densenet_space()


@pytest.fixture(scope="session")
def densenet_fixture_path():
    paths = sorted((REPO_ROOT / "tests" / "fixtures").glob("densenet-*.json"))
    assert paths, "committed densenet fixture missing from tests/fixtures/"
    return paths[0]


@pytest.fixture(scope="session")
def small_resnet_dataset(resnet_spec):
    """140 seeded ResNet measurements on the simulated RTX 4090.

    Session-scoped: several predictor/metric tests share it to keep the
    suite fast.  Everything downstream of this fixture is deterministic.
    """
    device = SimulatedDevice("rtx4090", seed=5)
    configs = RandomSampler(resnet_spec, rng=5).sample_batch(140)
    measured, true = device.measure_batch(
        configs, runs=15, rng=np.random.default_rng(55)
    )
    return LatencyDataset(
        [
            LatencySample(
                config=c,
                latency_s=float(m),
                device="rtx4090",
                true_latency_s=float(t),
            )
            for c, m, t in zip(configs, measured, true)
        ]
    )
