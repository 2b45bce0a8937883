"""Fast bit-lock on the zoo's fit engines.

Seeded cart, rf, gb, mlp and ``as`` fits on one small fixed FCC dataset
must serialise to exactly the payload bytes recorded below.  The golden
traces lock the same bits end to end, but they take minutes; this suite
takes seconds, so a change to the CART split scan or the MLP optimiser
that moves a single float bit fails here first.

The digests are sha256 over ``json.dumps(to_payload(), sort_keys=True)``.
The ``as`` payload also carries the raced CV's diagnostics (the bound an
eliminated member was dropped at, the folds each member ran), so its
fitted winner is locked separately: the nested ``model`` payload digest
below was recorded before CV was raced and must never move with the
racing rule.  Re-record the digests only after an *intentional* change to
fitted values::

    PYTHONPATH=src python tests/test_predictor_bitlock.py
"""

import hashlib
import json

import numpy as np
import pytest

from repro import (
    LatencyDataset,
    LatencySample,
    RandomSampler,
    SimulatedDevice,
    get_predictor,
    resnet_space,
)

# Registry name -> constructor kwargs; small enough to fit in seconds.
BITLOCK_PREDICTORS = {
    "cart": {},
    "rf": {"n_estimators": 12},
    "gb": {"n_estimators": 40},
    "mlp": {"epochs": 60},
    "as": {
        "zoo": ["ridge", "cart", "rf", "gb", "mlp"],
        "zoo_params": {
            "rf": {"n_estimators": 6},
            "gb": {"n_estimators": 20},
            "mlp": {"epochs": 30},
        },
        "cv_folds": 3,
    },
}

EXPECTED_SHA256 = {
    "as": "ceb572026f1f1fd36e8d7531e145bf4319ec36a1384c20611c3cab405e64fc4d",
    "cart": "5730c798933637d233c23a8aa758134605f5f6c84ddc36739b6ab75535892e2f",
    "gb": "847849ecb6885e0ad22f0a99837afcf990a17ea3a19f80979fe1ea57005df4c7",
    "mlp": "f7f1365d1e2764409bde0bd0adceb35478234ce2812e962713ca66def9cc910a",
    "rf": "93fa4b539a16989102f1049155aff0e52929594d242b58300153b63d8724ad2c",
}

# sha256 of the ``as`` payload's nested winner (``state.model``), as a
# full, unraced k-fold CV selects and refits it.
EXPECTED_AS_MODEL_SHA256 = (
    "49e09b1e934ec00a6f2b8cf5441d2e664f7b0de7be026d9bc600d214d37858fd"
)


def bitlock_data():
    """90 seeded ResNet measurements on the simulated RTX 4090, FCC-encoded."""
    spec = resnet_space()
    device = SimulatedDevice("rtx4090", seed=11)
    configs = RandomSampler(spec, rng=11).sample_batch(90)
    measured, true = device.measure_batch(
        configs, runs=5, rng=np.random.default_rng(111)
    )
    dataset = LatencyDataset(
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
    return dataset.encode("fcc", spec), dataset.latencies


def bitlock_payload(name, X, y):
    predictor = get_predictor(name, seed=3, **BITLOCK_PREDICTORS[name])
    return predictor.fit(X, y).to_payload()


def sha256_json(payload):
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def data():
    return bitlock_data()


@pytest.mark.parametrize("name", sorted(BITLOCK_PREDICTORS))
def test_payload_bytes_are_locked(name, data):
    assert sha256_json(bitlock_payload(name, *data)) == EXPECTED_SHA256[name]


def test_as_nested_winner_payload_is_locked(data):
    model = bitlock_payload("as", *data)["state"]["model"]
    assert sha256_json(model) == EXPECTED_AS_MODEL_SHA256


if __name__ == "__main__":
    X, y = bitlock_data()
    for name in sorted(BITLOCK_PREDICTORS):
        print(f'    "{name}": "{sha256_json(bitlock_payload(name, X, y))}",')
    model = bitlock_payload("as", X, y)["state"]["model"]
    print(f'    as state.model: "{sha256_json(model)}"')
