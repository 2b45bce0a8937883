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
racing rule.  ``MLP_EDGE_CASES`` locks the MLP step kernel's edge paths
on their own: a ragged last batch, fewer rows than one batch, a single
row, a narrow hidden layer, no weight decay, an early stop, and enough
Adam steps that the first-moment bias correction divides by exactly 1.0.
Re-record the digests only after an *intentional* change to fitted
values::

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


# MLP step-kernel edge paths: name -> (leading bitlock rows, kwargs).
MLP_EDGE_CASES = {
    "ragged_batch": (75, {"epochs": 20}),  # 64 + a last batch of 11
    "rows_below_batch": (40, {"epochs": 20}),
    "single_row": (1, {"epochs": 20}),
    "hidden_8": (90, {"epochs": 20, "hidden_dim": 8}),
    "no_weight_decay": (90, {"epochs": 20, "weight_decay": 0.0}),
    "early_stop": (90, {"epochs": 200, "patience": 2, "tol": 1e-3}),
    "bias_corrected": (90, {"epochs": 200}),  # 400 steps: 1 - 0.9**t == 1.0
}

EXPECTED_MLP_EDGE_SHA256 = {
    "bias_corrected": "6f3ee5d41e172bed8d1c5344d07be0a101d2c40812392491ed111b08ba7dda84",
    "early_stop": "cb5f9c8b1bd6a5bab8911292ce64b096067415b0e97e9cb41087d1618bb90e23",
    "hidden_8": "7ae0f3218fae903b456304138e208f71719e2579334a221c417e5989eb42b0d3",
    "no_weight_decay": "65a380ecbf99077708063ca970590d4c7ecc8efec96c7691769eac54f862b94c",
    "ragged_batch": "6b7f5f9fad780450b423c8a5d2e5236be31586426ef54d588f9f154b15e5c407",
    "rows_below_batch": "d53671d46a1a49315fe1ff99c4e7dd88e0b9890812f774683ed10f03580cc796",
    "single_row": "21424adba035ecaa6f844c6986347862fc4db2bb4a3a3dbee674fbc816bc9bd3",
}


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


def mlp_edge_predictor(case, X, y):
    rows, kwargs = MLP_EDGE_CASES[case]
    return get_predictor("mlp", seed=3, **kwargs).fit(X[:rows], y[:rows])


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


@pytest.mark.parametrize("case", sorted(MLP_EDGE_CASES))
def test_mlp_edge_path_payload_is_locked(case, data):
    predictor = mlp_edge_predictor(case, *data)
    assert sha256_json(predictor.to_payload()) == EXPECTED_MLP_EDGE_SHA256[case]


def test_mlp_edge_cases_reach_their_paths(data):
    """The cases exercise what their names say, not an easier path."""
    X, y = data
    rows, kwargs = MLP_EDGE_CASES["early_stop"]
    stopped = mlp_edge_predictor("early_stop", X, y)
    assert len(stopped.loss_history_) < kwargs["epochs"]
    rows, kwargs = MLP_EDGE_CASES["bias_corrected"]
    steps = kwargs["epochs"] * -(-rows // 64)
    assert 1 - 0.9**steps == 1.0 and steps > 355
    assert MLP_EDGE_CASES["ragged_batch"][0] % 64 != 0
    assert MLP_EDGE_CASES["rows_below_batch"][0] < 64


if __name__ == "__main__":
    X, y = bitlock_data()
    for name in sorted(BITLOCK_PREDICTORS):
        print(f'    "{name}": "{sha256_json(bitlock_payload(name, X, y))}",')
    model = bitlock_payload("as", X, y)["state"]["model"]
    print(f'    as state.model: "{sha256_json(model)}"')
    for case in sorted(MLP_EDGE_CASES):
        payload = mlp_edge_predictor(case, X, y).to_payload()
        print(f'    mlp edge "{case}": "{sha256_json(payload)}",')
