"""The predictor contract, enforced over every registered implementation.

One parametrized suite runs the whole zoo — MLP, both LUT variants, ridge,
CART, random forest, gradient boosting, the adaptive switcher, and the
cross-device transfer wrapper — against the exact protocol `ESMLoop`,
`PredictorOracle`, and run provenance rely on:

* ``fit`` returns ``self``; ``predict`` yields a float64 1-D array, one
  finite value per row, and ``predict_one`` agrees with it,
* a NaN or inf in ``X`` or ``y`` is a `ValueError` naming the entry,
* seeded determinism: refits of identically-constructed predictors are
  bit-identical; different seeds genuinely differ where stochastic,
* ``save`` -> ``load`` -> ``predict`` round-trips bit for bit, both via
  the concrete class and via the kind-dispatching `load_predictor`,
* predict/save before fit are refused,
* ``get_params`` round-trips through JSON *and* through the constructor,
* saves are atomic: a crash mid-save leaves the previous file untouched
  and no temp litter behind,
* a torn payload (a state field dropped or retyped, an unknown
  hyperparameter, a payload that is not an object, MLP arrays that `fit`
  cannot write) is a `ValueError` naming the field path.

Adding a predictor to the registry without passing this suite is a bug by
definition; new zoo members only need an entry in ``CONTRACT_PREDICTORS``.
"""

import copy
import json
import os
import re

import numpy as np
import pytest

from repro import Predictor, get_predictor, load_predictor
from repro.predictors import predictor_from_payload

# Registry name -> fast constructor kwargs.  Every entry must stay cheap:
# the whole suite runs each of these dozens of times.
_FAST_AS_ZOO = {
    "zoo": ["ridge", "cart", "rf"],
    "zoo_params": {"rf": {"n_estimators": 8}},
    "cv_folds": 3,
}
CONTRACT_PREDICTORS = {
    "mlp": {"epochs": 40},
    "lut": {},
    "lut+bias": {},
    "ridge": {},
    "cart": {},
    "rf": {"n_estimators": 10},
    "gb": {"n_estimators": 30},
    "as": _FAST_AS_ZOO,
    # Self-calibration mode: fits the ridge base on the data, then the
    # monotone map on its own predictions.  The frozen-proxy mode gets
    # its own dedicated suite in test_transfer_predictor.py.
    "transfer": {"base": "ridge"},
}

# Members whose saved state fixes the feature width.
WIDTH_IN_STATE = ("mlp", "ridge")

# Members whose fit consumes randomness; the rest are exact solvers where
# "different seed" is *allowed* to coincide.
STOCHASTIC = ("mlp", "rf")


@pytest.fixture(params=sorted(CONTRACT_PREDICTORS), ids=str)
def name(request):
    return request.param


def make(name, **overrides):
    return get_predictor(name, **{**CONTRACT_PREDICTORS[name], **overrides})


@pytest.fixture(scope="module")
def toy():
    """Latency-shaped toy data: positive targets, count-style features."""
    rng = np.random.default_rng(7)
    X = rng.integers(0, 5, size=(90, 8)).astype(float)
    w = rng.uniform(0.5, 2.0, size=8)
    y = X @ w + 0.2 * X.sum(axis=1) ** 1.3 + rng.normal(0, 0.1, 90) + 3.0
    return X, y


class TestFitPredict:
    def test_fit_returns_self(self, name, toy):
        X, y = toy
        predictor = make(name)
        assert predictor.fit(X, y) is predictor

    def test_predict_shape_and_dtype(self, name, toy):
        X, y = toy
        pred = make(name).fit(X, y).predict(X[:17])
        assert isinstance(pred, np.ndarray)
        assert pred.shape == (17,)
        assert pred.dtype == np.float64
        assert np.isfinite(pred).all()

    def test_predict_one_matches_batch(self, name, toy):
        X, y = toy
        predictor = make(name).fit(X, y)
        # Exact: the single-query fast path (for `as`, straight to the
        # winner) must not move a bit against the 1-row batch.
        assert predictor.predict_one(X[3]) == float(predictor.predict(X[3:4])[0])

    def test_satisfies_protocol(self, name):
        assert isinstance(make(name), Predictor)

    def test_malformed_inputs_rejected(self, name, toy):
        X, y = toy
        with pytest.raises(ValueError):
            make(name).fit(X, y[:-1])  # length mismatch
        with pytest.raises(ValueError):
            make(name).fit(X[0], y[:1])  # 1-D design matrix

    def test_non_finite_inputs_rejected(self, name, toy):
        """One NaN or inf must not train a NaN surrogate silently."""
        X, y = toy
        bad_X = X.copy()
        bad_X[0, 1] = np.inf
        with pytest.raises(ValueError, match=r"X\[0, 1\]: inf"):
            make(name).fit(bad_X, y)
        bad_y = y.copy()
        bad_y[3] = np.nan
        with pytest.raises(ValueError, match=r"y\[3\]: nan"):
            make(name).fit(X, bad_y)

    def test_empty_batch_predicts_empty(self, name, toy):
        """A 0-row batch (a micro-batcher flushing nothing) must not crash."""
        X, y = toy
        pred = make(name).fit(X, y).predict(np.empty((0, X.shape[1])))
        assert isinstance(pred, np.ndarray)
        assert pred.shape == (0,)
        assert pred.dtype == np.float64

    def test_wrong_feature_width_rejected(self, name, toy):
        X, y = toy
        predictor = make(name).fit(X, y)
        assert predictor.n_features_in_ == X.shape[1]
        with pytest.raises(ValueError, match="features"):
            predictor.predict(np.zeros((3, X.shape[1] + 2)))
        with pytest.raises(ValueError, match="features"):
            predictor.predict(np.zeros((3, X.shape[1] - 1)))
        with pytest.raises(ValueError, match="2-D"):
            predictor.predict(np.zeros(X.shape[1]))  # 1-D row, not a batch


class TestUnfitRejection:
    def test_predict_before_fit_raises(self, name):
        with pytest.raises(RuntimeError, match="not fitted"):
            make(name).predict(np.zeros((2, 8)))

    def test_save_before_fit_raises(self, name, tmp_path):
        with pytest.raises(RuntimeError, match="unfitted"):
            make(name).save(tmp_path / "p.json")


class TestSeededDeterminism:
    def test_identical_construction_is_bit_identical(self, name, toy):
        X, y = toy
        a = make(name).fit(X, y).predict(X)
        b = make(name).fit(X, y).predict(X)
        np.testing.assert_array_equal(a, b)

    def test_refit_of_same_instance_is_bit_identical(self, name, toy):
        X, y = toy
        predictor = make(name)
        a = predictor.fit(X, y).predict(X)
        b = predictor.fit(X, y).predict(X)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("stochastic", STOCHASTIC)
    def test_different_seeds_differ(self, stochastic, toy):
        X, y = toy
        a = make(stochastic, seed=1).fit(X, y).predict(X)
        b = make(stochastic, seed=2).fit(X, y).predict(X)
        assert not np.array_equal(a, b)


class TestPersistence:
    def test_save_load_predict_bit_identical(self, name, toy, tmp_path):
        X, y = toy
        predictor = make(name).fit(X, y)
        path = tmp_path / "predictor.json"
        predictor.save(path)
        clone = type(predictor).load(path)
        np.testing.assert_array_equal(clone.predict(X), predictor.predict(X))
        # Fresh inputs too, not just the training matrix.
        X_new = np.random.default_rng(11).integers(0, 5, size=(25, 8)).astype(float)
        np.testing.assert_array_equal(
            clone.predict(X_new), predictor.predict(X_new)
        )

    def test_loaded_predictor_keeps_the_width_check(self, name, toy, tmp_path):
        """save -> load -> wrong width: the contract's error, not numpy's.

        Ridge and MLP states fix the width (``x_mean``); `as` and
        `transfer` take it from their restored inner model.  Trees and the
        LUT record none, so theirs stays unknown.
        """
        X, y = toy
        make(name).fit(X, y).save(tmp_path / "predictor.json")
        clone = load_predictor(tmp_path / "predictor.json")
        inner = {"as": lambda p: p.model.KIND, "transfer": lambda p: p.proxy_kind}
        if inner.get(name, lambda p: p.KIND)(clone) not in WIDTH_IN_STATE:
            assert clone.n_features_in_ is None
            return
        assert clone.n_features_in_ == X.shape[1]
        for width in (X.shape[1] + 2, X.shape[1] - 1):
            with pytest.raises(ValueError, match=f"predict expects {X.shape[1]} features"):
                clone.predict(np.zeros((3, width)))

    def test_load_predictor_dispatches_on_kind(self, name, toy, tmp_path):
        X, y = toy
        predictor = make(name).fit(X, y)
        path = tmp_path / "predictor.json"
        predictor.save(path)
        clone = load_predictor(path)
        assert type(clone) is type(predictor)
        np.testing.assert_array_equal(clone.predict(X), predictor.predict(X))

    def test_save_twice_is_deterministic(self, name, toy, tmp_path):
        X, y = toy
        predictor = make(name).fit(X, y)
        predictor.save(tmp_path / "a.json")
        predictor.save(tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (
            tmp_path / "b.json"
        ).read_bytes()

    def test_loaded_params_match(self, name, toy, tmp_path):
        X, y = toy
        predictor = make(name).fit(X, y)
        predictor.save(tmp_path / "p.json")
        assert load_predictor(tmp_path / "p.json").get_params() == (
            predictor.get_params()
        )

    def test_wrong_kind_rejected(self, name, toy, tmp_path):
        X, y = toy
        predictor = make(name).fit(X, y)
        path = tmp_path / "p.json"
        predictor.save(path)
        payload = json.loads(path.read_text())
        payload["kind"] = "definitely-not-a-predictor"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="kind"):
            load_predictor(path)


# State fields a payload may omit: a switcher saved before its CV was
# raced has no fold counts and loads as a full CV.
OPTIONAL_STATE = {"as": {"cv_folds_run"}}


class TestTornPayload:
    @pytest.fixture
    def payload(self, name, toy):
        X, y = toy
        return json.loads(json.dumps(make(name).fit(X, y).to_payload()))

    @staticmethod
    def assert_names(payload, path):
        with pytest.raises(ValueError, match=rf"^{re.escape(path)}[.:]"):
            predictor_from_payload(payload)

    def test_missing_state_field_names_it(self, name, payload):
        for field in sorted(set(payload["state"]) - OPTIONAL_STATE.get(name, set())):
            torn = copy.deepcopy(payload)
            del torn["state"][field]
            self.assert_names(torn, f"state.{field}")

    def test_retyped_state_field_names_it(self, name, payload):
        for field, value in payload["state"].items():
            torn = copy.deepcopy(payload)
            torn["state"][field] = 0 if isinstance(value, str) else "torn"
            self.assert_names(torn, f"state.{field}")

    def test_unknown_hyperparameter_names_it(self, name, payload):
        payload["hyperparameters"]["bogus"] = 1
        self.assert_names(payload, "hyperparameters.bogus")

    @pytest.fixture
    def mlp_payload(self, toy):
        X, y = toy
        return json.loads(json.dumps(make("mlp").fit(X, y).to_payload()))

    @pytest.mark.parametrize(
        "path, tear",
        [
            ("state.weights.1", lambda s: s["weights"][1].pop()),  # short
            ("state.weights.0", lambda s: [r.pop() for r in s["weights"][0]]),
            ("state.weights.2", lambda s: s["weights"][2].append([0.0])),
            ("state.weights.1", lambda s: s["weights"].__setitem__(1, [[0.0, [1.0]]])),
            ("state.weights", lambda s: s["weights"].pop()),
            ("state.biases.2", lambda s: s["biases"][2].append(0.0)),
            ("state.biases", lambda s: s["biases"].append([0.0])),
            ("state.x_mean", lambda s: s["x_mean"].__setitem__(0, [0.0])),
            ("state.x_std", lambda s: s["x_std"].pop()),
            ("state.x_std.3", lambda s: s["x_std"].__setitem__(3, 0.0)),
            ("state.x_std.3", lambda s: s["x_std"].__setitem__(3, -1.0)),
            ("state.x_std.3", lambda s: s["x_std"].__setitem__(3, float("nan"))),
            ("state.x_std.3", lambda s: s["x_std"].__setitem__(3, float("inf"))),
            ("state.y_scale", lambda s: s.__setitem__("y_scale", float("nan"))),
            ("state.y_scale", lambda s: s.__setitem__("y_scale", float("inf"))),
            ("state.y_scale", lambda s: s.__setitem__("y_scale", 0.0)),
            ("state.y_scale", lambda s: s.__setitem__("y_scale", -2.5)),
            ("state.loss_history", lambda s: s["loss_history"].__setitem__(0, "torn")),
        ],
    )
    def test_mlp_state_fit_cannot_write_names_it(self, mlp_payload, path, tear):
        """Shapes that do not chain ``d -> hidden -> hidden -> 1`` and
        scales that are not finite and positive are refused at load, not
        at predict (a ``matmul`` error) or in the output (NaN)."""
        tear(mlp_payload["state"])
        self.assert_names(json.loads(json.dumps(mlp_payload)), path)

    @pytest.mark.parametrize("junk", [[1, 2], "payload", 3, None])
    def test_non_object_payload_is_a_value_error(self, name, junk):
        with pytest.raises(ValueError, match="expected an object"):
            predictor_from_payload(junk)
        with pytest.raises(ValueError, match="expected an object"):
            type(make(name)).from_payload(junk)


class TestAtomicSave:
    """A crash mid-save must leave the previous file bytes untouched."""

    def test_crash_mid_save_preserves_previous_file(
        self, name, toy, tmp_path, monkeypatch
    ):
        X, y = toy
        path = tmp_path / "predictor.json"
        make(name).fit(X, y).save(path)
        before = path.read_bytes()

        # Refit changes the bytes a save would write; crash the swap.
        predictor = make(name).fit(X[:60], y[:60])

        def boom(*args, **kwargs):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="simulated crash"):
            predictor.save(path)
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == [], "temp litter left behind"


class TestParamsJsonRoundTrip:
    def test_params_survive_json(self, name):
        predictor = make(name)
        params = predictor.get_params()
        decoded = json.loads(json.dumps(params))
        assert decoded == params

    def test_constructor_round_trip(self, name):
        predictor = make(name)
        rebuilt = type(predictor)(**json.loads(json.dumps(predictor.get_params())))
        assert rebuilt.get_params() == predictor.get_params()

    def test_fit_does_not_mutate_params(self, name, toy):
        X, y = toy
        predictor = make(name)
        before = json.dumps(predictor.get_params(), sort_keys=True)
        predictor.fit(X, y)
        assert json.dumps(predictor.get_params(), sort_keys=True) == before


class TestFitDataset:
    def test_fit_dataset_equals_manual_encode(
        self, name, small_resnet_dataset, resnet_spec
    ):
        dataset = small_resnet_dataset[:60]
        direct = make(name).fit(
            dataset.encode("fcc", resnet_spec), dataset.latencies
        )
        via_dataset = make(name).fit_dataset(dataset, "fcc", resnet_spec)
        X = dataset.encode("fcc", resnet_spec)
        np.testing.assert_array_equal(
            via_dataset.predict(X), direct.predict(X)
        )
