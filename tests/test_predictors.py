"""Predictors: MLP convergence/determinism, LUT exactness and bias correction."""

import numpy as np
import pytest

from repro import (
    AdaptiveSwitchingPredictor,
    ESMConfig,
    ESMLoop,
    LookupTableSurrogate,
    MLPPredictor,
    get_predictor,
    list_predictors,
    paper_accuracy,
)


def _linear_toy(n=256, d=6, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    return X, X @ w + 3.0


class TestRegistry:
    def test_names(self):
        assert set(list_predictors()) == {
            "mlp",
            "lut",
            "lut+bias",
            "ridge",
            "cart",
            "rf",
            "gb",
            "as",
            "transfer",
        }

    def test_instances(self):
        assert isinstance(get_predictor("mlp"), MLPPredictor)
        assert not get_predictor("lut").bias_correction
        assert get_predictor("lut+bias").bias_correction

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_predictor("xgboost")


class TestMLP:
    def test_loss_strictly_decreases_on_linear_toy(self):
        X, y = _linear_toy()
        mlp = MLPPredictor(epochs=80, batch_size=256, lr=0.001, seed=0).fit(X, y)
        losses = np.array(mlp.loss_history_)
        assert losses.shape == (80,)
        assert (np.diff(losses) < 0).all()
        assert losses[-1] < 0.05 * losses[0]

    def test_fits_linear_function_accurately(self):
        X, y = _linear_toy()
        mlp = MLPPredictor(epochs=600, seed=0).fit(X[:200], y[:200])
        pred = mlp.predict(X[200:])
        assert np.abs(pred - y[200:]).mean() < 0.2 * np.abs(y).std()

    def test_seeded_determinism(self):
        X, y = _linear_toy()
        a = MLPPredictor(epochs=30, seed=5).fit(X, y).predict(X)
        b = MLPPredictor(epochs=30, seed=5).fit(X, y).predict(X)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        X, y = _linear_toy()
        a = MLPPredictor(epochs=30, seed=1).fit(X, y).predict(X)
        b = MLPPredictor(epochs=30, seed=2).fit(X, y).predict(X)
        assert not np.array_equal(a, b)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            MLPPredictor().predict(np.zeros((1, 3)))

    def test_predict_one(self):
        X, y = _linear_toy()
        mlp = MLPPredictor(epochs=50, seed=0).fit(X, y)
        assert mlp.predict_one(X[0]) == pytest.approx(mlp.predict(X[:1])[0])


class TestLookupTable:
    def test_recovers_exactly_additive_costs(self):
        """On truly additive data the least-squares LUT is exact."""
        rng = np.random.default_rng(0)
        X = rng.integers(0, 5, size=(120, 12)).astype(float)
        costs = rng.uniform(0.5, 2.0, size=12)
        y = X @ costs
        lut = LookupTableSurrogate().fit(X, y)
        np.testing.assert_allclose(lut.predict(X), y, rtol=1e-8)
        np.testing.assert_allclose(lut.table_, costs, rtol=1e-8)

    def test_bias_correction_beats_raw_lut_on_held_out_data(
        self, resnet_spec, small_resnet_dataset
    ):
        """The simulator's global terms (launch overhead, cache pressure)
        break pure additivity; the linear bias correction must recover
        accuracy on a held-out split."""
        train, test = small_resnet_dataset.split(0.75, rng=1)
        X_train = train.encode("fcc", resnet_spec)
        X_test = test.encode("fcc", resnet_spec)
        raw = LookupTableSurrogate().fit(X_train, train.latencies)
        corrected = LookupTableSurrogate(bias_correction=True).fit(
            X_train, train.latencies
        )
        acc_raw = paper_accuracy(test.latencies, raw.predict(X_test))
        acc_corrected = paper_accuracy(test.latencies, corrected.predict(X_test))
        assert acc_corrected >= acc_raw
        assert acc_corrected > 90.0

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LookupTableSurrogate().predict(np.zeros((1, 3)))


class TestMLPEarlyStopping:
    def test_off_by_default(self):
        X, y = _linear_toy()
        mlp = MLPPredictor(epochs=40, seed=0).fit(X, y)
        assert mlp.patience is None
        assert len(mlp.loss_history_) == 40

    def test_triggers_on_easy_dataset(self):
        X, y = _linear_toy()
        mlp = MLPPredictor(epochs=300, seed=1, patience=10, tol=1e-7).fit(X, y)
        assert len(mlp.loss_history_) < 300
        # Still an accurate fit: stopping early must not mean underfitting.
        assert np.abs(mlp.predict(X) - y).mean() < 0.2 * np.abs(y).std()

    def test_stopped_run_is_a_prefix_of_the_full_run(self):
        # Early stopping only truncates training: every epoch it does run
        # consumes the same draws as the fixed-epoch schedule, so the loss
        # history is a prefix of the patience-free one.
        X, y = _linear_toy()
        full = MLPPredictor(epochs=300, seed=1).fit(X, y)
        stopped = MLPPredictor(epochs=300, seed=1, patience=10, tol=1e-7).fit(X, y)
        k = len(stopped.loss_history_)
        assert stopped.loss_history_ == full.loss_history_[:k]

    def test_huge_tol_stops_after_patience_epochs(self):
        # The first epoch always "improves" on the infinite initial best;
        # with an unreachable tol every later epoch is stale.
        X, y = _linear_toy()
        mlp = MLPPredictor(epochs=100, seed=0, patience=3, tol=1e9).fit(X, y)
        assert len(mlp.loss_history_) == 1 + 3

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MLPPredictor(patience=0)
        with pytest.raises(ValueError):
            MLPPredictor(tol=-1e-3)


class TestMLPHyperparameterValidation:
    """Nonsense hyperparameters fail at construction, naming the field."""

    @pytest.mark.parametrize("value", [0, -1])
    def test_hidden_dim(self, value):
        with pytest.raises(ValueError, match="hidden_dim"):
            MLPPredictor(hidden_dim=value)

    @pytest.mark.parametrize("value", [0, -1])
    def test_epochs(self, value):
        with pytest.raises(ValueError, match="epochs"):
            MLPPredictor(epochs=value)

    @pytest.mark.parametrize("value", [0, -1])
    def test_batch_size(self, value):
        with pytest.raises(ValueError, match="batch_size"):
            MLPPredictor(batch_size=value)

    @pytest.mark.parametrize("value", [0.0, -0.01, float("nan"), float("inf")])
    def test_lr(self, value):
        with pytest.raises(ValueError, match="lr"):
            get_predictor("mlp", lr=value)

    @pytest.mark.parametrize("value", [-1e-4, float("nan"), float("inf")])
    def test_weight_decay(self, value):
        with pytest.raises(ValueError, match="weight_decay"):
            MLPPredictor(weight_decay=value)

    @pytest.mark.parametrize(
        "field", ["hidden_dim", "epochs", "batch_size", "patience"]
    )
    @pytest.mark.parametrize("value", [2.5, 8.0, True, "8"])
    def test_non_integer_sizes(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            MLPPredictor(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-3])
    def test_tol(self, value):
        with pytest.raises(ValueError, match="tol"):
            MLPPredictor(patience=3, tol=value)

    def test_boundary_values_accepted(self):
        X, y = _linear_toy(n=8)
        mlp = MLPPredictor(hidden_dim=1, epochs=1, batch_size=1, weight_decay=0.0)
        assert np.isfinite(mlp.fit(X, y).predict(X)).all()

    def test_rejected_through_zoo_params_and_esm_config(self, tmp_path):
        X, y = _linear_toy(n=30)
        switcher = AdaptiveSwitchingPredictor(
            zoo=["ridge", "mlp"], zoo_params={"mlp": {"epochs": 0}}
        )
        with pytest.raises(ValueError, match="epochs"):
            switcher.fit(X, y)
        config = ESMConfig(
            predictor="mlp",
            predictor_params={"lr": float("nan")},
            initial_size=12,
            max_iterations=1,
            runs=3,
            n_references=1,
            batch_size=12,
        )
        with pytest.raises(ValueError, match="lr"):
            ESMLoop(config, tmp_path / "run").run()


class TestMLPPersistence:
    """save/load must reproduce the fitted predictor bit for bit."""

    def fitted(self, seed=0):
        X, y = _linear_toy(seed=seed)
        return X, y, MLPPredictor(epochs=60, seed=seed).fit(X, y)

    def test_round_trip_predictions_identical(self, tmp_path):
        X, y, mlp = self.fitted()
        path = tmp_path / "mlp.json"
        mlp.save(path)
        clone = MLPPredictor.load(path)
        # Bit-identical, not approximately equal: weights and the
        # normalisation stats all survive JSON's shortest-repr floats.
        np.testing.assert_array_equal(clone.predict(X), mlp.predict(X))
        X_new = np.random.default_rng(99).normal(size=(32, X.shape[1]))
        np.testing.assert_array_equal(clone.predict(X_new), mlp.predict(X_new))

    def test_round_trip_preserves_state(self, tmp_path):
        _, _, mlp = self.fitted(seed=2)
        mlp.save(tmp_path / "mlp.json")
        clone = MLPPredictor.load(tmp_path / "mlp.json")
        assert clone.hidden_dim == mlp.hidden_dim
        assert clone.seed == mlp.seed
        assert clone.loss_history_ == mlp.loss_history_
        for a, b in zip(clone._weights, mlp._weights):
            np.testing.assert_array_equal(a, b)

    def test_save_twice_is_deterministic(self, tmp_path):
        _, _, mlp = self.fitted()
        mlp.save(tmp_path / "a.json")
        mlp.save(tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_unfitted_save_rejected(self, tmp_path):
        with pytest.raises(RuntimeError, match="unfitted"):
            MLPPredictor().save(tmp_path / "mlp.json")

    def test_wrong_payload_rejected(self, tmp_path):
        import json

        bad_version = tmp_path / "v.json"
        bad_version.write_text(json.dumps({"format_version": 99, "kind": "mlp"}))
        with pytest.raises(ValueError, match="format_version"):
            MLPPredictor.load(bad_version)
        bad_kind = tmp_path / "k.json"
        bad_kind.write_text(json.dumps({"format_version": 1, "kind": "lut"}))
        with pytest.raises(ValueError, match="kind"):
            MLPPredictor.load(bad_kind)

    def test_fit_dataset_convenience(self, small_resnet_dataset, resnet_spec):
        direct = MLPPredictor(epochs=40, seed=0).fit(
            small_resnet_dataset.encode("fcc", resnet_spec),
            small_resnet_dataset.latencies,
        )
        via_dataset = MLPPredictor(epochs=40, seed=0).fit_dataset(
            small_resnet_dataset, "fcc", resnet_spec
        )
        X = small_resnet_dataset.encode("fcc", resnet_spec)
        np.testing.assert_array_equal(
            via_dataset.predict(X), direct.predict(X)
        )
