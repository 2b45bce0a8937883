"""The adaptive switcher's raced cross-validation against a full CV.

`AdaptiveSwitchingPredictor.fit` skips a member's remaining folds once
the mean of its completed fold losses, padded with zeros, can no longer
beat the best full CV mean (see the `repro.predictors.switching`
docstring).  The full k-fold loop it replaced is kept here verbatim as
the oracle, and a hypothesis suite over random datasets and zoos —
real members, exact ties, members that diverge to NaN or inf on every
fold or only on some, all-non-finite zoos, 2–5 folds and both metrics —
asserts the raced fit picks the same winner, refits it to the same
payload bytes, and reports bit-identical losses for every member that ran
all its folds.  A spy on member ``fit`` pins the saving, and the payload
tests pin the persisted fold counts and the typed errors for malformed
state.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import AdaptiveSwitchingPredictor, get_predictor, select_winner
from repro.predictors import PREDICTORS, load_predictor
from repro.predictors.protocol import PredictorBase, validate_fit_inputs
from repro.predictors.switching import _CV_METRICS, kfold_indices
from test_predictor_bitlock import BITLOCK_PREDICTORS, bitlock_data

# ---------------------------------------------------------------------- #
# The oracle: the switcher's fit before racing, verbatim
# ---------------------------------------------------------------------- #


def full_cv_fit(self, X, y):
    X, y = validate_fit_inputs(X, y, self)
    n = X.shape[0]
    if n < 2:
        raise ValueError("adaptive switching needs at least 2 samples")
    k = min(self.cv_folds, n)
    folds = kfold_indices(n, k, self.seed)
    metric = _CV_METRICS[self.cv_metric]
    self.cv_losses_ = {}
    for name in self.zoo:
        fold_losses = []
        for train_idx, val_idx in folds:
            member = self._spawn(name).fit(X[train_idx], y[train_idx])
            fold_losses.append(metric(y[val_idx], member.predict(X[val_idx])))
        self.cv_losses_[name] = float(np.mean(fold_losses))
    self.winner_ = select_winner(self.cv_losses_, self.zoo)
    self._model = self._spawn(self.winner_).fit(X, y)
    return self


# ---------------------------------------------------------------------- #
# Stub members: constant predictors that tie, diverge, or diverge on
# some folds only
# ---------------------------------------------------------------------- #


class StubPredictor(PredictorBase):
    """Predicts the training mean (plus ``offset``), or diverges.

    ``mode``: ``"mean"``; ``"nan"`` / ``"inf"`` on every fold; or
    ``"flaky_nan"`` / ``"flaky_inf"`` only when trained on an odd number
    of rows, so a member can look finite on one fold and diverge on the
    next.
    """

    KIND = "stub"

    def __init__(self, mode="mean", offset=0.0, seed=0):
        self.mode = mode
        self.offset = offset
        self.seed = seed
        self._value = None

    def fit(self, X, y):
        X, y = validate_fit_inputs(X, y, self)
        value = float(np.mean(y)) + self.offset
        odd = X.shape[0] % 2 == 1
        if self.mode in ("nan", "inf") or (self.mode.startswith("flaky_") and odd):
            value = float(self.mode[-3:])
        self._value = value
        return self

    def predict(self, X):
        self._require_fitted()
        return np.full(self._check_predict_input(X).shape[0], self._value)

    @property
    def is_fitted(self):
        return self._value is not None

    def _get_state(self):
        return {"value": self._value}

    def _set_state(self, state):
        self._value = float(state["value"])


def _stub(mode, offset=0.0):
    return lambda **kw: StubPredictor(mode=mode, offset=offset, **kw)


STUBS = {
    "mean_a": _stub("mean"),
    "mean_b": _stub("mean"),  # exactly ties mean_a
    "shifted": _stub("mean", offset=0.5),
    "nan": _stub("nan"),
    "inf": _stub("inf"),
    "flaky_nan": _stub("flaky_nan"),
    "flaky_inf": _stub("flaky_inf"),
}
MEMBERS = ("ridge", "cart") + tuple(STUBS)


def fit_counts(switcher, fit, X, y):
    """``fit(switcher, X, y)`` and the member fits it ran, by name."""
    counts = {}
    spawn = type(switcher)._spawn

    def spy(self, name):
        member = spawn(self, name)
        member_fit = member.fit

        def counted(*args):
            counts[name] = counts.get(name, 0) + 1
            return member_fit(*args)

        member.fit = counted
        return member

    with mock.patch.object(type(switcher), "_spawn", spy):
        fit(switcher, X, y)
    return counts


def _bits(x):
    return float(x).hex()


def _payload_bytes(predictor):
    return json.dumps(predictor.to_payload(), sort_keys=True)


# ---------------------------------------------------------------------- #
# Raced fit == full CV
# ---------------------------------------------------------------------- #


class TestRacedCVMatchesFullCV:
    @given(
        n=st.integers(2, 40),
        d=st.integers(1, 4),
        data_seed=st.integers(0, 2**16),
        zoo=st.lists(st.sampled_from(MEMBERS), min_size=1, max_size=5, unique=True),
        cv_folds=st.integers(2, 5),
        cv_metric=st.sampled_from(sorted(_CV_METRICS)),
        seed=st.integers(0, 2**16),
    )
    @example(  # every member diverges: the first in zoo order wins
        n=10, d=2, data_seed=0, zoo=["inf", "flaky_nan", "nan"], cv_folds=3,
        cv_metric="mape", seed=0,
    )
    @example(  # an exact tie behind a diverging member
        n=12, d=1, data_seed=1, zoo=["flaky_inf", "mean_a", "mean_b"],
        cv_folds=4, cv_metric="rmse", seed=2,
    )
    @settings(max_examples=120, deadline=None)
    def test_same_winner_model_and_finished_losses(
        self, n, d, data_seed, zoo, cv_folds, cv_metric, seed
    ):
        rng = np.random.default_rng(data_seed)
        X = rng.normal(size=(n, d))
        y = 1.0 + np.abs(X @ rng.uniform(0.5, 1.5, size=d)) + rng.uniform(0, 0.1, n)
        params = dict(zoo=zoo, cv_folds=cv_folds, cv_metric=cv_metric, seed=seed)
        with mock.patch.dict(PREDICTORS, STUBS):
            raced = AdaptiveSwitchingPredictor(**params)
            raced_fits = fit_counts(raced, AdaptiveSwitchingPredictor.fit, X, y)
            oracle = AdaptiveSwitchingPredictor(**params)
            oracle_fits = fit_counts(oracle, full_cv_fit, X, y)

        k = min(cv_folds, n)
        assert raced.winner_ == oracle.winner_
        assert _payload_bytes(raced.model) == _payload_bytes(oracle.model)
        assert select_winner(raced.cv_losses_, zoo) == raced.winner_
        assert sum(raced_fits.values()) <= sum(oracle_fits.values())
        for name in zoo:
            run = raced.cv_folds_run_[name]
            assert 1 <= run <= k
            assert raced_fits[name] == run + (name == raced.winner_)
            bound, full = raced.cv_losses_[name], oracle.cv_losses_[name]
            if run == k:
                assert _bits(bound) == _bits(full)
            elif np.isnan(bound):
                assert np.isnan(full)  # a NaN fold makes the full mean NaN
            else:
                assert np.isnan(full) or bound <= full

    def test_eliminated_member_records_the_bound_it_was_dropped_at(self):
        X = np.arange(24, dtype=float).reshape(12, 2)
        y = X.sum(axis=1) + 1.0
        with mock.patch.dict(PREDICTORS, STUBS):
            switcher = AdaptiveSwitchingPredictor(
                zoo=["ridge", "shifted"], cv_folds=4
            )
            counts = fit_counts(switcher, AdaptiveSwitchingPredictor.fit, X, y)
        assert switcher.winner_ == "ridge"
        assert switcher.cv_folds_run_ == {"ridge": 4, "shifted": 1}
        assert counts == {"ridge": 5, "shifted": 1}
        # One fold of four ran: the bound is that fold's loss over four.
        assert switcher.cv_losses_["shifted"] > switcher.cv_losses_["ridge"]

    def test_a_diverging_member_stops_after_its_first_fold(self):
        X = np.arange(20, dtype=float).reshape(10, 2)
        y = np.linspace(1.0, 3.0, 10)
        with mock.patch.dict(PREDICTORS, STUBS):
            switcher = AdaptiveSwitchingPredictor(
                zoo=["nan", "inf", "mean_a"], cv_folds=3
            ).fit(X, y)
        # NaN stops at once; inf cannot exceed a best that is still inf.
        assert switcher.cv_folds_run_ == {"nan": 1, "inf": 3, "mean_a": 3}
        assert np.isnan(switcher.cv_losses_["nan"])
        assert switcher.winner_ == "mean_a"

    def test_a_tie_runs_every_fold_and_goes_to_the_earlier_member(self):
        X = np.arange(20, dtype=float).reshape(10, 2)
        y = np.linspace(1.0, 3.0, 10)
        with mock.patch.dict(PREDICTORS, STUBS):
            switcher = AdaptiveSwitchingPredictor(
                zoo=["mean_a", "mean_b"], cv_folds=3
            ).fit(X, y)
        assert switcher.cv_folds_run_ == {"mean_a": 3, "mean_b": 3}
        assert switcher.cv_losses_["mean_a"] == switcher.cv_losses_["mean_b"]
        assert switcher.winner_ == "mean_a"


class TestFitCount:
    def test_bitlock_zoo_runs_at_most_eight_member_fits(self):
        # A full 3-fold CV of the five members plus the refit is 16 fits.
        X, y = bitlock_data()
        switcher = get_predictor("as", seed=3, **BITLOCK_PREDICTORS["as"])
        counts = fit_counts(switcher, AdaptiveSwitchingPredictor.fit, X, y)
        assert sum(counts.values()) <= 8
        assert switcher.winner_ == "ridge"


# ---------------------------------------------------------------------- #
# Payload: persisted fold counts and typed errors
# ---------------------------------------------------------------------- #


def _toy(n=60, d=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    return X, X @ rng.uniform(0.5, 1.5, size=d) + 10.0 + rng.normal(0, 0.05, n)


@pytest.fixture(scope="module")
def fitted():
    X, y = _toy()
    switcher = AdaptiveSwitchingPredictor(
        zoo=["ridge", "cart"], cv_folds=3, seed=0
    ).fit(X, y)
    return switcher, X


class TestPayload:
    def test_fold_counts_round_trip(self, fitted, tmp_path):
        switcher, X = fitted
        assert switcher.cv_folds_run_ == {"ridge": 3, "cart": 1}
        switcher.save(tmp_path / "as.json")
        clone = load_predictor(tmp_path / "as.json")
        assert clone.cv_folds_run_ == switcher.cv_folds_run_
        assert clone.cv_losses_ == switcher.cv_losses_
        np.testing.assert_array_equal(clone.predict(X), switcher.predict(X))

    def test_payload_without_fold_counts_loads_as_full_cv(self, fitted):
        switcher, X = fitted
        payload = switcher.to_payload()
        del payload["state"]["cv_folds_run"]
        clone = AdaptiveSwitchingPredictor.from_payload(payload)
        assert clone.cv_folds_run_ == {"ridge": 3, "cart": 3}
        assert clone.winner_ == switcher.winner_
        np.testing.assert_array_equal(clone.predict(X), switcher.predict(X))

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda s: s.update(winner="gb"), "state.winner"),
            (lambda s: s.update(winner=["ridge"]), "state.winner"),
            (lambda s: s.pop("winner"), "state.winner"),
            (lambda s: s["cv_losses"].pop("cart"), "state.cv_losses"),
            (lambda s: s["cv_losses"].update(mlp=1.0), "state.cv_losses"),
            (lambda s: s.update(cv_losses=[1.0, 2.0]), "state.cv_losses"),
            (lambda s: s["cv_losses"].update(cart="x"), "state.cv_losses"),
            (lambda s: s.pop("cv_losses"), "state.cv_losses"),
            (lambda s: s["cv_folds_run"].update(cart=0), "state.cv_folds_run.cart"),
            (lambda s: s["cv_folds_run"].update(cart=4), "state.cv_folds_run.cart"),
            (lambda s: s["cv_folds_run"].update(cart=2.0), "state.cv_folds_run.cart"),
            (lambda s: s["cv_folds_run"].update(cart=True), "state.cv_folds_run.cart"),
            (lambda s: s["cv_folds_run"].pop("ridge"), "state.cv_folds_run"),
            (lambda s: s.update(winner="cart"), "state.model.kind"),
            (lambda s: s.update(model=[]), "state.model.kind"),
            (lambda s: s.pop("model"), "state.model"),
            (lambda s: s["model"].pop("state"), "state.model"),
        ],
    )
    def test_malformed_state_names_the_field(self, fitted, mutate, field):
        switcher, _ = fitted
        payload = json.loads(json.dumps(switcher.to_payload()))
        mutate(payload["state"])
        with pytest.raises(ValueError, match=f"^{field}[:.]") as info:
            AdaptiveSwitchingPredictor.from_payload(payload)
        assert not isinstance(info.value, KeyError)

    @pytest.mark.parametrize("field", ["hyperparameters", "state"])
    def test_missing_top_level_field_is_a_value_error(self, fitted, field):
        switcher, _ = fitted
        payload = switcher.to_payload()
        del payload[field]
        with pytest.raises(ValueError, match=f"no '{field}' field"):
            AdaptiveSwitchingPredictor.from_payload(payload)

    def test_malformed_state_from_a_file_names_the_file_too(self, fitted, tmp_path):
        switcher, _ = fitted
        payload = switcher.to_payload()
        payload["state"]["winner"] = "mlp"
        path = tmp_path / "as.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"as\.json: state\.winner"):
            load_predictor(path)
