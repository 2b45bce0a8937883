"""CNAS-style adaptive switching: pick the best zoo member by CV, each refit.

`AdaptiveSwitchingPredictor` (registry name ``"as"``) holds a *zoo* of
predictor registry names.  Every ``fit`` runs a seeded k-fold
cross-validation of each member on the training data, scores the folds
with the chosen metric, picks the winner by `select_winner` (argmin of
mean CV loss, ties broken by zoo order), and refits that member on the
full data.  The ESM loop refits its predictor after every dataset
extension, so the surrogate *family* — not just its weights — adapts as
the dataset grows: linear models tend to win the small early rounds,
ensembles the later ones.

**Racing.**  The cross-validation is raced, exactly.  Members run in zoo
order and every fold that runs is fitted and seeded as in a full CV.
After each fold a member's lower bound is ``np.mean`` of its completed
fold losses padded with zeros for the folds not yet run: both metrics
are non-negative and float rounding is monotone, so the bound never
exceeds the member's full CV mean.  The member's remaining folds are
skipped once the bound is strictly greater than the best finite full
mean of an earlier member, or is NaN; such a member can no longer win
(a tie keeps running, so ties still go to the earlier member).  The
winner, and so the refit surrogate, is the one a full CV picks, for
finite, diverging (NaN/inf) and all-non-finite zoos alike.

``cv_losses_`` records each member's full CV mean, or for an eliminated
member the bound it was eliminated at, so ``select_winner(cv_losses_,
zoo) == winner_`` always holds; ``cv_folds_run_`` records how many folds
each member ran.

`kfold_indices` and `select_winner` are module-level pure functions so the
property-test suite can pin down their invariants directly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..metrics import mape, rmse
from .protocol import PredictorBase, validate_fit_inputs

__all__ = ["AdaptiveSwitchingPredictor", "kfold_indices", "select_winner"]

DEFAULT_ZOO: Tuple[str, ...] = ("ridge", "cart", "rf", "gb", "mlp")

_CV_METRICS = {"mape": mape, "rmse": rmse}


def kfold_indices(
    n: int, k: int, seed: int
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Seeded k-fold split of ``range(n)`` into (train, validation) pairs.

    The validation folds partition ``range(n)``: pairwise disjoint, union
    the full index set, sizes differing by at most one.  Indices inside
    each half are sorted, so downstream slicing is order-independent of
    the shuffle; the shuffle itself is a single ``default_rng(seed)``
    permutation, making the split a pure function of ``(n, k, seed)``.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < k:
        raise ValueError(f"need at least k={k} samples, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    parts = np.array_split(perm, k)
    folds = []
    for i, part in enumerate(parts):
        train = np.sort(np.concatenate(parts[:i] + parts[i + 1 :]))
        folds.append((train, np.sort(part)))
    return folds


def select_winner(losses: Mapping[str, float], order: Sequence[str]) -> str:
    """Argmin of ``losses`` over ``order``; earliest entry wins ties.

    Non-finite losses (a member that diverged) never win unless every
    member is non-finite, in which case the first of ``order`` is
    returned — deterministic whatever happens.
    """
    if not order:
        raise ValueError("cannot select a winner from an empty zoo")
    best_name = order[0]
    best_loss = np.inf
    for name in order:
        loss = float(losses[name])
        if not np.isfinite(loss):
            continue
        if loss < best_loss:
            best_loss = loss
            best_name = name
    return best_name


class AdaptiveSwitchingPredictor(PredictorBase):
    """Meta-predictor delegating to the CV winner of its zoo."""

    KIND = "as"
    # Present-only: `_set_state` checks each value against the zoo.
    STATE_FIELDS = {"winner": object, "cv_losses": object, "model": object}

    def __init__(
        self,
        zoo: Optional[Sequence[str]] = None,
        zoo_params: Optional[Dict[str, Dict[str, Any]]] = None,
        cv_folds: int = 3,
        cv_metric: str = "mape",
        seed: int = 0,
    ):
        """``zoo`` lists predictor registry names (default `DEFAULT_ZOO`);
        ``zoo_params`` overrides constructor kwargs per member, e.g.
        ``{"mlp": {"epochs": 100}}``.  Members that accept a ``seed`` and
        are not pinned by ``zoo_params`` inherit this predictor's."""
        if cv_folds < 2:
            raise ValueError(f"cv_folds must be >= 2, got {cv_folds}")
        if cv_metric not in _CV_METRICS:
            raise ValueError(
                f"cv_metric must be one of {tuple(_CV_METRICS)}, "
                f"got {cv_metric!r}"
            )
        self.zoo = list(DEFAULT_ZOO if zoo is None else zoo)
        self.zoo_params = {
            name: dict(params) for name, params in (zoo_params or {}).items()
        }
        if not self.zoo:
            raise ValueError("zoo must name at least one predictor")
        if self.KIND in self.zoo:
            raise ValueError("the adaptive switcher cannot include itself")
        unknown = set(self.zoo_params) - set(self.zoo)
        if unknown:
            raise ValueError(
                f"zoo_params for members not in the zoo: {sorted(unknown)}"
            )
        self.cv_folds = cv_folds
        self.cv_metric = cv_metric
        self.seed = seed
        self.winner_: Optional[str] = None
        self.cv_losses_: Dict[str, float] = {}
        self.cv_folds_run_: Dict[str, int] = {}
        self._model: Optional[PredictorBase] = None

    # ------------------------------------------------------------------ #

    def _spawn(self, name: str) -> PredictorBase:
        """A fresh instance of zoo member ``name`` (never reused across
        folds, so no fitted state leaks between CV rounds)."""
        from . import get_predictor

        params = dict(self.zoo_params.get(name, {}))
        member = get_predictor(name, **params)
        if hasattr(member, "seed") and "seed" not in params:
            member.seed = self.seed
        return member

    def fit(self, X: np.ndarray, y: np.ndarray) -> "AdaptiveSwitchingPredictor":
        X, y = validate_fit_inputs(X, y, self)
        n = X.shape[0]
        if n < 2:
            raise ValueError("adaptive switching needs at least 2 samples")
        k = min(self.cv_folds, n)
        folds = kfold_indices(n, k, self.seed)
        metric = _CV_METRICS[self.cv_metric]
        self.cv_losses_ = {}
        self.cv_folds_run_ = {}
        best = np.inf  # best finite full-CV mean of the members raced so far
        for name in self.zoo:
            fold_losses = np.zeros(k)
            for run, (train_idx, val_idx) in enumerate(folds, start=1):
                member = self._spawn(name).fit(X[train_idx], y[train_idx])
                fold_losses[run - 1] = metric(
                    y[val_idx], member.predict(X[val_idx])
                )
                bound = float(np.mean(fold_losses))
                if run < k and not bound <= best:  # cannot win, or NaN
                    break
            self.cv_losses_[name] = bound
            self.cv_folds_run_[name] = run
            if run == k and bound < best:
                best = bound
        self.winner_ = select_winner(self.cv_losses_, self.zoo)
        self._model = self._spawn(self.winner_).fit(X, y)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted()
        return self._model.predict(self._check_predict_input(X))

    def predict_one(self, x: np.ndarray) -> float:
        """Single-query fast path: go straight to the winner.

        The generic ``predict_one`` would stack the meta-layer's
        delegation (and its input re-validation) on top of the winner's
        own; serving workloads issue millions of single queries, so this
        routes the 1-row batch through the winner's vectorized ``predict``
        directly, paying the delegation cost once instead of twice.
        """
        self._require_fitted()
        return self._model.predict_one(x)

    @property
    def model(self) -> PredictorBase:
        """The fitted winner this predictor currently delegates to."""
        self._require_fitted("inspect the delegate")
        return self._model

    # ------------------------------------------------------------------ #
    # Persistence: the winner's payload nests inside this one
    # ------------------------------------------------------------------ #

    @property
    def is_fitted(self) -> bool:
        return self._model is not None

    def _get_state(self) -> dict:
        return {
            "winner": self.winner_,
            "cv_losses": {name: self.cv_losses_[name] for name in self.zoo},
            "cv_folds_run": {name: self.cv_folds_run_[name] for name in self.zoo},
            "model": self._model.to_payload(),
        }

    def _set_state(self, state: dict) -> None:
        """Restore a saved state, refusing one that contradicts the zoo.

        Every failure is a `ValueError` naming the field path.  A payload
        without ``cv_folds_run`` (written before CV was raced) loads as a
        full CV: every member ran ``cv_folds`` folds.
        """
        from . import predictor_from_payload

        winner = state["winner"]
        if not isinstance(winner, str) or winner not in self.zoo:
            raise ValueError(
                f"state.winner: {winner!r} is not a zoo member "
                f"({', '.join(self.zoo)})"
            )
        losses = self._per_member(state["cv_losses"], "cv_losses")
        try:
            cv_losses = {name: float(losses[name]) for name in self.zoo}
        except (TypeError, ValueError):
            raise ValueError("state.cv_losses: values must be numbers") from None
        folds_run = state.get("cv_folds_run")
        if folds_run is None:
            folds_run = {name: self.cv_folds for name in self.zoo}
        folds_run = self._per_member(folds_run, "cv_folds_run")
        for name in self.zoo:
            run = folds_run[name]
            if type(run) is not int or not 1 <= run <= self.cv_folds:
                raise ValueError(
                    f"state.cv_folds_run.{name}: {run!r} is not a fold "
                    f"count in 1..{self.cv_folds}"
                )
        model = state["model"]
        kind = model.get("kind") if isinstance(model, dict) else None
        try:
            expected = self._spawn(winner).KIND
        except (KeyError, TypeError) as exc:
            raise ValueError(f"state.winner: {exc.args[0]}") from None
        if kind != expected:
            raise ValueError(
                f"state.model.kind: {kind!r} does not match the winner "
                f"{winner!r} (kind {expected!r})"
            )
        try:
            self._model = predictor_from_payload(model)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"state.model: {exc}") from None
        self._n_features_in = self._model.n_features_in_
        self.winner_ = winner
        self.cv_losses_ = cv_losses
        self.cv_folds_run_ = {name: folds_run[name] for name in self.zoo}

    def _per_member(self, value: Any, field: str) -> dict:
        """``value`` if it is an object keyed by exactly the zoo members."""
        if not isinstance(value, dict) or set(value) != set(self.zoo):
            keys = sorted(value) if isinstance(value, dict) else value
            raise ValueError(
                f"state.{field}: expected one entry per zoo member "
                f"{self.zoo}, got {keys!r}"
            )
        return value
