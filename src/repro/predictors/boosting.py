"""Gradient-boosted trees: least-squares boosting over shallow CARTs.

Classic LS-boost: start from the target mean, then repeatedly fit a
shallow regression tree to the current residuals and take a
``learning_rate``-sized step.  ``subsample < 1.0`` turns on stochastic
gradient boosting — each round fits on a seeded row subsample, which both
regularises and speeds up the fit.  Trees are depth-limited hard (default
3), which is where boosting gets its bias/variance profile.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..utils import NUMBER
from .protocol import PredictorBase, validate_fit_inputs
from .tree import _RegressionTree, _validate_tree_params

__all__ = ["GradientBoostingPredictor"]


class GradientBoostingPredictor(PredictorBase):
    """Least-squares gradient boosting with shallow CART base learners."""

    KIND = "gb"
    STATE_FIELDS = {"init": NUMBER, "trees": list}

    def __init__(
        self,
        n_estimators: int = 150,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_split: int = 4,
        min_samples_leaf: int = 2,
        subsample: float = 1.0,
        seed: int = 0,
    ):
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError(
                f"learning_rate must be in (0, 1], got {learning_rate}"
            )
        if not 0.0 < subsample <= 1.0:
            raise ValueError(f"subsample must be in (0, 1], got {subsample}")
        _validate_tree_params(max_depth, min_samples_split, min_samples_leaf)
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.seed = seed
        self._init: float = 0.0
        self._trees: Optional[List[_RegressionTree]] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingPredictor":
        X, y = validate_fit_inputs(X, y, self)
        n = X.shape[0]
        k = max(2, int(round(self.subsample * n))) if self.subsample < 1.0 else n
        k = min(k, n)
        self._init = float(y.mean())
        self._trees = []
        current = np.full(n, self._init)
        for t in range(self.n_estimators):
            residual = y - current
            if self.subsample < 1.0:
                rows = np.sort(
                    np.random.default_rng([self.seed, t]).choice(
                        n, size=k, replace=False
                    )
                )
            else:
                rows = np.arange(n)
            tree = _RegressionTree().fit(
                X[rows],
                residual[rows],
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
            )
            current += self.learning_rate * tree.predict(X)
            self._trees.append(tree)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted()
        X = self._check_predict_input(X)
        out = np.full(X.shape[0], self._init)
        for tree in self._trees:
            out += self.learning_rate * tree.predict(X)
        return out

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    @property
    def is_fitted(self) -> bool:
        return self._trees is not None

    def _get_state(self) -> dict:
        return {
            "init": self._init,
            "trees": [tree.to_jsonable() for tree in self._trees],
        }

    def _set_state(self, state: dict) -> None:
        self._init = float(state["init"])
        self._trees = [
            _RegressionTree.from_jsonable(tree, f"state.trees.{t}")
            for t, tree in enumerate(state["trees"])
        ]
