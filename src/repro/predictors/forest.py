"""Random-forest latency predictor: bagged CART trees, pure numpy.

Each tree sees a seeded bootstrap resample of the rows and a seeded
random subset of the features (the random-subspace method), and the
forest predicts the mean of its trees.  Per-tree randomness comes from
``default_rng([seed, tree_index])``, so the forest is reproducible and
each tree's stream is independent of how many trees run.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .protocol import PredictorBase, state_array, validate_fit_inputs
from .tree import _RegressionTree, _validate_tree_params

__all__ = ["RandomForestPredictor"]


class RandomForestPredictor(PredictorBase):
    """Bootstrap-aggregated regression trees with feature subsampling."""

    KIND = "rf"
    STATE_FIELDS = {"trees": list, "features": list}

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int = 10,
        min_samples_split: int = 4,
        min_samples_leaf: int = 2,
        max_features: float = 0.7,
        seed: int = 0,
    ):
        """``max_features`` is the fraction of features each tree draws
        (without replacement); 1.0 degrades to plain bagging."""
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        if not 0.0 < max_features <= 1.0:
            raise ValueError(
                f"max_features must be in (0, 1], got {max_features}"
            )
        _validate_tree_params(max_depth, min_samples_split, min_samples_leaf)
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self._trees: Optional[List[_RegressionTree]] = None
        self._features: Optional[List[np.ndarray]] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestPredictor":
        X, y = validate_fit_inputs(X, y, self)
        n, d = X.shape
        m = max(1, int(round(self.max_features * d)))
        self._trees = []
        self._features = []
        for t in range(self.n_estimators):
            rng = np.random.default_rng([self.seed, t])
            rows = rng.integers(0, n, size=n)
            cols = np.sort(rng.choice(d, size=m, replace=False))
            tree = _RegressionTree().fit(
                X[rows][:, cols],
                y[rows],
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
            )
            self._trees.append(tree)
            self._features.append(cols)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted()
        X = self._check_predict_input(X)
        used = max(int(cols[-1]) for cols in self._features) + 1
        if X.shape[1] < used:
            raise ValueError(
                f"the forest reads feature {used - 1}, but the input has "
                f"{X.shape[1]} features per row"
            )
        out = np.zeros(X.shape[0], dtype=float)
        for tree, cols in zip(self._trees, self._features):
            out += tree.predict(X[:, cols])
        return out / len(self._trees)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    @property
    def is_fitted(self) -> bool:
        return self._trees is not None

    def _get_state(self) -> dict:
        return {
            "trees": [tree.to_jsonable() for tree in self._trees],
            "features": [cols.tolist() for cols in self._features],
        }

    def _set_state(self, state: dict) -> None:
        """Restore the trees and their column subsets: one subset per tree,
        each of distinct, ascending column indices, and each tree's
        ``feature`` below its subset's size (``state.trees.3.feature.0``)."""
        trees, features = state["trees"], state["features"]
        if len(features) != len(trees):
            raise ValueError(
                f"state.features: expected {len(trees)} column subsets (one per "
                f"tree), got {len(features)}"
            )
        subsets = []
        for t, cols in enumerate(features):
            cols = state_array(cols, f"state.features.{t}")
            if not (
                cols.size
                and cols[0] >= 0
                and np.isfinite(cols[-1])
                and np.all(cols == np.floor(cols))
                and np.all(np.diff(cols) > 0)
            ):
                raise ValueError(
                    f"state.features.{t}: not ascending distinct column indices"
                )
            subsets.append(cols.astype(np.int64))
        self._trees = [
            _RegressionTree.from_jsonable(tree, f"state.trees.{t}", len(cols))
            for t, (tree, cols) in enumerate(zip(trees, subsets))
        ]
        self._features = subsets
