"""CART regression trees in pure numpy, plus the zoo's tree predictor.

`_RegressionTree` is the shared engine: variance-reduction splits found by
one vectorised pass over all features at once (no Python loop over
features or candidate thresholds), stored as flat parallel arrays so
prediction is a branch-free array walk and serialisation is plain lists.
The all-features scan computes every SSE with the same sequential prefix
sums a per-feature scan would, so the fitted floats do not depend on how
the scan is batched.  Ties between equally good splits resolve to the
lowest feature index and then the lowest threshold, which is what makes
tree fits — and everything stacked on them (`RandomForestPredictor`,
`GradientBoostingPredictor`) — bit-reproducible across platforms.

`CARTPredictor` wraps one tree in the zoo's predictor protocol.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..utils import require
from .protocol import PredictorBase, state_array, validate_fit_inputs

__all__ = ["CARTPredictor"]

_NO_FEATURE = -1  # feature index marking a leaf node
_FIELDS = ("feature", "threshold", "left", "right", "value")  # one entry per node
_INDEX_FIELDS = ("feature", "left", "right")


class _RegressionTree:
    """Flat-array CART: ``feature < 0`` marks a leaf holding ``value``."""

    __slots__ = _FIELDS

    def __init__(self):
        self.feature: np.ndarray = np.empty(0, dtype=np.int64)
        self.threshold: np.ndarray = np.empty(0, dtype=float)
        self.left: np.ndarray = np.empty(0, dtype=np.int64)
        self.right: np.ndarray = np.empty(0, dtype=np.int64)
        self.value: np.ndarray = np.empty(0, dtype=float)

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #

    @staticmethod
    def _best_split(
        X: np.ndarray, y: np.ndarray, min_samples_leaf: int
    ) -> "Optional[tuple[int, float]]":
        """(feature, threshold) minimising the children's summed SSE.

        All features are scanned in one pass over the ``(n, d)`` block:
        a column-wise stable argsort orders every column's targets, and
        axis-0 prefix sums give each candidate split's left/right SSE as
        one ``(n - 1, d)`` matrix.  Splits are only allowed between
        *distinct* feature values and where both children keep
        ``min_samples_leaf``.

        The result is bit-identical to scanning the features one at a
        time: an axis-0 cumsum accumulates each column in the same
        sequential order as a 1-D cumsum, the last target is squared as
        a scalar just as there, and every other step is elementwise.
        A first argmin down each column and then a first
        argmin across the column minima pick the lowest threshold, then
        the lowest feature index, among equally good splits.
        """
        n, d = X.shape
        if d == 0:
            return None
        order = np.argsort(X, axis=0, kind="stable")
        xs = np.take_along_axis(X, order, axis=0)
        ys = y[order]
        # Row r of the scan is the split whose left child holds r+1 rows.
        i = np.arange(1, n)[:, None]
        csum = np.cumsum(ys, axis=0)[:-1]
        csum2 = np.cumsum(ys * ys, axis=0)[:-1]
        # The last target is squared as a scalar, per column: a scalar
        # ``** 2`` goes through libm ``pow``, which can land one ulp away
        # from the array square, and the per-feature scan squared a scalar.
        last2 = np.array([v**2 for v in ys[-1]])
        total, total2 = csum[-1] + ys[-1], csum2[-1] + last2
        sse = (
            (csum2 - csum * csum / i)
            + ((total2 - csum2) - (total - csum) ** 2 / (n - i))
        )
        valid = (
            (xs[1:] > xs[:-1])
            & (i >= min_samples_leaf)
            & (n - i >= min_samples_leaf)
        )
        sse = np.where(valid, sse, np.inf)
        cols = np.arange(d)
        pos = np.argmin(sse, axis=0)  # first minimum -> lowest threshold
        col_best = sse[pos, cols]
        # A column whose first minimum is NaN (overflowing targets) offers
        # no split, exactly as if none of its splits were valid.
        col_best[np.isnan(col_best)] = np.inf
        j = int(np.argmin(col_best))  # first minimum -> lowest feature
        if not col_best[j] < np.inf:
            return None
        p = pos[j]
        t = (xs[p, j] + xs[p + 1, j]) / 2.0
        if t >= xs[p + 1, j]:
            # The midpoint of two nearly-adjacent floats can round up to
            # the right value; ``X <= t`` would then send every row left
            # and leave an empty child.  Fall back to the left value,
            # which splits exactly as scored.
            t = xs[p, j]
        return j, float(t)

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        max_depth: int,
        min_samples_split: int,
        min_samples_leaf: int,
    ) -> "_RegressionTree":
        feature, threshold, left, right, value = [], [], [], [], []

        def build(idx: np.ndarray, depth: int) -> int:
            node = len(feature)
            feature.append(_NO_FEATURE)
            threshold.append(0.0)
            left.append(node)
            right.append(node)
            value.append(float(y[idx].mean()))
            sub_y = y[idx]
            if (
                depth >= max_depth
                or idx.size < min_samples_split
                or np.ptp(sub_y) == 0.0
            ):
                return node
            split = self._best_split(X[idx], sub_y, min_samples_leaf)
            if split is None:
                return node
            j, t = split
            go_left = X[idx, j] <= t
            feature[node] = j
            threshold[node] = t
            left[node] = build(idx[go_left], depth + 1)
            right[node] = build(idx[~go_left], depth + 1)
            return node

        build(np.arange(X.shape[0]), 0)
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=float)
        return self

    # ------------------------------------------------------------------ #
    # Prediction: all rows walk the tree one level per pass
    # ------------------------------------------------------------------ #

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        # A loaded tree does not know the width it was fitted on: refuse
        # input narrower than the columns it splits on.
        used = int(self.feature.max()) + 1
        if X.shape[1] < used:
            raise ValueError(
                f"the tree splits on feature {used - 1}, but the input has "
                f"{X.shape[1]} features per row"
            )
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            internal = self.feature[node] >= 0
            if not internal.any():
                break
            j = np.where(internal, self.feature[node], 0)
            go_left = X[np.arange(X.shape[0]), j] <= self.threshold[node]
            step = np.where(go_left, self.left[node], self.right[node])
            node = np.where(internal, step, node)
        return self.value[node]

    # ------------------------------------------------------------------ #
    # Plain-data round trip
    # ------------------------------------------------------------------ #

    def to_jsonable(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
        }

    @classmethod
    def from_jsonable(
        cls, d: dict, where: str, n_features: Optional[int] = None
    ) -> "_RegressionTree":
        """Restore `to_jsonable`'s dict, refusing any tree `fit` cannot write.

        The five arrays must have one entry per node (at least one node).
        ``feature`` must be -1 (a leaf) or a column index, below
        ``n_features`` when that is known.  An internal node's children
        must point strictly forward, inside the arrays: `fit` appends
        children after their parent, so this rules out cycles and
        `predict` always reaches a leaf.  The `ValueError` names the field
        under ``where``, e.g. ``state.tree.left.0``.
        """
        require(d, where, dict.fromkeys(_FIELDS, list))
        n = len(d["feature"])
        if n == 0:
            raise ValueError(f"{where}.feature: a tree needs at least one node")
        arrays = {
            name: state_array(d[name], f"{where}.{name}", (n,)) for name in _FIELDS
        }
        for name in _INDEX_FIELDS:
            a = arrays[name]
            bad = np.flatnonzero(~np.isfinite(a) | (a != np.floor(a)))
            if bad.size:
                raise ValueError(
                    f"{where}.{name}.{bad[0]}: {a[bad[0]]} is not an integer"
                )
        feature = arrays["feature"]
        bad = feature < _NO_FEATURE
        index = "a feature index"
        if n_features is not None:
            bad |= feature >= n_features
            index += f" below {n_features}"
        bad = np.flatnonzero(bad)
        if bad.size:
            i = bad[0]
            raise ValueError(
                f"{where}.feature.{i}: {int(feature[i])} is neither -1 (a leaf) "
                f"nor {index}"
            )
        internal, nodes = feature >= 0, np.arange(n)
        for name in ("left", "right"):
            child = arrays[name]
            bad = np.flatnonzero(internal & ((child <= nodes) | (child >= n)))
            if bad.size:
                i = bad[0]
                raise ValueError(
                    f"{where}.{name}.{i}: child {int(child[i])} of node {i} does "
                    f"not point forward inside the {n} nodes"
                )
        tree = cls()
        for name, a in arrays.items():
            setattr(tree, name, a.astype(np.int64) if name in _INDEX_FIELDS else a)
        return tree


def _validate_tree_params(max_depth, min_samples_split, min_samples_leaf):
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    if min_samples_split < 2:
        raise ValueError(
            f"min_samples_split must be >= 2, got {min_samples_split}"
        )
    if min_samples_leaf < 1:
        raise ValueError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")


class CARTPredictor(PredictorBase):
    """A single variance-reduction regression tree."""

    KIND = "cart"
    STATE_FIELDS = {"tree": dict}

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 4,
        min_samples_leaf: int = 2,
        seed: int = 0,
    ):
        # ``seed`` is accepted for protocol uniformity: a lone CART fit is
        # deterministic, the ensembles stacked on it are where it matters.
        _validate_tree_params(max_depth, min_samples_split, min_samples_leaf)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed
        self._tree: Optional[_RegressionTree] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "CARTPredictor":
        X, y = validate_fit_inputs(X, y, self)
        self._tree = _RegressionTree().fit(
            X,
            y,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
        )
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted()
        return self._tree.predict(self._check_predict_input(X))

    @property
    def n_leaves(self) -> int:
        self._require_fitted("count leaves")
        return int((self._tree.feature == _NO_FEATURE).sum())

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    @property
    def is_fitted(self) -> bool:
        return self._tree is not None

    def _get_state(self) -> dict:
        return {"tree": self._tree.to_jsonable()}

    def _set_state(self, state: dict) -> None:
        self._tree = _RegressionTree.from_jsonable(state["tree"], "state.tree")
