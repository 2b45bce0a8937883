"""Property tests: the one-pass CART split scan against a per-feature oracle.

`_RegressionTree._best_split` scans every feature at once over the
``(n, d)`` block.  The oracle below is the per-feature loop it replaced,
kept verbatim as the reference: for every input the two must return the
same ``(feature, threshold)`` bit for bit (or both ``None``), and every
tree-based zoo member must fit to byte-identical payloads under either.

The inputs lean on the cases that decide ties and edge rounding: small
integer FCC-like counts with heavy ties, constant columns, duplicate rows,
nearly-adjacent floats (whose midpoint can round up to the right value)
and ``min_samples_leaf`` up to and past half the node.
"""

import json
from typing import Optional
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CARTPredictor,
    GradientBoostingPredictor,
    RandomForestPredictor,
)
from repro.predictors.tree import _RegressionTree


def oracle_best_split(
    X: np.ndarray, y: np.ndarray, min_samples_leaf: int
) -> "Optional[tuple[int, float]]":
    """The per-feature prefix-sum scan, one Python iteration per feature."""
    n = y.shape[0]
    best_score = np.inf
    best: Optional[tuple[int, float]] = None
    for j in range(X.shape[1]):
        xj = X[:, j]
        order = np.argsort(xj, kind="stable")
        xs, ys = xj[order], y[order]
        i = np.arange(1, n)
        csum = np.cumsum(ys)[:-1]
        csum2 = np.cumsum(ys * ys)[:-1]
        total, total2 = csum[-1] + ys[-1], csum2[-1] + ys[-1] ** 2
        sse = (
            (csum2 - csum * csum / i)
            + ((total2 - csum2) - (total - csum) ** 2 / (n - i))
        )
        valid = (
            (xs[1:] > xs[:-1])
            & (i >= min_samples_leaf)
            & (n - i >= min_samples_leaf)
        )
        if not valid.any():
            continue
        sse = np.where(valid, sse, np.inf)
        pos = int(np.argmin(sse))
        if sse[pos] < best_score:
            best_score = float(sse[pos])
            t = (xs[pos] + xs[pos + 1]) / 2.0
            if t >= xs[pos + 1]:
                t = xs[pos]
            best = (j, float(t))
    return best


def _ulp_steps(base: float, steps: np.ndarray) -> np.ndarray:
    """``base`` moved up by ``steps`` units in the last place (base > 0)."""
    return (np.float64(base).view(np.int64) + steps.astype(np.int64)).view(
        np.float64
    )


@st.composite
def split_inputs(draw, max_n=40, max_d=6):
    n = draw(st.integers(2, max_n))
    d = draw(st.integers(1, max_d))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    columns = []
    for _ in range(d):
        kind = draw(st.sampled_from(["counts", "constant", "ulps", "uniform"]))
        if kind == "counts":
            col = rng.integers(0, draw(st.integers(1, 5)), size=n).astype(float)
        elif kind == "constant":
            col = np.full(n, float(rng.integers(0, 4)))
        elif kind == "ulps":
            base = draw(st.floats(1e-3, 1e6))
            col = _ulp_steps(base, rng.integers(0, 3, size=n))
        else:
            col = rng.uniform(-1.0, 1.0, size=n)
        columns.append(col)
    X = np.column_stack(columns)
    if draw(st.booleans()):
        # Duplicate rows: copy a random subset of rows over others.
        src = rng.integers(0, n, size=n // 2)
        dst = rng.integers(0, n, size=n // 2)
        X[dst] = X[src]
    if draw(st.booleans()):
        y = rng.integers(0, 3, size=n).astype(float)  # tied targets
    else:
        y = rng.lognormal(0.0, 1.0, size=n)
    min_samples_leaf = draw(st.integers(1, n))
    return X, y, min_samples_leaf


def _same_split(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a[0] == b[0] and np.float64(a[1]).tobytes() == np.float64(b[1]).tobytes()


@settings(max_examples=400, deadline=None)
@given(split_inputs())
def test_split_matches_per_feature_oracle(case):
    X, y, min_samples_leaf = case
    got = _RegressionTree._best_split(X, y, min_samples_leaf)
    want = oracle_best_split(X, y, min_samples_leaf)
    assert _same_split(got, want), (got, want)
    if got is not None:
        assert isinstance(got[0], int) and isinstance(got[1], float)


def test_no_valid_split_is_none():
    X = np.column_stack([np.full(6, 2.0), np.arange(6.0)])
    y = np.arange(6.0)
    assert _RegressionTree._best_split(X, y, 4) is None  # leaves too large
    assert _RegressionTree._best_split(X[:, :1], y, 1) is None  # constant
    assert oracle_best_split(X, y, 4) is None


def test_midpoint_rounding_falls_back_to_left_value():
    # An odd last mantissa bit: the exact midpoint ties and rounds to even.
    lo = float(np.nextafter(1.0, 2.0))
    hi = float(np.nextafter(lo, 2.0))
    assert (lo + hi) / 2.0 == hi
    X = np.array([[lo], [lo], [hi], [hi]])
    y = np.array([1.0, 1.0, 5.0, 5.0])
    assert _RegressionTree._best_split(X, y, 1) == (0, lo)
    assert oracle_best_split(X, y, 1) == (0, lo)


def test_ties_pick_lowest_feature_then_lowest_threshold():
    # Columns 1 and 2 are identical and each reach the best SSE (2/3) at
    # two thresholds; column 0's only split is worse (SSE 1).  The scan
    # must pick column 1 and its first threshold.
    X = np.array(
        [[0.0, 0.0, 0.0], [0.0, 1.0, 1.0], [1.0, 2.0, 2.0], [1.0, 3.0, 3.0]]
    )
    y = np.array([0.0, 1.0, 1.0, 0.0])
    assert _RegressionTree._best_split(X, y, 1) == (1, 0.5)
    assert oracle_best_split(X, y, 1) == (1, 0.5)


def test_last_target_squared_as_a_scalar():
    # A scalar ``v ** 2`` (libm pow) can differ from the array square
    # ``v * v`` by one ulp; the per-feature scan squared the last sorted
    # target as a scalar, so the totals - and near-zero SSEs - must match
    # it, not the array square.
    values = np.random.default_rng(0).lognormal(0.0, 2.0, 100_000)
    odd = next(v for v in values.tolist() if v**2 != v * v)
    rng = np.random.default_rng(1)
    for _ in range(20):
        X = np.column_stack([np.zeros(2), rng.uniform(-1.0, 1.0, (2, 3))])
        y = np.array([rng.lognormal(), odd])
        assert _same_split(
            _RegressionTree._best_split(X, y, 1), oracle_best_split(X, y, 1)
        )


def test_overflowing_targets_match_the_oracle():
    # Squared prefix sums overflow to inf and their differences to NaN;
    # a column whose first minimum is NaN offers no split in either scan.
    rng = np.random.default_rng(2)
    for _ in range(50):
        X = rng.integers(0, 3, size=(8, 4)).astype(float)
        y = rng.choice([1e200, -1e200, 3e200, 1.0], size=8)
        for min_samples_leaf in (1, 2):
            with np.errstate(over="ignore", invalid="ignore"):
                got = _RegressionTree._best_split(X, y, min_samples_leaf)
                want = oracle_best_split(X, y, min_samples_leaf)
            assert _same_split(got, want)


_TREE_MEMBERS = [
    lambda: CARTPredictor(max_depth=6, min_samples_split=2, min_samples_leaf=1),
    lambda: CARTPredictor(),
    lambda: RandomForestPredictor(n_estimators=3, seed=1),
    lambda: GradientBoostingPredictor(n_estimators=4, seed=2),
    lambda: GradientBoostingPredictor(n_estimators=4, subsample=0.7, seed=3),
]


def _payload_bytes(predictor) -> str:
    return json.dumps(predictor.to_payload(), sort_keys=True)


@settings(max_examples=60, deadline=None)
@given(split_inputs(max_n=60), st.integers(0, len(_TREE_MEMBERS) - 1))
def test_tree_members_fit_identically_under_oracle(case, member):
    X, y, _ = case
    fast = _payload_bytes(_TREE_MEMBERS[member]().fit(X, y))
    with mock.patch.object(
        _RegressionTree, "_best_split", staticmethod(oracle_best_split)
    ):
        slow = _payload_bytes(_TREE_MEMBERS[member]().fit(X, y))
    assert fast == slow
