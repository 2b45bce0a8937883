"""The learned monotone latency map at the heart of proxy-device transfer.

"One Proxy Device Is Enough" (PAPERS.md) rests on one empirical fact:
across devices, latency is approximately related by a *monotone* function
— a network that is slower than another on the proxy GPU is almost always
slower on the target board too, even though the absolute scale (and its
curvature) differs wildly.  `MonotoneLatencyMap` learns exactly that
function from a small paired sample set:

* **fit** is isotonic regression via pool-adjacent-violators (PAVA) with
  deterministic tie handling: pairs are first brought into a canonical
  order (``lexsort`` by proxy latency, then target latency), duplicate
  proxy values are pooled into one weighted knot, and violating adjacent
  blocks are merged into their weighted mean.  The result is a pure
  function of the *multiset* of pairs — permuting the input order cannot
  change a single output bit.
* **apply** is piecewise-linear interpolation between the fitted knots
  with *clamped* extrapolation: queries outside the observed proxy range
  saturate at the boundary knot values rather than extrapolating a slope
  off to infinity.  A monotone map can therefore never turn a finite
  proxy prediction into a non-finite target latency.
* **to_dict / from_dict** is versioned JSON persistence that round-trips
  bit-identically (knots are plain float lists; Python's shortest-repr
  float encoding is exact).

The map is deliberately *not* a predictor: it composes with one.
`TransferPredictor` chains ``proxy_predictor.predict`` through
``map.apply`` to produce target-device latencies.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..predictors.protocol import state_array
from ..utils import require, require_header

__all__ = ["MonotoneLatencyMap", "MAP_FORMAT_VERSION"]

MAP_FORMAT_VERSION = 1
_KIND = "monotone_latency_map"


def _pava(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted pool-adjacent-violators in one left-to-right pass.

    Classic stack algorithm: push each (value, weight) block; while the
    top two blocks violate monotonicity, merge them into their weighted
    mean.  Merges cascade leftwards, so the invariant "stack is
    non-decreasing" holds after every push.  Returns the fitted value per
    input position (block values broadcast over their members).
    """
    # Parallel stacks: block value, block weight, block member count.
    vals: list = []
    wts: list = []
    counts: list = []
    for v, w in zip(values, weights):
        vals.append(float(v))
        wts.append(float(w))
        counts.append(1)
        while len(vals) > 1 and vals[-2] > vals[-1]:
            w_new = wts[-2] + wts[-1]
            v_new = (vals[-2] * wts[-2] + vals[-1] * wts[-1]) / w_new
            vals[-2:] = [v_new]
            wts[-2:] = [w_new]
            counts[-2:] = [counts[-2] + counts[-1]]
    return np.repeat(np.asarray(vals, dtype=float), counts)


class MonotoneLatencyMap:
    """Isotonic proxy→target latency map: PAVA fit, clamped interpolation."""

    def __init__(self) -> None:
        self._x: "np.ndarray | None" = None  # knot positions (strictly increasing)
        self._y: "np.ndarray | None" = None  # knot values (non-decreasing)
        self._n_pairs: int = 0

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #

    def fit(self, proxy, target) -> "MonotoneLatencyMap":
        """Fit the map from paired ``(proxy, target)`` latency samples.

        Both inputs are 1-D, equal-length, finite; at least two pairs are
        required (one pair would fit a constant, which carries no ranking
        information).  The fit is invariant — bit for bit — under any
        permutation of the pairs: a canonical ``lexsort`` order is imposed
        before any floating-point accumulation happens.
        """
        proxy = np.asarray(proxy, dtype=float).reshape(-1)
        target = np.asarray(target, dtype=float).reshape(-1)
        if proxy.shape != target.shape:
            raise ValueError(
                f"proxy and target must pair up 1:1, got {proxy.size} proxy "
                f"vs {target.size} target values"
            )
        if proxy.size < 2:
            raise ValueError(
                f"a monotone map needs at least 2 paired samples, got {proxy.size}"
            )
        if not (np.isfinite(proxy).all() and np.isfinite(target).all()):
            bad = int(
                np.count_nonzero(~np.isfinite(proxy))
                + np.count_nonzero(~np.isfinite(target))
            )
            raise ValueError(
                f"paired samples contain {bad} non-finite value(s); "
                "latencies must be finite"
            )

        # Canonical order: by proxy value, ties by target value.  Every
        # accumulation below happens in this order, which is what makes
        # the fit a pure function of the pair multiset.
        order = np.lexsort((target, proxy))
        x = proxy[order]
        y = target[order]

        # Pool duplicate proxy values into one weighted knot (mean of
        # their targets, weight = multiplicity) — PAVA's deterministic
        # tie handling.
        knots_x, start, counts = np.unique(x, return_index=True, return_counts=True)
        pooled = np.add.reduceat(y, start) / counts

        fitted = _pava(pooled, counts.astype(float))
        self._x = knots_x
        self._y = fitted
        self._n_pairs = int(proxy.size)
        return self

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def is_fitted(self) -> bool:
        return self._x is not None

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("monotone map is not fitted (cannot apply)")

    @property
    def knots(self) -> "tuple[np.ndarray, np.ndarray]":
        """``(x, y)`` knot arrays: x strictly increasing, y non-decreasing."""
        self._require_fitted()
        return self._x.copy(), self._y.copy()

    @property
    def n_knots(self) -> int:
        self._require_fitted()
        return int(self._x.size)

    @property
    def n_pairs(self) -> int:
        """Number of paired samples the map was fitted on."""
        self._require_fitted()
        return self._n_pairs

    @property
    def is_strictly_increasing(self) -> bool:
        """True when every knot value strictly exceeds its predecessor.

        On such a map, ``apply`` preserves the exact pairwise order of any
        inputs inside the knot range — the property the Kendall-tau
        transfer guarantee rests on.  A map with pooled (tied) knots is
        still non-decreasing but can collapse distinct inputs to ties.
        """
        self._require_fitted()
        return bool(np.all(np.diff(self._y) > 0))

    # ------------------------------------------------------------------ #
    # Application
    # ------------------------------------------------------------------ #

    def apply(self, x) -> np.ndarray:
        """Map proxy latencies to target latencies (vectorised).

        Piecewise-linear between knots; inputs outside the fitted range
        clamp to the boundary knot values (``np.interp`` semantics), so a
        finite input can never produce a non-finite output.
        """
        self._require_fitted()
        x = np.asarray(x, dtype=float)
        return np.interp(x, self._x, self._y)

    def __call__(self, x) -> np.ndarray:
        return self.apply(x)

    def apply_one(self, x: float) -> float:
        return float(self.apply(np.asarray([x]))[0])

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        """Versioned JSON-serialisable form; round-trips bit-identically."""
        self._require_fitted()
        return {
            "format_version": MAP_FORMAT_VERSION,
            "kind": _KIND,
            "x": self._x.tolist(),
            "y": self._y.tolist(),
            "n_pairs": self._n_pairs,
        }

    @classmethod
    def from_dict(cls, d: dict, where: str = "map") -> "MonotoneLatencyMap":
        """Restore `to_dict`'s form, refusing any map `fit` cannot write.

        The knots must be finite, equal-length, with ``x`` strictly
        increasing and ``y`` non-decreasing, and ``n_pairs`` counts at
        least one pair per knot.  The `ValueError` names the field under
        ``where``, e.g. ``state.map.y.0``.
        """
        require_header(d, "monotone map payload", MAP_FORMAT_VERSION, _KIND)
        require(d, where, {"x": list, "y": list, "n_pairs": int})
        x = state_array(d["x"], f"{where}.x", finite=True)
        y = state_array(d["y"], f"{where}.y", finite=True)
        if x.size == 0:
            raise ValueError(f"{where}.x: a monotone map needs at least one knot")
        if x.shape != y.shape:
            raise ValueError(
                f"{where}.y: {y.size} values for {x.size} knots (monotone map "
                "knots must be equal-length 1-D arrays)"
            )
        if np.any(np.diff(x) <= 0):
            raise ValueError(
                f"{where}.x: monotone map knot positions must strictly increase"
            )
        if np.any(np.diff(y) < 0):
            raise ValueError(
                f"{where}.y: monotone map knot values must be non-decreasing"
            )
        n_pairs = d["n_pairs"]
        if isinstance(n_pairs, bool) or n_pairs < x.size:
            raise ValueError(
                f"{where}.n_pairs: {n_pairs!r} is not a count of at least "
                f"{x.size} pairs (one per knot)"
            )
        instance = cls()
        instance._x = x
        instance._y = y
        instance._n_pairs = n_pairs
        return instance

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonotoneLatencyMap):
            return NotImplemented
        if not (self.is_fitted and other.is_fitted):
            return self.is_fitted == other.is_fitted
        return (
            self._n_pairs == other._n_pairs
            and np.array_equal(self._x, other._x)
            and np.array_equal(self._y, other._y)
        )

    def __repr__(self) -> str:
        if not self.is_fitted:
            return "MonotoneLatencyMap(unfitted)"
        return (
            f"MonotoneLatencyMap({self.n_knots} knots over "
            f"[{self._x[0]:.3e}, {self._x[-1]:.3e}] from {self._n_pairs} pairs)"
        )
