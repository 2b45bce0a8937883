"""Evaluation metrics, headed by the paper's relative prediction accuracy.

"Accuracy" throughout the paper is ``mean(max(0, 1 - |y_hat - y| / y))``,
reported in percent; `binwise_accuracy` evaluates it per depth bin, the
criterion the ESM loop's ``Acc_TH`` threshold is checked against.

The rank metrics (`spearman`, `kendall_tau`) refuse NaN and ±inf with a
`ValueError` naming ``y_true`` or ``y_pred``, and build no n×n array:

* `kendall_tau` is Knight's tau-b in O(n log n) time and O(n) memory.
  Sort by ``(true, pred)``; the runs of equal keys give the tied pairs n1
  (true), n2 (pred) and n3 (both), and the discordant pairs D are the
  strict inversions of pred in that order, counted one index bit at a
  time (`_inversions`).  Of the ``n0 = n(n-1)/2`` pairs, ``n0 - n1 - n2 +
  n3`` are untied on both sides, so ``C - D = n0 - n1 - n2 + n3 - 2D``.
  Every count is an exact integer, and ``float(C - D)`` equals the sum of
  the ±1 pair signs the pairwise definition adds up (exact below 2**53),
  so the float tail ``(C - D) / sqrt((n0 - n1)(n0 - n2))`` gives the
  pairwise result bit for bit.  For finite floats ``x - y == 0`` exactly
  when ``x == y``, so the sort's ties are the pairwise sign's ties.
* `spearman` ranks by one stable sort: a tie run at positions
  ``first..last`` gets ``(first + last) / 2``, the exact mean of those
  integers, so the ranks equal a per-value average bit for bit.
"""

from __future__ import annotations

from typing import Dict, Hashable, Sequence

import numpy as np

__all__ = [
    "paper_accuracy",
    "binwise_accuracy",
    "failing_bins",
    "mape",
    "rmse",
    "spearman",
    "kendall_tau",
]


def _as_arrays(y_true, y_pred):
    y_true = np.asarray(y_true, dtype=float).reshape(-1)
    y_pred = np.asarray(y_pred, dtype=float).reshape(-1)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have the same length")
    if y_true.size == 0:
        raise ValueError("metrics need at least one sample")
    return y_true, y_pred


def paper_accuracy(y_true, y_pred) -> float:
    """Mean relative prediction accuracy in percent: ``mean(max(0, 1-|e|/y)) * 100``."""
    y_true, y_pred = _as_arrays(y_true, y_pred)
    rel_err = np.abs(y_pred - y_true) / np.abs(y_true)
    return float(np.maximum(0.0, 1.0 - rel_err).mean() * 100.0)


def binwise_accuracy(y_true, y_pred, groups: Sequence[Hashable]) -> Dict[Hashable, float]:
    """Paper accuracy evaluated separately per group label (e.g. depth bin)."""
    y_true, y_pred = _as_arrays(y_true, y_pred)
    groups = np.asarray(groups)
    if groups.shape[0] != y_true.shape[0]:
        raise ValueError("groups must have one label per sample")
    return {
        key: paper_accuracy(y_true[groups == key], y_pred[groups == key])
        for key in np.unique(groups)
    }


def failing_bins(accuracies: Dict[Hashable, float], threshold: float) -> list:
    """Bin labels whose accuracy misses ``threshold``, in sorted order.

    The ESM loop's convergence check: an empty result means every bin
    meets ``Acc_TH``; a non-empty one is the extension step's target list.
    """
    return sorted(b for b, a in accuracies.items() if float(a) < threshold)


def mape(y_true, y_pred) -> float:
    """Mean absolute percentage error (percent)."""
    y_true, y_pred = _as_arrays(y_true, y_pred)
    return float((np.abs(y_pred - y_true) / np.abs(y_true)).mean() * 100.0)


def rmse(y_true, y_pred) -> float:
    """Root mean squared error, in the target's units."""
    y_true, y_pred = _as_arrays(y_true, y_pred)
    return float(np.sqrt(((y_pred - y_true) ** 2).mean()))


def _rank_arrays(y_true, y_pred):
    """`_as_arrays`, refusing NaN and ±inf: neither has a rank."""
    y_true, y_pred = _as_arrays(y_true, y_pred)
    for name, values in (("y_true", y_true), ("y_pred", y_pred)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(
                f"{name} must be finite to be ranked: "
                f"{name}[{bad[0]}] is {float(values[bad[0]])}"
            )
    return y_true, y_pred


def _run_bounds(*sorted_keys: np.ndarray) -> np.ndarray:
    """Bounds of the runs of equal keys in a sorted sequence.

    Run ``i`` is ``[bounds[i], bounds[i + 1])``; a run ends where any of
    the key arrays changes value (so two keys give their joint ties).
    """
    change = np.zeros(sorted_keys[0].size - 1, dtype=bool)
    for keys in sorted_keys:
        change |= keys[1:] != keys[:-1]
    return np.concatenate(([0], np.flatnonzero(change) + 1, [sorted_keys[0].size]))


def _tied_pairs(bounds: np.ndarray) -> int:
    """Pairs that share a run: ``sum(c * (c - 1) / 2)`` over run lengths."""
    lengths = np.diff(bounds)
    return int((lengths * (lengths - 1) // 2).sum())


def _inversions(perm: np.ndarray) -> int:
    """Pairs of positions ``p < q`` with ``perm[p] > perm[q]``.

    An inverted pair is counted once, at the highest bit where its two
    indices differ.  At bit ``b`` the indices sharing every bit above ``b``
    form a block, contiguous in the sequence and starting at the block's
    first index; each lower-half index (bit ``b`` clear) is inverted with
    the upper-half indices ahead of it in its block, a cumulative sum.  A
    stable partition of every block by bit ``b`` is the next bit's sequence,
    so each of the ``log2 n`` bits costs O(n).
    """
    seq = np.asarray(perm, dtype=np.int64)
    positions = np.arange(seq.size)
    count = 0
    for bit in reversed(range(max(seq.size - 1, 0).bit_length())):
        upper = (seq >> bit) & 1
        start = (seq >> (bit + 1)) << (bit + 1)
        ahead = np.cumsum(upper) - upper
        ahead -= ahead[start]
        count += int(ahead[upper == 0].sum())
        dest = np.where(upper == 1, start + (1 << bit) + ahead, positions - ahead)
        partitioned = np.empty_like(seq)
        partitioned[dest] = seq
        seq = partitioned
    return count


def _rankdata(values: np.ndarray) -> np.ndarray:
    """Average ranks: a tie run at 1-based positions ``first..last`` all
    get ``(first + last) / 2``, exactly the mean of those positions."""
    order = np.argsort(values, kind="stable")
    bounds = _run_bounds(values[order])
    average = (bounds[:-1] + 1 + bounds[1:]) / 2.0
    ranks = np.empty(values.size, dtype=float)
    ranks[order] = np.repeat(average, np.diff(bounds))
    return ranks


def spearman(y_true, y_pred) -> float:
    """Spearman rank correlation (average-tie ranks, Pearson on ranks)."""
    y_true, y_pred = _rank_arrays(y_true, y_pred)
    r_true, r_pred = _rankdata(y_true), _rankdata(y_pred)
    r_true = r_true - r_true.mean()
    r_pred = r_pred - r_pred.mean()
    denom = np.sqrt((r_true**2).sum() * (r_pred**2).sum())
    if denom == 0:
        return 0.0
    return float((r_true * r_pred).sum() / denom)


def kendall_tau(y_true, y_pred) -> float:
    """Kendall rank correlation (tau-b: concordant pairs, tie-corrected).

    The ranking-preservation criterion the NAS layer reports per encoding:
    a surrogate with high tau orders architectures the way true latency
    does, which is what a search actually consumes (Lu et al.).  Degenerate
    inputs (all ties on either side) score 0.0.  Knight's O(n log n)
    count, exact in integers (module docstring).
    """
    y_true, y_pred = _rank_arrays(y_true, y_pred)
    order = np.lexsort((y_pred, y_true))
    t, p = y_true[order], y_pred[order]
    by_pred = np.argsort(p, kind="stable")
    n0 = t.size * (t.size - 1) // 2
    n1 = _tied_pairs(_run_bounds(t))
    n2 = _tied_pairs(_run_bounds(p[by_pred]))
    n3 = _tied_pairs(_run_bounds(t, p))
    # Ordered by (true, pred), a later pair member with a strictly smaller
    # pred is exactly a discordant pair: it comes first in `by_pred`.
    discordant = _inversions(by_pred)
    s = float(n0 - n1 - n2 + n3 - 2 * discordant)
    denom = np.sqrt(float(n0 - n1) * float(n0 - n2))
    if denom == 0:
        return 0.0
    return float(s / denom)
