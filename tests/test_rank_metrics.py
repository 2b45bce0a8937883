"""The rank metrics against their pairwise definitions, bit for bit.

`kendall_tau` counts concordant and discordant pairs in O(n log n) and
`spearman` ranks by one stable sort (see `repro.metrics`).  The pairwise
tau-b and the per-value average ranks they replaced are kept here,
verbatim, as the oracles: every tau and every rank must equal theirs to
the last bit (`float.hex`), on heavy ties and on continuous draws alike.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics import _as_arrays, _inversions, _rankdata, kendall_tau, spearman

# ---------------------------------------------------------------------- #
# Oracles: the pairwise implementations, verbatim
# ---------------------------------------------------------------------- #


def oracle_rankdata(values: np.ndarray) -> np.ndarray:
    """Average ranks (ties share the mean of their positions)."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=float)
    ranks[order] = np.arange(1, values.size + 1, dtype=float)
    # Average the ranks of tied values.
    for value in np.unique(values):
        mask = values == value
        if mask.sum() > 1:
            ranks[mask] = ranks[mask].mean()
    return ranks


def oracle_spearman(y_true, y_pred) -> float:
    """Spearman rank correlation (average-tie ranks, Pearson on ranks)."""
    y_true, y_pred = _as_arrays(y_true, y_pred)
    r_true, r_pred = oracle_rankdata(y_true), oracle_rankdata(y_pred)
    r_true = r_true - r_true.mean()
    r_pred = r_pred - r_pred.mean()
    denom = np.sqrt((r_true**2).sum() * (r_pred**2).sum())
    if denom == 0:
        return 0.0
    return float((r_true * r_pred).sum() / denom)


def oracle_kendall_tau(y_true, y_pred) -> float:
    """Kendall rank correlation (tau-b: concordant pairs, tie-corrected)."""
    y_true, y_pred = _as_arrays(y_true, y_pred)
    d_true = np.sign(y_true[:, None] - y_true[None, :])
    d_pred = np.sign(y_pred[:, None] - y_pred[None, :])
    upper = np.triu_indices(y_true.size, k=1)
    s = float((d_true[upper] * d_pred[upper]).sum())
    n0 = upper[0].size
    ties_true = n0 - int(np.count_nonzero(d_true[upper]))
    ties_pred = n0 - int(np.count_nonzero(d_pred[upper]))
    denom = np.sqrt(float(n0 - ties_true) * float(n0 - ties_pred))
    if denom == 0:
        return 0.0
    return float(s / denom)


# ---------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------- #

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def tied_pairs(draw):
    """Both arguments drawn from small alphabets: every tie pattern."""
    n = draw(st.integers(1, 300))
    sides = []
    for _ in range(2):
        alphabet = draw(
            st.lists(
                st.one_of(FINITE, st.sampled_from([0.0, -0.0, 1.0, -1.0])),
                min_size=1,
                max_size=4,
            )
        )
        sides.append(draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n)))
    return sides


@st.composite
def continuous_pairs(draw):
    n = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    noise = draw(st.sampled_from([0.0, 0.01, 0.3, 10.0]))
    rng = np.random.default_rng(seed)
    y_true = rng.lognormal(size=n)
    return [y_true, y_true + noise * rng.normal(size=n)]


@st.composite
def arbitrary_pairs(draw):
    n = draw(st.integers(1, 60))
    return [draw(st.lists(FINITE, min_size=n, max_size=n)) for _ in range(2)]


PAIRS = st.one_of(tied_pairs(), continuous_pairs(), arbitrary_pairs())


def assert_same_tau(a, b):
    # The oracle's differences may overflow to ±inf; their signs still hold.
    with np.errstate(over="ignore"):
        expected = oracle_kendall_tau(a, b)
    assert kendall_tau(a, b).hex() == expected.hex()


# ---------------------------------------------------------------------- #
# Bit identity
# ---------------------------------------------------------------------- #


class TestKendallTauMatchesPairwise:
    @given(PAIRS)
    def test_bit_identical(self, pair):
        a, b = pair
        assert_same_tau(a, b)

    @given(PAIRS)
    def test_swapped_arguments(self, pair):
        a, b = pair
        assert_same_tau(b, a)
        assert kendall_tau(a, b).hex() == kendall_tau(b, a).hex()

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 300])
    def test_all_tied(self, n):
        flat = np.full(n, 2.5)
        ramp = np.arange(n, dtype=float)
        for a, b in ((flat, ramp), (ramp, flat), (flat, flat)):
            assert_same_tau(a, b)
            assert kendall_tau(a, b) == 0.0

    def test_signed_zeros_tie(self):
        assert_same_tau([0.0, -0.0, 1.0, -0.0], [3.0, 2.0, 1.0, 0.0])


class TestSpearmanMatchesPerValueRanks:
    @given(PAIRS)
    def test_ranks_bit_identical(self, pair):
        for side in pair:
            values = np.asarray(side, dtype=float)
            assert _rankdata(values).tobytes() == oracle_rankdata(values).tobytes()

    @given(PAIRS)
    def test_bit_identical(self, pair):
        a, b = pair
        assert spearman(a, b).hex() == oracle_spearman(a, b).hex()
        assert spearman(b, a).hex() == oracle_spearman(b, a).hex()


class TestInversions:
    @given(st.integers(0, 200).flatmap(lambda n: st.permutations(range(n))))
    def test_counts_every_inverted_pair_once(self, perm):
        perm = np.asarray(perm, dtype=np.int64)
        brute = int(np.triu(perm[:, None] > perm[None, :], k=1).sum())
        assert _inversions(perm) == brute

    def test_extremes(self):
        n = 1000
        assert _inversions(np.arange(n)) == 0
        assert _inversions(np.arange(n)[::-1]) == n * (n - 1) // 2


# ---------------------------------------------------------------------- #
# Memory and hostile input
# ---------------------------------------------------------------------- #


class TestScale:
    def test_no_pairwise_transient(self):
        """The pairwise form needed ~30·n² bytes (~11 GiB at n = 20,000);
        the rank metrics stay linear."""
        rng = np.random.default_rng(0)
        y_true = rng.lognormal(size=20_000)
        y_pred = np.round(y_true + 0.1 * rng.normal(size=20_000), 2)
        for metric in (kendall_tau, spearman):
            tracemalloc.start()
            try:
                metric(y_true, y_pred)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20, f"{metric.__name__} peaked at {peak} bytes"


class TestNonFiniteInput:
    @pytest.mark.parametrize("metric", [kendall_tau, spearman])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("side", ["y_true", "y_pred"])
    def test_names_the_argument(self, metric, bad, side):
        good = [1.0, 2.0, 3.0, 4.0]
        torn = [1.0, 2.0, bad, bad]
        args = (torn, good) if side == "y_true" else (good, torn)
        with pytest.raises(ValueError, match=rf"^{side} must be finite.*{side}\[2\]"):
            metric(*args)
