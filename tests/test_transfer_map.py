"""Property-based tests for `MonotoneLatencyMap` (hypothesis-driven).

The four invariants the ISSUE's transfer tier demands, plus the edge
behaviour the map's docstring promises:

* the fitted map is non-decreasing *everywhere* — between knots, at
  knots, and in both clamped tails — for arbitrary paired samples,
* when the fit comes out strictly increasing, ``apply`` never reverses
  the pairwise order of queries inside the knot range (it may tie two
  queries that are closer than one output ulp), and keeps the exact
  order and Kendall tau whenever it ties none,
* ``to_dict`` -> JSON -> ``from_dict`` round-trips bit-identically,
* PAVA is a pure function of the pair *multiset*: any permutation of
  the input pairs produces bit-identical knots.

Everything here is pure numpy on tiny arrays, so example counts are
generous.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import MonotoneLatencyMap, kendall_tau
from repro.transfer.monotone import MAP_FORMAT_VERSION, _pava

# Latency-scale floats: positive, finite, spanning microseconds to
# seconds — the range a real proxy/target pair produces.
latency = st.floats(
    min_value=1e-6, max_value=10.0, allow_nan=False, allow_infinity=False
)

# Paired samples: equal-length proxy/target lists, at least 2 pairs.
# Drawing tuples keeps proxy and target aligned under shrinking.
pairs = st.lists(st.tuples(latency, latency), min_size=2, max_size=40)

queries = st.lists(latency, min_size=2, max_size=30)


def fit_from(pair_list):
    proxy = np.array([p for p, _ in pair_list])
    target = np.array([t for _, t in pair_list])
    return MonotoneLatencyMap().fit(proxy, target), proxy, target


class TestNonDecreasing:
    @given(pairs=pairs, extra=queries)
    @settings(max_examples=200, deadline=None)
    def test_non_decreasing_on_any_query_grid(self, pairs, extra):
        fitted, proxy, _ = fit_from(pairs)
        # Knots, midpoints, arbitrary queries, and points beyond both
        # tails — sorted, the outputs must be non-decreasing.
        x_knots, y_knots = fitted.knots
        grid = np.sort(
            np.concatenate(
                [
                    x_knots,
                    (x_knots[:-1] + x_knots[1:]) / 2,
                    np.asarray(extra),
                    [0.0, x_knots[0] / 2, x_knots[-1] * 2, 1e6],
                ]
            )
        )
        out = fitted.apply(grid)
        assert np.all(np.diff(out) >= 0)
        assert np.all(np.diff(y_knots) >= 0)

    @given(pairs=pairs)
    @settings(max_examples=200, deadline=None)
    def test_knot_positions_strictly_increase(self, pairs):
        fitted, _, _ = fit_from(pairs)
        x_knots, _ = fitted.knots
        assert np.all(np.diff(x_knots) > 0)

    @given(pairs=pairs)
    @settings(max_examples=100, deadline=None)
    def test_fitted_range_is_within_target_range(self, pairs):
        # PAVA only averages: no fitted value can escape the convex hull
        # of the observed targets.
        fitted, _, target = fit_from(pairs)
        _, y_knots = fitted.knots
        assert y_knots.min() >= target.min() - 1e-12
        assert y_knots.max() <= target.max() + 1e-12


class TestOrderPreservation:
    @given(pairs=pairs, qs=queries)
    @example(
        pairs=[(1.0, 2.0), (1.0000000000000002e-06, 1.0)],
        qs=[1.0, 1.0000000000000002e-06, 1e-06],
    )
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing_map_preserves_exact_pairwise_order(
        self, pairs, qs
    ):
        fitted, _, _ = fit_from(pairs)
        if not fitted.is_strictly_increasing:
            return
        x_knots, _ = fitted.knots
        # Rescale queries into the knot range, where the interpolant is
        # strictly increasing (the clamped tails legitimately tie).
        q = np.asarray(qs)
        lo, hi = q.min(), q.max()
        span = hi - lo
        if span == 0:
            return
        q = x_knots[0] + (q - lo) / span * (x_knots[-1] - x_knots[0])
        out = fitted.apply(q)
        diff_in = np.sign(q[:, None] - q[None, :])
        diff_out = np.sign(out[:, None] - out[None, :])
        # No pair is ever reversed.  Distinct queries may still tie in
        # floating point: one input ulp near 1e-6 can map below one output
        # ulp near 1.0 (the `@example`), so the order is exact only when
        # the map introduced no new tie.
        assert not np.any(diff_in * diff_out < 0)
        no_new_ties = np.unique(out).size == np.unique(q).size
        if no_new_ties:
            assert np.array_equal(diff_in, diff_out)
        # ... which is "Kendall tau of the input ranking is preserved":
        # no discordant pair, so tau is positive, and exactly 1 without
        # new ties.
        if np.unique(out).size > 1:
            tau = kendall_tau(q, out)
            assert tau > 0
            if no_new_ties:
                assert tau == pytest.approx(1.0)

    @given(pairs=pairs)
    @settings(max_examples=100, deadline=None)
    def test_already_monotone_pairs_fit_exactly(self, pairs):
        # When the pooled targets are already non-decreasing in proxy
        # order, PAVA must be the identity on them.
        fitted, proxy, target = fit_from(pairs)
        order = np.lexsort((target, proxy))
        x, y = proxy[order], target[order]
        distinct = np.unique(x).size == x.size
        if not (distinct and np.all(np.diff(y) >= 0)):
            return
        x_knots, y_knots = fitted.knots
        np.testing.assert_array_equal(x_knots, x)
        np.testing.assert_array_equal(y_knots, y)


class TestRoundTrip:
    @given(pairs=pairs, qs=queries)
    @settings(max_examples=200, deadline=None)
    def test_dict_and_json_round_trips_are_bit_identical(self, pairs, qs):
        fitted, _, _ = fit_from(pairs)
        clone = MonotoneLatencyMap.from_dict(fitted.to_dict())
        assert clone == fitted
        # Through actual JSON text too: shortest-repr floats are exact.
        wire = MonotoneLatencyMap.from_dict(
            json.loads(json.dumps(fitted.to_dict()))
        )
        assert wire == fitted
        q = np.asarray(qs)
        np.testing.assert_array_equal(wire.apply(q), fitted.apply(q))
        assert wire.n_pairs == fitted.n_pairs

    @given(pairs=pairs)
    @settings(max_examples=50, deadline=None)
    def test_to_dict_is_json_canonical(self, pairs):
        fitted, _, _ = fit_from(pairs)
        d = fitted.to_dict()
        assert d["format_version"] == MAP_FORMAT_VERSION
        assert json.loads(json.dumps(d)) == d


class TestPermutationInvariance:
    @given(pairs=pairs, seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_fit_is_invariant_under_pair_order(self, pairs, seed):
        fitted, proxy, target = fit_from(pairs)
        perm = np.random.default_rng(seed).permutation(len(pairs))
        shuffled = MonotoneLatencyMap().fit(proxy[perm], target[perm])
        # Bit-identical, not approximately equal: the canonical lexsort
        # happens before any floating-point accumulation.
        assert shuffled == fitted

    @given(pairs=pairs)
    @settings(max_examples=100, deadline=None)
    def test_reversal_and_refit_are_bit_identical(self, pairs):
        fitted, proxy, target = fit_from(pairs)
        reversed_fit = MonotoneLatencyMap().fit(proxy[::-1], target[::-1])
        assert reversed_fit == fitted
        refit = MonotoneLatencyMap().fit(proxy, target)
        assert refit == fitted


class TestClampedExtrapolation:
    @given(pairs=pairs)
    @settings(max_examples=100, deadline=None)
    def test_out_of_range_queries_saturate_at_boundary_knots(self, pairs):
        fitted, _, _ = fit_from(pairs)
        x_knots, y_knots = fitted.knots
        below = fitted.apply([0.0, x_knots[0] * 0.5])
        above = fitted.apply([x_knots[-1] * 2, 1e300])
        np.testing.assert_array_equal(below, [y_knots[0], y_knots[0]])
        np.testing.assert_array_equal(above, [y_knots[-1], y_knots[-1]])

    @given(pairs=pairs, qs=queries)
    @settings(max_examples=100, deadline=None)
    def test_finite_in_finite_out(self, pairs, qs):
        fitted, _, _ = fit_from(pairs)
        q = np.concatenate([np.asarray(qs), [0.0, 1e300, -1e300]])
        assert np.isfinite(fitted.apply(q)).all()


class TestValidation:
    def test_unfitted_apply_rejected(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            MonotoneLatencyMap().apply([1.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="pair up"):
            MonotoneLatencyMap().fit([1.0, 2.0], [1.0])

    def test_single_pair_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            MonotoneLatencyMap().fit([1.0], [2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pairs_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            MonotoneLatencyMap().fit([1.0, bad], [1.0, 2.0])
        with pytest.raises(ValueError, match="non-finite"):
            MonotoneLatencyMap().fit([1.0, 2.0], [bad, 2.0])

    def test_from_dict_rejects_corrupt_payloads(self):
        good = MonotoneLatencyMap().fit([1.0, 2.0], [3.0, 4.0]).to_dict()
        with pytest.raises(ValueError, match="format_version"):
            MonotoneLatencyMap.from_dict({**good, "format_version": 99})
        with pytest.raises(ValueError, match="kind"):
            MonotoneLatencyMap.from_dict({**good, "kind": "mlp"})
        with pytest.raises(ValueError, match="strictly increase"):
            MonotoneLatencyMap.from_dict({**good, "x": [2.0, 1.0]})
        with pytest.raises(ValueError, match="non-decreasing"):
            MonotoneLatencyMap.from_dict({**good, "y": [4.0, 3.0]})
        with pytest.raises(ValueError, match="equal-length"):
            MonotoneLatencyMap.from_dict({**good, "y": [1.0]})


class TestPavaDirect:
    """The raw PAVA routine, pinned on hand-checkable cases."""

    def test_decreasing_input_pools_to_global_mean(self):
        out = _pava(np.array([3.0, 2.0, 1.0]), np.ones(3))
        np.testing.assert_allclose(out, [2.0, 2.0, 2.0])

    def test_monotone_input_is_untouched(self):
        values = np.array([1.0, 2.0, 5.0])
        np.testing.assert_array_equal(_pava(values, np.ones(3)), values)

    def test_weights_tilt_the_pooled_mean(self):
        out = _pava(np.array([4.0, 0.0]), np.array([3.0, 1.0]))
        np.testing.assert_allclose(out, [3.0, 3.0])

    def test_single_violation_pools_locally(self):
        out = _pava(np.array([1.0, 3.0, 2.0, 4.0]), np.ones(4))
        np.testing.assert_allclose(out, [1.0, 2.5, 2.5, 4.0])
