"""Unit tests for `SearchConstraints` and the static-cost memoisation.

Covers the violation arithmetic (relative excess, summed over active
budgets), feasibility, validation, serialisation round-trips, and the
interaction with the search drivers: a constrained search must return a
feasible-only front whenever any evaluated candidate is feasible, and an
inert (all-``None``) constraint set must leave the byte-exact trajectory
of the unconstrained search untouched.
"""

import json

import pytest

from repro import (
    DeviceOracle,
    EvolutionarySearch,
    RandomSearch,
    SearchConstraints,
    SimulatedDevice,
    SyntheticAccuracyProxy,
    space_by_name,
)
from repro.nas.constraints import static_costs
from repro.network import build_network, network_costs


@pytest.fixture(scope="module")
def spec():
    return space_by_name("resnet")


@pytest.fixture(scope="module")
def config(spec):
    from repro.archspace import RandomSampler

    return RandomSampler(spec, rng=3).sample()


class TestStaticCosts:
    def test_matches_direct_analysis(self, config):
        direct = network_costs(build_network(config))
        assert static_costs(config) == direct

    def test_memoised(self, config):
        assert static_costs(config) is static_costs(config)


class TestValidation:
    @pytest.mark.parametrize("field", ["max_latency_s", "max_params", "max_flops"])
    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_budgets_rejected(self, field, bad):
        with pytest.raises(ValueError, match="must be positive"):
            SearchConstraints(**{field: bad})

    def test_all_none_is_inert(self):
        assert not SearchConstraints().is_active

    def test_any_budget_activates(self):
        assert SearchConstraints(max_latency_s=1.0).is_active
        assert SearchConstraints(max_params=1.0).is_active
        assert SearchConstraints(max_flops=1.0).is_active


class TestViolation:
    def test_inert_constraints_never_violate(self, config):
        assert SearchConstraints().violation(config, 1e9) == 0.0

    def test_latency_violation_is_relative_excess(self, config):
        cons = SearchConstraints(max_latency_s=0.002)
        assert cons.violation(config, 0.002) == 0.0
        assert cons.violation(config, 0.001) == 0.0
        assert cons.violation(config, 0.003) == pytest.approx(0.5)

    def test_static_violations_use_analysis_pass(self, config):
        costs = static_costs(config)
        over_params = SearchConstraints(max_params=costs.params / 2)
        assert over_params.violation(config, 0.0) == pytest.approx(1.0)
        over_flops = SearchConstraints(max_flops=costs.flops / 4)
        assert over_flops.violation(config, 0.0) == pytest.approx(3.0)
        roomy = SearchConstraints(
            max_params=costs.params * 2, max_flops=costs.flops * 2
        )
        assert roomy.violation(config, 0.0) == 0.0

    def test_violations_sum_across_axes(self, config):
        costs = static_costs(config)
        cons = SearchConstraints(
            max_latency_s=0.001, max_params=costs.params / 2
        )
        # 100% over latency + 100% over params.
        assert cons.violation(config, 0.002) == pytest.approx(2.0)

    def test_is_feasible_iff_zero_violation(self, config):
        cons = SearchConstraints(max_latency_s=0.002)
        assert cons.is_feasible(config, 0.002)
        assert not cons.is_feasible(config, 0.0021)

    def test_vectorised_violations_align(self, spec, config):
        from repro.archspace import RandomSampler

        configs = RandomSampler(spec, rng=11).sample_batch(4)
        latencies = [0.001, 0.002, 0.003, 0.004]
        cons = SearchConstraints(max_latency_s=0.002)
        out = cons.violations(configs, latencies)
        assert out.shape == (4,)
        for got, (c, l) in zip(out, zip(configs, latencies)):
            assert got == cons.violation(c, l)

    def test_vectorised_violations_length_mismatch(self, config):
        cons = SearchConstraints(max_latency_s=0.002)
        with pytest.raises(ValueError, match="same length"):
            cons.violations([config], [0.001, 0.002])


class TestSerialisation:
    def test_round_trip(self):
        cons = SearchConstraints(max_latency_s=0.0009, max_params=6.0e7)
        assert SearchConstraints.from_dict(cons.to_dict()) == cons

    def test_json_round_trip(self):
        cons = SearchConstraints(max_flops=1.5e10)
        rebuilt = SearchConstraints.from_dict(
            json.loads(json.dumps(cons.to_dict()))
        )
        assert rebuilt == cons


class TestDriverIntegration:
    @pytest.fixture(scope="class")
    def oracle_proxy(self, spec):
        device = SimulatedDevice("rtx4090", seed=0)
        return DeviceOracle(device), SyntheticAccuracyProxy(spec, seed=0)

    def test_inert_constraints_preserve_trajectory(self, spec, oracle_proxy):
        oracle, proxy = oracle_proxy
        plain = EvolutionarySearch(
            spec, oracle, proxy, population_size=8, generations=2, seed=5
        ).run()
        inert = EvolutionarySearch(
            spec,
            oracle,
            proxy,
            population_size=8,
            generations=2,
            seed=5,
            constraints=SearchConstraints(),
        ).run()
        assert inert.to_json() == plain.to_json()

    @pytest.mark.parametrize("driver", [RandomSearch, EvolutionarySearch])
    def test_front_is_feasible_when_possible(self, spec, oracle_proxy, driver):
        oracle, proxy = oracle_proxy
        cons = SearchConstraints(max_latency_s=0.0009)
        kwargs = (
            {"budget": 32}
            if driver is RandomSearch
            else {"population_size": 8, "generations": 2}
        )
        result = driver(
            spec, oracle, proxy, seed=5, constraints=cons, **kwargs
        ).run()
        assert result.feasible_evaluations > 0
        for point in result.front:
            assert point.latency_s <= cons.max_latency_s

    def test_min_violation_front_when_nothing_feasible(self, spec, oracle_proxy):
        oracle, proxy = oracle_proxy
        # No resnet in the space fits a 1-parameter budget.
        cons = SearchConstraints(max_params=1.0)
        result = RandomSearch(
            spec, oracle, proxy, budget=16, seed=5, constraints=cons
        ).run()
        assert result.feasible_evaluations == 0
        assert len(result.front) >= 1
        violations = cons.violations(
            [c.config for c in result.evaluated],
            [c.latency_s for c in result.evaluated],
        )
        front_points = {(p.latency_s, p.accuracy) for p in result.front}
        best = violations.min()
        holders = {
            (c.latency_s, c.accuracy)
            for c, v in zip(result.evaluated, violations)
            if v == best
        }
        assert front_points <= holders

    def test_result_round_trip_keeps_constraints(self, spec, oracle_proxy):
        from repro import SearchResult

        oracle, proxy = oracle_proxy
        cons = SearchConstraints(max_latency_s=0.0009, max_params=6.0e7)
        result = RandomSearch(
            spec, oracle, proxy, budget=12, seed=5, constraints=cons
        ).run()
        rebuilt = SearchResult.from_dict(json.loads(result.to_json()))
        assert rebuilt.constraints == cons
        assert rebuilt.to_json() == result.to_json()
