"""Search drivers: determinism, front validity, and oracle interchange."""

import numpy as np
import pytest

from repro import (
    DeviceOracle,
    EvolutionarySearch,
    RandomSearch,
    SimulatedDevice,
    SyntheticAccuracyProxy,
    space_by_name,
)


class CountingOracle:
    """Cheap analytical stand-in: latency proportional to total blocks."""

    name = "counting"

    def __init__(self):
        self.calls = 0

    def latency(self, config):
        return self.latency_batch([config])[0]

    def latency_batch(self, configs):
        self.calls += len(configs)
        return np.array(
            [1e-3 * c.total_blocks + 1e-5 * sum(
                b.kernel_size for _, b in c.iter_blocks()
            ) for c in configs]
        )


@pytest.fixture
def spec():
    return space_by_name("resnet")


@pytest.fixture
def proxy(spec):
    return SyntheticAccuracyProxy(spec, seed=0)


class TestRandomSearch:
    def test_budget_is_respected(self, spec, proxy):
        result = RandomSearch(spec, CountingOracle(), proxy, budget=17, seed=1).run()
        assert result.n_evaluations == 17
        assert len(result.population) == 17
        assert all(spec.contains(c.config) for c in result.evaluated)

    def test_seeded_run_is_reproducible(self, spec, proxy):
        a = RandomSearch(spec, CountingOracle(), proxy, budget=12, seed=3).run()
        b = RandomSearch(spec, CountingOracle(), proxy, budget=12, seed=3).run()
        assert a.evaluated == b.evaluated
        assert a.front == b.front

    def test_different_seeds_differ(self, spec, proxy):
        a = RandomSearch(spec, CountingOracle(), proxy, budget=12, seed=0).run()
        b = RandomSearch(spec, CountingOracle(), proxy, budget=12, seed=1).run()
        assert a.evaluated != b.evaluated

    def test_front_not_dominated_by_any_evaluation(self, spec, proxy):
        result = RandomSearch(spec, CountingOracle(), proxy, budget=25, seed=2).run()
        evaluated_points = [c.point() for c in result.evaluated]
        for p in result.front:
            assert not any(q.dominates(p) for q in evaluated_points)

    def test_invalid_budget_rejected(self, spec, proxy):
        with pytest.raises(ValueError, match="budget"):
            RandomSearch(spec, CountingOracle(), proxy, budget=0)


class TestEvolutionarySearch:
    def test_population_and_budget_accounting(self, spec, proxy):
        oracle = CountingOracle()
        result = EvolutionarySearch(
            spec, oracle, proxy, population_size=8, generations=3, seed=0
        ).run()
        # init + one offspring batch per generation
        assert result.n_evaluations == 8 * (3 + 1)
        assert oracle.calls == result.n_evaluations
        assert len(result.population) == 8
        assert all(spec.contains(c.config) for c in result.evaluated)

    def test_seeded_run_is_reproducible(self, spec, proxy):
        kwargs = dict(population_size=6, generations=2, seed=11)
        a = EvolutionarySearch(spec, CountingOracle(), proxy, **kwargs).run()
        b = EvolutionarySearch(spec, CountingOracle(), proxy, **kwargs).run()
        assert a.evaluated == b.evaluated
        assert a.population == b.population
        assert a.front == b.front

    def test_front_not_dominated_by_any_evaluation(self, spec, proxy):
        result = EvolutionarySearch(
            spec, CountingOracle(), proxy, population_size=8, generations=3, seed=4
        ).run()
        evaluated_points = [c.point() for c in result.evaluated]
        for p in result.front:
            assert not any(q.dominates(p) for q in evaluated_points)

    def test_survivors_are_the_elite(self, spec, proxy):
        # Every survivor must weakly beat (by rank) any discarded candidate
        # from the final selection pool; cheapest observable: the best
        # latency ever evaluated survives in the front.
        result = EvolutionarySearch(
            spec, CountingOracle(), proxy, population_size=8, generations=3, seed=7
        ).run()
        best_latency = min(c.latency_s for c in result.evaluated)
        assert min(p.latency_s for p in result.front) == best_latency

    def test_accepts_device_oracle(self, spec, proxy):
        device = SimulatedDevice("rtx4090", seed=0)
        result = EvolutionarySearch(
            spec, DeviceOracle(device), proxy, population_size=4, generations=1, seed=0
        ).run()
        assert result.n_evaluations == 8
        assert all(c.latency_s > 0 for c in result.evaluated)

    def test_oracle_changes_outcome_search_stays_seeded(self, spec, proxy):
        # Same seed, different oracle: the *initial* population is identical
        # (drawn before any latency is seen); later generations diverge.
        kwargs = dict(population_size=6, generations=2, seed=5)
        a = EvolutionarySearch(spec, CountingOracle(), proxy, **kwargs).run()
        device = SimulatedDevice("rtx4090", seed=0)
        b = EvolutionarySearch(spec, DeviceOracle(device), proxy, **kwargs).run()
        init_a = [c.config for c in a.evaluated[:6]]
        init_b = [c.config for c in b.evaluated[:6]]
        assert init_a == init_b

    def test_warm_oracle_reruns_match_a_fresh_oracle(self, spec, proxy):
        # A device oracle's latency cache fills during the first run; the
        # repeats are served from it and must not move a byte.
        kwargs = dict(population_size=6, generations=2, seed=3)

        def run(oracle):
            return EvolutionarySearch(spec, oracle, proxy, **kwargs).run().to_json()

        warm = DeviceOracle(SimulatedDevice("rtx4090", seed=3))
        first, second = run(warm), run(warm)
        fresh = run(DeviceOracle(SimulatedDevice("rtx4090", seed=3)))
        assert first == second == fresh

    def test_mismatched_proxy_rejected(self, spec):
        foreign = SyntheticAccuracyProxy(space_by_name("densenet"))
        with pytest.raises(ValueError, match="same space"):
            EvolutionarySearch(spec, CountingOracle(), foreign)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(population_size=1), "population_size"),
            (dict(generations=0), "generations"),
            (dict(tournament_size=0), "tournament_size"),
            (dict(crossover_prob=1.5), "crossover_prob"),
        ],
    )
    def test_invalid_parameters_rejected(self, spec, proxy, kwargs, match):
        with pytest.raises(ValueError, match=match):
            EvolutionarySearch(spec, CountingOracle(), proxy, **kwargs)
