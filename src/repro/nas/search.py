"""Search drivers over an architecture space: random and evolutionary.

Both drivers optimise the bi-objective (minimize oracle latency, maximize
proxy accuracy) and accept *any* `LatencyOracle` — a fitted surrogate via
`PredictorOracle` or the device itself via `DeviceOracle` — which is the
whole point of the Fig. 2(b) analysis: run the identical seeded search
under both oracles and measure how far the surrogate displaced the front.

`EvolutionarySearch` is an NSGA-II-style loop: binary tournaments on
(non-domination rank, crowding distance), unit-wise crossover and
block-level mutation from `repro.archspace.ops`, and elitist environmental
selection over parents + children.  Every random draw flows through
generators derived from ``(seed, slot, generation)``, so a seeded run
reproduces its population trajectory exactly — the golden-trace test
locks one such trajectory.

Three deployment-grade capabilities ride on that determinism:

* **Constraints** — ``constraints=SearchConstraints(...)`` puts CNAS-style
  latency/params/FLOPs budgets on the search.  Selection switches to
  Deb's constrained-dominance sort (feasible dominates infeasible,
  infeasible ranked by total violation, see `repro.nas.pareto`), so
  NSGA-II pressure keeps pointing at the feasible region even when the
  population starts entirely outside it; the returned front contains only
  feasible members whenever any feasible candidate was evaluated.
* **Warm start** — ``warm_start=`` accepts a previous `ParetoFront`,
  `SearchResult`, or plain config sequence and seeds the initial
  population (random sampling only fills the remainder), so a search can
  continue where a cheaper or earlier one left off.
* **Checkpoint/resume** — ``checkpoint_dir=`` writes one atomic file per
  completed generation (or per evaluated chunk for `RandomSearch`).  A
  killed search re-run with the same parameters resumes from the last
  durable step and produces a byte-identical `SearchResult` JSON, because
  the per-step RNG streams never depend on process history.  A directory
  written by a *different* search is refused by fingerprint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..archspace.config import ArchConfig
from ..archspace.ops import crossover, mutate
from ..archspace.sampling import RandomSampler
from ..archspace.spaces import SpaceSpec
from ..utils import fingerprint as fingerprint_of
from ..utils import load_json, require_header
from .checkpoint import SearchCheckpoint
from .constraints import SearchConstraints
from .pareto import (
    ParetoFront,
    ParetoPoint,
    constrained_non_dominated_rank,
    crowding_distance,
    non_dominated_rank,
)
from .proxy import SyntheticAccuracyProxy

__all__ = ["Candidate", "SearchResult", "RandomSearch", "EvolutionarySearch"]

SEARCH_RESULT_FORMAT_VERSION = 1

# RNG slots, disjoint from the ESM loop's (see repro.core.loop).
_SLOT_INIT = 211
_SLOT_SELECT = 223
_SLOT_VARY = 227

WarmStart = Union["SearchResult", ParetoFront, Sequence[ArchConfig], None]


@dataclass(frozen=True)
class Candidate:
    """An evaluated architecture: oracle latency plus proxy accuracy."""

    config: ArchConfig
    latency_s: float
    accuracy: float

    def point(self) -> ParetoPoint:
        return ParetoPoint(self.latency_s, self.accuracy, self.config)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "latency_s": self.latency_s,
            "accuracy": self.accuracy,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Candidate":
        return cls(
            config=ArchConfig.from_dict(d["config"]),
            latency_s=float(d["latency_s"]),
            accuracy=float(d["accuracy"]),
        )


@dataclass
class SearchResult:
    """Everything a search evaluated, its final population, and the front.

    Under active constraints the front is restricted to feasible members
    whenever any exist; with *no* feasible candidate it degrades to the
    non-dominated set of the least-violating candidates (so the caller
    still sees where the search got stuck, flagged by
    ``feasible_evaluations == 0``).
    """

    evaluated: List[Candidate]
    population: List[Candidate]
    front: ParetoFront
    driver: Optional[str] = None
    seed: Optional[int] = None
    constraints: Optional[SearchConstraints] = None

    @property
    def n_evaluations(self) -> int:
        return len(self.evaluated)

    @property
    def front_configs(self) -> List[ArchConfig]:
        return [p.config for p in self.front if p.config is not None]

    def violations(self) -> np.ndarray:
        """Total budget violation per evaluated candidate (zeros if none)."""
        if self.constraints is None or not self.constraints.is_active:
            return np.zeros(len(self.evaluated))
        return self.constraints.violations(
            [c.config for c in self.evaluated],
            [c.latency_s for c in self.evaluated],
        )

    @property
    def feasible_evaluations(self) -> int:
        return int((self.violations() <= 0.0).sum())

    # ------------------------------ JSON ------------------------------- #

    def to_dict(self) -> dict:
        return {
            "format_version": SEARCH_RESULT_FORMAT_VERSION,
            "kind": "search_result",
            "driver": self.driver,
            "seed": self.seed,
            "constraints": (
                None if self.constraints is None else self.constraints.to_dict()
            ),
            "n_evaluations": self.n_evaluations,
            "n_feasible": self.feasible_evaluations,
            "evaluated": [c.to_dict() for c in self.evaluated],
            "population": [c.to_dict() for c in self.population],
            "front": self.front.to_dict(include_configs=True),
        }

    def to_json(self) -> str:
        """Canonical JSON — what the byte-identity tests compare."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "SearchResult":
        require_header(
            d, "search result", SEARCH_RESULT_FORMAT_VERSION, "search_result"
        )
        constraints = (
            None
            if d.get("constraints") is None
            else SearchConstraints.from_dict(d["constraints"])
        )
        return cls(
            evaluated=[Candidate.from_dict(c) for c in d["evaluated"]],
            population=[Candidate.from_dict(c) for c in d["population"]],
            front=ParetoFront.from_dict(d["front"]),
            driver=d.get("driver"),
            seed=d.get("seed"),
            constraints=constraints,
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SearchResult":
        """Read a `to_json` file, e.g. a warm start saved by an earlier run."""
        return load_json(path, cls.from_dict, what="search result file")


def _resolve_warm_start(warm_start: WarmStart, spec: SpaceSpec) -> List[ArchConfig]:
    """Extract seed architectures from whatever the caller handed over."""
    if warm_start is None:
        return []
    if isinstance(warm_start, SearchResult):
        configs = warm_start.front_configs
    elif isinstance(warm_start, ParetoFront):
        configs = [p.config for p in warm_start if p.config is not None]
    else:
        configs = list(warm_start)
    if not configs:
        raise ValueError(
            "warm_start carries no architecture identities (a front built "
            "without configs cannot seed a population)"
        )
    for config in configs:
        if not isinstance(config, ArchConfig):
            raise TypeError(f"warm_start entries must be ArchConfig, got {config!r}")
        if config.family != spec.family:
            raise ValueError(
                f"warm_start config family {config.family!r} does not match "
                f"the search space {spec.family!r}"
            )
    return configs


class _SearchBase:
    def __init__(
        self,
        spec: SpaceSpec,
        oracle,
        proxy: SyntheticAccuracyProxy,
        *,
        constraints: Optional[SearchConstraints] = None,
        warm_start: WarmStart = None,
        checkpoint_dir: "Union[str, Path, None]" = None,
    ):
        if proxy.spec.family != spec.family:
            raise ValueError("proxy and search must target the same space")
        self.spec = spec
        self.oracle = oracle
        self.proxy = proxy
        # An inert (all-None) constraints object is treated as absent so
        # the unconstrained fast paths — and their byte-locked traces —
        # stay in force.
        self.constraints = (
            constraints if constraints is not None and constraints.is_active else None
        )
        self.warm_configs = _resolve_warm_start(warm_start, spec)
        self.checkpoint_dir = None if checkpoint_dir is None else Path(checkpoint_dir)

    def _evaluate(self, configs: Sequence[ArchConfig]) -> List[Candidate]:
        latencies = self.oracle.latency_batch(list(configs))
        accuracies = self.proxy.accuracy_batch(list(configs))
        return [
            Candidate(config=c, latency_s=float(l), accuracy=float(a))
            for c, l, a in zip(configs, latencies, accuracies)
        ]

    def _violations(self, candidates: Sequence[Candidate]) -> np.ndarray:
        if self.constraints is None:
            return np.zeros(len(candidates))
        return self.constraints.violations(
            [c.config for c in candidates], [c.latency_s for c in candidates]
        )

    @staticmethod
    def _front_of(candidates: Sequence[Candidate]) -> ParetoFront:
        return ParetoFront.from_points([c.point() for c in candidates])

    def _result_front(self, evaluated: Sequence[Candidate]) -> ParetoFront:
        """The reportable front: feasible-only when feasibility exists."""
        if self.constraints is None:
            return self._front_of(evaluated)
        violations = self._violations(evaluated)
        feasible = [c for c, v in zip(evaluated, violations) if v <= 0.0]
        if feasible:
            return self._front_of(feasible)
        # Nothing feasible: report the least-violating candidates' front so
        # the caller sees where the search was pinned against the budgets.
        v_min = violations.min() if len(violations) else 0.0
        nearest = [c for c, v in zip(evaluated, violations) if v <= v_min]
        return self._front_of(nearest)

    def _result(
        self, evaluated: List[Candidate], population: List[Candidate]
    ) -> SearchResult:
        return SearchResult(
            evaluated=evaluated,
            population=population,
            front=self._result_front(evaluated),
            driver=self.name,
            seed=self.seed,
            constraints=self.constraints,
        )

    def _fingerprint_payload(self) -> dict:
        """The shared identity fields every driver fingerprint includes."""
        return {
            "driver": self.name,
            "space": self.spec.family,
            "oracle": getattr(self.oracle, "name", type(self.oracle).__name__),
            "proxy": {
                "floor": self.proxy.floor,
                "ceiling": self.proxy.ceiling,
                "noise_pp": self.proxy.noise_pp,
                "seed": self.proxy.seed,
            },
            "constraints": (
                None if self.constraints is None else self.constraints.to_dict()
            ),
            "warm_start": [c.to_dict() for c in self.warm_configs],
            "seed": self.seed,
        }

    def fingerprint(self) -> str:
        return fingerprint_of(self._fingerprint_payload())

    def _checkpoint_store(self) -> Optional[SearchCheckpoint]:
        if self.checkpoint_dir is None:
            return None
        return SearchCheckpoint(
            self.checkpoint_dir, fingerprint=self.fingerprint(), driver=self.name
        )


class RandomSearch(_SearchBase):
    """Uniform sampling under a fixed evaluation budget.

    Warm-start configs occupy the head of the budget (capped at it); the
    remainder is sampled uniformly.  With ``checkpoint_dir`` the budget is
    evaluated in chunks of ``checkpoint_every`` configs, each committed
    atomically, so a killed run resumes after its last durable chunk and
    reproduces the uninterrupted run's bytes exactly.
    """

    name = "random"

    def __init__(
        self,
        spec: SpaceSpec,
        oracle,
        proxy: SyntheticAccuracyProxy,
        *,
        budget: int = 128,
        seed: int = 0,
        constraints: Optional[SearchConstraints] = None,
        warm_start: WarmStart = None,
        checkpoint_dir: "Union[str, Path, None]" = None,
        checkpoint_every: int = 16,
    ):
        super().__init__(
            spec,
            oracle,
            proxy,
            constraints=constraints,
            warm_start=warm_start,
            checkpoint_dir=checkpoint_dir,
        )
        if budget < 1:
            raise ValueError("budget must be >= 1")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.budget = int(budget)
        self.seed = int(seed)
        self.checkpoint_every = int(checkpoint_every)

    def _fingerprint_payload(self) -> dict:
        return {
            **super()._fingerprint_payload(),
            "budget": self.budget,
            "checkpoint_every": self.checkpoint_every,
        }

    def _configs(self) -> List[ArchConfig]:
        """The full evaluation schedule, a pure function of the seed."""
        warm = self.warm_configs[: self.budget]
        sampler = RandomSampler(
            self.spec, rng=np.random.default_rng([self.seed, _SLOT_INIT])
        )
        return warm + sampler.sample_batch(self.budget - len(warm))

    def run(self, max_chunks: Optional[int] = None) -> SearchResult:
        """Run (or resume) the sweep.

        ``max_chunks`` bounds how many *pending* checkpoint chunks this
        call evaluates before returning — the hook the kill/resume tests
        use; production callers leave it ``None`` (and without a
        ``checkpoint_dir`` it is ignored: the whole budget is one batch).
        """
        configs = self._configs()
        store = self._checkpoint_store()
        if store is None:
            evaluated = self._evaluate(configs)
            return self._result(evaluated, list(evaluated))

        state = store.load_state()
        evaluated = state.evaluated if state else []
        chunks = [
            configs[lo : lo + self.checkpoint_every]
            for lo in range(0, len(configs), self.checkpoint_every)
        ]
        start = state.step + 1 if state else 0
        executed = 0
        for index in range(start, len(chunks)):
            if max_chunks is not None and executed >= max_chunks:
                break
            batch = self._evaluate(chunks[index])
            evaluated.extend(batch)
            store.write_step(index, [c.to_dict() for c in batch], [])
            executed += 1
        return self._result(evaluated, list(evaluated))


class EvolutionarySearch(_SearchBase):
    """NSGA-II-style multi-objective evolutionary search."""

    name = "evolutionary"

    def __init__(
        self,
        spec: SpaceSpec,
        oracle,
        proxy: SyntheticAccuracyProxy,
        *,
        population_size: int = 24,
        generations: int = 10,
        tournament_size: int = 2,
        crossover_prob: float = 0.9,
        p_depth: float = 0.25,
        p_block: float = 0.2,
        seed: int = 0,
        constraints: Optional[SearchConstraints] = None,
        warm_start: WarmStart = None,
        checkpoint_dir: "Union[str, Path, None]" = None,
    ):
        super().__init__(
            spec,
            oracle,
            proxy,
            constraints=constraints,
            warm_start=warm_start,
            checkpoint_dir=checkpoint_dir,
        )
        if population_size < 2:
            raise ValueError("population_size must be >= 2")
        if generations < 1:
            raise ValueError("generations must be >= 1")
        if tournament_size < 1:
            raise ValueError("tournament_size must be >= 1")
        if not 0.0 <= crossover_prob <= 1.0:
            raise ValueError("crossover_prob must be in [0, 1]")
        self.population_size = int(population_size)
        self.generations = int(generations)
        self.tournament_size = int(tournament_size)
        self.crossover_prob = float(crossover_prob)
        self.p_depth = float(p_depth)
        self.p_block = float(p_block)
        self.seed = int(seed)

    def _fingerprint_payload(self) -> dict:
        return {
            **super()._fingerprint_payload(),
            "population_size": self.population_size,
            "generations": self.generations,
            "tournament_size": self.tournament_size,
            "crossover_prob": self.crossover_prob,
            "p_depth": self.p_depth,
            "p_block": self.p_block,
        }

    # ------------------------------------------------------------------ #

    def _rank_and_crowding(
        self, candidates: Sequence[Candidate]
    ) -> Tuple[np.ndarray, np.ndarray]:
        points = [c.point() for c in candidates]
        if self.constraints is None:
            ranks = non_dominated_rank(points)
            collapse = False
        else:
            ranks = constrained_non_dominated_rank(
                points, self._violations(candidates)
            )
            # Selection clamped against a budget boundary mass-produces
            # exact clones of the best boundary point; collapsing their
            # crowding keeps the tournament from treating copies as
            # diversity (see `crowding_distance`).
            collapse = True
        crowding = np.zeros(len(points))
        for rank in np.unique(ranks):
            idx = np.flatnonzero(ranks == rank)
            crowding[idx] = crowding_distance(
                [points[i] for i in idx], collapse_duplicates=collapse
            )
        return ranks, crowding

    def _tournament(
        self,
        rng: np.random.Generator,
        ranks: np.ndarray,
        crowding: np.ndarray,
    ) -> int:
        entrants = rng.integers(len(ranks), size=self.tournament_size)
        # Lower rank wins; within a rank, the less crowded point wins;
        # the earliest index breaks exact ties deterministically.
        return int(min(entrants, key=lambda i: (ranks[i], -crowding[i], i)))

    def _select_survivors(
        self, candidates: List[Candidate]
    ) -> List[Candidate]:
        ranks, crowding = self._rank_and_crowding(candidates)
        order = sorted(
            range(len(candidates)), key=lambda i: (ranks[i], -crowding[i], i)
        )
        return [candidates[i] for i in order[: self.population_size]]

    def _initial_configs(self) -> List[ArchConfig]:
        """Warm-start members first, random fill for the remainder."""
        warm = self.warm_configs[: self.population_size]
        sampler = RandomSampler(
            self.spec, rng=np.random.default_rng([self.seed, _SLOT_INIT])
        )
        return warm + sampler.sample_batch(self.population_size - len(warm))

    def _run_generation(
        self, generation: int, population: List[Candidate]
    ) -> Tuple[List[Candidate], List[Candidate]]:
        """One NSGA-II generation: ``(offspring, survivors)``."""
        rng_sel = np.random.default_rng([self.seed, _SLOT_SELECT, generation])
        rng_var = np.random.default_rng([self.seed, _SLOT_VARY, generation])
        ranks, crowding = self._rank_and_crowding(population)

        children: List[ArchConfig] = []
        while len(children) < self.population_size:
            a = population[self._tournament(rng_sel, ranks, crowding)]
            b = population[self._tournament(rng_sel, ranks, crowding)]
            if rng_var.random() < self.crossover_prob:
                first, second = crossover(a.config, b.config, self.spec, rng_var)
            else:
                first, second = a.config, b.config
            for child in (first, second):
                if len(children) < self.population_size:
                    children.append(
                        mutate(
                            child,
                            self.spec,
                            rng_var,
                            p_depth=self.p_depth,
                            p_block=self.p_block,
                        )
                    )
        offspring = self._evaluate(children)
        survivors = self._select_survivors(population + offspring)
        return offspring, survivors

    def run(self, max_generations: Optional[int] = None) -> SearchResult:
        """Run (or resume) the search.

        ``max_generations`` bounds how many *new* generations this call
        executes before returning — the hook the kill/resume tests use to
        interrupt a checkpointed search mid-trajectory; production callers
        leave it ``None``.  The returned result always reflects every
        generation completed so far, by this call or a previous one.
        """
        store = self._checkpoint_store()
        state = store.load_state() if store is not None else None

        if state is None:
            population = self._evaluate(self._initial_configs())
            evaluated: List[Candidate] = list(population)
            if store is not None:
                dicts = [c.to_dict() for c in population]
                store.write_step(0, dicts, dicts)
            start = 1
        else:
            population, evaluated = state.population, state.evaluated
            start = state.step + 1

        executed = 0
        for generation in range(start, self.generations + 1):
            if max_generations is not None and executed >= max_generations:
                break
            offspring, population = self._run_generation(generation, population)
            evaluated.extend(offspring)
            if store is not None:
                store.write_step(
                    generation,
                    [c.to_dict() for c in offspring],
                    [c.to_dict() for c in population],
                )
            executed += 1

        return self._result(evaluated, population)
