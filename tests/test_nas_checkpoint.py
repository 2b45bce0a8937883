"""Fault-matrix tests for search checkpointing and kill/resume.

Every scenario asserts the strongest possible property: the resumed
search's `SearchResult.to_json()` is **byte-identical** to the same
search run uninterrupted with no checkpointing at all.  The matrix:

* process death mid-generation (an oracle that starts raising after a
  set number of batch calls — the checkpoint directory is left exactly
  as a SIGKILL would leave it),
* a torn (truncated) step file from a crash during a write,
* a schema-corrupt step file (valid JSON, wrong step number),
* a stray ``step_*.json`` whose name is not one the store writes,
* a gap in the step sequence (manual deletion / partial rsync),
* a torn manifest (directory quarantined wholesale, run starts fresh),
* a fingerprint mismatch (foreign directory refused loudly).

Also covers the quarantine bookkeeping itself: corrupt files are renamed
``*.corrupt``, never deleted, and never re-read as state.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro import (
    DeviceOracle,
    EvolutionarySearch,
    RandomSearch,
    SearchCheckpointError,
    SearchConstraints,
    SimulatedDevice,
    SyntheticAccuracyProxy,
    space_by_name,
)
from repro.nas.checkpoint import SearchCheckpoint


class DyingOracle:
    """Delegates to a real oracle until its fuse runs out, then raises.

    Models a worker killed mid-search: the generations completed before
    the fuse burned are durably checkpointed, the in-flight one is lost.
    """

    def __init__(self, inner, fuse: int):
        self._inner = inner
        self._fuse = int(fuse)
        self.calls = 0
        self.name = inner.name  # keep the search fingerprint identical

    def latency_batch(self, configs):
        if self.calls >= self._fuse:
            raise RuntimeError("oracle died mid-search")
        self.calls += 1
        return self._inner.latency_batch(configs)

    def latency(self, config):
        return float(self.latency_batch([config])[0])


@pytest.fixture(scope="module")
def harness():
    spec = space_by_name("resnet")
    device = SimulatedDevice("rtx4090", seed=0)
    return spec, DeviceOracle(device), SyntheticAccuracyProxy(spec, seed=0)


EVO_PARAMS = dict(population_size=6, generations=3, seed=11)
RAND_PARAMS = dict(budget=12, seed=11)


def evo(harness, **overrides):
    spec, oracle, proxy = harness
    kwargs = {**EVO_PARAMS, **overrides}
    oracle = kwargs.pop("oracle", oracle)
    return EvolutionarySearch(spec, oracle, proxy, **kwargs)


def rand(harness, **overrides):
    spec, oracle, proxy = harness
    kwargs = {**RAND_PARAMS, **overrides}
    oracle = kwargs.pop("oracle", oracle)
    return RandomSearch(spec, oracle, proxy, **kwargs)


@pytest.fixture(scope="module")
def evo_baseline(harness):
    return evo(harness).run().to_json()


@pytest.fixture(scope="module")
def rand_baseline(harness):
    return rand(harness).run().to_json()


def corrupt_files(root: Path):
    return sorted(p.name for p in root.glob("*.corrupt*"))


class TestKillMidGeneration:
    def test_evolutionary_died_then_resumed(self, harness, evo_baseline, tmp_path):
        spec, oracle, proxy = harness
        ckpt = tmp_path / "ckpt"
        # Fuse of 2 batch calls: generation 0 + generation 1 evaluate,
        # generation 2 dies before anything of it hits disk.
        dying = DyingOracle(oracle, fuse=2)
        with pytest.raises(RuntimeError, match="died mid-search"):
            evo(harness, oracle=dying, checkpoint_dir=ckpt).run()
        assert (ckpt / "step_00001.json").exists()
        assert not (ckpt / "step_00002.json").exists()
        resumed = evo(harness, checkpoint_dir=ckpt).run()
        assert resumed.to_json() == evo_baseline

    def test_random_died_then_resumed(self, harness, rand_baseline, tmp_path):
        spec, oracle, proxy = harness
        ckpt = tmp_path / "ckpt"
        dying = DyingOracle(oracle, fuse=2)
        with pytest.raises(RuntimeError, match="died mid-search"):
            rand(
                harness, oracle=dying, checkpoint_dir=ckpt, checkpoint_every=4
            ).run()
        resumed = rand(harness, checkpoint_dir=ckpt, checkpoint_every=4).run()
        assert resumed.to_json() == rand_baseline

    def test_dead_oracle_made_no_progress(self, harness, tmp_path):
        """Fuse of zero: nothing durable, resume == from-scratch run."""
        spec, oracle, proxy = harness
        ckpt = tmp_path / "ckpt"
        dying = DyingOracle(oracle, fuse=0)
        with pytest.raises(RuntimeError):
            evo(harness, oracle=dying, checkpoint_dir=ckpt).run()
        store = SearchCheckpoint(
            ckpt, fingerprint=evo(harness, checkpoint_dir=ckpt).fingerprint(),
            driver="evolutionary",
        )
        assert store.load_state() is None


class TestTornStepFile:
    def test_truncated_last_step_quarantined_and_rerun(
        self, harness, evo_baseline, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        evo(harness, checkpoint_dir=ckpt).run(max_generations=2)
        victim = ckpt / "step_00002.json"
        victim.write_text(victim.read_text()[: 40])  # torn mid-write
        resumed = evo(harness, checkpoint_dir=ckpt).run()
        assert resumed.to_json() == evo_baseline
        assert "step_00002.json.corrupt" in corrupt_files(ckpt)

    def test_schema_corrupt_step_treated_as_torn(
        self, harness, evo_baseline, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        evo(harness, checkpoint_dir=ckpt).run(max_generations=1)
        victim = ckpt / "step_00001.json"
        payload = json.loads(victim.read_text())
        payload["step"] = 5  # valid JSON, wrong identity
        victim.write_text(json.dumps(payload, sort_keys=True))
        resumed = evo(harness, checkpoint_dir=ckpt).run()
        assert resumed.to_json() == evo_baseline
        assert "step_00001.json.corrupt" in corrupt_files(ckpt)

    def test_gap_in_steps_quarantines_downstream(
        self, harness, evo_baseline, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        evo(harness, checkpoint_dir=ckpt).run()  # complete: steps 0..3
        (ckpt / "step_00001.json").unlink()
        resumed = evo(harness, checkpoint_dir=ckpt).run()
        assert resumed.to_json() == evo_baseline
        # Steps 2 and 3 were causally downstream of the missing step.
        names = corrupt_files(ckpt)
        assert "step_00002.json.corrupt" in names
        assert "step_00003.json.corrupt" in names

    def test_stray_step_files_quarantined(self, harness, evo_baseline, tmp_path):
        ckpt = tmp_path / "ckpt"
        evo(harness, checkpoint_dir=ckpt).run(max_generations=2)
        # Names the store never writes: no step number, or a step number
        # spelled differently from the kept prefix's files.
        for name in ("step_final.json", "step_1.json"):
            (ckpt / name).write_text("{}")
        resumed = evo(harness, checkpoint_dir=ckpt).run()
        assert resumed.to_json() == evo_baseline
        names = corrupt_files(ckpt)
        assert "step_final.json.corrupt" in names
        assert "step_1.json.corrupt" in names

    @pytest.mark.parametrize(
        "field, torn",
        [
            ("population", {"torn": 1}),
            ("evaluated", {"torn": 1}),
            ("population", "not a candidate"),
            ("evaluated", {"config": {"family": "resnet"}, "latency_s": 1.0,
                           "accuracy": 0.5}),
            ("population", {"config": None, "latency_s": 1.0, "accuracy": 0.5}),
        ],
    )
    def test_torn_candidate_treated_as_torn_step(
        self, harness, evo_baseline, tmp_path, field, torn
    ):
        """A step whose JSON and keys are fine but whose candidate is not
        is torn: it and its suffix go, and the rerun rebuilds them."""
        ckpt = tmp_path / "ckpt"
        evo(harness, checkpoint_dir=ckpt).run(max_generations=2)
        victim = ckpt / "step_00001.json"
        payload = json.loads(victim.read_text())
        payload[field][0] = torn
        victim.write_text(json.dumps(payload, sort_keys=True))
        resumed = evo(harness, checkpoint_dir=ckpt).run()
        assert resumed.to_json() == evo_baseline
        names = corrupt_files(ckpt)
        assert "step_00001.json.corrupt" in names
        assert "step_00002.json.corrupt" in names

    def test_torn_candidate_in_random_chunk(self, harness, rand_baseline, tmp_path):
        ckpt = tmp_path / "ckpt"
        rand(harness, checkpoint_dir=ckpt, checkpoint_every=4).run(max_chunks=2)
        victim = ckpt / "step_00001.json"
        payload = json.loads(victim.read_text())
        payload["evaluated"][-1] = {"torn": 1}
        victim.write_text(json.dumps(payload, sort_keys=True))
        resumed = rand(harness, checkpoint_dir=ckpt, checkpoint_every=4).run()
        assert resumed.to_json() == rand_baseline
        assert "step_00001.json.corrupt" in corrupt_files(ckpt)

    def test_torn_random_chunk(self, harness, rand_baseline, tmp_path):
        ckpt = tmp_path / "ckpt"
        rand(harness, checkpoint_dir=ckpt, checkpoint_every=4).run(max_chunks=2)
        victim = ckpt / "step_00001.json"
        victim.write_text("{")
        resumed = rand(harness, checkpoint_dir=ckpt, checkpoint_every=4).run()
        assert resumed.to_json() == rand_baseline


class TestManifestFaults:
    def test_torn_manifest_quarantines_directory(
        self, harness, evo_baseline, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        evo(harness, checkpoint_dir=ckpt).run(max_generations=2)
        (ckpt / "manifest.json").write_text("{ not json")
        resumed = evo(harness, checkpoint_dir=ckpt).run()
        assert resumed.to_json() == evo_baseline
        names = corrupt_files(ckpt)
        assert "manifest.json.corrupt" in names
        # The steps written under the untrusted manifest went with it.
        assert any(n.startswith("step_00000") for n in names)

    def test_foreign_fingerprint_refused(self, harness, tmp_path):
        ckpt = tmp_path / "ckpt"
        evo(harness, checkpoint_dir=ckpt).run(max_generations=1)
        with pytest.raises(SearchCheckpointError, match="different search"):
            evo(harness, seed=99, checkpoint_dir=ckpt).run()

    def test_constraints_change_fingerprint(self, harness, tmp_path):
        ckpt = tmp_path / "ckpt"
        evo(harness, checkpoint_dir=ckpt).run(max_generations=1)
        with pytest.raises(SearchCheckpointError):
            evo(
                harness,
                checkpoint_dir=ckpt,
                constraints=SearchConstraints(max_latency_s=0.001),
            ).run()

    def test_warm_start_changes_fingerprint(self, harness, tmp_path):
        spec, oracle, proxy = harness
        ckpt = tmp_path / "ckpt"
        evo(harness, checkpoint_dir=ckpt).run(max_generations=1)
        from repro.archspace import RandomSampler

        warm = RandomSampler(spec, rng=0).sample_batch(2)
        with pytest.raises(SearchCheckpointError):
            evo(harness, checkpoint_dir=ckpt, warm_start=warm).run()


class TestResumeIsIncremental:
    def test_resume_does_not_repeat_completed_generations(
        self, harness, evo_baseline, tmp_path
    ):
        """The resumed run only pays for the generations it actually lost."""
        spec, oracle, proxy = harness
        ckpt = tmp_path / "ckpt"
        evo(harness, checkpoint_dir=ckpt).run(max_generations=2)
        counting = DyingOracle(oracle, fuse=10_000)
        resumed = evo(harness, oracle=counting, checkpoint_dir=ckpt).run()
        assert resumed.to_json() == evo_baseline
        # Generations 0..2 were durable; only generation 3 re-evaluates.
        assert counting.calls == 1

    def test_completed_run_resumes_to_itself_without_oracle_calls(
        self, harness, evo_baseline, tmp_path
    ):
        spec, oracle, proxy = harness
        ckpt = tmp_path / "ckpt"
        evo(harness, checkpoint_dir=ckpt).run()
        counting = DyingOracle(oracle, fuse=10_000)
        resumed = evo(harness, oracle=counting, checkpoint_dir=ckpt).run()
        assert resumed.to_json() == evo_baseline
        assert counting.calls == 0


SEEDS = [3, 1, 2]
LOOP_PARAMS = dict(population_size=6, generations=2)
BUDGET = SearchConstraints(max_latency_s=0.0009)


def seed_loop(harness, root, seeds=SEEDS, *, oracles=None, driver=EvolutionarySearch):
    """README's seed-dispersion loop: one checkpointed search per seed, each
    in its own directory (``root=None``: no checkpoints).  ``oracles`` maps
    a seed to the oracle its search uses."""
    spec, oracle, proxy = harness
    params = LOOP_PARAMS if driver is EvolutionarySearch else dict(budget=12)
    return {
        s: driver(
            spec,
            (oracles or {}).get(s, oracle),
            proxy,
            seed=s,
            constraints=BUDGET,
            checkpoint_dir=None if root is None else root / f"seed_{s}",
            **params,
        ).run()
        for s in seeds
    }


def as_json(results):
    return {s: r.to_json() for s, r in results.items()}


def counting(harness, seeds=SEEDS):
    return {s: DyingOracle(harness[1], fuse=10_000) for s in seeds}


@pytest.fixture(scope="module")
def loop_baseline(harness):
    return as_json(seed_loop(harness, None))


class TestSeedLoop:
    """Seed dispersion is one checkpointed search per seed: each seed's
    directory resumes on its own, and nothing in one touches another."""

    def test_rerun_replays_every_seed_without_oracle_calls(
        self, harness, loop_baseline, tmp_path
    ):
        assert as_json(seed_loop(harness, tmp_path)) == loop_baseline
        oracles = counting(harness)
        again = seed_loop(harness, tmp_path, oracles=oracles)
        assert as_json(again) == loop_baseline
        assert [o.calls for o in oracles.values()] == [0, 0, 0]

    def test_results_do_not_depend_on_loop_order(
        self, harness, loop_baseline, tmp_path
    ):
        reversed_loop = seed_loop(harness, tmp_path, seeds=SEEDS[::-1])
        assert as_json(reversed_loop) == loop_baseline

    def test_losing_one_seed_directory_recomputes_only_that_seed(
        self, harness, loop_baseline, tmp_path
    ):
        seed_loop(harness, tmp_path)
        shutil.rmtree(tmp_path / "seed_1")
        oracles = counting(harness)
        assert as_json(seed_loop(harness, tmp_path, oracles=oracles)) == loop_baseline
        # One batch call per generation, plus the initial population.
        assert {s: o.calls for s, o in oracles.items()} == {3: 0, 1: 3, 2: 0}

    def test_torn_step_stays_inside_its_seed_directory(
        self, harness, loop_baseline, tmp_path
    ):
        seed_loop(harness, tmp_path)
        victim = tmp_path / "seed_2" / "step_00002.json"
        victim.write_text(victim.read_text()[:40])
        assert as_json(seed_loop(harness, tmp_path)) == loop_baseline
        assert corrupt_files(tmp_path / "seed_2") == ["step_00002.json.corrupt"]
        assert corrupt_files(tmp_path / "seed_1") == []
        assert corrupt_files(tmp_path / "seed_3") == []

    def test_step_torn_three_times_keeps_every_quarantined_file(
        self, harness, loop_baseline, tmp_path
    ):
        seed_loop(harness, tmp_path, seeds=[3])
        victim = tmp_path / "seed_3" / "step_00002.json"
        whole = json.loads(victim.read_text())
        torn = [
            victim.read_text()[:40],
            "{}",
            json.dumps({**whole, "step": 7}, sort_keys=True),
        ]
        for text in torn:
            victim.write_text(text)
            resumed = seed_loop(harness, tmp_path, seeds=[3])
            assert resumed[3].to_json() == loop_baseline[3]
        quarantined = sorted((tmp_path / "seed_3").glob("step_00002.json.corrupt*"))
        assert [p.name for p in quarantined] == [
            "step_00002.json.corrupt",
            "step_00002.json.corrupt1",
            "step_00002.json.corrupt2",
        ]
        assert [p.read_text() for p in quarantined] == torn

    def test_every_seed_front_meets_the_budget(self, harness, tmp_path):
        for seed, result in seed_loop(harness, tmp_path).items():
            assert result.seed == seed
            assert result.feasible_evaluations > 0
            for point in result.front:
                assert BUDGET.violation(point.config, point.latency_s) == 0.0

    def test_hypervolume_dispersion_over_seeds(self, harness, tmp_path):
        proxy = harness[2]
        results = list(seed_loop(harness, tmp_path).values())
        worst = max(c.latency_s for r in results for c in r.evaluated)
        hv = [r.front.hypervolume(1.1 * worst, proxy.floor - 1.0) for r in results]
        assert all(v > 0 for v in hv)
        q25, q50, q75 = np.percentile(hv, [25, 50, 75])
        assert min(hv) <= q25 <= q50 <= q75 <= max(hv)
        # A replayed loop reports the same dispersion, bit for bit.
        replayed = list(seed_loop(harness, tmp_path).values())
        assert [
            r.front.hypervolume(1.1 * worst, proxy.floor - 1.0) for r in replayed
        ] == hv

    def test_random_search_seed_loop_replays(self, harness, tmp_path):
        fresh = as_json(seed_loop(harness, None, driver=RandomSearch))
        assert as_json(seed_loop(harness, tmp_path, driver=RandomSearch)) == fresh
        oracles = counting(harness)
        again = seed_loop(harness, tmp_path, oracles=oracles, driver=RandomSearch)
        assert as_json(again) == fresh
        assert [o.calls for o in oracles.values()] == [0, 0, 0]
