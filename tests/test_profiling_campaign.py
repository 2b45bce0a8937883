"""Measurement campaigns: reference QC, fault recovery, checkpoint/resume.

The seeded scenarios use a *quiet* device profile (no natural throttling,
tiny session noise) so that every QC verdict is attributable to the
injected faults, not the simulator's own background noise model.
"""

import copy
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from repro import (
    CampaignError,
    CampaignReport,
    CampaignRunner,
    DatasetError,
    DeviceProfile,
    FaultPlan,
    FaultyDevice,
    LatencyDataset,
    MeasurementProtocol,
    RandomSampler,
    ReferenceSet,
    SimulatedDevice,
    resnet_space,
)
from repro.profiling import CampaignStore

QUIET = DeviceProfile(
    name="quietsim",
    peak_flops=19.0e12,
    mem_bandwidth=384e9,
    cache_bytes=6e6,
    num_compute_units=48,
    wave_quantum=2_000_000,
    launch_overhead_s=3.5e-6,
    launch_exponent=0.74,
    cache_penalty=1.2,
    jitter_cv=0.004,
    outlier_prob=0.0,
    outlier_scale=0.1,
    warmup_factor=1.5,
    warmup_iters=3,
    session_sigma=0.002,
    throttle_prob=0.0,
    throttle_factor=1.0,
)

# With campaign seed 42 this plan corrupts batches 1 and 2 on their first
# attempt (sustained throttle sessions) and sprinkles transient faults;
# both batches recover on re-execution.
FAULT_PLAN = FaultPlan(
    throttle_prob=0.35,
    throttle_factor=1.25,
    error_prob=0.03,
    timeout_prob=0.02,
    corrupt_prob=0.04,
)

PROTOCOL = MeasurementProtocol(runs=25)


@pytest.fixture(scope="module")
def spec():
    return resnet_space()


@pytest.fixture(scope="module")
def sweep_configs(spec):
    return RandomSampler(spec, rng=1).sample_batch(20)


def make_runner(device, campaign_dir, configs, spec, seed=42, **kwargs):
    kwargs.setdefault("references", ReferenceSet.from_space(spec, k=2, rng=7))
    kwargs.setdefault("protocol", PROTOCOL)
    kwargs.setdefault("batch_size", 5)
    kwargs.setdefault("sleep", lambda s: None)
    return CampaignRunner(device, configs, campaign_dir, seed=seed, **kwargs)


def shard_bytes(campaign_dir, n_batches):
    return [
        (Path(campaign_dir) / "shards" / f"batch-{i:04d}.json").read_bytes()
        for i in range(n_batches)
    ]


def shards_dataset(campaign_dir, n_batches):
    """The campaign's dataset rebuilt by loading every shard on disk."""
    dataset = LatencyDataset()
    for i in range(n_batches):
        path = Path(campaign_dir) / "shards" / f"batch-{i:04d}.json"
        dataset.extend(LatencyDataset.load(path).samples)
    return dataset


@pytest.fixture
def shard_reads(monkeypatch):
    """Indices of every `CampaignStore.read_shard` call, in order."""
    calls = []
    original = CampaignStore.read_shard

    def spy(self, index):
        calls.append(index)
        return original(self, index)

    monkeypatch.setattr(CampaignStore, "read_shard", spy)
    return calls


class TestReferenceSet:
    def test_from_space_is_seeded(self, spec):
        a = ReferenceSet.from_space(spec, k=3, rng=0)
        b = ReferenceSet.from_space(spec, k=3, rng=0)
        assert a.configs == b.configs
        assert len(a) == 3 and not a.enrolled

    def test_enroll_then_check(self, spec):
        refs = ReferenceSet.from_space(spec, k=2, rng=0)
        refs.enroll(lambda config: 1.0)
        assert refs.enrolled and refs.baselines == [1.0, 1.0]
        ok = refs.check([1.02, 0.99], threshold=0.03)
        assert ok.passed and ok.max_drift == pytest.approx(0.02)
        bad = refs.check([1.05, 1.0], threshold=0.03)
        assert not bad.passed and bad.max_drift == pytest.approx(0.05)

    def test_check_before_enroll_raises(self, spec):
        with pytest.raises(RuntimeError):
            ReferenceSet.from_space(spec, k=1, rng=0).check([1.0], threshold=0.03)

    def test_invalid_inputs(self, spec):
        refs = ReferenceSet.from_space(spec, k=2, rng=0)
        with pytest.raises(ValueError):
            ReferenceSet([])
        with pytest.raises(ValueError):
            ReferenceSet(refs.configs, baselines=[1.0])  # length mismatch
        with pytest.raises(ValueError):
            ReferenceSet(refs.configs, baselines=[1.0, -1.0])
        refs.enroll(lambda config: 1.0)
        with pytest.raises(ValueError):
            refs.check([1.0, 1.0], threshold=0.0)
        with pytest.raises(ValueError):
            refs.check([1.0], threshold=0.03)

    def test_dict_round_trip(self, spec):
        refs = ReferenceSet.from_space(spec, k=2, rng=0)
        refs.enroll(lambda config: 0.5)
        clone = ReferenceSet.from_dict(refs.to_dict())
        assert clone.configs == refs.configs
        assert clone.baselines == refs.baselines


class TestCleanCampaign:
    @pytest.fixture(scope="class")
    def result(self, sweep_configs, spec, tmp_path_factory):
        runner = make_runner(
            SimulatedDevice(QUIET, seed=0),
            tmp_path_factory.mktemp("clean"),
            sweep_configs,
            spec,
        )
        return runner.run()

    def test_gate_does_not_fire_on_a_clean_device(self, result):
        report = result.report
        assert report.all_qc_passed
        assert report.total_qc_retries == 0
        assert report.max_drift < 0.03
        assert all(b.n_attempts == 1 for b in report.batches)

    def test_dataset_contents(self, result, sweep_configs):
        # 4 batches x (5 sweep configs + 2 references).
        assert len(result.dataset) == 28
        assert len(result.measurements) == 20
        assert [s.config for s in result.measurements] == sweep_configs
        assert all(s.qc_passed for s in result.dataset)
        assert all(s.is_reference for s in result.dataset if s.config not in sweep_configs)
        assert all(s.device == "quietsim" for s in result.dataset)
        assert all(s.true_latency_s is not None for s in result.dataset)

    def test_report_round_trips_through_json(self, result, tmp_path):
        path = tmp_path / "report.json"
        result.report.save(path)
        clone = CampaignReport.load(path)
        assert clone.to_dict() == result.report.to_dict()


class TestFaultyCampaign:
    def run_faulty(self, directory, sweep_configs, spec, device_seed=0, **kwargs):
        device = FaultyDevice(
            SimulatedDevice(QUIET, seed=0), FAULT_PLAN, seed=device_seed
        )
        return make_runner(device, directory, sweep_configs, spec, **kwargs)

    def test_gate_fires_and_recovers_under_injected_throttle(
        self, sweep_configs, spec, tmp_path
    ):
        report = self.run_faulty(tmp_path, sweep_configs, spec).run().report
        first_attempt_failures = [
            b for b in report.batches if not b.attempts[0].qc_passed
        ]
        assert len(first_attempt_failures) >= 1
        assert report.total_qc_retries >= 1
        # Every corrupted batch drifted by ~ the injected throttle factor
        # and recovered on a re-execution.
        for batch in first_attempt_failures:
            assert batch.attempts[0].max_drift > 0.03
            assert batch.qc_passed
            assert batch.attempts[-1].qc_passed
        assert report.all_qc_passed

    def test_backoff_between_qc_attempts(self, sweep_configs, spec, tmp_path):
        sleeps = []
        runner = self.run_faulty(
            tmp_path,
            sweep_configs,
            spec,
            sleep=sleeps.append,
            backoff_s=0.1,
            backoff_factor=2.0,
            backoff_jitter=0.0,
        )
        report = runner.run().report
        # One exponential backoff per failed attempt that had retries left.
        expected = []
        for batch in report.batches:
            for attempt in batch.attempts[:-1]:
                expected.append(0.1 * 2.0**attempt.attempt)
        assert sleeps == expected
        assert len(sleeps) == report.total_qc_retries >= 1

    def test_backoff_jitter_is_seeded(self, sweep_configs, spec, tmp_path):
        """The default jitter desynchronises retries but replays exactly:
        every sleep matches the per-(batch, attempt) jitter stream."""
        from repro.profiling.campaign import _JITTER_SLOT

        def jittered_run(directory):
            sleeps = []
            report = self.run_faulty(
                tmp_path / directory,
                sweep_configs,
                spec,
                sleep=sleeps.append,
                backoff_s=0.1,
                backoff_factor=2.0,
                backoff_jitter=0.25,
            ).run().report
            return sleeps, report

        sleeps, report = jittered_run("a")
        expected = []
        for batch in report.batches:
            for attempt in batch.attempts[:-1]:
                base = 0.1 * 2.0**attempt.attempt
                u = np.random.default_rng(
                    [42, _JITTER_SLOT, batch.index + 1, attempt.attempt]
                ).random()
                expected.append(base * (1.0 + 0.25 * (2.0 * u - 1.0)))
        assert sleeps == expected
        assert any(s != 0.1 * 2.0**i for i, s in enumerate(sleeps))
        # The attempt record carries the jittered value it actually slept.
        recorded = [
            a.backoff_s
            for b in report.batches
            for a in b.attempts
            if a.backoff_s > 0
        ]
        assert recorded == sleeps
        # ...and an identical campaign replays the identical schedule.
        assert jittered_run("b")[0] == sleeps

    def test_jitter_does_not_change_shard_bytes(self, sweep_configs, spec, tmp_path):
        self.run_faulty(tmp_path / "jit", sweep_configs, spec,
                        backoff_jitter=0.9).run()
        self.run_faulty(tmp_path / "nojit", sweep_configs, spec,
                        backoff_jitter=0.0).run()
        assert shard_bytes(tmp_path / "jit", 4) == shard_bytes(tmp_path / "nojit", 4)

    def test_backoff_jitter_validation(self, sweep_configs, spec, tmp_path):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                self.run_faulty(tmp_path, sweep_configs, spec, backoff_jitter=bad)

    def test_exhausted_retries_flag_but_keep_the_batch(
        self, sweep_configs, spec, tmp_path
    ):
        # Enroll baselines on the clean device, then measure everything on
        # a permanently-throttled one: every attempt fails QC.
        clean = SimulatedDevice(QUIET, seed=0)
        refs = ReferenceSet.from_space(spec, k=2, rng=7)
        refs.enroll(lambda c: clean.measure_latency(c, protocol=PROTOCOL, rng=0))
        device = FaultyDevice(
            SimulatedDevice(QUIET, seed=0),
            FaultPlan(throttle_prob=1.0, throttle_factor=1.3),
            seed=0,
        )
        configs = sweep_configs[:6]
        runner = make_runner(
            device, tmp_path, configs, spec,
            references=refs, batch_size=3, max_qc_retries=1,
        )
        result = runner.run()
        report = result.report
        assert report.n_qc_failed_batches == report.n_batches == 2
        assert all(b.n_attempts == 2 for b in report.batches)
        # Kept, never dropped — but every sample carries the flag.
        assert len(result.dataset) == 6 + 2 * 2
        assert all(not s.qc_passed for s in result.dataset)
        # The flag survives the shard round trip too (the dataset above
        # came from memory, so check a shard directly).
        reloaded = LatencyDataset.load(Path(tmp_path) / "shards" / "batch-0000.json")
        assert all(not s.qc_passed for s in reloaded)

    def test_resume_is_byte_identical_and_matches_clean_device(
        self, sweep_configs, spec, tmp_path
    ):
        """The acceptance scenario: corruption, detection, re-execution,
        kill, resume, and a final dataset the QC gate can vouch for."""
        clean_result = make_runner(
            SimulatedDevice(QUIET, seed=0), tmp_path / "clean", sweep_configs, spec
        ).run()

        # Uninterrupted faulty campaign.
        full = self.run_faulty(tmp_path / "full", sweep_configs, spec).run()

        # Interrupted twin: killed after 2 batches...
        partial_runner = self.run_faulty(tmp_path / "twin", sweep_configs, spec)
        partial_runner.run(max_batches=2)
        assert not partial_runner.complete
        done = sorted(p.name for p in (tmp_path / "twin" / "shards").iterdir())
        assert done == ["batch-0000.json", "batch-0001.json"]

        # ...and resumed by a fresh process: new runner, new device whose
        # *own* seed differs — campaign draws come from the campaign seed.
        resumed_runner = self.run_faulty(
            tmp_path / "twin", sweep_configs, spec, device_seed=999
        )
        resumed = resumed_runner.run()
        assert resumed_runner.complete

        # Byte-identical shards, so resuming re-measured nothing new and
        # lost nothing.
        assert shard_bytes(tmp_path / "twin", 4) == shard_bytes(tmp_path / "full", 4)

        # The first two batches were inherited, not re-run.
        assert [b.resumed for b in resumed.report.batches] == [
            True, True, False, False,
        ]

        # The QC gate caught the corrupted batches and re-executed them;
        # the report remembers every retry.
        assert resumed.report.total_qc_retries >= 1
        assert any(not b.attempts[0].qc_passed for b in resumed.report.batches)
        assert resumed.report.all_qc_passed

        # Final faulty-device latencies agree with the clean device within
        # the QC threshold.
        faulty_lat = resumed.measurements.latencies
        clean_lat = clean_result.measurements.latencies
        assert np.abs(faulty_lat / clean_lat - 1.0).max() < 0.03

    def test_crash_between_shard_and_manifest_is_recovered(
        self, sweep_configs, spec, tmp_path
    ):
        runner = self.run_faulty(tmp_path, sweep_configs, spec)
        runner.run()
        before = shard_bytes(tmp_path, 4)
        # Simulate a crash window: shard 2 on disk, manifest never updated.
        store = CampaignStore(tmp_path)
        manifest = store.load_manifest()
        del manifest["batches"]["2"]
        store.save_manifest(manifest)
        resumed = self.run_faulty(tmp_path, sweep_configs, spec, device_seed=5)
        result = resumed.run()
        assert shard_bytes(tmp_path, 4) == before
        assert len(result.dataset) == 28

    def test_corrupt_inherited_shard_is_quarantined_and_remeasured(
        self, sweep_configs, spec, tmp_path
    ):
        full = self.run_faulty(tmp_path / "full", sweep_configs, spec).run()
        self.run_faulty(tmp_path / "twin", sweep_configs, spec).run(max_batches=2)
        shard = tmp_path / "twin" / "shards" / "batch-0000.json"
        torn = shard.read_bytes()[:100]
        shard.write_bytes(torn)

        resumed = self.run_faulty(
            tmp_path / "twin", sweep_configs, spec, device_seed=999
        ).run()
        # Batch 0 was measured again from its own RNG streams, so every
        # shard matches the uninterrupted run byte for byte.
        assert shard_bytes(tmp_path / "twin", 4) == shard_bytes(tmp_path / "full", 4)
        assert resumed.dataset == full.dataset
        # The torn shard is kept as evidence, never read again.
        assert (shard.parent / "batch-0000.json.corrupt").read_bytes() == torn
        assert [b.resumed for b in resumed.report.batches] == [
            False, True, False, False,
        ]
        # The repaired directory resumes cleanly: everything is inherited.
        again = self.run_faulty(tmp_path / "twin", sweep_configs, spec).run()
        assert all(b.resumed for b in again.report.batches)
        assert again.dataset == full.dataset


class TestCampaignGuards:
    def test_fingerprint_mismatch_is_refused(self, sweep_configs, spec, tmp_path):
        make_runner(
            SimulatedDevice(QUIET, seed=0), tmp_path, sweep_configs, spec
        ).run(max_batches=1)
        other = make_runner(
            SimulatedDevice(QUIET, seed=0), tmp_path, sweep_configs[:10], spec
        )
        with pytest.raises(CampaignError):
            other.run()

    def test_constructor_validation(self, sweep_configs, spec, tmp_path):
        device = SimulatedDevice(QUIET, seed=0)
        refs = ReferenceSet.from_space(spec, k=1, rng=0)
        with pytest.raises(ValueError):
            CampaignRunner(device, [], tmp_path, refs)
        with pytest.raises(ValueError):
            CampaignRunner(device, sweep_configs, tmp_path, refs, batch_size=0)
        with pytest.raises(ValueError):
            CampaignRunner(device, sweep_configs, tmp_path, refs, max_qc_retries=-1)

    def test_device_without_profile_needs_explicit_name(
        self, sweep_configs, spec, tmp_path
    ):
        class Bare:
            pass

        refs = ReferenceSet.from_space(spec, k=1, rng=0)
        with pytest.raises(ValueError):
            CampaignRunner(Bare(), sweep_configs, tmp_path, refs)

    def test_exhausted_transient_budget_raises(self, sweep_configs, spec, tmp_path):
        device = FaultyDevice(
            SimulatedDevice(QUIET, seed=0), FaultPlan(error_prob=1.0), seed=0
        )
        runner = make_runner(
            device, tmp_path, sweep_configs[:2], spec, max_transient_retries=2
        )
        with pytest.raises(CampaignError):
            runner.run()

    def test_corrupt_manifest_raises_dataset_error(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.manifest_path.write_text("{not json")
        with pytest.raises(DatasetError):
            store.load_manifest()
        store.manifest_path.write_text('{"manifest_version": 99}')
        with pytest.raises(DatasetError):
            store.load_manifest()
        # Valid JSON that is not an object is corrupt too, not a crash.
        for payload in ("[1, 2]", '"manifest"', "3", "null"):
            store.manifest_path.write_text(payload)
            with pytest.raises(DatasetError, match="not a JSON object"):
                store.load_manifest()


def _set(key, value):
    return lambda m: m.__setitem__(key, value)


def _set_batch(value):
    return lambda m: m["batches"].__setitem__("0", value)


def _references(indices):
    """Store the references (with their baselines) at ``indices``."""

    def mutate(m):
        refs = m["references"]
        for key in ("configs", "baselines"):
            refs[key] = [refs[key][i] for i in indices]

    return mutate


class TestTornManifestBody:
    """A manifest whose fingerprint matches but whose body is torn is
    refused with a `DatasetError` naming the field; nothing is moved."""

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda m: m.pop("references"), "manifest.references"),
            (_set("references", "x"), "manifest.references"),
            (lambda m: m["references"].pop("configs"), "manifest.references.configs"),
            (
                lambda m: m["references"]["configs"].append({"units": []}),
                "manifest.references",
            ),
            (
                lambda m: m["references"].update(baselines=[None, None]),
                "manifest.references",
            ),
            # Not the runner's two references: longer, shorter, foreign.
            (_references([0, 1, 0]), "manifest.references.configs"),
            (_references([0]), "manifest.references.configs"),
            (_references([1, 1]), "manifest.references.configs"),
            (lambda m: m.pop("batches"), "manifest.batches"),
            (_set("batches", []), "manifest.batches"),
            (_set_batch("x"), "manifest.batches.0"),
            (_set_batch({}), "manifest.batches.0.index"),
            (
                lambda m: m["batches"]["0"].update(attempts="x"),
                "manifest.batches.0.attempts",
            ),
            (
                lambda m: m["batches"]["0"]["attempts"][0].pop("drifts"),
                "manifest.batches.0.attempts.0.drifts",
            ),
            (lambda m: m["batches"].update(x={}), "manifest.batches.x"),
            (_set("degradations", "x"), "manifest.degradations"),
            (_set("degradations", ["x"]), "manifest.degradations.0"),
            (
                lambda m: m["batches"]["0"]["attempts"][0].update(drifts=[None]),
                "manifest.batches.0.attempts.0.drifts",
            ),
        ],
    )
    def test_names_the_field(self, sweep_configs, spec, tmp_path, mutate, field):
        def runner():
            return make_runner(
                SimulatedDevice(QUIET, seed=0), tmp_path, sweep_configs, spec
            )

        runner().run(max_batches=2)
        store = CampaignStore(tmp_path)
        manifest = store.load_manifest()
        mutate(manifest)
        store.manifest_path.write_text(json.dumps(manifest))
        shards = shard_bytes(tmp_path, 2)
        with pytest.raises(DatasetError, match=rf"{re.escape(field)}: "):
            runner().run()
        assert shard_bytes(tmp_path, 2) == shards
        assert not list(tmp_path.rglob("*.corrupt*"))


class TestParallelCampaign:
    """workers=N must change wall-clock strategy only, never bytes."""

    @staticmethod
    def _context():
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        return "fork" if "fork" in methods else "spawn"

    def _run(self, campaign_dir, sweep_configs, spec, **kwargs):
        device = SimulatedDevice(QUIET, seed=0)
        runner = make_runner(device, campaign_dir, sweep_configs, spec, **kwargs)
        return runner, runner.run()

    def test_parallel_shards_byte_identical_to_sequential(
        self, sweep_configs, spec, tmp_path
    ):
        seq, seq_result = self._run(tmp_path / "seq", sweep_configs, spec)
        par, par_result = self._run(
            tmp_path / "par",
            sweep_configs,
            spec,
            workers=2,
            mp_context=self._context(),
        )
        assert seq.n_batches == par.n_batches == 4
        for index in range(seq.n_batches):
            a = seq.store.shard_path(index).read_bytes()
            b = par.store.shard_path(index).read_bytes()
            assert a == b, f"shard {index} differs between workers=1 and 2"
        assert [s.latency_s for s in seq_result.dataset] == [
            s.latency_s for s in par_result.dataset
        ]
        # The manifests agree too, modulo wall-clock timings: same
        # fingerprint, same per-batch records in the same on-disk order.
        seq_manifest = seq.store.load_manifest()
        par_manifest = par.store.load_manifest()
        assert seq_manifest["fingerprint"] == par_manifest["fingerprint"]

        def untimed(batches):
            return {
                key: {
                    **record,
                    "attempts": [
                        {k: v for k, v in attempt.items() if k != "wall_clock_s"}
                        for attempt in record["attempts"]
                    ],
                }
                for key, record in batches.items()
            }

        assert untimed(seq_manifest["batches"]) == untimed(
            par_manifest["batches"]
        )
        assert list(seq_manifest["batches"]) == list(par_manifest["batches"])

    def test_interrupted_sequential_resumes_in_parallel(
        self, sweep_configs, spec, tmp_path
    ):
        device = SimulatedDevice(QUIET, seed=0)
        make_runner(device, tmp_path / "mix", sweep_configs, spec).run(
            max_batches=2
        )
        mix, mix_result = self._run(
            tmp_path / "mix",
            sweep_configs,
            spec,
            workers=2,
            mp_context=self._context(),
        )
        seq, seq_result = self._run(tmp_path / "ref", sweep_configs, spec)
        for index in range(seq.n_batches):
            assert (
                mix.store.shard_path(index).read_bytes()
                == seq.store.shard_path(index).read_bytes()
            )

    def test_unknown_mp_context_falls_back_to_serial(
        self, sweep_configs, spec, tmp_path
    ):
        seq, seq_result = self._run(tmp_path / "seq", sweep_configs, spec)
        fb, fb_result = self._run(
            tmp_path / "fb",
            sweep_configs,
            spec,
            workers=4,
            mp_context="no-such-start-method",
        )
        for index in range(seq.n_batches):
            assert (
                fb.store.shard_path(index).read_bytes()
                == seq.store.shard_path(index).read_bytes()
            )
        # The fallback is provenance, not a silent apology.
        kinds = [d["kind"] for d in fb_result.report.degradations]
        assert kinds == ["pool_unavailable"]
        assert not seq_result.report.degradations

    def test_workers_do_not_enter_the_fingerprint(
        self, sweep_configs, spec, tmp_path
    ):
        device = SimulatedDevice(QUIET, seed=0)
        a = make_runner(device, tmp_path / "a", sweep_configs, spec)
        b = make_runner(
            device, tmp_path / "b", sweep_configs, spec, workers=8,
            mp_context="fork",
        )
        assert a.fingerprint() == b.fingerprint()

    def test_invalid_workers_rejected(self, sweep_configs, spec, tmp_path):
        device = SimulatedDevice(QUIET, seed=0)
        with pytest.raises(ValueError):
            make_runner(device, tmp_path, sweep_configs, spec, workers=0)


_PARENT_PID = os.getpid()


class WorkerKillingDevice:
    """Hard-kills any process-pool worker that tries to measure with it.

    In the parent process it delegates to a clean `SimulatedDevice`; in a
    pool worker (any other pid) the first measurement calls ``os._exit``,
    which the executor surfaces as `BrokenProcessPool` — the closest a test
    can get to a segfaulting or OOM-killed measurement worker.
    """

    def __init__(self, profile, seed=0):
        self.inner = SimulatedDevice(profile, seed=seed)
        self.profile = self.inner.profile

    def measure(self, target, runs, rng=None):
        if os.getpid() != _PARENT_PID:
            os._exit(1)
        return self.inner.measure(target, runs=runs, rng=rng)

    def true_latency(self, config):
        return self.inner.true_latency(config)


class TestBrokenPoolRecovery:
    """A pool whose workers die mid-campaign must degrade, not abort."""

    def test_dead_workers_fall_back_to_serial(self, sweep_configs, spec, tmp_path):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable on this platform")
        reference = make_runner(
            SimulatedDevice(QUIET, seed=0), tmp_path / "ref", sweep_configs, spec
        )
        reference.run()
        runner = make_runner(
            WorkerKillingDevice(QUIET, seed=0),
            tmp_path / "pool",
            sweep_configs,
            spec,
            workers=2,
            mp_context="fork",
        )
        result = runner.run()
        # The campaign completed anyway, serially, in the parent.
        assert runner.complete
        assert len(result.dataset) == 28
        # ...byte-identical to a never-pooled run on the same device.
        assert shard_bytes(tmp_path / "pool", 4) == shard_bytes(tmp_path / "ref", 4)
        # The report (and the manifest under it) remember what happened.
        degraded = [
            d for d in result.report.degradations
            if d["kind"] == "broken_process_pool"
        ]
        assert len(degraded) == 1
        assert degraded[0]["pending"]  # the batches that fell back
        assert "BrokenProcessPool" in degraded[0]["error"]
        # Degradations survive the JSON round trip and a later resume.
        reloaded = CampaignReport.load(runner.store.report_path)
        assert reloaded.degradations == result.report.degradations


class TestResultFromMemory:
    """A run's dataset holds the samples it committed, not a read-back of
    its shards; it must still equal that read-back exactly."""

    def assert_matches_shards(self, result, campaign_dir, n_batches):
        on_disk = shards_dataset(campaign_dir, n_batches)
        assert result.dataset.to_dict() == on_disk.to_dict()
        assert result.dataset == on_disk

    def test_sequential(self, sweep_configs, spec, tmp_path, shard_reads):
        result = make_runner(
            SimulatedDevice(QUIET, seed=0), tmp_path, sweep_configs, spec
        ).run()
        assert shard_reads == []
        self.assert_matches_shards(result, tmp_path, 4)

    def test_parallel(self, sweep_configs, spec, tmp_path, shard_reads):
        result = make_runner(
            SimulatedDevice(QUIET, seed=0),
            tmp_path,
            sweep_configs,
            spec,
            workers=2,
            mp_context=TestParallelCampaign._context(),
        ).run()
        assert shard_reads == []
        self.assert_matches_shards(result, tmp_path, 4)

    def test_interrupted_then_resumed(
        self, sweep_configs, spec, tmp_path, shard_reads
    ):
        def runner(device_seed):
            device = FaultyDevice(
                SimulatedDevice(QUIET, seed=0), FAULT_PLAN, seed=device_seed
            )
            return make_runner(device, tmp_path, sweep_configs, spec)

        partial = runner(0).run(max_batches=2)
        assert shard_reads == []
        self.assert_matches_shards(partial, tmp_path, 2)
        resumed = runner(999).run()
        # Exactly one load per inherited batch, none for the two it ran.
        assert shard_reads == [0, 1]
        self.assert_matches_shards(resumed, tmp_path, 4)

    def test_qc_exhausted(self, sweep_configs, spec, tmp_path, shard_reads):
        clean = SimulatedDevice(QUIET, seed=0)
        refs = ReferenceSet.from_space(spec, k=2, rng=7)
        refs.enroll(lambda c: clean.measure_latency(c, protocol=PROTOCOL, rng=0))
        device = FaultyDevice(
            SimulatedDevice(QUIET, seed=0),
            FaultPlan(throttle_prob=1.0, throttle_factor=1.3),
            seed=0,
        )
        result = make_runner(
            device, tmp_path, sweep_configs[:6], spec,
            references=refs, batch_size=3, max_qc_retries=1,
        ).run()
        assert not result.report.all_qc_passed
        assert all(not s.qc_passed for s in result.dataset)
        assert shard_reads == []
        self.assert_matches_shards(result, tmp_path, 2)


class TestManifestFormat:
    def test_indented_manifest_still_resumes(self, sweep_configs, spec, tmp_path):
        make_runner(
            SimulatedDevice(QUIET, seed=0), tmp_path / "ref", sweep_configs, spec
        ).run()
        make_runner(
            SimulatedDevice(QUIET, seed=0), tmp_path / "old", sweep_configs, spec
        ).run(max_batches=2)
        # Re-save the manifest the way earlier versions wrote it.
        store = CampaignStore(tmp_path / "old")
        store.manifest_path.write_text(json.dumps(store.load_manifest(), indent=2))
        result = make_runner(
            SimulatedDevice(QUIET, seed=0), tmp_path / "old", sweep_configs, spec
        ).run()
        assert shard_bytes(tmp_path / "old", 4) == shard_bytes(tmp_path / "ref", 4)
        assert [b.resumed for b in result.report.batches] == [
            True, True, False, False,
        ]

    def test_written_manifest_round_trips(
        self, sweep_configs, spec, tmp_path, monkeypatch
    ):
        saved = []
        original = CampaignStore.save_manifest

        def spy(self, manifest):
            saved.append(copy.deepcopy(manifest))
            return original(self, manifest)

        monkeypatch.setattr(CampaignStore, "save_manifest", spy)
        make_runner(
            SimulatedDevice(QUIET, seed=0), tmp_path, sweep_configs, spec
        ).run()
        # One write at creation, one per committed batch.
        assert len(saved) == 1 + 4
        store = CampaignStore(tmp_path)
        assert store.load_manifest() == saved[-1]
        assert store.manifest_path.read_text() == json.dumps(saved[-1])
