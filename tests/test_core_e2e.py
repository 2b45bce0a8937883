"""End-to-end: `FaultyDevice` -> `CampaignRunner` -> `ESMLoop`.

The whole stack under injected faults — transient errors, hangs, NaN
traces, sustained throttle sessions — must still produce a *deterministic*
convergence result: byte-identical ``report.json`` / ``dataset.json`` /
``predictor.json`` whether the campaigns run serially or on a process
pool, and whether or not the run was killed mid-extension and resumed.
"""

import multiprocessing
import shutil

import numpy as np
import pytest

from repro import (
    ESMConfig,
    ESMLoop,
    FaultPlan,
    FaultyDevice,
    SimulatedDevice,
    load_run,
)
from repro.profiling import CampaignReport, CampaignRunner

ARTIFACTS = ("report.json", "dataset.json", "predictor.json")

E2E_CONFIG = ESMConfig(
    space="resnet",
    device="rtx4090",
    acc_th=82.0,
    n_bins=5,
    initial_size=120,
    extension_size=30,
    max_iterations=6,
    runs=15,
    n_references=2,
    batch_size=10,  # extensions span several batches -> resumable mid-way
    seed=3,
    predictor_params={"epochs": 600},
)

# Lively enough that every fault class fires across the run's campaigns,
# mild enough that the QC/retry machinery always recovers.
FAULTS = FaultPlan(
    throttle_prob=0.25,
    throttle_factor=1.3,
    error_prob=0.03,
    timeout_prob=0.02,
    corrupt_prob=0.03,
)


def make_loop(run_dir, **kwargs):
    device = FaultyDevice(
        SimulatedDevice(E2E_CONFIG.device, seed=E2E_CONFIG.seed),
        FAULTS,
        seed=E2E_CONFIG.seed,
    )
    return ESMLoop(
        E2E_CONFIG, run_dir, device=device, sleep=lambda s: None, **kwargs
    )


def artifact_bytes(run_dir):
    return {name: (run_dir / name).read_bytes() for name in ARTIFACTS}


def pool_context():
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


@pytest.fixture(scope="module")
def serial_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("esm-e2e") / "serial"
    return make_loop(run_dir).run()


class TestFaultyConvergence:
    def test_converges_despite_faults(self, serial_run):
        report = serial_run.report
        assert report.converged
        assert all(
            acc >= E2E_CONFIG.acc_th
            for acc in report.final_bin_accuracies.values()
        )

    def test_fault_machinery_actually_engaged(self, serial_run):
        """The fault plan must exercise the recovery paths, not idle."""
        campaign_dirs = sorted(serial_run.run_dir.glob("campaign-*"))
        assert len(campaign_dirs) == serial_run.report.n_iterations
        reports = [
            CampaignReport.load(d / "report.json") for d in campaign_dirs
        ]
        transient = sum(
            b.transient_retries for r in reports for b in r.batches
        )
        qc_rounds = sum(b.qc_retries for r in reports for b in r.batches)
        assert transient > 0, "no injected transient fault was retried"
        assert qc_rounds > 0, "no QC re-execution was triggered"

    def test_all_samples_recovered_clean(self, serial_run):
        # The retry budgets are generous enough here that every batch
        # eventually passed QC: no sample ships flagged.
        assert all(s.qc_passed for s in serial_run.dataset)


class TestByteIdentity:
    def test_workers_two_is_byte_identical(self, serial_run, tmp_path):
        parallel_dir = tmp_path / "parallel"
        make_loop(parallel_dir, workers=2, mp_context=pool_context()).run()
        assert artifact_bytes(parallel_dir) == artifact_bytes(
            serial_run.run_dir
        )

    def test_resume_after_mid_extension_kill_is_byte_identical(
        self, serial_run, tmp_path, monkeypatch
    ):
        resume_dir = tmp_path / "resumed"
        original = CampaignRunner.run
        fired = []

        def killed_mid_extension(self, max_batches=None):
            # First time the first *extension* campaign runs, complete one
            # batch (checkpointing it) and die like a SIGINT would.
            if "campaign-0001" in str(self.store.root) and not fired:
                fired.append(True)
                original(self, max_batches=1)
                raise KeyboardInterrupt("simulated kill mid-extension")
            return original(self, max_batches)

        monkeypatch.setattr(CampaignRunner, "run", killed_mid_extension)
        with pytest.raises(KeyboardInterrupt):
            make_loop(resume_dir).run()
        monkeypatch.undo()

        # The kill left a partial extension campaign behind ...
        shards = list((resume_dir / "campaign-0001" / "shards").glob("*.json"))
        assert len(shards) == 1
        # ... and the resumed run completes it to the exact same bytes.
        make_loop(resume_dir).run()
        assert artifact_bytes(resume_dir) == artifact_bytes(serial_run.run_dir)

    def test_rerun_over_finished_dir_reproduces_bytes(
        self, serial_run, mlp_fits
    ):
        before = artifact_bytes(serial_run.run_dir)
        again = make_loop(serial_run.run_dir).run()
        assert again.report.converged
        assert artifact_bytes(serial_run.run_dir) == before
        # A finished run is loaded, not retrained.
        assert mlp_fits == []
        assert again.report.to_dict() == serial_run.report.to_dict()

    def test_rerun_over_torn_predictor_refits_to_same_bytes(
        self, serial_run, tmp_path, mlp_fits
    ):
        torn_dir = tmp_path / "torn"
        shutil.copytree(serial_run.run_dir, torn_dir)
        predictor_path = torn_dir / "predictor.json"
        predictor_path.write_bytes(predictor_path.read_bytes()[:100])
        make_loop(torn_dir).run()
        assert len(mlp_fits) == serial_run.report.n_iterations
        assert artifact_bytes(torn_dir) == artifact_bytes(serial_run.run_dir)


class TestProvenanceRoundTrip:
    def test_load_run_restores_surrogate_and_provenance(self, serial_run):
        loaded = load_run(serial_run.run_dir)
        assert loaded.report.to_dict() == serial_run.report.to_dict()
        assert loaded.dataset == serial_run.dataset
        assert loaded.converged
        spec = make_loop(serial_run.run_dir / "na").spec
        X = serial_run.dataset.encode(E2E_CONFIG.encoding, spec)
        np.testing.assert_array_equal(
            loaded.predictor.predict(X), serial_run.predictor.predict(X)
        )
