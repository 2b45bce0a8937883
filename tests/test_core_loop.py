"""Unit tests for `repro.core`: config, report schema, and loop wiring.

The cheap seeded loop here is structural (budgets respected, records
consistent with dataset growth, artifacts written); the convergence and
byte-identity acceptance criteria live in test_core_golden.py and
test_core_e2e.py.
"""

import json
import shutil

import numpy as np
import pytest

from repro import (
    CampaignError,
    ESMConfig,
    ESMLoop,
    ESMRunReport,
    IterationRecord,
    LatencyDataset,
    LatencySample,
    DatasetError,
    failing_bins,
    load_run,
    resnet_space,
)
from repro.core.experiments import compare_samplers, format_comparison, main
from repro.core.loop import DATASET_FILENAME, PREDICTOR_FILENAME, REPORT_FILENAME

CHEAP = dict(
    space="resnet",
    device="rtx4090",
    acc_th=75.0,
    n_bins=4,
    initial_size=24,
    extension_size=8,
    max_iterations=2,
    runs=5,
    n_references=2,
    batch_size=8,
    seed=11,
    predictor_params={"epochs": 60},
)


class TestESMConfig:
    def test_round_trips_through_dict(self):
        config = ESMConfig(**CHEAP)
        assert ESMConfig.from_dict(config.to_dict()) == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown ESMConfig field"):
            ESMConfig.from_dict({"space": "resnet", "acc_threshold": 90.0})

    def test_with_sampler(self):
        config = ESMConfig(**CHEAP)
        assert config.with_sampler("random").initial_sampler == "random"
        assert config.initial_sampler == "balanced"  # original untouched

    @pytest.mark.parametrize(
        "overrides",
        [
            {"encoding": "nope"},
            {"predictor": "nope"},
            {"initial_sampler": "stratified"},
            {"acc_th": 0.0},
            {"acc_th": 101.0},
            {"train_fraction": 1.0},
            {"n_bins": 0},
            {"max_iterations": 0},
            {"initial_size": 0},
            {"extension_size": 0},
            {"batch_size": 0},
            {"n_references": 0},
        ],
    )
    def test_invalid_inputs_rejected(self, overrides):
        with pytest.raises(ValueError):
            ESMConfig(**{**CHEAP, **overrides})

    def test_unknown_space_rejected_at_loop_construction(self, tmp_path):
        config = ESMConfig(**{**CHEAP, "space": "vgg"})
        with pytest.raises(ValueError, match="unknown space"):
            ESMLoop(config, tmp_path / "run")

    def test_explicit_spec_bypasses_space_registry(self, tmp_path):
        config = ESMConfig(**{**CHEAP, "space": "custom-resnet"})
        loop = ESMLoop(config, tmp_path / "run", spec=resnet_space())
        assert loop.spec.family == "resnet"


class TestFailingBins:
    def test_sorted_and_thresholded(self):
        accs = {2: 95.0, 0: 50.0, 1: 89.9}
        assert failing_bins(accs, 90.0) == [0, 1]
        assert failing_bins(accs, 40.0) == []


class TestReportSchema:
    def make_report(self):
        record = IterationRecord(
            iteration=0,
            dataset_size=24,
            train_size=19,
            test_size=5,
            bin_accuracies={0: 91.5, 1: 72.25, 2: 0.0},
            failing_bins=[1, 2],
            samples_added={1: 3, 2: 5},
            passed=False,
        )
        return ESMRunReport(
            config=ESMConfig(**CHEAP).to_dict(),
            bins=[(4, 11), (12, 19), (20, 28)],
            iterations=[record],
            converged=False,
            wall_clock_s=1.25,
        )

    def test_round_trips_through_dict(self):
        report = self.make_report()
        clone = ESMRunReport.from_dict(report.to_dict())
        assert clone.to_dict() == report.to_dict()
        assert clone.bins == report.bins
        assert clone.iterations[0].bin_accuracies == {0: 91.5, 1: 72.25, 2: 0.0}

    def test_wall_clock_never_serialised(self):
        payload = self.make_report().to_dict()
        assert "wall_clock_s" not in json.dumps(payload)

    def test_derived_quantities(self):
        report = self.make_report()
        assert report.n_iterations == 1
        assert report.total_samples_added == 8
        assert report.final_dataset_size == 32  # 24 + 8 planned
        assert report.final_bin_accuracies[1] == 72.25
        assert report.accuracy_trace() == [{0: 91.5, 1: 72.25, 2: 0.0}]

    def test_save_load(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.json"
        report.save(path)
        assert ESMRunReport.load(path).to_dict() == report.to_dict()

    def test_load_failure_modes(self, tmp_path):
        with pytest.raises(DatasetError, match="does not exist"):
            ESMRunReport.load(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(DatasetError, match="not valid JSON"):
            ESMRunReport.load(bad)
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(DatasetError, match="format_version"):
            ESMRunReport.load(wrong)
        kind = tmp_path / "kind.json"
        kind.write_text(json.dumps({"format_version": 1, "kind": "campaign"}))
        with pytest.raises(DatasetError, match="kind"):
            ESMRunReport.load(kind)


class TestDatasetAlgebra:
    def sample(self, latency):
        config = resnet_space().make_config([1] * 4, [3] * 4, [0.25] * 4)
        return LatencySample(config=config, latency_s=latency, device="d")

    def test_add_concatenates_without_mutation(self):
        a = LatencyDataset([self.sample(1.0)])
        b = LatencyDataset([self.sample(2.0)])
        both = a + b
        assert [s.latency_s for s in both] == [1.0, 2.0]
        assert len(a) == 1 and len(b) == 1

    def test_equality_is_sample_wise(self):
        a = LatencyDataset([self.sample(1.0)])
        assert a == LatencyDataset([self.sample(1.0)])
        assert a != LatencyDataset([self.sample(1.5)])
        assert a != "not a dataset"


@pytest.fixture(scope="module")
def cheap_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("esm-cheap") / "run"
    result = ESMLoop(
        ESMConfig(**CHEAP), run_dir, sleep=lambda s: None
    ).run()
    return result


class TestLoopStructure:
    def test_budget_respected(self, cheap_run):
        report = cheap_run.report
        assert 1 <= report.n_iterations <= CHEAP["max_iterations"]

    def test_records_are_consistent(self, cheap_run):
        config = ESMConfig(**CHEAP)
        size = config.initial_size
        for record in cheap_run.report.iterations:
            assert record.dataset_size == size
            assert record.train_size + record.test_size == size
            # Every configured bin is scored, present in the split or not.
            assert sorted(record.bin_accuracies) == list(range(config.n_bins))
            assert record.failing_bins == failing_bins(
                record.bin_accuracies, config.acc_th
            )
            assert record.passed == (not record.failing_bins)
            if record.samples_added:
                assert set(record.samples_added) <= set(record.failing_bins)
            size += record.n_added
        assert len(cheap_run.dataset) == size == cheap_run.report.final_dataset_size

    def test_last_record_never_plans_an_extension(self, cheap_run):
        # A record with a plan is always followed by another iteration, so
        # the final record's plan is empty whether it passed or hit budget.
        assert cheap_run.report.iterations[-1].samples_added == {}

    def test_artifacts_written_and_loadable(self, cheap_run):
        run_dir = cheap_run.run_dir
        for name in (REPORT_FILENAME, DATASET_FILENAME, PREDICTOR_FILENAME):
            assert (run_dir / name).exists()
        loaded = load_run(run_dir)
        assert loaded.report.to_dict() == cheap_run.report.to_dict()
        assert loaded.dataset == cheap_run.dataset
        X = cheap_run.dataset.encode("fcc", resnet_space())
        np.testing.assert_array_equal(
            loaded.predictor.predict(X), cheap_run.predictor.predict(X)
        )

    def test_references_excluded_from_training_data(self, cheap_run):
        assert all(not s.is_reference for s in cheap_run.dataset)

    @pytest.mark.parametrize("change", ["dataset_missing", "other_epochs"])
    def test_rerun_over_unfinished_or_other_run_refits(
        self, cheap_run, change, tmp_path, mlp_fits
    ):
        """Only a complete run under the same config is loaded as is."""
        run_dir = tmp_path / "run"
        shutil.copytree(cheap_run.run_dir, run_dir)
        config = ESMConfig(**CHEAP)
        if change == "dataset_missing":
            (run_dir / DATASET_FILENAME).unlink()
        else:
            config = ESMConfig(**{**CHEAP, "predictor_params": {"epochs": 61}})
        result = ESMLoop(config, run_dir, sleep=lambda s: None).run()
        assert mlp_fits == [config.predictor_params["epochs"]] * len(
            result.report.iterations
        )
        assert load_run(run_dir).report.config == config.to_dict()

    def test_mismatched_run_dir_refused(self, cheap_run):
        other = ESMConfig(**{**CHEAP, "seed": 12})
        with pytest.raises(CampaignError, match="fingerprint"):
            ESMLoop(other, cheap_run.run_dir, sleep=lambda s: None).run()


class TestImmediateConvergence:
    """All bins pass at iteration 0: no extension campaign may run."""

    @pytest.fixture(scope="class")
    def immediate_run(self, tmp_path_factory):
        run_dir = tmp_path_factory.mktemp("esm-immediate") / "run"
        config = ESMConfig(**{**CHEAP, "acc_th": 1.0, "n_bins": 2})
        return ESMLoop(config, run_dir, sleep=lambda s: None).run()

    def test_converges_without_extensions(self, immediate_run):
        report = immediate_run.report
        assert report.converged
        assert report.n_iterations == 1
        record = report.iterations[0]
        assert record.passed
        assert record.failing_bins == []
        assert record.samples_added == {}
        assert report.total_samples_added == 0
        assert report.final_dataset_size == len(immediate_run.dataset) == 24

    def test_only_the_initial_campaign_ran(self, immediate_run):
        campaigns = sorted(
            p.name for p in immediate_run.run_dir.iterdir()
            if p.name.startswith("campaign-")
        )
        assert campaigns == ["campaign-0000"]

    def test_report_still_round_trips(self, immediate_run):
        loaded = load_run(immediate_run.run_dir)
        assert loaded.report.to_dict() == immediate_run.report.to_dict()
        assert loaded.dataset == immediate_run.dataset
        assert loaded.report.converged


class TestFig11Experiment:
    def test_compare_samplers_and_table(self, tmp_path):
        config = ESMConfig(**CHEAP)
        reports = compare_samplers(config, tmp_path)
        assert sorted(reports) == ["balanced", "random"]
        for sampler, report in reports.items():
            assert report.config["initial_sampler"] == sampler
        table = format_comparison(reports)
        assert "balanced" in table and "random" in table
        assert "iterations" in table

    def test_cli_smoke_entry_point(self, tmp_path, capsys):
        assert main(["--smoke", "--seed", "11", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "balanced" in out and "random" in out

    def test_smoke_is_a_budget_preset_composing_with_the_flags(
        self, tmp_path, monkeypatch
    ):
        import repro.core.experiments as experiments

        seen = []

        def capture(config, run_root, **kwargs):
            seen.append(config)
            return {}

        monkeypatch.setattr(experiments, "compare_samplers", capture)
        argv = ["--smoke", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert main([*argv, "--space", "densenet", "--device", "raspberrypi4",
                     "--acc-th", "70"]) == 0
        default, chosen = seen
        assert (default.space, default.device, default.acc_th) == (
            "resnet", "rtx4090", 80.0
        )
        assert (chosen.space, chosen.device, chosen.acc_th) == (
            "densenet", "raspberrypi4", 70.0
        )
        assert chosen.initial_size == default.initial_size == 40

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["--space", "nope"], "--space"),
            (["--device", "nope"], "--device"),
            (["--predictor", "nope"], "--predictor"),
            (["--workers", "0"], "--workers"),
        ],
    )
    def test_bad_argument_is_a_usage_error(self, args, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--smoke", *args])
        assert excinfo.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err

    def test_config_check_failure_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--smoke", "--acc-th", "150"])
        assert excinfo.value.code == 2
        assert "acc_th must be in (0, 100], got 150.0" in capsys.readouterr().err
