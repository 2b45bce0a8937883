"""The transfer experiment CLI and report plumbing (small configs).

The full smoke report (all 12 pairs, the committed budgets) is locked by
``test_transfer_golden.py``; this file exercises the module's edges on
two-device workloads that finish in well under a second: argument
validation, the nested-budget table shape, the printed table, and
``python -m repro transfer`` writing byte-deterministic JSON.  Its bad
arguments are checked with every command's in ``test_cli.py``.
"""

import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.transfer.experiments import (
    DEFAULT_DEVICES,
    _settings,
    format_report,
    run_experiment,
)

TINY = dict(
    devices=["rtx4090", "raspberrypi4"],
    budgets=[5, 10],
    smoke=True,
    seed=0,
)


@pytest.fixture(scope="module")
def tiny_report():
    return run_experiment(**TINY)


class TestRunExperiment:
    def test_report_schema(self, tiny_report):
        assert tiny_report["kind"] == "transfer_experiment_report"
        assert tiny_report["budgets"] == [5, 10]
        assert set(tiny_report["pairs"]) == {
            "rtx4090->raspberrypi4",
            "raspberrypi4->rtx4090",
        }
        assert tiny_report["summary"]["n_pairs"] == 2
        for pair in tiny_report["pairs"].values():
            assert set(pair["table"]) == {"5", "10"}
            for entry in pair["table"].values():
                assert np.isfinite(entry["transfer"]["mape"])
                assert np.isfinite(entry["scratch"]["kendall_tau"])
                assert entry["transfer"]["n_knots"] >= 2

    def test_match_budget_consistency(self, tiny_report):
        for pair in tiny_report["pairs"].values():
            match = pair["match_budget"]
            if match is None:
                assert pair["half_budget_ok"] is False
                continue
            assert match in (5, 10)
            assert (
                pair["table"][str(match)]["transfer"]["mape"]
                <= pair["scratch_mape_at_max_budget"]
            )
            assert pair["half_budget_ok"] == (2 * match <= 10)

    def test_json_round_trip_is_loss_free(self, tiny_report):
        assert json.loads(json.dumps(tiny_report)) == tiny_report

    def test_default_devices_are_the_paper_quartet(self):
        assert len(DEFAULT_DEVICES) == 4
        full = _settings(smoke=False)
        smoke = _settings(smoke=True)
        assert full["budgets"][-1] > smoke["budgets"][-1]

    def test_duplicate_devices_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_experiment(devices=["rtx4090", "rtx4090"], smoke=True)

    def test_single_device_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            run_experiment(devices=["rtx4090"], smoke=True)

    def test_sub_pair_budgets_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            run_experiment(**{**TINY, "budgets": [1, 10]})


class TestFormatReport:
    def test_table_names_every_pair_and_budget(self, tiny_report):
        text = format_report(tiny_report)
        assert "rtx4090->raspberrypi4" in text
        assert "b=5" in text and "b=10" in text
        assert "half-budget wins" in text
        assert f"/{tiny_report['summary']['n_pairs']} pairs" in text


class TestMain:
    def test_writes_deterministic_report(self, tmp_path, capsys):
        args = [
            "transfer",
            "--devices",
            *TINY["devices"],
            "--budgets",
            "5",
            "10",
            "--smoke",
        ]
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main([*args, "--out", str(out_a)]) == 0
        assert main([*args, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        report = json.loads(out_a.read_text())
        assert report["summary"]["n_pairs"] == 2
        printed = capsys.readouterr().out
        assert "half-budget wins" in printed
        assert str(out_a) in printed
