"""`repro.nas.experiments` smoke run: deterministic bytes and Fig. 2(b) shape.

Two full ``--smoke`` invocations (each trains all six surrogates through
the ESM loop and runs both search drivers under every oracle) must write
byte-identical JSON, and the report must reproduce the paper's headline:
the FCC and FC encodings displace the Pareto front less than one-hot.
"""

import json

import pytest

from repro.nas.experiments import SURROGATES, format_report, main


@pytest.fixture(scope="module")
def smoke_reports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("nas-exp")
    out_a, out_b = tmp / "a.json", tmp / "b.json"
    assert main(["--smoke", "--out", str(out_a)]) == 0
    assert main(["--smoke", "--out", str(out_b)]) == 0
    return out_a.read_bytes(), out_b.read_bytes()


@pytest.fixture(scope="module")
def report(smoke_reports):
    return json.loads(smoke_reports[0])


class TestDeterminism:
    def test_reruns_are_byte_identical(self, smoke_reports):
        first, second = smoke_reports
        assert first == second


class TestReportStructure:
    def test_header(self, report):
        assert report["format_version"] == 1
        assert report["kind"] == "nas_experiment_report"
        assert report["smoke"] is True
        assert set(report["spaces"]) == {"resnet"}

    def test_every_surrogate_is_reported(self, report):
        fragment = report["spaces"]["resnet"]
        assert set(fragment["oracles"]) == set(SURROGATES)
        for label, entry in fragment["oracles"].items():
            predictor, encoding = SURROGATES[label]
            assert entry["predictor"] == predictor
            assert entry["encoding"] == encoding
            assert -1.0 <= entry["kendall_tau"] <= 1.0
            assert set(entry["searches"]) == {"random", "evolutionary"}
            for metrics in entry["searches"].values():
                assert metrics["displacement"] >= 0.0
                assert 0.0 <= metrics["jaccard"] <= 1.0

    def test_true_fronts_present(self, report):
        fronts = report["spaces"]["resnet"]["true_fronts"]
        assert set(fronts) == {"random", "evolutionary"}
        for front in fronts.values():
            assert front["size"] >= 1
            assert len(front["points"]) == front["size"]

    def test_format_report_renders(self, report):
        text = format_report(report)
        assert "space=resnet" in text
        for label in SURROGATES:
            assert label in text


class TestPaperHeadline:
    def test_fcc_and_fc_beat_onehot_displacement(self, report):
        oracles = report["spaces"]["resnet"]["oracles"]
        assert oracles["fcc"]["displacement"] < oracles["onehot"]["displacement"]
        assert oracles["fc"]["displacement"] < oracles["onehot"]["displacement"]

    def test_fcc_and_fc_beat_onehot_ranking(self, report):
        oracles = report["spaces"]["resnet"]["oracles"]
        assert oracles["fcc"]["kendall_tau"] > oracles["onehot"]["kendall_tau"]
        assert oracles["fc"]["kendall_tau"] > oracles["onehot"]["kendall_tau"]


class TestCLIValidation:
    def test_resume_requires_workdir(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--smoke", "--resume"])
        assert excinfo.value.code == 2

    def test_non_positive_budget_rejected(self, capsys):
        """A bad budget is a usage error naming the flag, not a traceback."""
        for flag in ("--max-latency", "--max-params", "--max-flops"):
            with pytest.raises(SystemExit) as excinfo:
                main(["--smoke", flag, "-1.0"])
            assert excinfo.value.code == 2
            assert f"argument {flag}: " in capsys.readouterr().err

    def test_non_positive_workers_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--smoke", "--workers", "0"])
        assert excinfo.value.code == 2
        assert "argument --workers: " in capsys.readouterr().err
