"""`python -m repro nas` smoke run: deterministic bytes and Fig. 2(b) shape.

Two full ``--smoke`` invocations (each trains all six surrogates through
the ESM loop and runs both search drivers under every oracle) must write
byte-identical JSON, whether their workdir is temporary or given, and the
report must reproduce the paper's headline: the FCC and FC encodings
displace the Pareto front less than one-hot.  A third invocation over the
given workdir resumes everything from disk: the same bytes, without one
measurement or search evaluation.  A fourth under a latency budget reuses
every trained surrogate and runs its own searches afresh.
"""

import json

import pytest

from repro.__main__ import main
from repro.hardware.simulator import SimulatedDevice
from repro.nas.experiments import SURROGATES, format_report
from repro.nas.search import _SearchBase


def counted_run(argv):
    """Run ``nas --smoke`` with ``argv``; return the measurements and
    search evaluations it made."""
    calls = []

    def spy(real):
        def call(*args, **kwargs):
            calls.append(real.__qualname__)
            return real(*args, **kwargs)

        return call

    with pytest.MonkeyPatch.context() as patch:
        for cls, name in ((SimulatedDevice, "measure_batch"), (_SearchBase, "_evaluate")):
            patch.setattr(cls, name, spy(getattr(cls, name)))
        assert main(["nas", "--smoke", *argv]) == 0
    return calls


@pytest.fixture(scope="module")
def smoke_reports(tmp_path_factory):
    """Reports of a fresh run (temporary workdir), a fresh run in a given
    workdir, and a rerun over that workdir; what the rerun did; the
    workdir."""
    tmp = tmp_path_factory.mktemp("nas-exp")
    outs = [tmp / name for name in ("a.json", "b.json", "c.json")]
    workdir = ["--workdir", str(tmp / "work")]
    assert main(["nas", "--smoke", "--out", str(outs[0])]) == 0
    assert main(["nas", "--smoke", *workdir, "--out", str(outs[1])]) == 0
    rerun = counted_run([*workdir, "--out", str(outs[2])])
    return [out.read_bytes() for out in outs], rerun, workdir


@pytest.fixture(scope="module")
def report(smoke_reports):
    return json.loads(smoke_reports[0][0])


class TestDeterminism:
    def test_reruns_are_byte_identical(self, smoke_reports):
        (fresh, in_workdir, _), _, _ = smoke_reports
        assert fresh == in_workdir

    def test_rerun_over_the_workdir_resumes_without_evaluating(self, smoke_reports):
        (_, first, resumed), rerun, _ = smoke_reports
        assert resumed == first
        assert rerun == []

    def test_a_budgeted_rerun_searches_afresh_on_the_trained_surrogates(
        self, smoke_reports, tmp_path
    ):
        """Other budgets are another search: it starts beside the stored
        ones, while every ESM run resumes without a measurement."""
        _, _, workdir = smoke_reports
        out = tmp_path / "budgeted.json"
        calls = counted_run([*workdir, "--max-latency", "0.0009", "--out", str(out)])
        assert "SimulatedDevice.measure_batch" not in calls
        assert "_SearchBase._evaluate" in calls
        assert json.loads(out.read_text())["constraints"]["max_latency_s"] == 0.0009


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
