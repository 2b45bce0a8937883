"""Tests of the benchmark harness itself (not of the program it measures).

    PYTHONPATH=src python -m pytest perfbench/tests -q

The end-to-end cases run every workload once, briefly (about a minute in
all); the tracing cases run a tiny traced ESM loop in-process.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _names(section):
    return [m["name"] for m in SPEC[section]]


def test_metric_names_are_plain():
    for section in ("end_to_end", "per_layer"):
        for name in _names(section):
            assert NAME.fullmatch(name), name
    for w in SPEC["workloads"]:
        assert NAME.fullmatch(w["name"]), w["name"]


def test_declared_per_layer_metrics_are_exactly_what_tracing_reports():
    emitted = set(tracing.layer_metrics(tracing.Tracer()))
    emitted |= {"trace.overhead_s", "trace.overhead_pct", "trace.spans"}
    assert emitted == set(_names("per_layer"))


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-4000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_workload_emits_every_end_to_end_metric(workload):
    result = _run(workload, 0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name  # end-to-end metrics are never 0


def test_traced_serve_run_reports_every_layer_metric():
    result = _run("serve_tcp", 1)
    assert set(result["metrics"]) == set(_names("per_layer"))
    assert result["metrics"]["serve.batches"]["value"] > 0
    assert result["metrics"]["predictors.rows_predicted"]["value"] > 0


# ---------------------------------------------------------------------- #
# Span structure, on a tiny traced ESM loop with the adaptive switcher
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def traced_loop(tmp_path_factory):
    from repro import ESMConfig, ESMLoop

    config = ESMConfig(
        space="resnet", device="raspberrypi4", predictor="as",
        predictor_params={"zoo": ["ridge", "cart", "mlp"], "zoo_params": {"mlp": {"epochs": 20}}},
        acc_th=99.5, initial_size=30, extension_size=10, max_iterations=2,
        runs=15, n_references=2, batch_size=10, seed=1,
    )
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        ESMLoop(config, tmp_path_factory.mktemp("run"), sleep=lambda s: None).run()
    finally:
        tracing.uninstall()
    return tracer


def test_uninstall_restores_the_originals(traced_loop):
    import repro.hardware.simulator as simulator

    assert not hasattr(simulator.build_network, "__perfbench_original__")
    assert not hasattr(simulator.SimulatedDevice.true_latency, "__perfbench_original__")


def test_spans_nest_inside_their_parents(traced_loop):
    by_id = {s[0]: s for s in traced_loop.spans}
    assert len(by_id) > 50
    for _, name, start, end, parent, _, _ in traced_loop.spans:
        assert end is not None and end >= start, name
        if parent is not None:
            p = by_id[parent]
            assert p[2] <= start and end <= p[3], (name, p[1])


def test_self_times_are_never_negative(traced_loop):
    for span in traced_loop.spans:
        assert (span[3] - span[2]) - span[6] >= -1e-9, span[1]
    for layer, seconds in tracing.self_times(traced_loop).items():
        assert seconds >= 0.0, layer


def test_layer_metrics_attribute_the_switcher(traced_loop):
    m = tracing.layer_metrics(traced_loop)
    assert m["predictors.fit_calls.as"] == 2
    # three members x three folds, plus the winner's refit, per switcher fit
    assert m["predictors.cv_useful_ratio"] == pytest.approx(1 / 10)
    assert 0.0 < m["predictors.cv_s"] < m["predictors.fit_s.as"]
    assert m["core.iterations"] == 2
    assert m["network.build_calls"] > 0 and m["hardware.layer_calls.conv"] > 0
    # Train/test splits of 24/6 then 32/8 rows: each switcher fit predicts
    # every train row once per member in CV (3 x 24, 3 x 32), and each
    # evaluation predicts the test rows once -- the winner's nested
    # predict inside the switcher's is not counted again.
    assert m["predictors.rows_predicted"] == 3 * 24 + 3 * 32 + 6 + 8


def test_spans_round_trip_through_jsonl(traced_loop, tmp_path):
    path = tmp_path / "spans.jsonl"
    traced_loop.write_jsonl(path)
    back = tracing.Tracer.from_jsonl(path)
    assert back.spans == traced_loop.spans
    assert tracing.layer_metrics(back) == tracing.layer_metrics(traced_loop)
