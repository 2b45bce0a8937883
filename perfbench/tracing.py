"""Span recording around the program's public callables, from outside.

The program under test has no tracing of its own.  `install` replaces a
fixed list of callables -- each at the module or class attribute its
caller resolves, e.g. ``repro.hardware.simulator.build_network`` -- with a
wrapper that records one span per call, and `uninstall` puts the
originals back.  A span is ``(id, name, start, end, parent, run)``; the
name's first dotted part is the module (layer) that did the work.

Spans are kept in memory.  Calls that happen hundreds of thousands of
times per run (the per-IR-layer roofline) are *aggregated* instead: the
wrapper adds their duration and count to a per-name total and to the
enclosing span's covered time, so self times stay exact without storing
every call.  `Tracer.write_jsonl` writes both kinds when the run ends.

Self time of a span is its duration minus the time its direct children
cover; children of one single-threaded parent never overlap, so that is
the sum of their durations.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "LAYERS",
    "Tracer",
    "install",
    "layer_metrics",
    "self_times",
    "uninstall",
]

#: The program's modules, in pipeline order; every span name starts with one.
LAYERS = (
    "archspace",
    "network",
    "hardware",
    "profiling",
    "data",
    "encodings",
    "predictors",
    "core",
    "nas",
    "serve",
)

#: Per-layer figures that come from outside the spans (device and server
#: counters, the recorded backoff, the search front); 0 where not applicable.
EXTERNAL = (
    "hardware.cache_hit_rate",
    "profiling.backoff_requested_s",
    "nas.front_hypervolume",
    "serve.batches",
    "serve.mean_batch",
    "serve.largest_batch",
    "serve.cache_hit_rate",
    "serve.gen_late_ms_p99",
)

#: Predictor kinds whose fits are reported one by one.
FIT_KINDS = ("mlp", "ridge", "cart", "rf", "gb", "as")

_clock = time.perf_counter


class Tracer:
    """In-memory span store with a parent stack (one thread)."""

    def __init__(self) -> None:
        # Each span: [id, name, start, end, parent_id, run_id, covered_s]
        self.spans: List[list] = []
        self.aggregates: Dict[str, List[float]] = {}  # name -> [seconds, calls]
        self.counters: Dict[str, float] = {}
        self.run_id = 0
        self._stack: List[list] = []

    # -- recording ----------------------------------------------------- #

    def begin(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), name, _clock(), None, parent, self.run_id, 0.0]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[3] = _clock()
        self._stack.pop()
        if self._stack:
            self._stack[-1][6] += span[3] - span[2]

    def aggregate(self, name: str, seconds: float) -> None:
        entry = self.aggregates.get(name)
        if entry is None:
            self.aggregates[name] = [seconds, 1]
        else:
            entry[0] += seconds
            entry[1] += 1
        if self._stack:
            self._stack[-1][6] += seconds

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    # -- output -------------------------------------------------------- #

    def records(self) -> List[dict]:
        out = [
            {
                "id": s[0],
                "name": s[1],
                "start": s[2],
                "end": s[3],
                "parent": s[4],
                "run": s[5],
                "child_s": s[6],
            }
            for s in self.spans
        ]
        out.extend(
            {"name": name, "aggregate": True, "seconds": v[0], "calls": int(v[1])}
            for name, v in sorted(self.aggregates.items())
        )
        out.extend(
            {"name": name, "counter": True, "value": v}
            for name, v in sorted(self.counters.items())
        )
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.records():
                fh.write(json.dumps(record) + "\n")

    @classmethod
    def from_jsonl(cls, path) -> "Tracer":
        """Read back what `write_jsonl` wrote (e.g. by the server process)."""
        tracer = cls()
        with open(path) as fh:
            for line in fh:
                r = json.loads(line)
                if r.get("aggregate"):
                    tracer.aggregates[r["name"]] = [r["seconds"], r["calls"]]
                elif r.get("counter"):
                    tracer.counters[r["name"]] = r["value"]
                elif r["end"] is not None:  # drop spans cut open by exit
                    tracer.spans.append(
                        [r["id"], r["name"], r["start"], r["end"],
                         r["parent"], r["run"], r["child_s"]]
                    )
        return tracer


def _wrapper(
    tracer: Tracer,
    fn: Callable,
    name: "str | Callable[..., str]",
    aggregate: bool,
    on_result: Optional[Callable],
) -> Callable:
    named = callable(name)

    if aggregate:

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            t0 = _clock()
            result = fn(*args, **kwargs)
            tracer.aggregate(name(*args) if named else name, _clock() - t0)
            return result

    else:

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            span = tracer.begin(name(*args) if named else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

    wrapped.__perfbench_original__ = fn
    return wrapped


def _rows(counter: str, span_name: str):
    """Hook counting result rows, once per outermost ``span_name`` call
    (the switcher's predict delegates to its winner's)."""

    def hook(tracer, args, result):
        if not (tracer._stack and tracer._stack[-1][1] == span_name):
            tracer.count(counter, len(result))

    return hook


def _campaign_counters(tracer, args, result) -> None:
    report = result.report
    tracer.count("profiling.qc_retries", report.total_qc_retries)
    tracer.count("profiling.transient_retries", report.total_transient_retries)
    tracer.count("profiling.qc_failed_batches", report.n_qc_failed_batches)
    tracer.count("profiling.configs_kept", len(result.measurements))


def _loop_counters(tracer, args, result) -> None:
    tracer.count("core.iterations", result.report.n_iterations)
    tracer.count("core.samples_measured", len(result.dataset))


def _search_counters(tracer, args, result) -> None:
    tracer.count("nas.evaluations", result.n_evaluations)


def _targets() -> List[Tuple[object, str, object, bool, object]]:
    """``(owner, attribute, span name, aggregate?, result hook)`` to wrap."""
    import repro.archspace.sampling as sampling
    import repro.core.loop as loop
    import repro.data.dataset as dataset
    import repro.encodings.encoders as encoders
    import repro.hardware.simulator as simulator
    import repro.nas.search as search
    import repro.predictors as predictors
    import repro.predictors.oracle as oracle
    import repro.profiling.campaign as campaign
    import repro.profiling.protocol as protocol
    import repro.profiling.storage as storage
    import repro.serve.server as server

    targets = [
        (sampling.RandomSampler, "sample_batch", "archspace.sample", False, None),
        (sampling.BalancedSampler, "sample_counts", "archspace.sample", False, None),
        (simulator, "build_network", "network.build", False, None),
        (
            simulator,
            "layer_time",
            lambda layer, *_: "hardware.layer_time." + layer.kind,
            True,
            None,
        ),
        (simulator.SimulatedDevice, "true_latency", "hardware.true_latency", False, None),
        (simulator.SimulatedDevice, "measure", "hardware.measure", False, None),
        (protocol.MeasurementProtocol, "measure", "profiling.protocol_measure", False, None),
        (campaign.CampaignRunner, "run", "profiling.campaign", False, _campaign_counters),
        (storage.CampaignStore, "write_shard", "profiling.store", False, None),
        (storage.CampaignStore, "save_manifest", "profiling.store", False, None),
        (dataset.LatencyDataset, "save", "data.save", False, None),
        (dataset.LatencyDataset, "encode", "data.encode", False, None),
        (loop.ESMLoop, "run", "core.run", False, _loop_counters),
        (loop.ESMLoop, "_evaluate", "core.evaluate", False, None),
        (search.EvolutionarySearch, "run", "nas.search", False, _search_counters),
        (oracle.PredictorOracle, "latency_batch", "nas.oracle", False, None),
        (server.PredictionServer, "_flush", "serve.flush", False, None),
    ]
    for cls in encoders.Encoding.__subclasses__():
        if "encode_batch" in vars(cls):
            targets.append(
                (cls, "encode_batch", "encodings.encode_batch", False,
                 _rows("encodings.rows", "encodings.encode_batch"))
            )
    for kind in FIT_KINDS:
        cls = predictors.PREDICTORS[kind]
        targets.append((cls, "fit", "predictors.fit." + kind, False, None))
        targets.append(
            (cls, "predict", "predictors.predict", False,
             _rows("predictors.rows_predicted", "predictors.predict"))
        )
    return targets


_installed: List[Tuple[object, str, object]] = []


def install(tracer: Tracer) -> None:
    """Wrap every target callable so calls record into ``tracer``."""
    if _installed:
        raise RuntimeError("tracing is already installed")
    for owner, attr, name, aggregate, hook in _targets():
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        _installed.append((owner, attr, original))
        setattr(owner, attr, _wrapper(tracer, original, name, aggregate, hook))


def uninstall() -> None:
    """Put every wrapped callable back."""
    while _installed:
        owner, attr, original = _installed.pop()
        setattr(owner, attr, original)


# ---------------------------------------------------------------------- #
# From spans to metrics
# ---------------------------------------------------------------------- #


def self_times(tracer: Tracer) -> Dict[str, float]:
    """Self seconds per layer: stored spans minus children, plus aggregates."""
    out = {layer: 0.0 for layer in LAYERS}
    for span in tracer.spans:
        layer = span[1].split(".", 1)[0]
        if layer in out:
            out[layer] += (span[3] - span[2]) - span[6]
    for name, (seconds, _) in tracer.aggregates.items():
        layer = name.split(".", 1)[0]
        if layer in out:
            out[layer] += seconds
    return out


def _inclusive(tracer: Tracer) -> Dict[str, List[float]]:
    """Per span name: [seconds, calls] over spans with no same-name ancestor.

    A call nested inside another call of the same name (a zoo member's
    predict inside the switcher's) is counted once, by the outer call.
    """
    by_id = {s[0]: s for s in tracer.spans}
    totals: Dict[str, List[float]] = {}
    for span in tracer.spans:
        parent = span[4]
        nested = False
        while parent is not None:
            ancestor = by_id[parent]
            if ancestor[1] == span[1]:
                nested = True
                break
            parent = ancestor[4]
        if nested:
            continue
        entry = totals.setdefault(span[1], [0.0, 0])
        entry[0] += span[3] - span[2]
        entry[1] += 1
    return totals


def _cv_seconds(tracer: Tracer) -> Tuple[float, int, int]:
    """``(cv seconds, final winner fits, member fits)`` under switcher fits.

    The switcher's last child fit is the winner's refit on all data;
    every other child fit is a cross-validation member fit.
    """
    children: Dict[int, List[list]] = {}
    for span in tracer.spans:
        if span[4] is not None and span[1].startswith("predictors.fit."):
            children.setdefault(span[4], []).append(span)
    cv_s = 0.0
    winners = members = 0
    for span in tracer.spans:
        if span[1] != "predictors.fit.as":
            continue
        fits = children.get(span[0], [])
        members += len(fits)
        if fits:
            winners += 1
            last = fits[-1]
            cv_s += (span[3] - span[2]) - (last[3] - last[2])
    return cv_s, winners, members


def layer_metrics(tracer: Tracer, extra: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Every per-layer metric the benchmark declares, from one traced body.

    Layers a workload does not exercise read 0.  ``extra`` supplies the
    figures that come from outside the spans (device cache counters, the
    recorded backoff, server stats).
    """
    from repro.network.ir import LAYER_KINDS

    totals = _inclusive(tracer)
    counters = tracer.counters

    def seconds(name: str) -> float:
        return totals.get(name, [0.0, 0])[0]

    def calls(name: str) -> int:
        return int(totals.get(name, [0.0, 0])[1])

    m: Dict[str, float] = {}
    m["archspace.sample_s"] = seconds("archspace.sample")
    m["network.build_s"] = seconds("network.build")
    m["network.build_calls"] = calls("network.build")
    m["hardware.true_latency_s"] = seconds("hardware.true_latency")
    m["hardware.true_latency_calls"] = calls("hardware.true_latency")
    m["hardware.measure_s"] = seconds("hardware.measure")
    m["hardware.measure_calls"] = calls("hardware.measure")
    for kind in LAYER_KINDS:
        s, n = tracer.aggregates.get("hardware.layer_time." + kind, [0.0, 0])
        m["hardware.layer_time_s." + kind] = s
        m["hardware.layer_calls." + kind] = int(n)
    m["profiling.campaign_s"] = seconds("profiling.campaign")
    m["profiling.protocol_measure_s"] = seconds("profiling.protocol_measure")
    m["profiling.protocol_measure_calls"] = calls("profiling.protocol_measure")
    kept = counters.get("profiling.configs_kept", 0.0)
    measured = calls("profiling.protocol_measure")
    m["profiling.useful_measure_ratio"] = kept / measured if measured else 0.0
    for name in ("qc_retries", "transient_retries", "qc_failed_batches"):
        m["profiling." + name] = int(counters.get("profiling." + name, 0))
    m["profiling.store_s"] = seconds("profiling.store")
    m["data.save_s"] = seconds("data.save")
    m["data.encode_s"] = seconds("data.encode")
    m["encodings.encode_batch_s"] = seconds("encodings.encode_batch")
    m["encodings.rows"] = int(counters.get("encodings.rows", 0))
    for kind in FIT_KINDS:
        m["predictors.fit_s." + kind] = seconds("predictors.fit." + kind)
        m["predictors.fit_calls." + kind] = calls("predictors.fit." + kind)
    cv_s, winners, members = _cv_seconds(tracer)
    m["predictors.cv_s"] = cv_s
    m["predictors.cv_useful_ratio"] = winners / members if members else 0.0
    m["predictors.predict_s"] = seconds("predictors.predict")
    m["predictors.rows_predicted"] = int(counters.get("predictors.rows_predicted", 0))
    m["core.iterations"] = int(counters.get("core.iterations", 0))
    m["core.samples_measured"] = int(counters.get("core.samples_measured", 0))
    m["core.evaluate_s"] = seconds("core.evaluate")
    m["nas.search_s"] = seconds("nas.search")
    m["nas.evaluations"] = int(counters.get("nas.evaluations", 0))
    m["nas.oracle_s"] = seconds("nas.oracle")
    m["serve.flush_s"] = seconds("serve.flush")
    for layer, s in self_times(tracer).items():
        m[layer + ".self_s"] = s
    m.update(dict.fromkeys(EXTERNAL, 0.0))
    m.update(extra or {})
    return m
