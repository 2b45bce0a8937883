#!/usr/bin/env python3
"""The repository benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see ``perfbench/README.md`` for why each exists):

* ``esm_mlp_search`` -- `ESMLoop` (ResNet x raspberrypi4, FCC + MLP, the
  150-run trimmed-mean protocol with reference QC, balanced sampling and
  extensions), then `EvolutionarySearch` over the surrogate, the front
  re-scored at true latency.
* ``esm_adaptive`` -- the same loop with the adaptive switcher (``as``)
  on MobileNetV3.
* ``campaign_qc`` -- one cold `CampaignRunner` campaign of distinct
  DenseNet configs through a `FaultyDevice`.
* ``serve_tcp`` -- ``python -m repro.serve`` in its own process under
  open-loop JSON-lines load.

With ``--trace 0`` the run measures end-to-end metrics; with ``--trace 1``
it runs the same work with span wrappers installed and reports the
per-layer metrics, plus the tracing overhead against untraced bodies.
Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every output check passed.

Everything the run writes goes under ``.perfbench/`` at the repository
root; the work directory is removed at exit, the span file of a traced
run is kept there.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

WORKLOADS = ("esm_mlp_search", "esm_adaptive", "campaign_qc", "serve_tcp")
DEFAULT_SEED = 0
SETUP_REPEATS = 5
MIN_BODIES = 2  # repeated bodies are what the determinism check compares


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _median(values):
    return float(statistics.median(values))


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _log(msg: str) -> None:
    print(msg, flush=True)


# ---------------------------------------------------------------------- #
# Batch workloads
# ---------------------------------------------------------------------- #


def _setup_probe(name: str, seed: int, work: Path) -> float:
    """In this fresh process: CPU seconds to start, import and construct
    the workload's objects (generating its inputs is not set-up)."""
    import repro  # noqa: F401
    import workloads

    imported = time.process_time()  # interpreter start + imports
    inputs = workloads.make_inputs(name, seed, work)
    t0 = time.process_time()
    workloads.ready(inputs)
    return imported + (time.process_time() - t0)


def _setup_s(name: str, seed: int, work: Path) -> float:
    """Median set-up CPU seconds over fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", name, "--seed", str(seed), "--work", str(work)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return _median(times)


def _run_batch(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Repeat cold bodies for ``seconds``; with ``trace``, alternate an
    untraced body (the overhead baseline) with a traced one."""
    import workloads

    inputs = workloads.make_inputs(name, seed, work)
    setup_s = None if trace else _setup_s(name, seed, work)

    untraced, traced, tracers = [], [], []
    attempted = failed = 0
    reference = None

    def one(traced_mode: bool) -> None:
        nonlocal attempted, failed, reference
        if traced_mode:
            import tracing

            tracer = tracing.Tracer()
            tracer.run_id = len(tracers)
            hooks = (lambda: tracing.install(tracer), tracing.uninstall)
        else:
            hooks = ()
        try:
            result = workloads.body(inputs, *hooks)
        except Exception:
            traceback.print_exc()
            attempted += inputs["ops"]
            failed += inputs["ops"]
            return
        finally:
            if traced_mode:
                tracing.uninstall()
        attempted += result.attempted
        failed += result.attempted - result.delivered
        if reference is None:
            reference = result.fingerprint
        elif result.fingerprint != reference:
            _log(f"CHECK FAILED: a body's outputs differ from the first body's ({name}, seed {seed})")
            failed += result.delivered
        if traced_mode:
            traced.append(result)
            tracers.append(tracer)
        else:
            untraced.append(result)

    started = time.perf_counter()
    rounds = 0
    while True:
        one(False)
        if trace:
            one(True)
        rounds += 1
        elapsed = time.perf_counter() - started
        if failed and not (untraced or traced):
            break
        if rounds >= (1 if trace else MIN_BODIES) and elapsed * (rounds + 1) / rounds > seconds:
            break

    out = {"attempted": max(1, attempted), "failed": failed, "info": {}}
    if not untraced or (trace and not traced):
        out["metrics"] = {}
        return out
    first = untraced[0]
    out["info"] = dict(first.info)
    cpus = [r.cpu_s for r in untraced]
    if not trace:
        walls = [r.wall_s for r in untraced]
        batches_ms = [1e3 * b for r in untraced for b in r.batch_latencies_s]
        out["metrics"] = {
            "setup_s": setup_s,
            "cpu_s": _median(cpus),
            "accuracy_pct": first.accuracy_pct,
            "rank_tau": first.rank_tau,
            "peak_rss_mb": _peak_rss_mb(),
            "success_share": 1.0 - failed / max(1, attempted),
        }
        out["info"].update(
            {
                "wall_s": (_median(walls), "s"),
                "items_per_wall_s": (_median([r.items / r.wall_s for r in untraced]), "1/s"),
                "batch_p50_ms": (_percentile(batches_ms, 50), "ms"),
                "batch_p90_ms": (_percentile(batches_ms, 90), "ms"),
                "bodies": (len(untraced), "count"),
                "batches": (len(batches_ms), "count"),
            }
        )
        return out

    import tracing

    per_body = [
        tracing.layer_metrics(t, extra=r.extra) for t, r in zip(tracers, traced)
    ]
    layer = {k: _median([m[k] for m in per_body]) for k in per_body[0]}
    traced_cpu = _median([r.cpu_s for r in traced])
    layer["trace.overhead_s"] = traced_cpu - _median(cpus)
    layer["trace.overhead_pct"] = 100.0 * layer["trace.overhead_s"] / _median(cpus)
    layer["trace.spans"] = _median([len(t.spans) for t in tracers])
    _write_spans(name, seed, tracers)
    out["metrics"] = layer
    out["info"].update(untraced_cpu_s=(_median(cpus), "s"), traced_cpu_s=(traced_cpu, "s"))
    return out


def _write_spans(name: str, seed: int, tracers) -> Path:
    path = OUT / f"trace-{name}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for tracer in tracers:
            for record in tracer.records():
                fh.write(json.dumps(record) + "\n")
    _log(f"spans written to {path.relative_to(ROOT)}")
    return path


# ---------------------------------------------------------------------- #
# serve_tcp
# ---------------------------------------------------------------------- #


def _run_serve(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import serving

    inputs = serving.make_inputs(seed, work, serving.requests_needed(seconds))
    log = work / "server.log"
    attempted = failed = 0
    info = {"repeat_share": (inputs["repeat_share"], "ratio")}

    def per_1k(bursts) -> float:
        """Server CPU seconds per 1000 requests over all ``bursts`` together:
        a full garbage collection (~50 ms) lands in some bursts and not
        others, so a per-burst figure swings by its share."""
        return 1e3 * sum(p.server_cpu_s for p in bursts) / sum(len(p.ids) for p in bursts)

    if trace:
        # An untraced server's bursts first: the overhead baseline.
        plain = serving.Server(ROOT, inputs["models"], log)
        plain.start()
        try:
            base = asyncio.run(serving.drive(inputs, plain, seconds, bursts_only=True))
        finally:
            plain.stop()
        spans_path = OUT / f"trace-serve_tcp-seed{seed}.jsonl"
        server = serving.Server(ROOT, inputs["models"], log, trace_out=spans_path)
        server.start()
        try:
            run = asyncio.run(serving.drive(inputs, server, seconds))
        finally:
            server.stop()
        for phase in base["phases"] + run["phases"]:
            attempted += len(phase.ids)
            failed += phase.failed
        import tracing

        tracer = tracing.Tracer.from_jsonl(spans_path)
        _log(f"spans written to {spans_path.relative_to(ROOT)}")
        stats = run["stats"]
        extra = {
            "serve.batches": stats["batches"],
            "serve.mean_batch": stats["mean_batch"],
            "serve.largest_batch": stats["largest_batch"],
            "serve.cache_hit_rate": stats["cache_hit_rate"],
            "serve.gen_late_ms_p99": _median([p.late_ms_p99 for p in run["highs"]]),
        }
        layer = tracing.layer_metrics(tracer, extra=extra)
        plain_cpu, traced_cpu = per_1k(base["bursts"]), per_1k(run["bursts"])
        layer["trace.overhead_s"] = traced_cpu - plain_cpu
        layer["trace.overhead_pct"] = 100.0 * (traced_cpu - plain_cpu) / plain_cpu
        layer["trace.spans"] = len(tracer.spans)
        info.update(
            untraced_cpu_s_per_1k=(plain_cpu, "s"), traced_cpu_s_per_1k=(traced_cpu, "s")
        )
        return {"attempted": max(1, attempted), "failed": failed, "metrics": layer, "info": info}

    setups, ready_walls = [], []
    server = None
    for k in range(SETUP_REPEATS):
        server = serving.Server(ROOT, inputs["models"], log)
        setups.append(server.start())
        ready_walls.append(server.ready_wall_s)
        if k < SETUP_REPEATS - 1:
            server.stop()
    try:
        run = asyncio.run(serving.drive(inputs, server, seconds))
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    for phase in run["phases"]:
        attempted += len(phase.ids)
        failed += phase.failed
    from repro.metrics import kendall_tau, paper_accuracy

    true, served = serving.scored_pairs(inputs, run["answers"])
    lows, highs, bursts = run["lows"], run["highs"], run["bursts"]

    def per_round(phases, q):
        return _median([p.percentile_ms(q) for p in phases])

    info.update(
        {
            "setup_wall_s": (_median(ready_walls), "s"),
            "burst_wall_s": (_median([p.wall_s for p in bursts]), "s"),
            "burst_rps": (_median([len(p.ids) / p.wall_s for p in bursts]), "1/s"),
            "serve_p50_ms.low": (per_round(lows, 50), "ms"),
            "serve_p99_ms.low": (per_round(lows, 99), "ms"),
            "serve_p50_ms.high": (per_round(highs, 50), "ms"),
            "serve_p99_ms.high": (per_round(highs, 99), "ms"),
            "serve_max_rps": (run["max_rps"], "1/s"),
            "gen_late_ms_p99.high": (_median([p.late_ms_p99 for p in highs]), "ms"),
            "cache_hit_rate": (run["stats"]["cache_hit_rate"], "ratio"),
            "mean_batch": (run["stats"]["mean_batch"], "count"),
            "requests_per_low_round": (len(lows[0].ids), "count"),
            "requests_per_high_round": (len(highs[0].ids), "count"),
            "scored_configs": (len(true), "count"),
        }
    )
    metrics = {
        "setup_s": _median(setups),
        "cpu_s": per_1k(bursts),
        "accuracy_pct": paper_accuracy(true, served),
        "rank_tau": float(kendall_tau(true, served)),
        "peak_rss_mb": rss,
        "success_share": 1.0 - failed / max(1, attempted),
    }
    return {"attempted": max(1, attempted), "failed": failed, "metrics": metrics, "info": info}


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #


def _print_table(name: str, result: dict, units: dict) -> None:
    _log(f"== {name}: attempted {result['attempted']}, failed {result['failed']}")
    for key, value in result["metrics"].items():
        _log(f"  {key:<40} {value:>14.6g} {units.get(key, '')}")
    for key, (value, unit) in result["info"].items():
        _log(f"  (info) {key:<33} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    if args.setup_probe:
        print(_setup_probe(args.workload, args.seed, Path(args.work)))
        return 0

    spec = _spec()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    OUT.mkdir(exist_ok=True)
    import tempfile

    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        if args.workload == "serve_tcp":
            result = _run_serve(args.seed, args.seconds, bool(args.trace), work)
        else:
            result = _run_batch(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    missing = [name for name in units if name not in metrics]
    undeclared = [name for name in metrics if name not in units]
    if missing or undeclared:
        _log(f"CHECK FAILED: metrics missing {missing}, undeclared {undeclared}")
    correct = result["failed"] == 0 and not missing and not undeclared
    _print_table(args.workload, result, units)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units
                    if name in metrics
                },
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
