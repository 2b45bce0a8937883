"""Cross-device transfer budget sweep: proxy surrogates vs from-scratch.

For every ordered pair of devices this experiment:

1. fits one ``base`` zoo member on a proxy-device dataset (the cheap,
   plentiful side of the transfer recipe),
2. measures a nested paired sample on both devices (`measure_paired`;
   budget 25 is literally the first 25 pairs of budget 100),
3. at each target budget fits a `TransferPredictor` (frozen proxy + map
   learned from the pairs) *and* a from-scratch ``base`` member on the
   same target measurements,
4. scores both against the target device's noise-free latency on a held
   out evaluation sample: MAPE and Kendall tau.

The per-pair verdict is ``match_budget`` — the smallest target budget at
which the transfer surrogate reaches the from-scratch surrogate's MAPE
at the *maximum* budget — and ``half_budget_ok``, whether that happens
with at most half the budget.  The paper-level claim the report summary
checks: transfer matches from-scratch with <= half the target samples on
most ordered pairs.

The JSON report is deterministic by construction — every random draw is
seed-derived, nothing wall-clock enters the payload — so two identical
invocations produce byte-identical files::

    PYTHONPATH=src python -m repro transfer --smoke
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

import numpy as np

from ..archspace.sampling import RandomSampler
from ..archspace.spaces import SpaceSpec, space_by_name
from ..encodings import encoder_for
from ..metrics import kendall_tau, mape
from ..profiling.paired import measure_paired
from ..profiling.protocol import MeasurementProtocol
from .predictor import TransferPredictor

__all__ = [
    "DEFAULT_DEVICES",
    "fit_proxy_surrogate",
    "run_pair",
    "run_experiment",
    "format_report",
]

TRANSFER_REPORT_FORMAT_VERSION = 1

# The four devices of the paper's cross-device study: two desktop GPUs,
# a workstation CPU, and an edge board — 12 ordered (proxy, target)
# pairs.
DEFAULT_DEVICES = (
    "rtx4090",
    "rtx3080maxq",
    "threadripper5975wx",
    "raspberrypi4",
)

# Seed slots keeping the experiment's streams disjoint from each other
# and from everything else in the repo.
_SLOT_PROXY_SAMPLE = 401
_SLOT_PROXY_MEASURE = 403
_SLOT_PAIR_SAMPLE = 405
_SLOT_EVAL_SAMPLE = 407


def _settings(smoke: bool) -> dict:
    if smoke:
        return {
            "budgets": (10, 25, 50),
            "n_proxy_samples": 120,
            "n_eval": 160,
            "protocol_runs": 8,
        }
    return {
        "budgets": (10, 25, 50, 100),
        "n_proxy_samples": 300,
        "n_eval": 400,
        "protocol_runs": 25,
    }


def _device(name_or_device, seed: int):
    if isinstance(name_or_device, str):
        from ..hardware.simulator import SimulatedDevice

        return SimulatedDevice(name_or_device, seed=seed)
    return name_or_device


def _spawn_base(base: str, base_params: Dict[str, Any], seed: int):
    from ..predictors import get_predictor

    member = get_predictor(base, **base_params)
    if hasattr(member, "seed") and "seed" not in base_params:
        member.seed = seed
    return member


def fit_proxy_surrogate(
    spec: SpaceSpec,
    encoding: str,
    proxy_device,
    *,
    base: str = "cart",
    base_params: Optional[Dict[str, Any]] = None,
    n_proxy_samples: int = 300,
    protocol: Optional[MeasurementProtocol] = None,
    seed: int = 0,
):
    """The cheap side of the recipe: one zoo member fit on proxy data.

    Samples ``n_proxy_samples`` architectures, measures them on the proxy
    device under ``protocol``, and fits the ``base`` member on them.  The
    config sample stream depends only on ``seed``, so every proxy device
    sees the same sweep — the per-device difference is the latency, which
    is the point.
    """
    device = _device(proxy_device, seed)
    protocol = protocol or MeasurementProtocol()
    configs = RandomSampler(
        spec, rng=np.random.default_rng([seed, _SLOT_PROXY_SAMPLE])
    ).sample_batch(n_proxy_samples)
    latencies, _ = device.measure_batch(
        configs,
        rng=np.random.default_rng([seed, _SLOT_PROXY_MEASURE]),
        protocol=protocol,
    )
    X = encoder_for(encoding, spec).encode_batch(configs, spec)
    return _spawn_base(base, dict(base_params or {}), seed).fit(X, latencies)


def run_pair(
    proxy_predictor,
    proxy_device,
    target_device,
    *,
    spec: SpaceSpec,
    encoding: str,
    base: str = "cart",
    base_params: Optional[Dict[str, Any]] = None,
    budgets: Sequence[int] = (10, 25, 50, 100),
    n_eval: int = 400,
    protocol: Optional[MeasurementProtocol] = None,
    seed: int = 0,
    detail: bool = False,
) -> dict:
    """One ordered (proxy, target) pair; returns the report fragment.

    ``proxy_predictor`` is the already-fitted proxy surrogate (from
    `fit_proxy_surrogate`) — passed in rather than refitted so the twelve
    pairs share the four proxy fits.  ``detail=True`` additionally
    records the monotone map's knots at every budget (what the golden
    trace locks).
    """
    base_params = dict(base_params or {})
    budgets = sorted(int(b) for b in budgets)
    if budgets[0] < 2:
        raise ValueError(f"budgets must be >= 2, got {budgets[0]}")
    proxy = _device(proxy_device, seed)
    target = _device(target_device, seed)
    protocol = protocol or MeasurementProtocol()
    encoder = encoder_for(encoding, spec)

    # One nested paired sample at the maximum budget; smaller budgets are
    # prefixes, exactly how a lab would grow a paired set.
    pair_configs = RandomSampler(
        spec, rng=np.random.default_rng([seed, _SLOT_PAIR_SAMPLE])
    ).sample_batch(budgets[-1])
    paired = measure_paired(
        pair_configs, proxy, target, protocol=protocol, seed=seed
    )
    X_pairs = encoder.encode_batch(pair_configs, spec)

    # Held-out evaluation sample, scored against noise-free truth.
    eval_configs = RandomSampler(
        spec, rng=np.random.default_rng([seed, _SLOT_EVAL_SAMPLE])
    ).sample_batch(n_eval)
    X_eval = encoder.encode_batch(eval_configs, spec)
    true_eval = np.array(
        [target.true_latency(c) for c in eval_configs], dtype=float
    )

    def _score(predictor) -> Dict[str, float]:
        pred = predictor.predict(X_eval)
        return {
            "mape": float(mape(true_eval, pred)),
            "kendall_tau": float(kendall_tau(true_eval, pred)),
        }

    table: Dict[str, dict] = {}
    for b in budgets:
        Xb, yb = X_pairs[:b], paired.target_latencies[:b]
        transfer = TransferPredictor.from_proxy(
            proxy_predictor, base=base, base_params=base_params, seed=seed
        ).fit(Xb, yb)
        scratch = _spawn_base(base, base_params, seed).fit(Xb, yb)
        entry = {
            "transfer": {
                **_score(transfer),
                "n_knots": transfer.map_.n_knots,
            },
            "scratch": _score(scratch),
        }
        if detail:
            x_knots, y_knots = transfer.map_.knots
            entry["transfer"]["map_knots"] = {
                "x": x_knots.tolist(),
                "y": y_knots.tolist(),
            }
        table[str(b)] = entry

    # The budget comparison the claim rests on: smallest target budget at
    # which transfer reaches the from-scratch MAPE at the *max* budget.
    scratch_best = table[str(budgets[-1])]["scratch"]["mape"]
    match_budget = next(
        (
            b
            for b in budgets
            if table[str(b)]["transfer"]["mape"] <= scratch_best
        ),
        None,
    )
    return {
        "proxy_device": paired.proxy_device,
        "target_device": paired.target_device,
        "table": table,
        "scratch_mape_at_max_budget": scratch_best,
        "match_budget": match_budget,
        "half_budget_ok": (
            match_budget is not None and 2 * match_budget <= budgets[-1]
        ),
    }


def run_experiment(
    *,
    devices: Sequence[str] = DEFAULT_DEVICES,
    space: str = "resnet",
    encoding: str = "fcc",
    base: str = "cart",
    base_params: Optional[Dict[str, Any]] = None,
    seed: int = 0,
    smoke: bool = False,
    budgets: Optional[Sequence[int]] = None,
) -> dict:
    """All ordered device pairs; returns the deterministic report."""
    settings = _settings(smoke)
    if budgets is not None:
        settings["budgets"] = tuple(sorted(int(b) for b in budgets))
    base_params = dict(base_params or {})
    devices = list(devices)
    if len(devices) < 2:
        raise ValueError("transfer needs at least two devices")
    if len(set(devices)) != len(devices):
        raise ValueError(f"duplicate device in {devices}")
    spec = space_by_name(space)
    protocol = MeasurementProtocol(runs=settings["protocol_runs"])

    proxies = {
        name: fit_proxy_surrogate(
            spec,
            encoding,
            name,
            base=base,
            base_params=base_params,
            n_proxy_samples=settings["n_proxy_samples"],
            protocol=protocol,
            seed=seed,
        )
        for name in devices
    }
    pairs: Dict[str, dict] = {}
    for proxy_name in devices:
        for target_name in devices:
            if target_name == proxy_name:
                continue
            pairs[f"{proxy_name}->{target_name}"] = run_pair(
                proxies[proxy_name],
                proxy_name,
                target_name,
                spec=spec,
                encoding=encoding,
                base=base,
                base_params=base_params,
                budgets=settings["budgets"],
                n_eval=settings["n_eval"],
                protocol=protocol,
                seed=seed,
            )

    n_ok = sum(1 for p in pairs.values() if p["half_budget_ok"])
    return {
        "format_version": TRANSFER_REPORT_FORMAT_VERSION,
        "kind": "transfer_experiment_report",
        "seed": int(seed),
        "smoke": bool(smoke),
        "space": space,
        "encoding": encoding,
        "base": base,
        "base_params": base_params,
        "devices": devices,
        "budgets": list(settings["budgets"]),
        "n_proxy_samples": settings["n_proxy_samples"],
        "n_eval": settings["n_eval"],
        "protocol_runs": settings["protocol_runs"],
        "pairs": pairs,
        "summary": {
            "n_pairs": len(pairs),
            "n_half_budget_ok": n_ok,
            "max_budget": settings["budgets"][-1],
        },
    }


def format_report(report: dict) -> str:
    """The per-pair budget table the CLI prints."""
    budgets = report["budgets"]
    header = (
        f"{'proxy -> target':<40} "
        + " ".join(f"{'b=' + str(b):>12}" for b in budgets)
        + f" {'tau@max':>8} {'match':>6}"
    )
    lines = [
        f"space={report['space']}  encoding={report['encoding']}  "
        f"base={report['base']}  (cells: transfer/scratch MAPE %)",
        header,
        "-" * len(header),
    ]
    for name, pair in report["pairs"].items():
        cells = []
        for b in budgets:
            entry = pair["table"][str(b)]
            cells.append(
                f"{entry['transfer']['mape']:5.1f}/"
                f"{entry['scratch']['mape']:5.1f}"
            )
        tau = pair["table"][str(budgets[-1])]["transfer"]["kendall_tau"]
        match = pair["match_budget"]
        flag = " *" if pair["half_budget_ok"] else ""
        lines.append(
            f"{name:<40} "
            + " ".join(f"{c:>12}" for c in cells)
            + f" {tau:8.3f} {str(match) if match is not None else '-':>4}"
            + flag
        )
    summary = report["summary"]
    lines.append(
        f"\nhalf-budget wins (*): {summary['n_half_budget_ok']}"
        f"/{summary['n_pairs']} pairs match from-scratch MAPE with "
        f"<= {summary['max_budget'] // 2} of {summary['max_budget']} "
        "target samples"
    )
    return "\n".join(lines)
