"""Fig. 2(b): surrogate-driven search vs search under true latency.

For every encoding (the paper's FCC/FC plus the one-hot / feature /
statistical baselines, each behind the MLP) and the bias-corrected LUT,
this experiment:

1. trains a surrogate with the existing `ESMLoop` (one run per encoding,
   same seed, same device),
2. runs the *identical seeded* `RandomSearch` and `EvolutionarySearch`
   twice — once under the surrogate oracle, once under the true
   `SimulatedDevice` latency,
3. re-evaluates the surrogate-found front at true latencies and reports
   its Pareto displacement from the true-latency front, plus Kendall-tau
   ranking preservation on a fixed architecture sample (overall and on
   the true top-k).

The JSON report is deterministic by construction — every random draw is
seed-derived, nothing wall-clock enters the payload — so two identical
invocations produce byte-identical files::

    PYTHONPATH=src python -m repro.nas.experiments --smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

import numpy as np

from ..archspace.sampling import RandomSampler
from ..archspace.spaces import SPACE_NAMES, space_by_name
from ..core.config import ESMConfig
from ..core.loop import ESMLoop
from ..hardware.simulator import SimulatedDevice
from ..metrics import kendall_tau
from ..predictors.oracle import DeviceOracle
from ..utils import atomic_write_text
from .constraints import (
    SearchConstraints,
    add_budget_arguments,
    constraints_from_args,
)
from .pareto import ParetoFront, ParetoPoint, displacement_metrics
from .proxy import SyntheticAccuracyProxy
from .search import EvolutionarySearch, RandomSearch, SearchResult

__all__ = ["SURROGATES", "run_space", "format_report", "main"]

NAS_REPORT_FORMAT_VERSION = 1

# Label -> (predictor registry name, encoding registry name).  The LUT
# rides on FCC counts: that encoding is exactly its design matrix; "as"
# is the adaptive-switching zoo picking its model family by CV per refit.
SURROGATES = {
    "onehot": ("mlp", "onehot"),
    "feature": ("mlp", "feature"),
    "statistical": ("mlp", "statistical"),
    "fc": ("mlp", "fc"),
    "fcc": ("mlp", "fcc"),
    "lut": ("lut+bias", "fcc"),
    "as": ("as", "fcc"),
}

# Reduced-budget hyperparameters for the smoke runs: the MLP gets extra
# epochs (tiny datasets need them), the switcher's zoo is slimmed so its
# per-refit cross-validation stays seconds-scale.
_SMOKE_PREDICTOR_PARAMS = {
    "mlp": {"epochs": 1000},
    "as": {
        "zoo_params": {
            "mlp": {"epochs": 300},
            "rf": {"n_estimators": 20},
            "gb": {"n_estimators": 60},
        }
    },
}

_SLOT_RANKING_SAMPLE = 301


def _esm_config(
    space: str, device: str, predictor: str, encoding: str, seed: int, smoke: bool
) -> ESMConfig:
    params = _SMOKE_PREDICTOR_PARAMS.get(predictor, {}) if smoke else {}
    if smoke:
        return ESMConfig(
            space=space,
            device=device,
            encoding=encoding,
            predictor=predictor,
            predictor_params=params,
            acc_th=80.0,
            n_bins=4,
            initial_size=120,
            extension_size=20,
            max_iterations=3,
            runs=8,
            n_references=2,
            batch_size=25,
            seed=seed,
        )
    return ESMConfig(
        space=space,
        device=device,
        encoding=encoding,
        predictor=predictor,
        predictor_params=params,
        acc_th=90.0,
        n_bins=6,
        initial_size=100,
        extension_size=20,
        max_iterations=8,
        runs=50,
        n_references=3,
        batch_size=25,
        seed=seed,
    )


def _search_budgets(smoke: bool) -> dict:
    if smoke:
        return {
            "random": {"budget": 60},
            "evolutionary": {"population_size": 14, "generations": 5},
        }
    return {
        "random": {"budget": 400},
        "evolutionary": {"population_size": 32, "generations": 12},
    }


def _make_searches(
    spec,
    oracle,
    proxy,
    seed: int,
    budgets: dict,
    *,
    constraints: Optional[SearchConstraints] = None,
    warm_start=None,
    checkpoint_root: Optional[Path] = None,
) -> dict:
    """Both drivers, identically parameterised.

    ``checkpoint_root`` (set by ``--resume``) gives each driver its own
    checkpoint directory under the workdir, so a killed experiment picks
    every search up from its last completed generation/chunk.
    """
    extra = dict(constraints=constraints, warm_start=warm_start)
    return {
        "random": RandomSearch(
            spec,
            oracle,
            proxy,
            seed=seed,
            checkpoint_dir=(
                None if checkpoint_root is None else checkpoint_root / "random"
            ),
            **extra,
            **budgets["random"],
        ),
        "evolutionary": EvolutionarySearch(
            spec,
            oracle,
            proxy,
            seed=seed,
            checkpoint_dir=(
                None
                if checkpoint_root is None
                else checkpoint_root / "evolutionary"
            ),
            **extra,
            **budgets["evolutionary"],
        ),
    }


def _true_front_of_configs(
    configs, device, proxy
) -> ParetoFront:
    """Re-evaluate architectures at true latency, then non-dominate."""
    return ParetoFront.from_points(
        [
            ParetoPoint(
                latency_s=float(device.true_latency(c)),
                accuracy=float(proxy.accuracy(c)),
                config=c,
            )
            for c in configs
        ]
    )


def run_space(
    space: str,
    *,
    device_name: str = "rtx4090",
    seed: int = 0,
    smoke: bool = False,
    workdir: Union[str, Path],
    workers: int = 1,
    surrogates: Optional[Sequence[str]] = None,
    constraints: Optional[SearchConstraints] = None,
    warm_start=None,
    resume: bool = False,
) -> dict:
    """The full per-space experiment; returns the report fragment.

    ``surrogates`` restricts the run to a subset of `SURROGATES` labels
    (e.g. ``["as"]`` for just the adaptive switcher); default is all.
    ``constraints`` puts the same deployment budgets on every search
    (true-latency references included, so displacement compares
    constrained front to constrained front); ``warm_start`` seeds every
    search's initial population from a previous result; ``resume=True``
    checkpoints each search under the (persistent) workdir.
    """
    spec = space_by_name(space)
    device = SimulatedDevice(device_name, seed=seed)
    proxy = SyntheticAccuracyProxy(spec, seed=seed)
    true_oracle = DeviceOracle(device)
    budgets = _search_budgets(smoke)
    search_kwargs = dict(constraints=constraints, warm_start=warm_start)

    def _checkpoint_root(label: str) -> Optional[Path]:
        if not resume:
            return None
        return Path(workdir) / space / "search" / label

    # The reference outcome: the same seeded searches under true latency.
    true_results = {
        driver: search.run()
        for driver, search in _make_searches(
            spec,
            true_oracle,
            proxy,
            seed,
            budgets,
            checkpoint_root=_checkpoint_root("true"),
            **search_kwargs,
        ).items()
    }

    # Fixed sample for ranking preservation (never seen in training).
    n_sample, topk = (80, 20) if smoke else (400, 50)
    sample = RandomSampler(
        spec, rng=np.random.default_rng([seed, _SLOT_RANKING_SAMPLE])
    ).sample_batch(n_sample)
    true_lat = true_oracle.latency_batch(sample)
    topk_idx = np.argsort(true_lat, kind="stable")[:topk]

    selected = {
        label: SURROGATES[label]
        for label in (surrogates if surrogates is not None else SURROGATES)
    }
    oracles_report: Dict[str, dict] = {}
    for label, (predictor, encoding) in selected.items():
        config = _esm_config(space, device_name, predictor, encoding, seed, smoke)
        result = ESMLoop(
            config,
            Path(workdir) / space / label,
            device=device,
            workers=workers,
            sleep=lambda s: None,
        ).run()
        oracle = result.latency_oracle(spec=spec)

        surrogate_lat = oracle.latency_batch(sample)
        tau = kendall_tau(true_lat, surrogate_lat)
        tau_topk = kendall_tau(true_lat[topk_idx], surrogate_lat[topk_idx])

        searches_report: Dict[str, dict] = {}
        for driver, search in _make_searches(
            spec,
            oracle,
            proxy,
            seed,
            budgets,
            checkpoint_root=_checkpoint_root(label),
            **search_kwargs,
        ).items():
            found = search.run()
            found_front_true = _true_front_of_configs(
                found.front_configs, device, proxy
            )
            searches_report[driver] = displacement_metrics(
                true_results[driver].front, found_front_true
            )
            if constraints is not None and constraints.is_active:
                searches_report[driver]["n_feasible"] = found.feasible_evaluations
        oracles_report[label] = {
            "predictor": predictor,
            "encoding": encoding,
            "esm": {
                "converged": result.report.converged,
                "iterations": result.report.n_iterations,
                "final_dataset_size": result.report.final_dataset_size,
            },
            "kendall_tau": float(tau),
            "kendall_tau_topk": float(tau_topk),
            "searches": searches_report,
            "displacement": float(
                np.mean([m["displacement"] for m in searches_report.values()])
            ),
        }

    fragment = {
        "device": device_name,
        "proxy": {
            "floor": proxy.floor,
            "ceiling": proxy.ceiling,
            "noise_pp": proxy.noise_pp,
            "seed": proxy.seed,
        },
        "ranking_sample_size": n_sample,
        "topk": topk,
        "true_fronts": {
            driver: result.front.to_dict()
            for driver, result in true_results.items()
        },
        "oracles": oracles_report,
    }
    if constraints is not None and constraints.is_active:
        fragment["constraints"] = constraints.to_dict()
        fragment["true_feasible"] = {
            driver: result.feasible_evaluations
            for driver, result in true_results.items()
        }
    return fragment


def format_report(report: dict) -> str:
    """The per-space displacement / ranking table the CLI prints."""
    lines = []
    for space, fragment in report["spaces"].items():
        fronts = fragment["true_fronts"]
        lines.append(
            f"space={space}  device={fragment['device']}  "
            + "  ".join(
                f"true front ({driver}): {front['size']} pts"
                for driver, front in fronts.items()
            )
        )
        lines.append(
            f"{'oracle':<13} {'tau':>7} {'tau@top-k':>10} "
            f"{'disp(random)':>13} {'disp(evo)':>10} {'displacement':>13}"
        )
        lines.append("-" * 70)
        for label, entry in fragment["oracles"].items():
            lines.append(
                f"{label:<13} {entry['kendall_tau']:7.3f} "
                f"{entry['kendall_tau_topk']:10.3f} "
                f"{entry['searches']['random']['displacement']:13.4f} "
                f"{entry['searches']['evolutionary']['displacement']:10.4f} "
                f"{entry['displacement']:13.4f}"
            )
        lines.append("")
    return "\n".join(lines).rstrip()


def run_experiment(
    spaces: Sequence[str],
    *,
    device_name: str = "rtx4090",
    seed: int = 0,
    smoke: bool = False,
    workdir: Union[str, Path],
    workers: int = 1,
    surrogates: Optional[Sequence[str]] = None,
    constraints: Optional[SearchConstraints] = None,
    warm_start=None,
    resume: bool = False,
) -> dict:
    """Run every requested space and assemble the deterministic report."""
    budgets = _search_budgets(smoke)
    report = {
        "format_version": NAS_REPORT_FORMAT_VERSION,
        "kind": "nas_experiment_report",
        "seed": int(seed),
        "smoke": bool(smoke),
        "search_budgets": budgets,
        "spaces": {
            space: run_space(
                space,
                device_name=device_name,
                seed=seed,
                smoke=smoke,
                workdir=workdir,
                workers=workers,
                surrogates=surrogates,
                constraints=constraints,
                warm_start=warm_start,
                resume=resume,
            )
            for space in spaces
        },
    }
    if constraints is not None and constraints.is_active:
        report["constraints"] = constraints.to_dict()
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.nas.experiments",
        description="Pareto displacement and ranking preservation (Fig. 2b).",
    )
    parser.add_argument(
        "--spaces",
        nargs="+",
        choices=SPACE_NAMES,
        default=None,
        help="spaces to run (default: resnet in --smoke, all otherwise)",
    )
    parser.add_argument("--device", default="rtx4090")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--surrogates",
        nargs="+",
        choices=sorted(SURROGATES),
        default=None,
        help="surrogate labels to run (default: all, incl. the adaptive "
        "switcher 'as')",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced budgets: finishes in well under a minute",
    )
    parser.add_argument(
        "--out",
        default="nas-report.json",
        help="where to write the JSON report (default: ./nas-report.json)",
    )
    parser.add_argument(
        "--workdir",
        default=None,
        help="ESM run-directory root, kept for resume (default: temporary)",
    )
    add_budget_arguments(parser)
    parser.add_argument(
        "--warm-start",
        default=None,
        help="path to a SearchResult JSON whose front seeds new searches",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="checkpoint every search under --workdir and resume from "
        "whatever generations survive there (requires --workdir)",
    )
    args = parser.parse_args(argv)

    if args.resume and args.workdir is None:
        parser.error("--resume requires --workdir")

    constraints = constraints_from_args(args, parser)
    warm_start = None
    if args.warm_start is not None:
        warm_start = SearchResult.load(args.warm_start)

    spaces = args.spaces or (["resnet"] if args.smoke else list(SPACE_NAMES))
    kwargs = dict(
        device_name=args.device,
        seed=args.seed,
        smoke=args.smoke,
        workers=args.workers,
        surrogates=args.surrogates,
        constraints=constraints,
        warm_start=warm_start,
        resume=args.resume,
    )
    if args.workdir is None:
        with tempfile.TemporaryDirectory(prefix="esm-nas-") as tmp:
            report = run_experiment(spaces, workdir=tmp, **kwargs)
    else:
        report = run_experiment(spaces, workdir=args.workdir, **kwargs)

    atomic_write_text(Path(args.out), json.dumps(report, sort_keys=True))
    print(format_report(report))
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
