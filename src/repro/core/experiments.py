"""Fig. 11: balanced vs random initial sampling, iterations to converge.

The paper's ablation compares ESM runs whose *initial* dataset is drawn
balanced over depth bins against plain random sampling: random draws
concentrate total depth around its mean, starving the corner bins, so the
bin-gated loop needs extra extension rounds (or never converges within
budget).  `compare_samplers` runs both strategies from one `ESMConfig`
and returns their reports; the CLI prints the iterations-to-converge
table reproduced in EXPERIMENTS.md::

    PYTHONPATH=src python -m repro.core.experiments --smoke
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from ..archspace import SPACE_NAMES
from ..hardware import DEVICE_NAMES
from ..predictors import list_predictors
from ..utils import positive_int
from .config import ESMConfig
from .loop import ESMLoop
from .report import ESMRunReport

__all__ = ["compare_samplers", "format_comparison", "main"]

SAMPLERS = ("balanced", "random")


def compare_samplers(
    config: ESMConfig,
    run_root: Union[str, Path],
    *,
    samplers: Sequence[str] = SAMPLERS,
    workers: int = 1,
) -> Dict[str, ESMRunReport]:
    """Run one ESM loop per initial-sampling strategy, all else equal.

    Each strategy gets its own subdirectory of ``run_root`` (so each run
    is independently resumable) and an otherwise identical config — same
    space, device, seed, threshold, and budgets.
    """
    reports: Dict[str, ESMRunReport] = {}
    for sampler in samplers:
        loop = ESMLoop(
            config.with_sampler(sampler),
            Path(run_root) / sampler,
            workers=workers,
        )
        reports[sampler] = loop.run().report
    return reports


def format_comparison(reports: Dict[str, ESMRunReport]) -> str:
    """The Fig. 11 table: iterations, convergence, dataset growth."""
    lines = [
        f"{'sampler':<10} {'converged':<10} {'iterations':<11} "
        f"{'final size':<11} {'added':<6} min final bin acc",
        "-" * 66,
    ]
    for sampler, report in reports.items():
        accs = report.final_bin_accuracies
        worst = f"{min(accs.values()):.2f}%" if accs else "n/a"
        lines.append(
            f"{sampler:<10} {str(report.converged):<10} "
            f"{report.n_iterations:<11d} {report.final_dataset_size:<11d} "
            f"{report.total_samples_added:<6d} {worst}"
        )
    return "\n".join(lines)


# Reduced-budget hyperparameters per predictor for --smoke runs; the
# adaptive switcher gets a slimmed zoo so per-refit CV stays cheap.
_SMOKE_PREDICTOR_PARAMS = {
    "mlp": {"epochs": 150},
    "as": {
        "zoo_params": {
            "mlp": {"epochs": 150},
            "rf": {"n_estimators": 20},
            "gb": {"n_estimators": 60},
        }
    },
}


def _smoke_config(
    seed: int,
    predictor: str = "mlp",
    *,
    space: str = "resnet",
    device: str = "rtx4090",
    acc_th: float = 80.0,
) -> ESMConfig:
    """A minutes-scale configuration (reduced protocol, small budgets)."""
    return ESMConfig(
        space=space,
        device=device,
        predictor=predictor,
        acc_th=acc_th,
        n_bins=5,
        initial_size=40,
        extension_size=10,
        max_iterations=5,
        runs=9,
        n_references=2,
        batch_size=10,
        seed=seed,
        predictor_params=_SMOKE_PREDICTOR_PARAMS.get(predictor, {}),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.core.experiments",
        description="Balanced-vs-random convergence comparison (Fig. 11).",
    )
    parser.add_argument("--space", choices=SPACE_NAMES, default="resnet")
    parser.add_argument("--device", choices=DEVICE_NAMES, default="rtx4090")
    parser.add_argument(
        "--predictor",
        choices=list_predictors(),
        default="mlp",
        help="predictor registry name; 'as' is the adaptive-switching zoo",
    )
    parser.add_argument(
        "--acc-th",
        type=float,
        default=None,
        help="bin-wise accuracy threshold, percent (default: 90, or 80 "
        "with --smoke)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=positive_int, default=1)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced protocol and budgets for the chosen space, device "
        "and threshold: finishes in about a minute",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="run directory root (default: a fresh temporary directory)",
    )
    args = parser.parse_args(argv)

    chosen = dict(space=args.space, device=args.device)
    if args.acc_th is not None:
        chosen["acc_th"] = args.acc_th
    try:
        if args.smoke:
            config = _smoke_config(args.seed, predictor=args.predictor, **chosen)
        else:
            config = ESMConfig(predictor=args.predictor, seed=args.seed, **chosen)
    except ValueError as exc:  # `ESMConfig`'s own checks, e.g. acc_th range
        parser.error(str(exc))

    out: Optional[Path] = None if args.out is None else Path(args.out)
    if out is None:
        with tempfile.TemporaryDirectory(prefix="esm-fig11-") as tmp:
            reports = compare_samplers(config, tmp, workers=args.workers)
    else:
        reports = compare_samplers(config, out, workers=args.workers)
    print(format_comparison(reports))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
