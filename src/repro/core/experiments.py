"""Fig. 11: balanced vs random initial sampling, iterations to converge.

The paper's ablation compares ESM runs whose *initial* dataset is drawn
balanced over depth bins against plain random sampling: random draws
concentrate total depth around its mean, starving the corner bins, so the
bin-gated loop needs extra extension rounds (or never converges within
budget).  `compare_samplers` runs both strategies from one `ESMConfig`
and returns their reports; the CLI prints the iterations-to-converge
table reproduced in EXPERIMENTS.md::

    PYTHONPATH=src python -m repro samplers --smoke
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Sequence, Union

from ..utils import run_dir
from .config import ESMConfig
from .loop import ESMLoop
from .report import ESMRunReport

__all__ = ["compare_samplers", "format_comparison", "smoke_config"]

SAMPLERS = ("balanced", "random")


def compare_samplers(
    config: ESMConfig,
    run_root: Union[str, Path, None] = None,
    *,
    samplers: Sequence[str] = SAMPLERS,
    workers: int = 1,
) -> Dict[str, ESMRunReport]:
    """Run one ESM loop per initial-sampling strategy, all else equal.

    Each strategy gets its own subdirectory of ``run_root`` (so each run
    is independently resumable; without ``run_root``, a scratch directory)
    and an otherwise identical config — same space, device, seed,
    threshold, and budgets.
    """
    reports: Dict[str, ESMRunReport] = {}
    for sampler in samplers:
        with run_dir(run_root, sampler) as root:
            loop = ESMLoop(config.with_sampler(sampler), root, workers=workers)
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


def smoke_config(
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
