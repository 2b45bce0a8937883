"""Deployment-budget constraints for NAS search (CNAS-style).

Hardware-aware NAS is only deployable when the search respects the
target's budgets — CNAS calls these *technological* and *functional*
constraints (their ``--pmax``-style flags).  `SearchConstraints` captures
the three budgets this reproduction can evaluate exactly:

* ``max_latency_s`` — against the candidate's oracle latency (surrogate
  or true, whichever the search is running under),
* ``max_params`` / ``max_flops`` — against the layer-IR analysis pass
  (`repro.network.analysis.network_costs` over the lowered network),
  which is a pure function of the architecture and therefore free of
  measurement noise.

The headline quantity is `violation`: the sum over active budgets of the
*relative* excess ``max(0, value / budget - 1)``.  Zero means feasible;
the normalisation makes seconds, parameters and FLOPs commensurable so
"total violation" is meaningful for the constrained-dominance sort in
`repro.nas.pareto` (feasible dominates infeasible, infeasible ranked by
total violation — Deb's constraint handling, which keeps NSGA-II
selection pressure pointing at the feasible region from outside it).

Static costs are memoised per architecture (configs are hashable), so a
search that revisits a config — elitist survivors do, every generation —
pays for one IR lowering only.  That lowering is `build_network`, i.e.
the same per-family block walk the simulator's latency rows come from, so
a config outside its family's schedule is rejected here with the same
`ValueError`.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from ..archspace.config import ArchConfig
from ..network.analysis import NetworkCosts, network_costs
from ..network.builders import build_network

__all__ = [
    "SearchConstraints",
    "add_budget_arguments",
    "constraints_from_args",
    "static_costs",
]


@lru_cache(maxsize=16384)
def static_costs(config: ArchConfig) -> NetworkCosts:
    """Memoised lowering + cost analysis of one architecture.

    Shared across every `SearchConstraints` instance (the costs depend
    only on the config), sized for fleet-scale searches: tens of seeds
    times a few hundred distinct architectures each.
    """
    return network_costs(build_network(config))


@dataclass(frozen=True)
class SearchConstraints:
    """Budgets a candidate must fit inside to count as feasible.

    Any subset of the budgets may be set; ``None`` disables that axis.
    An all-``None`` instance is valid but inert (`is_active` is False) —
    the search drivers treat it exactly like "no constraints".
    """

    max_latency_s: Optional[float] = None
    max_params: Optional[float] = None
    max_flops: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("max_latency_s", "max_params", "max_flops"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive, got {value!r}")

    @property
    def is_active(self) -> bool:
        return any(
            budget is not None
            for budget in (self.max_latency_s, self.max_params, self.max_flops)
        )

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #

    def violation(self, config: ArchConfig, latency_s: float) -> float:
        """Total normalised budget excess; ``0.0`` iff feasible.

        Each active budget contributes ``max(0, value / budget - 1)`` —
        the *fraction* by which the candidate overshoots — so a config 10%
        over latency and 10% over params is twice as infeasible as one 10%
        over a single budget, regardless of units.
        """
        total = 0.0
        if self.max_latency_s is not None:
            total += max(0.0, float(latency_s) / self.max_latency_s - 1.0)
        if self.max_params is not None or self.max_flops is not None:
            costs = static_costs(config)
            if self.max_params is not None:
                total += max(0.0, costs.params / self.max_params - 1.0)
            if self.max_flops is not None:
                total += max(0.0, costs.flops / self.max_flops - 1.0)
        return total

    def is_feasible(self, config: ArchConfig, latency_s: float) -> bool:
        return self.violation(config, latency_s) == 0.0

    def violations(
        self,
        configs: Sequence[ArchConfig],
        latencies: Sequence[float],
    ) -> np.ndarray:
        """Per-candidate total violation, aligned with the inputs."""
        if len(configs) != len(latencies):
            raise ValueError("configs and latencies must be the same length")
        return np.array(
            [self.violation(c, l) for c, l in zip(configs, latencies)],
            dtype=float,
        )

    # ------------------------------------------------------------------ #
    # Serialisation (checkpoints, fleet manifests, reports)
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        return {
            "max_latency_s": self.max_latency_s,
            "max_params": self.max_params,
            "max_flops": self.max_flops,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SearchConstraints":
        return cls(
            max_latency_s=(
                None if d.get("max_latency_s") is None else float(d["max_latency_s"])
            ),
            max_params=(
                None if d.get("max_params") is None else float(d["max_params"])
            ),
            max_flops=(
                None if d.get("max_flops") is None else float(d["max_flops"])
            ),
        )

    def describe(self) -> str:
        """Human-readable budget list, e.g. for CLI banners."""
        parts: Tuple[str, ...] = tuple(
            f"{label}<={value:g}"
            for label, value in (
                ("latency_s", self.max_latency_s),
                ("params", self.max_params),
                ("flops", self.max_flops),
            )
            if value is not None
        )
        return " ".join(parts) if parts else "unconstrained"


# The budget flags the NAS command-line front ends share:
# (SearchConstraints field, flag, help).
_BUDGET_FLAGS = (
    (
        "max_latency_s",
        "--max-latency",
        "latency budget in seconds for constrained search",
    ),
    (
        "max_params",
        "--max-params",
        "parameter-count budget for constrained search",
    ),
    ("max_flops", "--max-flops", "FLOPs budget for constrained search"),
)


def add_budget_arguments(parser: argparse.ArgumentParser) -> None:
    """Add ``--max-latency/--max-params/--max-flops`` to ``parser``."""
    for _, flag, help_text in _BUDGET_FLAGS:
        parser.add_argument(flag, type=float, default=None, help=help_text)


def constraints_from_args(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> Optional[SearchConstraints]:
    """The budgets parsed by `add_budget_arguments`; None when none is set.

    An invalid budget (zero, negative, NaN) exits through
    ``parser.error`` — exit status 2, with a message naming the flag —
    instead of a traceback.
    """
    budgets = {}
    for field, flag, _ in _BUDGET_FLAGS:
        budgets[field] = getattr(args, flag[2:].replace("-", "_"))
        try:
            SearchConstraints(**{field: budgets[field]})
        except ValueError as exc:
            parser.error(f"argument {flag}: {exc}")
    constraints = SearchConstraints(**budgets)
    return constraints if constraints.is_active else None
