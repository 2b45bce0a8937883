"""Surrogate-driven NAS: accuracy proxy, Pareto analysis, search drivers.

The consumer layer the ESM pipeline exists for: take a latency oracle (a
fitted surrogate via `PredictorOracle`, or the device itself), pair it
with the deterministic `SyntheticAccuracyProxy`, run `RandomSearch` /
`EvolutionarySearch`, and quantify how far the surrogate displaced the
Pareto front (`displacement_metrics`, Fig. 2b).  The experiments entry
point (``python -m repro.nas.experiments``) wires the whole chain through
`ESMLoop`-trained surrogates for every encoding.

Deployment-scale searching rides on top: `SearchConstraints` puts
CNAS-style latency/params/FLOPs budgets on either driver (selection
switches to the constrained-dominance sort), ``warm_start=`` seeds a new
population from a previous front, ``checkpoint_dir=`` gives every search
atomic per-generation checkpoints with byte-identical kill-and-resume,
and `SearchFleet` (``python -m repro.nas.fleet``) runs N seeds in
parallel and aggregates the fronts into median/IQR dispersion bands.
The fleet names resolve on first access (PEP 562), so running
``python -m repro.nas.fleet`` does not find the module already imported.
"""

from .checkpoint import CheckpointState, SearchCheckpoint, SearchCheckpointError
from .constraints import SearchConstraints, static_costs
from .pareto import (
    ParetoFront,
    ParetoPoint,
    constrained_dominates,
    constrained_non_dominated_rank,
    crowding_distance,
    displacement_metrics,
    non_dominated_rank,
)
from .proxy import SyntheticAccuracyProxy
from .search import Candidate, EvolutionarySearch, RandomSearch, SearchResult

__all__ = [
    "SyntheticAccuracyProxy",
    "ParetoPoint",
    "ParetoFront",
    "non_dominated_rank",
    "constrained_dominates",
    "constrained_non_dominated_rank",
    "crowding_distance",
    "displacement_metrics",
    "Candidate",
    "SearchResult",
    "RandomSearch",
    "EvolutionarySearch",
    "SearchConstraints",
    "static_costs",
    "SearchCheckpoint",
    "SearchCheckpointError",
    "CheckpointState",
    "SearchFleet",
    "FleetResult",
    "FleetError",
]


def __getattr__(name):
    if name in ("SearchFleet", "FleetResult", "FleetError"):
        from . import fleet

        return getattr(fleet, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
