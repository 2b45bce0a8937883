"""Surrogate-driven NAS: accuracy proxy, Pareto analysis, search drivers.

The consumer layer the ESM pipeline exists for: take a latency oracle (a
fitted surrogate via `PredictorOracle`, or the device itself), pair it
with the deterministic `SyntheticAccuracyProxy`, run `RandomSearch` /
`EvolutionarySearch`, and quantify how far the surrogate displaced the
Pareto front (`displacement_metrics`, Fig. 2b).  The experiment
(``python -m repro nas``, `repro.nas.experiments`) wires the whole chain
through `ESMLoop`-trained surrogates for every encoding.

Deployment-scale searching rides on top: `SearchConstraints` puts
CNAS-style latency/params/FLOPs budgets on either driver (selection
switches to the constrained-dominance sort), ``warm_start=`` seeds a new
population from a previous front, ``checkpoint_dir=`` gives every search
atomic per-generation checkpoints with byte-identical kill-and-resume.
Seed dispersion is one such search per seed, each resuming through its
own checkpoint directory.  The names resolve on first access (PEP 562).
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    ".proxy": "SyntheticAccuracyProxy",
    ".pareto": """ParetoPoint ParetoFront non_dominated_rank
        constrained_dominates constrained_non_dominated_rank crowding_distance
        displacement_metrics""",
    ".search": "Candidate SearchResult RandomSearch EvolutionarySearch",
    ".constraints": "SearchConstraints static_costs",
    ".checkpoint": "SearchCheckpoint SearchCheckpointError CheckpointState",
})
