"""Cross-device transfer surrogates: proxy predictors + monotone maps.

One surrogate trained on a *proxy* device, adapted to each *target*
device through a learned `MonotoneLatencyMap` — the "One Proxy Device Is
Enough" recipe (PAPERS.md).  `TransferPredictor` packages the composition
as a regular zoo member; ``python -m repro transfer`` sweeps
target measurement budgets over all ordered device pairs and reports
transfer accuracy against from-scratch surrogates at equal budget.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    ".monotone": "MAP_FORMAT_VERSION MonotoneLatencyMap",
    ".predictor": "TransferPredictor",
})
