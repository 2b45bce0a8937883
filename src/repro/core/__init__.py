"""The ESM framework itself: Algorithm 1 with bin-gated convergence.

`repro.core` wires the pipeline stages the rest of the package provides —
balanced sampling over depth bins, fault-tolerant measurement campaigns,
architecture encodings, the MLP predictor, and the paper's bin-wise
accuracy metric — into the loop the paper actually describes:

    train -> evaluate (bin-wise accuracy vs Acc_TH)
          -> extend (weighted sampling toward failing bins)
          -> retrain

until every depth bin meets the accuracy threshold or the iteration
budget runs out.  `ESMConfig` captures the user inputs of Table II,
`ESMLoop` drives the loop, and `ESMRunReport` records per-iteration bin
accuracies, extension plans, and dataset growth with JSON persistence, so
NAS consumers can `load_run` a finished surrogate plus its provenance
without re-measuring anything.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    ".config": "ESMConfig",
    ".loop": "ESMLoop ESMRunResult load_run",
    ".report": "ESMRunReport IterationRecord ESM_REPORT_FORMAT_VERSION",
    ".extension": "extension_weights extension_plan",
})
