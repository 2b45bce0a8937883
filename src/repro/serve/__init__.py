"""Surrogate-as-a-service: serve fitted latency predictors at scale.

The point of fitting a surrogate (the whole ESM pipeline upstream of
here) is that querying it is nearly free compared to measuring a device.
This package turns that into a product:

* `ModelRegistry` — fitted surrogates keyed on (space, device, encoding),
  loaded through the zoo's persistence contract, hot-swappable by an
  atomic pointer flip, reloadable from watched files (`poll`).
* `MicroBatcher` — concurrent requests queue for up to ``max_wait_s`` /
  ``max_batch`` and flush as *one* ``encode_batch`` + one vectorized
  ``predict`` call, amortizing per-request overhead into the numpy paths.
* `PredictionLRU` — a bounded cache keyed on `ArchConfig.cache_key()` in
  front of the batcher; repeat queries short-circuit entirely.
* `PredictionServer` — the composition, plus a stdlib-asyncio JSON-lines
  TCP front end (``python -m repro.serve``).

``python3 perfbench/run.py --workload serve_tcp`` measures the served
path: the shipped TCP server under open-loop JSON-lines load.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    ".batcher": "MicroBatcher",
    ".cache": "CachedPrediction PredictionLRU",
    ".registry": "ModelEntry ModelRegistry ServeKey",
    ".server": "PredictionResult PredictionServer request_lines",
})
