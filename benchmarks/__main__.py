"""Run every benchmark: ``python -m benchmarks [--smoke] [--only NAME ...]``.

Writes one ``results/BENCH_<name>.json`` per benchmark and prints a
one-line summary each.  ``--smoke`` shrinks the workloads to a few
seconds total (the CI mode — it validates the harness, not the numbers);
``--out`` redirects the JSON records, e.g. to compare two working trees.
"""

from __future__ import annotations

import argparse
import sys

from . import (
    bench_campaign,
    bench_encode,
    bench_esm_loop,
    bench_measure,
    bench_nas,
    bench_predictors,
    bench_search_fleet,
    bench_serve,
    bench_transfer,
)
from .common import RESULTS_DIR, summarize

BENCHES = {
    "measure": bench_measure.run,
    "campaign": bench_campaign.run,
    "encode": bench_encode.run,
    "esm_loop": bench_esm_loop.run,
    "nas": bench_nas.run,
    "predictors": bench_predictors.run,
    "search_fleet": bench_search_fleet.run,
    "serve": bench_serve.run,
    "transfer": bench_transfer.run,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks",
        description="Hot-path performance benchmarks (see benchmarks/README.md).",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workloads: exercises the harness in seconds",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        choices=sorted(BENCHES),
        help="run a subset of the benchmarks",
    )
    parser.add_argument(
        "--out",
        default=None,
        help=f"result directory (default: {RESULTS_DIR})",
    )
    args = parser.parse_args(argv)

    names = args.only or list(BENCHES)
    failures = 0
    for name in names:
        path, payload = BENCHES[name](smoke=args.smoke, out_dir=args.out)
        print(summarize(payload))
        print(f"  -> {path}")
        for flag in (
            "bit_identical",
            "resume_bit_identical",
            "equivalent",
            "parallel_matches_sequential",
        ):
            if payload.get(flag) is False:
                print(f"  !! {name}: {flag} is False")
                failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
