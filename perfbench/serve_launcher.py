"""Run ``repro.serve`` with the benchmark's span wrappers installed.

    python3 perfbench/serve_launcher.py --trace-out SPANS.jsonl --models DIR ...

Every argument after ``--trace-out PATH`` goes to
``repro.serve.__main__.main`` unchanged.  On SIGTERM the spans recorded
so far are written to PATH as JSON lines and the process exits.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--trace-out":
        print("usage: serve_launcher.py --trace-out PATH [repro.serve args]", file=sys.stderr)
        return 2
    out, argv = argv[1], argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)

    def finish(signum, frame):
        tracer.write_jsonl(out)
        os._exit(0)

    signal.signal(signal.SIGTERM, finish)
    from repro.serve.__main__ import main as serve_main

    return serve_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
