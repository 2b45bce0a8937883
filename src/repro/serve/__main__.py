"""Run a prediction server from saved models: ``python -m repro.serve``.

Model files are the zoo's ``save`` payloads, named for their registry
key: ``<space>__<device>__<encoding>.json`` (e.g.
``resnet__raspberrypi4__fcc.json``).  Every file in ``--models`` is
loaded at startup and watched; overwriting one with a freshly retrained
surrogate (saves are atomic) hot-swaps it live within ``--poll-interval``
seconds.  Speak JSON-lines to the listening port — see the README
"Serve" quick-start.  A payload that does not load at startup is one
stderr line naming the file and the field, and exit status 2.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from pathlib import Path

from .registry import ModelRegistry, ServeKey
from .server import PredictionServer


def key_from_filename(path: Path) -> ServeKey:
    """``resnet__raspberrypi4__fcc.json`` -> (resnet, raspberrypi4, fcc)."""
    parts = path.stem.split("__")
    if len(parts) != 3:
        raise ValueError(
            f"model filename {path.name!r} is not <space>__<device>__<encoding>.json"
        )
    return ServeKey(*parts)


def load_models_dir(registry: ModelRegistry, models_dir: Path) -> int:
    """Load-and-watch every model payload in ``models_dir``."""
    paths = sorted(models_dir.glob("*.json"))
    for path in paths:
        registry.load(key_from_filename(path), path, watch=True)
    return len(paths)


# The flag behind each argument whose constructor check can refuse it;
# each check's message starts with the argument's name.
_FLAGS = {
    "max_batch": "--max-batch",
    "max_wait_s": "--max-wait-ms",
    "cache_size": "--cache-size",
    "interval_s": "--poll-interval",
}


async def serve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    registry = ModelRegistry()
    try:
        server = PredictionServer(
            registry,
            max_batch=args.max_batch,
            max_wait_s=args.max_wait_ms / 1e3,
            cache_size=args.cache_size,
        )
        poller = server.start_polling(args.poll_interval)
    except ValueError as exc:  # the constructors' own checks
        parser.error(f"argument {_FLAGS[str(exc).split()[0]]}: {exc}")
    models_dir = Path(args.models)
    try:
        try:
            n = load_models_dir(registry, models_dir)
        except ValueError as exc:  # names the file and the field
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if n == 0:
            print(f"no *.json model payloads found in {models_dir}", file=sys.stderr)
            return 1

        tcp = await server.start_tcp(args.host, args.port)
        port = tcp.sockets[0].getsockname()[1]
        for entry in registry.describe():
            print(f"serving {entry['key']} (kind={entry['kind']}, v{entry['version']})")
        print(
            f"listening on {args.host}:{port} "
            f"(max_batch={args.max_batch}, max_wait={args.max_wait_ms}ms, "
            f"cache={args.cache_size}, poll={args.poll_interval}s)"
        )
        async with tcp:
            await tcp.serve_forever()
    except asyncio.CancelledError:  # pragma: no cover - Ctrl-C path
        pass
    finally:
        poller.cancel()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve saved latency surrogates over JSON-lines TCP.",
    )
    parser.add_argument(
        "--models",
        required=True,
        help="directory of <space>__<device>__<encoding>.json model payloads",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8471)
    parser.add_argument("--max-batch", type=int, default=256)
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    parser.add_argument("--cache-size", type=int, default=4096)
    parser.add_argument(
        "--poll-interval",
        type=float,
        default=2.0,
        help="seconds between watched-file reload checks (hot-swap latency)",
    )
    args = parser.parse_args(argv)
    try:
        return asyncio.run(serve(args, parser))
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


if __name__ == "__main__":
    sys.exit(main())
