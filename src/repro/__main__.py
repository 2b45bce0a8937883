"""The experiments' one front door: ``python -m repro <command>``.

::

    PYTHONPATH=src python -m repro samplers --smoke   # Fig. 11: balanced vs random
    PYTHONPATH=src python -m repro nas --smoke        # Fig. 2(b): surrogate-driven search
    PYTHONPATH=src python -m repro transfer --smoke   # cross-device transfer sweep
    PYTHONPATH=src python -m repro serve --models DIR # the prediction server

Every flag is defined once, and a command takes the shared flags it uses.
``--out`` is always the JSON report file; ``--workdir`` is always a
run-directory root, and rerunning a command over the same one resumes every
ESM run and search from disk and writes the same report bytes.  A bad
argument exits with status 2 and a usage error naming the flag, before
anything is measured.  ``serve`` hands the rest of its arguments unchanged
to `repro.serve.__main__`, whose start-up imports none of the other
commands' layers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _number(cast, what, ok):
    """An argparse type: ``cast(text)`` when ``ok`` accepts it.

    A bad value exits with status 2 and a usage error naming the flag, not
    a traceback from deep inside the run.
    """

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not ok(value):  # NaN is never ok
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


positive_int = _number(int, "a positive integer", lambda v: v >= 1)


def _search_result(path: str):
    """argparse type for ``--warm-start``: the loaded `SearchResult`."""
    from .nas.search import SearchResult

    try:
        return SearchResult.load(path)
    except ValueError as exc:  # names the file: absent, torn, foreign
        raise argparse.ArgumentTypeError(str(exc)) from None


def _publish(report: dict, table: str, out: str) -> None:
    """Write the sorted-key report atomically, then print the table."""
    from .utils import atomic_write_text

    atomic_write_text(Path(out), json.dumps(report, sort_keys=True))
    print(table)
    print(f"\nwrote {out}")


def _add_shared(sub, name: str, *flags: str) -> None:
    """Give command ``name`` the shared flags it takes: one definition each."""
    from .archspace import SPACE_NAMES
    from .hardware import DEVICE_NAMES

    shared = {
        "--seed": dict(
            type=_number(int, "a non-negative integer", lambda v: v >= 0),
            default=0,
            help="seed of every random stream (default: 0)",
        ),
        "--smoke": dict(
            action="store_true",
            help="reduced protocol and budgets: seconds to a minute",
        ),
        "--workers": dict(
            type=positive_int,
            default=1,
            help="measurement-campaign worker processes (default: 1)",
        ),
        "--workdir": dict(
            help="run-directory root; a rerun over it resumes from disk "
            "(default: scratch directories, removed on exit)",
        ),
        "--out": dict(
            default=f"{name}-report.json",
            help="where to write the JSON report (default: %(default)s)",
        ),
        "--space": dict(choices=SPACE_NAMES, default="resnet"),
        "--device": dict(choices=DEVICE_NAMES, default="rtx4090"),
    }
    for flag in flags:
        sub.add_argument(flag, **shared[flag])


def _samplers(sub):
    """Add the ``samplers`` flags; return the function that runs it."""
    from .core import experiments
    from .core.config import ESMConfig
    from .predictors import list_predictors

    _add_shared(
        sub, "samplers",
        "--space", "--device", "--seed", "--workers", "--smoke", "--workdir",
    )
    sub.add_argument(
        "--predictor",
        choices=list_predictors(),
        default="mlp",
        help="predictor registry name; 'as' is the adaptive-switching zoo",
    )
    sub.add_argument(
        "--acc-th",
        type=float,
        help="bin-wise accuracy threshold, percent (default: 90, or 80 "
        "with --smoke)",
    )

    def run(args) -> int:
        chosen = dict(space=args.space, device=args.device, predictor=args.predictor)
        if args.acc_th is not None:
            chosen["acc_th"] = args.acc_th
        try:
            if args.smoke:
                config = experiments.smoke_config(args.seed, **chosen)
            else:
                config = ESMConfig(seed=args.seed, **chosen)
        except ValueError as exc:  # every other field is a checked choice
            sub.error(f"argument --acc-th: {exc}")
        reports = experiments.compare_samplers(
            config, args.workdir, workers=args.workers
        )
        print(experiments.format_comparison(reports))
        return 0

    return run


def _nas(sub):
    """Add the ``nas`` flags; return the function that runs it."""
    from .archspace import SPACE_NAMES
    from .nas import experiments
    from .nas.constraints import BUDGET_FLAGS, SearchConstraints

    _add_shared(
        sub, "nas", "--device", "--seed", "--workers", "--smoke", "--workdir", "--out"
    )
    sub.add_argument(
        "--spaces",
        nargs="+",
        choices=SPACE_NAMES,
        help="spaces to run (default: resnet in --smoke, all otherwise)",
    )
    sub.add_argument(
        "--surrogates",
        nargs="+",
        choices=sorted(experiments.SURROGATES),
        help="surrogate labels to run (default: all, incl. the adaptive "
        "switcher 'as')",
    )
    for field, flag, what in BUDGET_FLAGS:
        sub.add_argument(
            flag,
            dest=field,
            metavar=flag[2:].upper().replace("-", "_"),
            type=_number(float, "a positive number", lambda v: v > 0),
            help=f"{what} for constrained search",
        )
    sub.add_argument(
        "--warm-start",
        type=_search_result,
        help="path to a SearchResult JSON whose front seeds new searches",
    )

    def run(args) -> int:
        constraints = SearchConstraints(
            **{field: getattr(args, field) for field, _, _ in BUDGET_FLAGS}
        )
        spaces = args.spaces or (["resnet"] if args.smoke else list(SPACE_NAMES))
        report = experiments.run_experiment(
            spaces,
            device_name=args.device,
            seed=args.seed,
            smoke=args.smoke,
            workdir=args.workdir,
            workers=args.workers,
            surrogates=args.surrogates,
            constraints=constraints if constraints.is_active else None,
            warm_start=args.warm_start,
        )
        _publish(report, experiments.format_report(report), args.out)
        return 0

    return run


def _transfer(sub):
    """Add the ``transfer`` flags; return the function that runs it."""
    from .encodings import list_encodings
    from .hardware import DEVICE_NAMES
    from .predictors import list_predictors
    from .transfer import experiments

    _add_shared(sub, "transfer", "--space", "--seed", "--smoke", "--out")
    defaults = experiments.DEFAULT_DEVICES
    sub.add_argument(
        "--devices",
        nargs="+",
        choices=DEVICE_NAMES,
        default=list(defaults),
        help=f"device registry names (default: {' '.join(defaults)})",
    )
    sub.add_argument("--encoding", choices=list_encodings(), default="fcc")
    sub.add_argument(
        "--base",
        choices=[name for name in list_predictors() if name != "transfer"],
        default="cart",
        help="zoo member used for both the proxy surrogate and the "
        "from-scratch baseline (default: cart)",
    )
    sub.add_argument(
        "--budgets",
        nargs="+",
        type=_number(int, "an integer >= 2 (a map needs two pairs)", lambda v: v >= 2),
        help="target-device paired-sample budgets (default: per-mode sweep)",
    )

    def run(args) -> int:
        if len(args.devices) < 2 or len(set(args.devices)) < len(args.devices):
            sub.error(
                f"argument --devices: transfer needs at least two distinct "
                f"devices, got {' '.join(args.devices)}"
            )
        report = experiments.run_experiment(
            devices=args.devices,
            space=args.space,
            encoding=args.encoding,
            base=args.base,
            seed=args.seed,
            smoke=args.smoke,
            budgets=args.budgets,
        )
        _publish(report, experiments.format_report(report), args.out)
        return 0

    return run


# Each command: the builder that adds its flags and returns its runner, and
# its one-line description.  Only the named command is built, so a command
# imports its own layer and no other's.  ``serve`` is listed for --help;
# `main` hands its arguments over unparsed.
_COMMANDS = {
    "samplers": (_samplers, "Balanced-vs-random convergence comparison (Fig. 11)."),
    "nas": (_nas, "Pareto displacement and ranking preservation (Fig. 2b)."),
    "transfer": (
        _transfer,
        "Cross-device transfer budget sweep over all ordered device pairs.",
    ),
    "serve": (
        None,
        "Serve saved latency surrogates over JSON-lines TCP "
        "(python -m repro serve --help).",
    ),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["serve"]:
        from .serve.__main__ import main as serve

        return serve(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="ESM reproduction: experiments and the prediction server.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    run = None
    for name, (build, description) in _COMMANDS.items():
        chosen = argv[:1] == [name]
        sub = subparsers.add_parser(
            name, help=description, description=description, add_help=chosen
        )
        if chosen:
            run = build(sub)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
