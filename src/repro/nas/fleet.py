"""Many-seed search fleets: statistically defensible NAS results.

A single seeded search is an anecdote; reviewers (and deployments) want
the distribution.  `SearchFleet` runs the *same* search — driver, budgets,
constraints, warm start — under N different seeds, farms the members out
to a spawn-safe process pool (falling back to serial execution when the
pool cannot be created or breaks mid-fleet, through the
`repro.utils.run_pooled` path `CampaignRunner` also uses), and
aggregates the per-seed Pareto fronts into median/IQR dispersion bands
over hypervolume, front size, and feasible-evaluation counts.

Durability matches the rest of the repo: with a ``fleet_dir`` every
member search checkpoints per generation under
``member_<seed>/checkpoint`` and commits its finished `SearchResult` JSON
atomically to ``member_<seed>/result.json``; a killed fleet resumes
completed members from their cached results, partially-run members from
their generation checkpoints, and produces a byte-identical
`FleetResult` JSON — asserted by the fault tests in
``tests/test_nas_fleet.py``.  The tear policy is quarantine: a torn fleet
manifest sets every member result aside, since nothing then ties them to
this fleet, and a member result that does not parse as its seed's
`SearchResult` is set aside and recomputed.

CLI::

    PYTHONPATH=src python -m repro.nas.fleet --smoke
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..archspace.config import ArchConfig
from ..archspace.spaces import SPACE_NAMES, space_by_name
from ..utils import atomic_write_text, load_json, positive_int, quarantine
from ..utils import fingerprint as fingerprint_of
from ..utils import quarantine_with, read_manifest, require_degradations, run_pooled
from ..utils import write_manifest
from .constraints import (
    SearchConstraints,
    add_budget_arguments,
    constraints_from_args,
)
from .proxy import SyntheticAccuracyProxy
from .search import (
    EvolutionarySearch,
    RandomSearch,
    SearchResult,
    _resolve_warm_start,
)

__all__ = ["FleetError", "FleetResult", "SearchFleet", "main"]

FLEET_RESULT_FORMAT_VERSION = 1
_MANIFEST = "fleet_manifest.json"

_DRIVERS = {"random": RandomSearch, "evolutionary": EvolutionarySearch}


class FleetError(RuntimeError):
    """A fleet cannot proceed (bad resume state, invalid membership)."""


# ---------------------------------------------------------------------- #
# Member execution (shared by the serial path and pool workers)
# ---------------------------------------------------------------------- #


@dataclass
class _MemberTask:
    """Everything one fleet member needs, picklable for a pool worker.

    The oracle travels *by value* (the campaign runner ships whole devices
    the same way); every stochastic draw in a search flows from
    ``(seed, slot, step)`` streams, so a copy reproduces exactly the
    trajectory the parent's oracle would have produced.
    """

    driver: str
    spec: object
    oracle: object
    proxy: SyntheticAccuracyProxy
    params: dict
    seed: int
    constraints: Optional[SearchConstraints]
    warm_configs: List[ArchConfig]
    checkpoint_dir: Optional[str]


def _build_search(task: _MemberTask):
    cls = _DRIVERS[task.driver]
    return cls(
        task.spec,
        task.oracle,
        task.proxy,
        seed=task.seed,
        constraints=task.constraints,
        warm_start=task.warm_configs or None,
        checkpoint_dir=task.checkpoint_dir,
        **task.params,
    )


def _run_member(task: _MemberTask) -> dict:
    """Run (or resume) one member search; returns its result payload."""
    return _build_search(task).run().to_dict()


# ---------------------------------------------------------------------- #
# Aggregation
# ---------------------------------------------------------------------- #


def _band(values: Sequence[float]) -> dict:
    """Median/IQR dispersion band of one per-seed statistic."""
    arr = np.asarray(list(values), dtype=float)
    q25, median, q75 = np.percentile(arr, [25.0, 50.0, 75.0])
    return {
        "median": float(median),
        "iqr": float(q75 - q25),
        "q25": float(q25),
        "q75": float(q75),
        "min": float(arr.min()),
        "max": float(arr.max()),
    }


@dataclass
class FleetResult:
    """Per-seed search results plus their dispersion aggregate."""

    driver: str
    seeds: List[int]
    results: Dict[int, SearchResult]
    constraints: Optional[SearchConstraints]
    reference_point: Tuple[float, float]  # (latency_s, accuracy), shared
    degradations: List[dict] = field(default_factory=list)

    def hypervolumes(self) -> Dict[int, float]:
        ref_latency, ref_accuracy = self.reference_point
        return {
            seed: self.results[seed].front.hypervolume(ref_latency, ref_accuracy)
            for seed in self.seeds
        }

    def to_dict(self) -> dict:
        """Deterministic JSON payload (no wall clock, seeds sorted)."""
        hv = self.hypervolumes()
        members = {}
        for seed in sorted(self.seeds):
            result = self.results[seed]
            members[str(seed)] = {
                "hypervolume": hv[seed],
                "n_evaluations": result.n_evaluations,
                "n_feasible": result.feasible_evaluations,
                "front": result.front.to_dict(),
            }
        return {
            "format_version": FLEET_RESULT_FORMAT_VERSION,
            "kind": "search_fleet_result",
            "driver": self.driver,
            "n_seeds": len(self.seeds),
            "seeds": sorted(self.seeds),
            "constraints": (
                None if self.constraints is None else self.constraints.to_dict()
            ),
            "reference_point": [
                float(self.reference_point[0]),
                float(self.reference_point[1]),
            ],
            "members": members,
            "dispersion": {
                "hypervolume": _band(hv.values()),
                "front_size": _band(
                    [len(self.results[s].front) for s in self.seeds]
                ),
                "n_feasible": _band(
                    [self.results[s].feasible_evaluations for s in self.seeds]
                ),
            },
            "degradations": [dict(d) for d in self.degradations],
        }

    def to_json(self) -> str:
        """Canonical JSON — what the byte-identity assertions compare."""
        return json.dumps(self.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------- #
# The fleet driver
# ---------------------------------------------------------------------- #


class SearchFleet:
    """Run one search configuration under N seeds and aggregate fronts."""

    def __init__(
        self,
        spec,
        oracle,
        proxy: SyntheticAccuracyProxy,
        *,
        driver: str = "evolutionary",
        search_params: Optional[dict] = None,
        seeds: Optional[Sequence[int]] = None,
        n_seeds: int = 8,
        seed_base: int = 0,
        constraints: Optional[SearchConstraints] = None,
        warm_start=None,
        fleet_dir: "Union[str, Path, None]" = None,
        workers: int = 1,
        mp_context: str = "spawn",
    ):
        if driver not in _DRIVERS:
            raise ValueError(
                f"driver must be one of {sorted(_DRIVERS)}, got {driver!r}"
            )
        if seeds is None:
            if n_seeds < 1:
                raise ValueError("n_seeds must be >= 1")
            seeds = [seed_base + i for i in range(n_seeds)]
        seeds = [int(s) for s in seeds]
        if len(set(seeds)) != len(seeds):
            raise ValueError("fleet seeds must be unique")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.spec = spec
        self.oracle = oracle
        self.proxy = proxy
        self.driver = driver
        self.search_params = dict(search_params or {})
        self.seeds = seeds
        self.constraints = (
            constraints
            if constraints is not None and constraints.is_active
            else None
        )
        self.warm_configs = _resolve_warm_start(warm_start, spec)
        self.fleet_dir = None if fleet_dir is None else Path(fleet_dir)
        self.workers = int(workers)
        self.mp_context = str(mp_context)

    # ------------------------------- identity -------------------------- #

    def fingerprint(self) -> str:
        """Hash of everything that determines the fleet's result bytes."""
        payload = {
            "driver": self.driver,
            "space": self.spec.family,
            "oracle": getattr(self.oracle, "name", type(self.oracle).__name__),
            "proxy": {
                "floor": self.proxy.floor,
                "ceiling": self.proxy.ceiling,
                "noise_pp": self.proxy.noise_pp,
                "seed": self.proxy.seed,
            },
            "search_params": self.search_params,
            "seeds": self.seeds,
            "constraints": (
                None if self.constraints is None else self.constraints.to_dict()
            ),
            "warm_start": [c.to_dict() for c in self.warm_configs],
        }
        return fingerprint_of(payload)

    def _member_dir(self, seed: int) -> Optional[Path]:
        if self.fleet_dir is None:
            return None
        return self.fleet_dir / f"member_{seed:05d}"

    def _task(self, seed: int) -> _MemberTask:
        member_dir = self._member_dir(seed)
        return _MemberTask(
            driver=self.driver,
            spec=self.spec,
            oracle=self.oracle,
            proxy=self.proxy,
            params=self.search_params,
            seed=seed,
            constraints=self.constraints,
            warm_configs=self.warm_configs,
            checkpoint_dir=(
                None if member_dir is None else str(member_dir / "checkpoint")
            ),
        )

    # ------------------------------- manifest -------------------------- #

    def _load_or_init_manifest(self) -> Optional[dict]:
        if self.fleet_dir is None:
            return None
        self.fleet_dir.mkdir(parents=True, exist_ok=True)
        # A torn manifest leaves nothing to say the member results belong
        # to *this* fleet, so they are set aside with it.  Each member
        # then replays from its own fingerprinted checkpoint, which a
        # different fleet's search refuses.
        path = self.fleet_dir / _MANIFEST
        fingerprint = self.fingerprint()
        manifest = read_manifest(
            path,
            policy=quarantine_with(
                lambda: sorted(self.fleet_dir.glob("member_*/result.json"))
            ),
            schema=require_degradations,
            fingerprint=fingerprint,
            foreign=FleetError(
                f"fleet directory {self.fleet_dir} belongs to a different "
                "fleet (fingerprint mismatch); refusing to mix member results"
            ),
        )
        if manifest is None:
            manifest = {
                "format_version": FLEET_RESULT_FORMAT_VERSION,
                "kind": "search_fleet_manifest",
                "fingerprint": fingerprint,
                "driver": self.driver,
                "seeds": self.seeds,
                "degradations": [],
            }
            write_manifest(path, manifest)
        return manifest

    # ------------------------------- members --------------------------- #

    def _load_cached_member(self, seed: int) -> Optional[SearchResult]:
        """A previously committed member result, if it parses as this
        seed's `SearchResult`.  Anything else is torn or foreign: it is
        quarantined and recomputed (the member's own generation
        checkpoints make the rerun cheap)."""
        if self.fleet_dir is None:
            return None
        path = self._member_dir(seed) / "result.json"
        if not path.exists():
            return None
        try:
            result = load_json(path, SearchResult.from_dict, what="member result")
        except ValueError:
            result = None
        if result is None or result.seed != seed:
            quarantine(path)
            return None
        return result

    def _commit_member(self, seed: int, payload: dict) -> None:
        member_dir = self._member_dir(seed)
        if member_dir is None:
            return
        member_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            member_dir / "result.json", json.dumps(payload, sort_keys=True)
        )

    # -------------------------------- run ------------------------------ #

    def run(self) -> FleetResult:
        """Run (or resume) every member and aggregate the fronts.

        Member completion order never enters the result: payloads are
        keyed by seed and the aggregate sorts them, so a parallel fleet,
        a serial fleet, and a killed-and-resumed fleet all produce the
        same `FleetResult.to_json` bytes.
        """
        manifest = self._load_or_init_manifest()
        degradations: List[dict] = list(
            manifest["degradations"] if manifest is not None else []
        )
        results: Dict[int, SearchResult] = {}
        for seed in self.seeds:
            cached = self._load_cached_member(seed)
            if cached is not None:
                results[seed] = cached

        def commit(seed: int, payload: dict) -> None:
            # Parsed from its payload like a cached member, so both are
            # bit-for-bit the same kind of object.
            results[seed] = SearchResult.from_dict(payload)
            self._commit_member(seed, payload)

        new_degradations = run_pooled(
            [s for s in self.seeds if s not in results],
            self._task,
            _run_member,
            lambda seed: _run_member(self._task(seed)),
            commit,
            workers=self.workers,
            mp_context=self.mp_context,
        )
        if new_degradations:
            degradations.extend(new_degradations)
            if manifest is not None:
                manifest["degradations"].extend(new_degradations)
                write_manifest(self.fleet_dir / _MANIFEST, manifest)

        results = {seed: results[seed] for seed in self.seeds}  # not completion order
        reference = self._reference_point(results)
        return FleetResult(
            driver=self.driver,
            seeds=list(self.seeds),
            results=results,
            constraints=self.constraints,
            reference_point=reference,
            degradations=degradations,
        )

    def _reference_point(
        self, results: Dict[int, SearchResult]
    ) -> Tuple[float, float]:
        """A shared hypervolume reference, worse than anything evaluated.

        10% beyond the slowest latency any member ever evaluated, one
        accuracy point below the proxy floor — deterministic because the
        member trajectories are.
        """
        worst_latency = max(
            c.latency_s for r in results.values() for c in r.evaluated
        )
        return (1.1 * worst_latency, self.proxy.floor - 1.0)


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #


def format_fleet_report(payload: dict) -> str:
    """The per-seed / dispersion table the CLI (and CI summary) prints."""
    lines = [
        f"driver={payload['driver']}  seeds={payload['n_seeds']}  "
        f"constraints={payload['constraints'] or 'none'}"
    ]
    lines.append(f"{'seed':>6} {'hypervolume':>13} {'front':>6} {'feasible':>9}")
    lines.append("-" * 40)
    for seed in payload["seeds"]:
        member = payload["members"][str(seed)]
        lines.append(
            f"{seed:>6} {member['hypervolume']:13.6f} "
            f"{member['front']['size']:>6} "
            f"{member['n_feasible']:>4}/{member['n_evaluations']}"
        )
    band = payload["dispersion"]["hypervolume"]
    lines.append("-" * 40)
    lines.append(
        f"hypervolume median {band['median']:.6f}  "
        f"IQR {band['iqr']:.6f}  [{band['min']:.6f}, {band['max']:.6f}]"
    )
    if payload["degradations"]:
        kinds = ", ".join(d["kind"] for d in payload["degradations"])
        lines.append(f"degradations: {kinds}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.nas.fleet",
        description="Many-seed NAS search with dispersion-band aggregation.",
    )
    parser.add_argument("--space", choices=SPACE_NAMES, default="resnet")
    parser.add_argument("--device", default="rtx4090")
    parser.add_argument(
        "--driver", choices=sorted(_DRIVERS), default="evolutionary"
    )
    parser.add_argument("--n-seeds", type=int, default=8)
    parser.add_argument("--seed-base", type=int, default=0)
    parser.add_argument("--workers", type=positive_int, default=1)
    parser.add_argument("--population-size", type=int, default=None)
    parser.add_argument("--generations", type=int, default=None)
    parser.add_argument("--budget", type=int, default=None)
    add_budget_arguments(parser)
    parser.add_argument(
        "--warm-start",
        default=None,
        help="path to a SearchResult JSON whose front seeds every member",
    )
    parser.add_argument(
        "--workdir",
        default=None,
        help="fleet directory: member checkpoints + results, kept for resume",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced budgets: finishes in seconds",
    )
    parser.add_argument("--out", default="fleet-report.json")
    args = parser.parse_args(argv)

    from ..hardware.simulator import SimulatedDevice
    from ..predictors.oracle import DeviceOracle

    spec = space_by_name(args.space)
    device = SimulatedDevice(args.device, seed=0)
    proxy = SyntheticAccuracyProxy(spec, seed=0)

    if args.driver == "evolutionary":
        params = {
            "population_size": args.population_size
            or (10 if args.smoke else 24),
            "generations": args.generations or (4 if args.smoke else 10),
        }
    else:
        params = {"budget": args.budget or (40 if args.smoke else 128)}
    n_seeds = min(args.n_seeds, 5) if args.smoke else args.n_seeds

    warm_start = None
    if args.warm_start is not None:
        warm_start = SearchResult.load(args.warm_start)

    fleet = SearchFleet(
        spec,
        DeviceOracle(device),
        proxy,
        driver=args.driver,
        search_params=params,
        n_seeds=n_seeds,
        seed_base=args.seed_base,
        constraints=constraints_from_args(args, parser),
        warm_start=warm_start,
        fleet_dir=args.workdir,
        workers=args.workers,
    )
    result = fleet.run()
    payload = result.to_dict()
    atomic_write_text(Path(args.out), json.dumps(payload, sort_keys=True))
    print(format_fleet_report(payload))
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
