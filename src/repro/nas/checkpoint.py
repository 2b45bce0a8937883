"""Atomic per-step search checkpoints with torn-write recovery.

A checkpointed search directory mirrors what `CampaignRunner` gives
measurement campaigns:

* ``manifest.json`` — the search fingerprint (every parameter that
  determines the trajectory's bytes) plus bookkeeping.  A resume against
  a directory whose fingerprint differs is refused rather than silently
  mixed; a *corrupt* manifest quarantines the whole directory and starts
  fresh (the data needed to rebuild it deterministically lives in the
  caller).
* ``step_00000.json``, ``step_00001.json``, … — one atomic file per
  completed step (an evolutionary generation, or a random-search chunk),
  each carrying the candidates that step newly evaluated and the
  population that survived it.  Files are written once and never
  rewritten, so the resume scan is a pure prefix walk: the longest run of
  parseable consecutive steps from zero is the durable state.

Torn or corrupted files — a step that fails to parse, fails its schema
(every candidate in it included), or disagrees with its filename — are
renamed to ``*.corrupt`` together with everything after them and every
other ``step_*.json`` outside the kept prefix, and the search re-executes
from the last good step.  The tear policy is quarantine: a torn manifest
takes every step file with it.  Because every stochastic draw in the
drivers flows from ``(seed, slot, step)`` streams, the re-executed steps
reproduce the original bytes exactly, which is what the kill/resume
byte-identity tests assert.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Union

from ..utils import (
    atomic_write_text,
    quarantine,
    quarantine_with,
    read_json_object,
    read_manifest,
    require,
    require_header,
    write_manifest,
)

if TYPE_CHECKING:
    from .search import Candidate

__all__ = ["SearchCheckpointError", "CheckpointState", "SearchCheckpoint"]

CHECKPOINT_FORMAT_VERSION = 1
_MANIFEST = "manifest.json"
_STEP_KEYS = {"format_version", "kind", "step", "evaluated", "population"}


class SearchCheckpointError(RuntimeError):
    """A checkpoint directory cannot be used (foreign fingerprint)."""


class CheckpointState(NamedTuple):
    """The durable prefix of a search: its last step and both histories."""

    step: int
    population: List["Candidate"]  # the last step's survivors
    evaluated: List["Candidate"]  # evaluation order, all steps


class SearchCheckpoint:
    """One search's checkpoint directory (see module docstring)."""

    def __init__(self, root: Union[str, Path], *, fingerprint: str, driver: str):
        self.root = Path(root)
        self.fingerprint = str(fingerprint)
        self.driver = str(driver)
        self.root.mkdir(parents=True, exist_ok=True)
        self._init_manifest()

    # ------------------------------------------------------------------ #
    # Manifest
    # ------------------------------------------------------------------ #

    def _init_manifest(self) -> None:
        # A torn manifest leaves nothing in this directory that can be
        # trusted to belong to *this* search: its steps go with it, and
        # they are deterministic to rebuild.
        path = self.root / _MANIFEST
        manifest = read_manifest(
            path,
            policy=quarantine_with(self._step_paths),
            fingerprint=self.fingerprint,
            foreign=SearchCheckpointError(
                f"checkpoint directory {self.root} belongs to a different "
                "search (fingerprint mismatch); refusing to resume from it"
            ),
        )
        if manifest is None:
            write_manifest(
                path,
                {
                    "format_version": CHECKPOINT_FORMAT_VERSION,
                    "kind": "search_checkpoint",
                    "driver": self.driver,
                    "fingerprint": self.fingerprint,
                },
            )

    # ------------------------------------------------------------------ #
    # Steps
    # ------------------------------------------------------------------ #

    def _step_path(self, step: int) -> Path:
        return self.root / f"step_{step:05d}.json"

    def _step_paths(self) -> List[Path]:
        return sorted(self.root.glob("step_*.json"))

    def write_step(
        self, step: int, evaluated: List[dict], population: List[dict]
    ) -> None:
        """Durably commit one completed step (atomic, never rewritten)."""
        atomic_write_text(
            self._step_path(step),
            json.dumps(
                {
                    "format_version": CHECKPOINT_FORMAT_VERSION,
                    "kind": "search_step",
                    "step": int(step),
                    "evaluated": evaluated,
                    "population": population,
                },
                sort_keys=True,
            ),
        )

    def _read_step(self, step: int) -> Optional[dict]:
        """Parse + validate one step file, its candidates parsed into
        `Candidate` objects; ``None`` when absent/corrupt."""
        from .search import Candidate  # search imports this module

        try:
            payload = read_json_object(self._step_path(step))
            require_header(payload, "step", CHECKPOINT_FORMAT_VERSION, "search_step")
            require(payload, "step", {"evaluated": list, "population": list})
            for key in ("evaluated", "population"):
                payload[key] = [Candidate.from_dict(c) for c in payload[key]]
        except (FileNotFoundError, KeyError, TypeError, ValueError):
            return None
        if set(payload) != _STEP_KEYS or payload["step"] != step:
            return None
        return payload

    def load_state(self) -> Optional[CheckpointState]:
        """The longest valid step prefix, quarantining the torn suffix.

        Returns ``None`` when no step has been durably completed (fresh
        directory, or step 0 itself was torn).
        """
        evaluated: List[Candidate] = []
        population: List[Candidate] = []
        last = -1
        while (payload := self._read_step(last + 1)) is not None:
            evaluated.extend(payload["evaluated"])
            population = payload["population"]
            last += 1
        # Everything at or past the first gap is causally downstream of a
        # missing/torn step, and a step file outside the prefix's names is
        # no step at all: quarantine both so the rerun cannot collide.
        kept = {self._step_path(s).name for s in range(last + 1)}
        for path in self._step_paths():
            if path.name not in kept:
                quarantine(path)
        if last < 0:
            return None
        return CheckpointState(
            step=last, population=population, evaluated=evaluated
        )
