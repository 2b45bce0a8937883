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

Torn or corrupted files — a step that fails to parse, fails its schema,
or disagrees with its filename — are renamed to ``*.corrupt`` together
with everything after them, and the search re-executes from the last good
step.  Because every stochastic draw in the drivers flows from
``(seed, slot, step)`` streams, the re-executed steps reproduce the
original bytes exactly, which is what the kill/resume byte-identity tests
assert.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, NamedTuple, Optional, Union

from ..utils import atomic_write_text, quarantine

__all__ = ["SearchCheckpointError", "CheckpointState", "SearchCheckpoint"]

CHECKPOINT_FORMAT_VERSION = 1
_MANIFEST = "manifest.json"
_STEP_KEYS = {"format_version", "kind", "step", "evaluated", "population"}


class SearchCheckpointError(RuntimeError):
    """A checkpoint directory cannot be used (foreign fingerprint)."""


class CheckpointState(NamedTuple):
    """The durable prefix of a search: its last step and both histories."""

    step: int
    population: List[dict]  # candidate dicts of the last step's survivors
    evaluated: List[dict]  # candidate dicts, evaluation order, all steps


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

    def _manifest_path(self) -> Path:
        return self.root / _MANIFEST

    def _init_manifest(self) -> None:
        path = self._manifest_path()
        if path.exists():
            try:
                manifest = json.loads(path.read_text())
                stored = manifest["fingerprint"]
            except (json.JSONDecodeError, KeyError, TypeError):
                # Torn manifest: nothing in this directory can be trusted
                # to belong to *this* search — quarantine everything and
                # start over (the steps are deterministic to rebuild).
                quarantine(path)
                for step_path in self._step_paths():
                    quarantine(step_path)
            else:
                if stored != self.fingerprint:
                    raise SearchCheckpointError(
                        f"checkpoint directory {self.root} belongs to a "
                        "different search (fingerprint mismatch); refusing "
                        "to resume from it"
                    )
                return
        atomic_write_text(
            path,
            json.dumps(
                {
                    "format_version": CHECKPOINT_FORMAT_VERSION,
                    "kind": "search_checkpoint",
                    "driver": self.driver,
                    "fingerprint": self.fingerprint,
                },
                sort_keys=True,
            ),
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
        """Parse + validate one step file; ``None`` when absent/corrupt."""
        path = self._step_path(step)
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError:
            return None
        if (
            not isinstance(payload, dict)
            or set(payload) != _STEP_KEYS
            or payload["kind"] != "search_step"
            or payload["step"] != step
            or not isinstance(payload["evaluated"], list)
            or not isinstance(payload["population"], list)
        ):
            return None
        return payload

    def load_state(self) -> Optional[CheckpointState]:
        """The longest valid step prefix, quarantining the torn suffix.

        Returns ``None`` when no step has been durably completed (fresh
        directory, or step 0 itself was torn).
        """
        evaluated: List[dict] = []
        population: List[dict] = []
        last = -1
        step = 0
        while True:
            payload = self._read_step(step)
            if payload is None:
                break
            evaluated.extend(payload["evaluated"])
            population = payload["population"]
            last = step
            step += 1
        # Everything at or past the first gap is causally downstream of a
        # missing/torn step: quarantine it so the rerun cannot collide.
        for path in self._step_paths():
            if int(path.stem.split("_")[1]) > last:
                quarantine(path)
        if last < 0:
            return None
        return CheckpointState(
            step=last, population=population, evaluated=evaluated
        )
