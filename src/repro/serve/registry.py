"""The model registry: fitted surrogates keyed on (space, device, encoding).

One registry backs a prediction server.  Each key maps to an immutable
`ModelEntry` — the fitted predictor, a monotonically increasing version,
and (when loaded from disk) the source path plus a sha256 fingerprint of
its bytes.  Three invariants make hot-swap safe without any lock around
``predict``:

* **Entries are immutable.**  A swap builds a fresh `ModelEntry` and
  rebinds the dict slot — a single pointer flip under the GIL.  A reader
  that grabbed the old entry keeps a consistent (predictor, version)
  pair; in-flight micro-batches finish on the model they started with.
* **Versions only grow.**  Every register/swap of a key increments its
  version, so responses can state exactly which model produced them and
  tests can prove no batch was torn across a swap.
* **Files are atomic.**  Models arrive via the `PredictorBase.save`
  persistence contract (temp file + ``os.replace``), so `poll` — the
  watch/reload path that picks up freshly retrained surrogates — only
  ever sees the previous complete payload or the new complete payload.
  A trainer crashing mid-save changes nothing: the fingerprint matches,
  no swap happens.  `load` and `poll` read a file once and fingerprint
  the very bytes they parse, so a save landing mid-reload is picked up
  by the next poll.  Bytes that do not load (a torn copy written by a
  non-atomic ``cp``, a malformed payload) are counted in
  ``reload_failures``, keep the old model serving, and are not retried
  until they change.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from ..predictors import load_predictor
from ..predictors.protocol import Predictor

__all__ = ["ServeKey", "ModelEntry", "ModelRegistry"]


class ServeKey(NamedTuple):
    """What a prediction request addresses: a space, a device, an encoding."""

    space: str
    device: str
    encoding: str

    def __str__(self) -> str:  # "resnet/raspberrypi4/fcc" in errors and stats
        return f"{self.space}/{self.device}/{self.encoding}"


KeyLike = Union[ServeKey, Tuple[str, str, str]]


def _as_key(key: KeyLike) -> ServeKey:
    return key if isinstance(key, ServeKey) else ServeKey(*key)


def _fingerprint(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class ModelEntry:
    """One registered surrogate: immutable, so a reference is a snapshot."""

    key: ServeKey
    predictor: Predictor
    version: int
    path: Optional[Path] = None
    fingerprint: Optional[str] = None

    def describe(self) -> dict:
        return {
            "key": str(self.key),
            "kind": getattr(self.predictor, "KIND", type(self.predictor).__name__),
            "version": self.version,
            "path": None if self.path is None else str(self.path),
            "fingerprint": self.fingerprint,
        }


class ModelRegistry:
    """Keyed store of fitted surrogates with atomic hot-swap and reload."""

    def __init__(self) -> None:
        self._entries: Dict[ServeKey, ModelEntry] = {}
        self._watched: Dict[ServeKey, Path] = {}
        self._subscribers: List[Callable[[ServeKey, ModelEntry], None]] = []
        # Per watched key, the fingerprint of the last bytes that failed to
        # load, so `poll` does not re-parse them every interval.
        self._rejected: Dict[ServeKey, str] = {}
        self.swaps = 0
        self.reload_failures = 0

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: KeyLike) -> bool:
        return _as_key(key) in self._entries

    def keys(self) -> Tuple[ServeKey, ...]:
        return tuple(self._entries)

    def get(self, key: KeyLike) -> ModelEntry:
        """The current entry for ``key`` — one dict read, never a lock."""
        key = _as_key(key)
        try:
            return self._entries[key]
        except KeyError:
            known = ", ".join(str(k) for k in self._entries) or "(none)"
            raise KeyError(
                f"no model registered for {key}; registered: {known}"
            ) from None

    def describe(self) -> List[dict]:
        """One summary dict per registered model, sorted by key."""
        return [
            self._entries[key].describe() for key in sorted(self._entries)
        ]

    # ------------------------------------------------------------------ #
    # Registration and hot-swap
    # ------------------------------------------------------------------ #

    def subscribe(self, fn: Callable[[ServeKey, ModelEntry], None]) -> None:
        """Call ``fn(key, entry)`` after every register/swap of any key.

        The server uses this to drop the prediction LRU of a swapped key;
        callbacks run after the pointer flip, so a subscriber reading the
        registry sees the new entry.
        """
        self._subscribers.append(fn)

    def register(
        self,
        key: KeyLike,
        predictor: Predictor,
        *,
        path: "Path | str | None" = None,
    ) -> ModelEntry:
        """Bind ``predictor`` to ``key`` (first version, or the next one).

        ``register`` on an existing key *is* a hot-swap: the entry is
        rebuilt with the bumped version and flipped in atomically.
        """
        path = None if path is None else Path(path)
        fingerprint = None if path is None else _fingerprint(path.read_bytes())
        return self._bind(_as_key(key), predictor, path, fingerprint)

    def _bind(
        self,
        key: ServeKey,
        predictor: Predictor,
        path: Optional[Path],
        fingerprint: Optional[str],
    ) -> ModelEntry:
        if not getattr(predictor, "is_fitted", True):
            raise ValueError(f"refusing to register an unfitted predictor for {key}")
        previous = self._entries.get(key)
        entry = ModelEntry(
            key=key,
            predictor=predictor,
            version=1 if previous is None else previous.version + 1,
            path=path,
            fingerprint=fingerprint,
        )
        self._entries[key] = entry  # the pointer flip
        if previous is not None:
            self.swaps += 1
        for fn in self._subscribers:
            fn(key, entry)
        return entry

    def swap(self, key: KeyLike, predictor: Predictor) -> ModelEntry:
        """Hot-swap an already-registered key to a freshly (re)trained model."""
        key = _as_key(key)
        if key not in self._entries:
            raise KeyError(f"cannot swap {key}: no model registered for it")
        return self.register(key, predictor)

    # ------------------------------------------------------------------ #
    # Disk: load and watch/reload
    # ------------------------------------------------------------------ #

    def load(
        self, key: KeyLike, path: Union[str, Path], *, watch: bool = False
    ) -> ModelEntry:
        """Load a saved predictor (any zoo kind) from ``path`` and register it.

        With ``watch=True`` the path is remembered and `poll` will reload
        it whenever its bytes change — the retrain-and-republish loop.
        """
        key = _as_key(key)
        path = Path(path)
        data = path.read_bytes()
        entry = self._bind(
            key, load_predictor(path, data=data), path, _fingerprint(data)
        )
        if watch:
            self._watched[key] = path
        return entry

    def watched(self) -> Dict[ServeKey, Path]:
        return dict(self._watched)

    def poll(self) -> List[ServeKey]:
        """Reload every watched model whose file content changed.

        Returns the keys that were actually swapped.  Because model saves
        are atomic, a changed fingerprint normally denotes a complete new
        payload; an unchanged one (including after a trainer crashed
        mid-save) is a no-op.  A watched file that briefly disappears is
        skipped — the server keeps answering from the model it has.  So is
        one whose new bytes fail to load: the failure is counted once in
        ``reload_failures`` and those bytes are not tried again, while the
        other keys are still polled.  The bytes fingerprinted are the
        bytes parsed (one read), so a save that lands during a poll is
        never mistaken for the model already loaded.
        """
        swapped: List[ServeKey] = []
        for key, path in self._watched.items():
            try:
                data = path.read_bytes()
            except OSError:
                continue
            fingerprint = _fingerprint(data)
            if fingerprint in (self._entries[key].fingerprint, self._rejected.get(key)):
                continue
            try:
                predictor = load_predictor(path, data=data)
            except Exception:  # any unloadable payload: keep the old model
                self._rejected[key] = fingerprint
                self.reload_failures += 1
                continue
            self._bind(key, predictor, path, fingerprint)
            swapped.append(key)
        return swapped
