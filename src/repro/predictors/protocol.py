"""The predictor protocol: one contract for every surrogate in the zoo.

Everything the rest of the system asks of a latency predictor is captured
here, and the parametrized contract suite (``tests/test_predictor_contract.py``)
runs every registered implementation against it:

* ``fit(X, y)`` / ``fit_dataset(dataset, encoding, spec)`` — training,
  deterministic under a fixed ``seed`` hyperparameter,
* ``predict(X)`` / ``predict_one(x)`` — float64 1-D predictions, refusing
  to run before ``fit``,
* ``get_params()`` — the constructor hyperparameters as a
  JSON-serialisable dict (so configs, reports, and saved models can state
  exactly which predictor produced them),
* ``save(path)`` / ``load(path)`` — atomic JSON persistence that
  round-trips predictions bit for bit.

`PredictorBase` implements the shared parts once: hyperparameter
introspection, the versioned ``{format_version, kind, hyperparameters,
state}`` payload, atomic writes, and the fitted-state guard.  A concrete
predictor only supplies ``KIND``, ``fit``, ``predict``, the
``_get_state`` / ``_set_state`` pair describing its fitted arrays, and
the ``STATE_FIELDS`` that pair needs, so a torn payload is refused with a
`ValueError` naming the field before ``_set_state`` runs.
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Protocol, Union, runtime_checkable

import numpy as np

from ..utils import atomic_write_text, load_json, require, require_header

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..archspace.spaces import SpaceSpec
    from ..data.dataset import LatencyDataset

__all__ = [
    "Predictor",
    "PredictorBase",
    "PREDICTOR_FORMAT_VERSION",
    "validate_fit_inputs",
]

PREDICTOR_FORMAT_VERSION = 1


@runtime_checkable
class Predictor(Protocol):
    """What `ESMLoop`, `PredictorOracle`, and run provenance rely on."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Predictor": ...

    def predict(self, X: np.ndarray) -> np.ndarray: ...

    def predict_one(self, x: np.ndarray) -> float: ...

    def fit_dataset(
        self, dataset: "LatencyDataset", encoding, spec: "SpaceSpec"
    ) -> "Predictor": ...

    def get_params(self) -> Dict[str, Any]: ...

    def save(self, path: Union[str, Path]) -> None: ...


def validate_fit_inputs(X, y, owner=None) -> "tuple[np.ndarray, np.ndarray]":
    """Coerce to float64 and check the `(n, d)` / `(n,)` shape contract.

    Every entry must be finite: one NaN or inf would otherwise train a
    surrogate that predicts NaN.  The `ValueError` names the first bad
    entry (``X[0, 1]``, ``y[3]``).

    When ``owner`` (the predictor being fitted) is given, the training
    feature width is recorded on it so ``predict`` can reject mismatched
    matrices with a clear error instead of a shape-broadcast traceback.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, d) with one target per row")
    if X.shape[0] == 0:
        raise ValueError("fit needs at least one sample")
    for name, array in (("X", X), ("y", y)):
        finite = np.isfinite(array)
        if not finite.all():
            index = tuple(np.argwhere(~finite)[0])
            where = ", ".join(str(i) for i in index)
            raise ValueError(
                f"{name}[{where}]: {array[index]} is not finite "
                "(fit needs finite inputs)"
            )
    if owner is not None:
        owner._n_features_in = X.shape[1]
    return X, y


def state_array(
    value, field: str, shape=None, *, scale: bool = False, finite: bool = False
) -> np.ndarray:
    """``value`` as a float array of ``shape`` (default: any 1-D length).

    With ``finite`` every entry must also be finite; with ``scale``, finite
    and > 0 (a divisor such as ``x_std``).  The `ValueError` names
    ``field``, a path such as ``state.coef``.
    """
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{field}: not a numeric array") from None
    if (array.ndim != 1) if shape is None else (array.shape != shape):
        expected = "1-D" if shape is None else f"shape {shape}"
        raise ValueError(
            f"{field}: expected {expected}, got shape {array.shape}"
        )
    if scale or finite:
        ok = np.isfinite(array) & (array > 0) if scale else np.isfinite(array)
        bad = np.flatnonzero(~ok)
        if bad.size:
            what = "a finite scale > 0" if scale else "finite"
            raise ValueError(f"{field}.{bad[0]}: {array[bad[0]]} is not {what}")
    return array


class PredictorBase:
    """Shared predictor plumbing; subclasses set ``KIND`` and the state pair."""

    KIND: str = ""

    # Each required ``state`` field and its JSON type (for `require`).
    STATE_FIELDS: Dict[str, Any] = {}

    # Training feature width, recorded by `validate_fit_inputs(..., owner=self)`
    # and restored by `_set_state` where the state fixes it.  ``None`` means
    # unknown (a tree or LUT restored from disk), in which case the width
    # check is skipped rather than guessed at.
    _n_features_in: Union[int, None] = None

    @property
    def n_features_in_(self) -> "int | None":
        """Feature width seen at ``fit`` time, or None if unknown."""
        return self._n_features_in

    def _check_predict_input(self, X) -> np.ndarray:
        """Coerce predict input to a float64 ``(n, d)`` matrix.

        The batcher's edge cases are part of the contract: a 0-row batch
        passes through (every predictor returns an empty float64 array for
        it), and a feature width that disagrees with the one seen at fit
        time is rejected with an error naming both widths.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(
                f"predict expects a 2-D (n, d) matrix, got shape {X.shape}"
            )
        expected = self._n_features_in
        if expected is not None and X.shape[1] != expected:
            raise ValueError(
                f"predict expects {expected} features per row "
                f"(the width seen at fit time), got {X.shape[1]}"
            )
        return X

    # ------------------------------------------------------------------ #
    # Hyperparameters
    # ------------------------------------------------------------------ #

    def get_params(self) -> Dict[str, Any]:
        """Constructor hyperparameters, introspected by name.

        Every constructor argument is stored under its own name, so the
        params of any predictor — current or future — round-trip through
        ``type(self)(**self.get_params())`` and through JSON.
        """
        return {name: getattr(self, name) for name in self._param_names()}

    @classmethod
    def _param_names(cls) -> List[str]:
        return [
            p.name
            for p in inspect.signature(cls.__init__).parameters.values()
            if p.name != "self" and p.kind is not inspect.Parameter.VAR_KEYWORD
        ]

    # ------------------------------------------------------------------ #
    # Convenience entry points shared by the whole zoo
    # ------------------------------------------------------------------ #

    def fit_dataset(
        self, dataset: "LatencyDataset", encoding, spec: "SpaceSpec"
    ):
        """Fit straight from a measured dataset: encode, then `fit`.

        ``encoding`` is a registry name or `Encoding` instance; targets
        are the dataset's measured latencies.
        """
        return self.fit(dataset.encode(encoding, spec), dataset.latencies)

    def predict_one(self, x: np.ndarray) -> float:
        return float(self.predict(np.asarray(x, dtype=float)[None, :])[0])

    # ------------------------------------------------------------------ #
    # Fitted-state guard
    # ------------------------------------------------------------------ #

    @property
    def is_fitted(self) -> bool:
        raise NotImplementedError

    def _require_fitted(self, action: str = "predict") -> None:
        if not self.is_fitted:
            raise RuntimeError(f"predictor is not fitted (cannot {action})")

    # ------------------------------------------------------------------ #
    # Persistence: versioned payload + atomic file I/O
    # ------------------------------------------------------------------ #

    def _get_state(self) -> dict:
        """The fitted state as JSON-serialisable plain data."""
        raise NotImplementedError

    def _set_state(self, state: dict) -> None:
        """Restore the fitted state written by `_get_state`."""
        raise NotImplementedError

    def to_payload(self) -> dict:
        """The full serialised form: hyperparameters plus fitted state."""
        self._require_fitted("save")
        return {
            "format_version": PREDICTOR_FORMAT_VERSION,
            "kind": self.KIND,
            "hyperparameters": self.get_params(),
            "state": self._get_state(),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "PredictorBase":
        """Rebuild a predictor from `to_payload`'s dict.

        Every malformed payload is a `ValueError`; one with a bad field
        names its path (``hyperparameters.<name>``, ``state.<field>``).
        """
        require(payload, "predictor payload", {})
        require_header(payload, "predictor payload", PREDICTOR_FORMAT_VERSION, cls.KIND)
        missing = [f for f in ("hyperparameters", "state") if f not in payload]
        if missing:
            raise ValueError(f"predictor payload has no {missing[0]!r} field")
        hyperparameters = payload["hyperparameters"]
        require(hyperparameters, "hyperparameters", {})
        unknown = sorted(set(hyperparameters) - set(cls._param_names()))
        if unknown:
            raise ValueError(
                f"hyperparameters.{unknown[0]}: not a {cls.KIND!r} hyperparameter"
            )
        require(payload["state"], "state", cls.STATE_FIELDS)
        predictor = cls(**hyperparameters)
        predictor._set_state(payload["state"])
        return predictor

    def save(self, path: Union[str, Path]) -> None:
        """Serialise the fitted predictor to JSON, atomically.

        The payload goes through `atomic_write_text` (temp file +
        ``os.replace``, like `LatencyDataset.save`), so an interrupt
        mid-save leaves any previous file untouched.  JSON floats use
        shortest-repr encoding, so `load` reproduces bit-identical
        predictions.
        """
        if not self.is_fitted:
            raise RuntimeError("cannot save an unfitted predictor")
        atomic_write_text(path, json.dumps(self.to_payload()))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "PredictorBase":
        """Restore a predictor saved by `save`; predictions are identical."""
        return load_json(path, cls.from_payload, what="predictor file")
