"""The predictor zoo, its registry, and the search-facing oracle protocol.

Every member implements the `Predictor` contract (`protocol`):
``fit`` / ``fit_dataset`` / ``predict`` / ``save`` / ``load``, seeded
determinism, JSON-serialisable hyperparameters.  The registry maps CLI
names to constructors; `load_predictor` is the inverse of any member's
``save``, dispatching on the payload's ``kind``.

Names resolve on first use (PEP 562, see `repro`), and so do the
registry's classes: an entry of `PREDICTORS` or of the payload-kind table
imports its member's module when it is first looked up, so
`load_predictor` imports only the payload's kind.
"""

import sys
from collections.abc import MutableMapping
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Tuple, Union

from .. import _lazy_exports
from ..utils import load_json, require

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .protocol import PredictorBase

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    ".protocol": "Predictor PredictorBase PREDICTOR_FORMAT_VERSION",
    ".mlp": "MLPPredictor",
    ".lut": "LookupTableSurrogate",
    ".linear": "RidgePredictor",
    ".tree": "CARTPredictor",
    ".forest": "RandomForestPredictor",
    ".boosting": "GradientBoostingPredictor",
    ".switching": "AdaptiveSwitchingPredictor kfold_indices select_winner",
    "..transfer.predictor": "TransferPredictor",
    ".oracle": "LatencyOracle PredictorOracle DeviceOracle",
})
__all__ += [
    "PREDICTORS", "get_predictor", "list_predictors", "load_predictor",
    "predictor_from_payload",
]


class _Registry(MutableMapping):
    """A name -> constructor table; an entry given as a string names one
    of this package's exports and is imported when first looked up."""

    def __init__(self, entries):
        self._entries = dict(entries)

    def __getitem__(self, name):
        value = self._entries[name]
        if isinstance(value, str):
            value = self._entries[name] = getattr(sys.modules[__name__], value)
        return value

    def __setitem__(self, name, value):
        self._entries[name] = value

    def __delitem__(self, name):
        del self._entries[name]

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)


def _lut_bias(**kwargs):
    """The ``lut+bias`` registry entry: the LUT with bias correction on."""
    from .lut import LookupTableSurrogate

    return LookupTableSurrogate(bias_correction=True, **kwargs)


PREDICTORS = _Registry({
    "mlp": "MLPPredictor",
    "lut": "LookupTableSurrogate",
    "lut+bias": _lut_bias,
    "ridge": "RidgePredictor",
    "cart": "CARTPredictor",
    "rf": "RandomForestPredictor",
    "gb": "GradientBoostingPredictor",
    "as": "AdaptiveSwitchingPredictor",
    "transfer": "TransferPredictor",
})

# Payload ``kind`` -> class, for `load_predictor`: every registry name is
# its class's ``KIND``, except aliases ("lut+bias"), which share their
# class's kind (the hyperparameters disambiguate).
_KINDS = _Registry(
    {kind: cls for kind, cls in PREDICTORS._entries.items() if isinstance(cls, str)}
)


def get_predictor(name: str, **kwargs):
    """Instantiate a predictor by registry name."""
    try:
        return PREDICTORS[name](**kwargs)
    except KeyError:
        raise KeyError(
            f"unknown predictor {name!r}; available: {', '.join(PREDICTORS)}"
        ) from None


def list_predictors() -> Tuple[str, ...]:
    """Names of all registered predictors."""
    return tuple(PREDICTORS)


def predictor_from_payload(payload: dict) -> "PredictorBase":
    """Reconstruct any zoo member from its ``to_payload`` dict."""
    require(payload, "predictor payload", {})
    kind = payload.get("kind")
    try:
        cls = _KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown predictor kind {kind!r}; known: {', '.join(_KINDS)}"
        ) from None
    return cls.from_payload(payload)


def load_predictor(
    path: Union[str, Path], *, data: Optional[bytes] = None
) -> "PredictorBase":
    """Load a saved predictor of *any* kind (the inverse of ``save``).

    ``data``, when given, is the file's content already read by the
    caller, parsed instead of reading ``path`` again (``path`` then only
    names the file in errors).  A caller that fingerprints those bytes
    knows exactly what it loaded.
    """
    return load_json(path, predictor_from_payload, what="predictor file", data=data)
