"""The predictor zoo, its registry, and the search-facing oracle protocol.

Every member implements the `Predictor` contract (`protocol`):
``fit`` / ``fit_dataset`` / ``predict`` / ``save`` / ``load``, seeded
determinism, JSON-serialisable hyperparameters.  The registry maps CLI
names to constructors; `load_predictor` is the inverse of any member's
``save``, dispatching on the payload's ``kind``.
"""

from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from ..utils import load_json, require
from .boosting import GradientBoostingPredictor
from .forest import RandomForestPredictor
from .linear import RidgePredictor
from .lut import LookupTableSurrogate
from .mlp import MLPPredictor
from .oracle import DeviceOracle, LatencyOracle, PredictorOracle
from .protocol import PREDICTOR_FORMAT_VERSION, Predictor, PredictorBase
from .switching import (
    AdaptiveSwitchingPredictor,
    kfold_indices,
    select_winner,
)
from .tree import CARTPredictor

__all__ = [
    "Predictor",
    "PredictorBase",
    "PREDICTOR_FORMAT_VERSION",
    "MLPPredictor",
    "LookupTableSurrogate",
    "RidgePredictor",
    "CARTPredictor",
    "RandomForestPredictor",
    "GradientBoostingPredictor",
    "AdaptiveSwitchingPredictor",
    "TransferPredictor",
    "kfold_indices",
    "select_winner",
    "PREDICTORS",
    "get_predictor",
    "list_predictors",
    "load_predictor",
    "predictor_from_payload",
    "LatencyOracle",
    "PredictorOracle",
    "DeviceOracle",
]

PREDICTORS: Dict[str, Callable] = {
    "mlp": MLPPredictor,
    "lut": LookupTableSurrogate,
    "lut+bias": lambda **kw: LookupTableSurrogate(bias_correction=True, **kw),
    "ridge": RidgePredictor,
    "cart": CARTPredictor,
    "rf": RandomForestPredictor,
    "gb": GradientBoostingPredictor,
    "as": AdaptiveSwitchingPredictor,
}

# Payload ``kind`` -> class, for `load_predictor`.  Registry aliases
# ("lut+bias") share their class's kind; the hyperparameters disambiguate.
_KINDS: Dict[str, type] = {
    cls.KIND: cls
    for cls in (
        MLPPredictor,
        LookupTableSurrogate,
        RidgePredictor,
        CARTPredictor,
        RandomForestPredictor,
        GradientBoostingPredictor,
        AdaptiveSwitchingPredictor,
    )
}


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


def predictor_from_payload(payload: dict) -> PredictorBase:
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
) -> PredictorBase:
    """Load a saved predictor of *any* kind (the inverse of ``save``).

    ``data``, when given, is the file's content already read by the
    caller, parsed instead of reading ``path`` again (``path`` then only
    names the file in errors).  A caller that fingerprints those bytes
    knows exactly what it loaded.
    """
    return load_json(path, predictor_from_payload, what="predictor file", data=data)


# Imported last: `repro.transfer.predictor` subclasses `PredictorBase`
# from this package, so its import must not run before `protocol` has
# been executed above.  With the class in hand, the transfer member joins
# the registry like any other — `get_predictor("transfer")`,
# `load_predictor`, `ESMConfig(predictor="transfer")`, and the contract
# suite all see it through the same two tables.
from ..transfer.predictor import TransferPredictor  # noqa: E402

PREDICTORS["transfer"] = TransferPredictor
_KINDS[TransferPredictor.KIND] = TransferPredictor
