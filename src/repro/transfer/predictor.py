"""`TransferPredictor`: a proxy-device surrogate behind a monotone map.

The transfer recipe from "One Proxy Device Is Enough" (PAPERS.md): train
one good surrogate on a *proxy* device where measurements are cheap, then
adapt it to each *target* device with a `MonotoneLatencyMap` learned from
a small paired sample set — tens of target measurements instead of the
hundreds a from-scratch surrogate needs.

`TransferPredictor` is a full zoo member (registry name ``"transfer"``):
it satisfies the runtime-checkable `Predictor` protocol, passes the
parametrized contract suite, persists through ``save``/`load_predictor`
(the proxy model's payload nests inside its state, like the adaptive
switcher's winner), and drops into `ESMLoop`, `PredictorOracle`, and
`repro.serve` unchanged.  Two modes:

* **frozen-proxy** (``proxy_payload`` given, or `from_proxy`): the proxy
  surrogate is reconstructed once and never refitted.  ``fit(X, y)``
  only (re)learns the monotone map from the paired sample ``(proxy
  predictions of X, target latencies y)`` — which is why the ESM loop's
  ``transfer_from`` warm start spends its whole measurement budget on
  target-device pairs.
* **self-calibration** (no proxy): ``fit(X, y)`` first fits the ``base``
  zoo member on the data itself, then calibrates it with the map.  This
  keeps the predictor well-defined standalone (and isotonic calibration
  is a respectable surrogate in its own right).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from ..predictors.protocol import PredictorBase, validate_fit_inputs
from .monotone import MonotoneLatencyMap

__all__ = ["TransferPredictor"]


class TransferPredictor(PredictorBase):
    """Proxy-device zoo member composed with a learned monotone map."""

    KIND = "transfer"
    STATE_FIELDS = {"proxy_model": dict, "map": dict}

    def __init__(
        self,
        proxy_payload: Optional[Dict[str, Any]] = None,
        base: str = "ridge",
        base_params: Optional[Dict[str, Any]] = None,
        seed: int = 0,
    ):
        """``proxy_payload`` is a fitted zoo member's ``to_payload()`` dict
        (JSON-serialisable, so it survives `get_params` round trips); when
        ``None``, ``base``/``base_params`` name the zoo member that
        ``fit`` trains from scratch before calibrating it.  ``seed`` feeds
        the self-calibration base the usual way; the frozen-proxy path is
        deterministic by construction."""
        from ..predictors import PREDICTORS, predictor_from_payload

        if base not in PREDICTORS:
            raise ValueError(
                f"unknown base predictor {base!r}; "
                f"available: {', '.join(PREDICTORS)}"
            )
        if base == self.KIND:
            raise ValueError("a transfer predictor cannot use itself as base")
        self.proxy_payload = proxy_payload
        self.base = base
        self.base_params = dict(base_params or {})
        self.seed = seed
        # The frozen proxy model, reconstructed once from its payload.
        self._frozen_proxy: Optional[PredictorBase] = (
            None
            if proxy_payload is None
            else predictor_from_payload(proxy_payload)
        )
        # What predict() delegates to: the frozen proxy, or the base
        # member the last self-calibration fit trained.
        self._proxy_model: Optional[PredictorBase] = self._frozen_proxy
        self._map: Optional[MonotoneLatencyMap] = None

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #

    def _spawn_base(self) -> PredictorBase:
        from ..predictors import get_predictor

        params = dict(self.base_params)
        member = get_predictor(self.base, **params)
        if hasattr(member, "seed") and "seed" not in params:
            member.seed = self.seed
        return member

    def fit(self, X: np.ndarray, y: np.ndarray) -> "TransferPredictor":
        """Learn (only) the monotone map from paired target samples.

        ``X`` encodes target-measured architectures, ``y`` their measured
        target-device latencies.  With a frozen proxy the proxy model is
        untouched; without one, the base member is fitted on ``(X, y)``
        first and then calibrated against its own training targets.
        """
        X, y = validate_fit_inputs(X, y, self)
        if X.shape[0] < 2:
            raise ValueError(
                "transfer fit needs at least 2 paired samples for the "
                f"monotone map, got {X.shape[0]}"
            )
        if self._frozen_proxy is None:
            self._proxy_model = self._spawn_base().fit(X, y)
        proxy_pred = np.asarray(
            self._proxy_model.predict(X), dtype=float
        ).reshape(-1)
        self._map = MonotoneLatencyMap().fit(proxy_pred, y)
        return self

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted()
        X = self._check_predict_input(X)
        proxy_pred = np.asarray(
            self._proxy_model.predict(X), dtype=float
        ).reshape(-1)
        return self._map.apply(proxy_pred)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def is_fitted(self) -> bool:
        return self._map is not None and self._proxy_model is not None

    @property
    def map_(self) -> MonotoneLatencyMap:
        """The fitted monotone latency map."""
        self._require_fitted("inspect the map")
        return self._map

    @property
    def proxy_model(self) -> PredictorBase:
        """The proxy-side model predictions flow through before the map."""
        if self._proxy_model is None:
            raise RuntimeError(
                "predictor has no proxy model yet (self-calibration mode "
                "before fit)"
            )
        return self._proxy_model

    @property
    def proxy_kind(self) -> str:
        """Registry kind of the proxy-side model (``base`` before fit)."""
        if self._proxy_model is None:
            return self.base
        return type(self._proxy_model).KIND

    @property
    def is_frozen_proxy(self) -> bool:
        """True when fit only refits the map, never the proxy model."""
        return self._frozen_proxy is not None

    @classmethod
    def from_proxy(cls, predictor, **kwargs) -> "TransferPredictor":
        """Wrap an already-fitted zoo member as the frozen proxy model.

        ``predictor`` is any `PredictorBase` with persistence (its
        ``to_payload()`` becomes this predictor's ``proxy_payload``, so
        the wrapper serialises exactly like one built from the payload).
        """
        return cls(proxy_payload=predictor.to_payload(), **kwargs)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def _get_state(self) -> dict:
        return {
            "proxy_model": self._proxy_model.to_payload(),
            "map": self._map.to_dict(),
        }

    def _set_state(self, state: dict) -> None:
        from ..predictors import predictor_from_payload

        self._proxy_model = predictor_from_payload(state["proxy_model"])
        self._n_features_in = self._proxy_model.n_features_in_
        if self.proxy_payload is not None:
            self._frozen_proxy = self._proxy_model
        self._map = MonotoneLatencyMap.from_dict(state["map"], "state.map")
