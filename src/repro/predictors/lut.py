"""Additive lookup-table surrogate, with optional linear bias correction.

The LUT models latency as a sum of per-(unit, kernel, expand) block costs:
fit by least squares on count features (the FCC encoding is exactly the
right design matrix — its counts sum to the blocks per unit).  A raw LUT
has no intercept and no way to express the simulator's global terms
(kernel-launch overhead, cache pressure), the failure mode the paper
reports; the *bias-corrected* variant refits a linear map on top of the
LUT prediction and the total block count, recovering much of that error.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .protocol import PredictorBase, validate_fit_inputs

__all__ = ["LookupTableSurrogate"]


class LookupTableSurrogate(PredictorBase):
    """Least-squares additive table over count features (e.g. FCC vectors)."""

    KIND = "lut"
    STATE_FIELDS = {"table": list, "bias_coef": (list, type(None))}

    def __init__(self, bias_correction: bool = False):
        self.bias_correction = bias_correction
        self.table_: Optional[np.ndarray] = None
        self.bias_coef_: Optional[np.ndarray] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LookupTableSurrogate":
        X, y = validate_fit_inputs(X, y, self)
        self.table_, *_ = np.linalg.lstsq(X, y, rcond=None)
        if self.bias_correction:
            raw = X @ self.table_
            Z = np.stack([raw, X.sum(axis=1), np.ones(len(y))], axis=1)
            self.bias_coef_, *_ = np.linalg.lstsq(Z, y, rcond=None)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted()
        X = self._check_predict_input(X)
        raw = X @ self.table_
        if not self.bias_correction:
            return raw
        Z = np.stack([raw, X.sum(axis=1), np.ones(X.shape[0])], axis=1)
        return Z @ self.bias_coef_

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    @property
    def is_fitted(self) -> bool:
        return self.table_ is not None

    def _get_state(self) -> dict:
        return {
            "table": self.table_.tolist(),
            "bias_coef": (
                None if self.bias_coef_ is None else self.bias_coef_.tolist()
            ),
        }

    def _set_state(self, state: dict) -> None:
        self.table_ = np.asarray(state["table"], dtype=float)
        bias = state["bias_coef"]
        self.bias_coef_ = None if bias is None else np.asarray(bias, dtype=float)
