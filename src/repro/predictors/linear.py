"""Ridge regression: the zoo's linear baseline, closed form in numpy.

Latency over count-style encodings (FCC/FC) is nearly additive, so a
regularised linear model is a surprisingly strong — and essentially free —
surrogate.  Features are z-scored and the target centred inside `fit`, so
``alpha`` means the same thing across devices and encodings; the intercept
is never penalised (it is the centred-target mean).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..utils import NUMBER
from .protocol import PredictorBase, state_array, validate_fit_inputs

__all__ = ["RidgePredictor"]


class RidgePredictor(PredictorBase):
    """Closed-form ridge regression on z-scored features."""

    KIND = "ridge"
    STATE_FIELDS = dict(x_mean=list, x_std=list, coef=list, intercept=NUMBER)

    def __init__(self, alpha: float = 1e-2, seed: int = 0):
        # ``seed`` is accepted for protocol uniformity (the fit is exact
        # and deterministic; nothing stochastic consumes it).
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        self.alpha = alpha
        self.seed = seed
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RidgePredictor":
        X, y = validate_fit_inputs(X, y, self)
        self._x_mean = X.mean(axis=0)
        std = X.std(axis=0)
        self._x_std = np.where(std > 0, std, 1.0)
        Xn = (X - self._x_mean) / self._x_std
        y_mean = float(y.mean())

        d = Xn.shape[1]
        gram = Xn.T @ Xn + self.alpha * np.eye(d)
        self.coef_ = np.linalg.solve(gram, Xn.T @ (y - y_mean))
        self.intercept_ = y_mean
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted()
        Xn = (self._check_predict_input(X) - self._x_mean) / self._x_std
        return Xn @ self.coef_ + self.intercept_

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    @property
    def is_fitted(self) -> bool:
        return self.coef_ is not None

    def _get_state(self) -> dict:
        return {
            "x_mean": self._x_mean.tolist(),
            "x_std": self._x_std.tolist(),
            "coef": self.coef_.tolist(),
            "intercept": self.intercept_,
        }

    def _set_state(self, state: dict) -> None:
        """Restore the fitted arrays, refusing any `fit` cannot write:
        ``coef`` and ``x_std`` as long as ``x_mean``, every ``x_std``
        entry finite and > 0.  The `ValueError` names the field."""
        x_mean = state_array(state["x_mean"], "state.x_mean")
        x_std = state_array(state["x_std"], "state.x_std", x_mean.shape, scale=True)
        self.coef_ = state_array(state["coef"], "state.coef", x_mean.shape)
        self._x_mean, self._x_std = x_mean, x_std
        self.intercept_ = float(state["intercept"])
        self._n_features_in = x_mean.size
