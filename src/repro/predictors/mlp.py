"""The paper's latency predictor: a 3-layer MLP (hidden 64) in pure numpy.

Forward/backward and the Adam optimiser are implemented here because no
torch/sklearn stack is available.  The three weight matrices and three
bias vectors are views into one flat parameter vector (their gradients
likewise into one flat gradient vector), so each optimiser step is a
single elementwise Adam update over every parameter — elementwise, so
bit-identical to updating each array on its own.  Hyperparameters
default to the paper's: MSE loss, Adam with lr 0.01 and weight decay
1e-4.  Inputs are z-scored and targets scaled by their mean inside `fit`,
so the same settings work across devices whose latencies differ by
orders of magnitude.

Optional early stopping (``patience``/``tol``) cuts retraining short once
the epoch loss stops improving — the ESM loop refits the predictor after
every dataset extension, and easy early rounds rarely need the full 300
epochs.  It is off by default so the paper's fixed-epoch training (and
every seeded result downstream of it) is reproduced exactly.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..utils import NUMBER
from .protocol import (
    PREDICTOR_FORMAT_VERSION,
    PredictorBase,
    state_array,
    validate_fit_inputs,
)

__all__ = ["MLPPredictor", "MLP_FORMAT_VERSION"]

# The MLP shares the zoo-wide payload versioning (kept under its old name
# for backward compatibility of imports).
MLP_FORMAT_VERSION = PREDICTOR_FORMAT_VERSION


class MLPPredictor(PredictorBase):
    """Seeded numpy MLP: input -> 64 -> 64 -> 1 with ReLU."""

    KIND = "mlp"
    STATE_FIELDS = dict(
        x_mean=list, x_std=list, y_scale=NUMBER, weights=list, biases=list,
        loss_history=list,
    )

    def __init__(
        self,
        hidden_dim: int = 64,
        lr: float = 0.01,
        weight_decay: float = 1e-4,
        epochs: int = 300,
        batch_size: int = 64,
        seed: int = 0,
        patience: Optional[int] = None,
        tol: float = 0.0,
    ):
        """``patience=None`` (default) trains for exactly ``epochs`` epochs.

        With ``patience=p``, training stops once ``p`` consecutive epochs
        fail to improve the best epoch loss by more than ``tol`` —
        ``loss_history_`` then records only the epochs actually run.
        """
        for field, value in (
            ("hidden_dim", hidden_dim),
            ("epochs", epochs),
            ("batch_size", batch_size),
        ):
            if value < 1:
                raise ValueError(f"{field} must be >= 1, got {value}")
        if not (np.isfinite(lr) and lr > 0):
            raise ValueError(f"lr must be a finite number > 0, got {lr}")
        if not (np.isfinite(weight_decay) and weight_decay >= 0):
            raise ValueError(
                f"weight_decay must be a finite number >= 0, got {weight_decay}"
            )
        if patience is not None and patience < 1:
            raise ValueError("patience must be >= 1 (or None to disable)")
        if tol < 0:
            raise ValueError("tol must be >= 0")
        self.hidden_dim = hidden_dim
        self.lr = lr
        self.weight_decay = weight_decay
        self.epochs = epochs
        self.batch_size = batch_size
        self.seed = seed
        self.patience = patience
        self.tol = tol
        self.loss_history_: List[float] = []
        self._weights: Optional[List[np.ndarray]] = None
        self._biases: Optional[List[np.ndarray]] = None

    # ------------------------------------------------------------------ #

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MLPPredictor":
        X, y = validate_fit_inputs(X, y, self)
        rng = np.random.default_rng(self.seed)

        self._x_mean = X.mean(axis=0)
        std = X.std(axis=0)
        self._x_std = np.where(std > 0, std, 1.0)
        self._y_scale = float(abs(y).mean()) or 1.0

        Xn = (X - self._x_mean) / self._x_std
        t = y / self._y_scale

        sizes = [X.shape[1], self.hidden_dim, self.hidden_dim, 1]
        shapes = [
            shape
            for fan_in, fan_out in zip(sizes[:-1], sizes[1:])
            for shape in ((fan_in, fan_out), (fan_out,))
        ]
        # Weights/biases, and their gradients, are views into flat vectors.
        params = np.zeros(sum(int(np.prod(shape)) for shape in shapes))
        grads = np.zeros_like(params)
        param_views = _views(params, shapes)
        grad_views = _views(grads, shapes)
        self._weights, self._biases = param_views[0::2], param_views[1::2]
        g_ws, g_bs = grad_views[0::2], grad_views[1::2]
        for w in self._weights:
            w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[0]), size=w.shape)

        # Adam state.
        m = np.zeros_like(params)
        v = np.zeros_like(params)
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0

        n = Xn.shape[0]
        batch = min(self.batch_size, n)
        self.loss_history_ = []
        best_loss = np.inf
        stale_epochs = 0
        for _ in range(self.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                xb, tb = Xn[idx], t[idx]

                # Forward.
                acts = [xb]
                pre = []
                h = xb
                for layer, (w, b) in enumerate(zip(self._weights, self._biases)):
                    z = h @ w + b
                    pre.append(z)
                    h = np.maximum(z, 0.0) if layer < len(self._weights) - 1 else z
                    acts.append(h)
                pred = acts[-1][:, 0]
                err = pred - tb
                epoch_loss += float(err @ err)

                # Backward: all gradients from the pre-update weights.
                grad = (2.0 * err / idx.size)[:, None]
                for layer in range(len(self._weights) - 1, -1, -1):
                    w = self._weights[layer]
                    np.matmul(acts[layer].T, grad, out=g_ws[layer])
                    g_ws[layer] += self.weight_decay * w
                    np.sum(grad, axis=0, out=g_bs[layer])
                    if layer > 0:
                        grad = (grad @ w.T) * (pre[layer - 1] > 0)

                # Adam, one elementwise update over every parameter.
                step += 1
                m *= beta1
                m += (1 - beta1) * grads
                v *= beta2
                v += (1 - beta2) * grads * grads
                m_hat = m / (1 - beta1**step)
                v_hat = v / (1 - beta2**step)
                params -= self.lr * m_hat / (np.sqrt(v_hat) + eps)
            epoch_loss /= n
            self.loss_history_.append(epoch_loss)
            if self.patience is not None:
                if epoch_loss < best_loss - self.tol:
                    best_loss = epoch_loss
                    stale_epochs = 0
                else:
                    stale_epochs += 1
                    if stale_epochs >= self.patience:
                        break
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted()
        h = (self._check_predict_input(X) - self._x_mean) / self._x_std
        for layer, (w, b) in enumerate(zip(self._weights, self._biases)):
            h = h @ w + b
            if layer < len(self._weights) - 1:
                h = np.maximum(h, 0.0)
        return h[:, 0] * self._y_scale

    # ------------------------------------------------------------------ #
    # Persistence (the zoo-wide payload; see protocol.PredictorBase)
    # ------------------------------------------------------------------ #

    @property
    def is_fitted(self) -> bool:
        return self._weights is not None

    def _get_state(self) -> dict:
        return {
            "x_mean": self._x_mean.tolist(),
            "x_std": self._x_std.tolist(),
            "y_scale": self._y_scale,
            "weights": [w.tolist() for w in self._weights],
            "biases": [b.tolist() for b in self._biases],
            "loss_history": list(self.loss_history_),
        }

    def _set_state(self, state: dict) -> None:
        """Restore the fitted arrays, refusing any `fit` cannot write.

        Weights and biases must chain ``len(x_mean) -> hidden_dim ->
        hidden_dim -> 1``, and ``y_scale`` and every ``x_std`` entry must be
        finite and positive; otherwise predict would fail in ``matmul`` or
        return NaN.  The `ValueError` names the field (``state.weights.1``).
        """
        x_mean = state_array(state["x_mean"], "state.x_mean")
        x_std = state_array(state["x_std"], "state.x_std", x_mean.shape, scale=True)
        y_scale = float(state["y_scale"])
        if not (np.isfinite(y_scale) and y_scale > 0):
            raise ValueError(f"state.y_scale: {y_scale} is not a finite scale > 0")
        sizes = [x_mean.size, self.hidden_dim, self.hidden_dim, 1]
        layers = list(zip(sizes[:-1], sizes[1:]))
        arrays = {}
        for field, shapes in (
            ("weights", layers),
            ("biases", [(fan_out,) for _, fan_out in layers]),
        ):
            if len(state[field]) != len(shapes):
                raise ValueError(
                    f"state.{field}: expected {len(shapes)} layers, "
                    f"got {len(state[field])}"
                )
            arrays[field] = [
                state_array(a, f"state.{field}.{i}", shape)
                for i, (a, shape) in enumerate(zip(state[field], shapes))
            ]
        self._x_mean, self._x_std, self._y_scale = x_mean, x_std, y_scale
        self._weights, self._biases = arrays["weights"], arrays["biases"]
        self.loss_history_ = state_array(
            state["loss_history"], "state.loss_history"
        ).tolist()


def _views(flat: np.ndarray, shapes) -> List[np.ndarray]:
    """Consecutive reshaped views of ``flat``, one per shape."""
    views, offset = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(flat[offset : offset + size].reshape(shape))
        offset += size
    return views
