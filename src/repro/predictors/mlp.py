"""The paper's latency predictor: a 3-layer MLP (hidden 64) in pure numpy.

Forward/backward and the Adam optimiser are implemented here because no
torch/sklearn stack is available.  Hyperparameters default to the
paper's: MSE loss, Adam with lr 0.01 and weight decay 1e-4.  Inputs are
z-scored and targets scaled by their mean inside `fit`, so the same
settings work across devices whose latencies differ by orders of
magnitude.

The step kernel.  The ESM loop refits this predictor after every dataset
extension, so `fit`'s inner loop is the hot path of the default
workflow.  Each step does the IEEE operations of the textbook
formulation in the same order, just with fewer numpy calls: each epoch
gathers its shuffled rows once and slices every batch from them; the
forward and backward passes write into preallocated buffers (``out=``);
the weights, then the biases, are views into one flat parameter vector
(gradients likewise), so weight decay is one slice op and Adam one
elementwise pass over two scratch vectors.  Two rewrites are exact rather
than reordered: the last layer's ``grad @ w.T`` has an inner dimension of
1, so the broadcast product rounds each element once exactly as that gemm
does; and once ``1 - beta1**t`` rounds to 1.0 (t >= ~355) the
first-moment correction is skipped, because x / 1.0 == x.

What must stay frozen, since BLAS results depend on it: every ``matmul``
keeps its operand layouts (OpenBLAS rounds ``A @ B.T`` and
``A @ ascontiguousarray(B.T)`` differently), bias gradients stay the
``axis=0`` sum reduction (``np.add.reduce``, which `np.sum` calls) rather
than a product with ones, divisions stay true divisions rather than
reciprocal multiplies, and the ReLU derivative stays a multiply by the
bool mask (``np.where`` would change zero signs and NaN propagation).
``tests/test_predictor_bitlock.py`` locks the payload bytes, edge paths
included.

Optional early stopping (``patience``/``tol``) cuts retraining short once
the epoch loss stops improving — easy early ESM rounds rarely need the
full 300 epochs.  It is off by default so the paper's fixed-epoch
training (and every seeded result downstream of it) is reproduced
exactly.
"""

from __future__ import annotations

import numbers
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
            ("patience", patience),
        ):
            if value is None and field == "patience":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{field} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{field} must be >= 1, got {value}")
        if not (np.isfinite(lr) and lr > 0):
            raise ValueError(f"lr must be a finite number > 0, got {lr}")
        if not (np.isfinite(weight_decay) and weight_decay >= 0):
            raise ValueError(
                f"weight_decay must be a finite number >= 0, got {weight_decay}"
            )
        if not (np.isfinite(tol) and tol >= 0):
            raise ValueError(f"tol must be a finite number >= 0, got {tol}")
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
        w_shapes = list(zip(sizes[:-1], sizes[1:]))
        b_shapes = [(fan_out,) for fan_out in sizes[1:]]
        # Every weight, then every bias, as views into one flat vector
        # (gradients likewise): weight decay is one slice op, Adam one
        # elementwise pass.
        n_weights = sum(fan_in * fan_out for fan_in, fan_out in w_shapes)
        params = np.zeros(n_weights + sum(sizes[1:]))
        grads = np.zeros_like(params)
        self._weights = _views(params, w_shapes)
        self._biases = _views(params[n_weights:], b_shapes)
        for w in self._weights:
            w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[0]), size=w.shape)
        w0, w1, w2 = self._weights
        b0, b1, b2 = self._biases
        gw0, gw1, gw2 = _views(grads, w_shapes)
        gb0, gb1, gb2 = _views(grads[n_weights:], b_shapes)
        w1_t, w2_t = w1.T, w2.T

        # Adam state, and two scratch vectors for its update.
        m = np.zeros_like(params)
        v = np.zeros_like(params)
        scratch, denom = np.empty_like(params), np.empty_like(params)
        w_params, w_grads, decay = (a[:n_weights] for a in (params, grads, scratch))
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        lr, weight_decay = self.lr, self.weight_decay
        step = 0

        # Each epoch gathers its shuffled rows into xs/ts once; every batch
        # is a contiguous slice of them, with buffers for its length (the
        # full batch, and a ragged last one).
        n = Xn.shape[0]
        batch = min(self.batch_size, n)
        xs, ts = np.empty_like(Xn), np.empty_like(t)
        buffers, batches = {}, []
        for start in range(0, n, batch):
            rows = min(batch, n - start)
            if rows not in buffers:
                buffers[rows] = _StepBuffers(rows, self.hidden_dim)
            span = slice(start, start + rows)
            batches.append((xs[span], xs[span].T, ts[span], buffers[rows]))
        self.loss_history_ = []
        best_loss = np.inf
        stale_epochs = 0
        for _ in range(self.epochs):
            order = rng.permutation(n)
            np.take(Xn, order, axis=0, out=xs)
            np.take(t, order, out=ts)
            epoch_loss = 0.0
            for xb, xb_t, tb, buf in batches:
                # Forward; each ReLU runs in place once its mask is taken.
                h0, h1, out, err, g2 = buf.h0, buf.h1, buf.out, buf.err, buf.g2
                np.matmul(xb, w0, out=h0)
                h0 += b0
                np.greater(h0, 0, out=buf.mask0)
                np.maximum(h0, 0.0, out=h0)
                np.matmul(h0, w1, out=h1)
                h1 += b1
                np.greater(h1, 0, out=buf.mask1)
                np.maximum(h1, 0.0, out=h1)
                np.matmul(h1, w2, out=out)
                out += b2
                np.subtract(buf.pred, tb, out=err)
                epoch_loss += float(err @ err)

                # Backward: all gradients from the pre-update weights.  The
                # last layer's ``grad @ w2.T`` has k = 1, so the broadcast
                # product rounds each element once, exactly as that gemm.
                np.multiply(err, 2.0, out=g2)
                g2 /= buf.rows
                grad = buf.grad2
                np.matmul(buf.h1_t, grad, out=gw2)
                np.add.reduce(grad, axis=0, out=gb2)
                grad = np.multiply(grad, w2_t, out=buf.grad1)
                grad *= buf.mask1
                np.matmul(buf.h0_t, grad, out=gw1)
                np.add.reduce(grad, axis=0, out=gb1)
                grad = np.matmul(grad, w1_t, out=buf.grad0)
                grad *= buf.mask0
                np.matmul(xb_t, grad, out=gw0)
                np.add.reduce(grad, axis=0, out=gb0)
                np.multiply(w_params, weight_decay, out=decay)
                w_grads += decay

                # Adam, one elementwise update over every parameter.
                step += 1
                m *= beta1
                np.multiply(grads, 1 - beta1, out=scratch)
                m += scratch
                v *= beta2
                np.multiply(grads, 1 - beta2, out=scratch)
                scratch *= grads
                v += scratch
                # x / 1.0 == x: past ~355 steps the first correction is 1.0.
                correction = 1 - beta1**step
                if correction == 1.0:
                    np.multiply(m, lr, out=scratch)
                else:
                    np.divide(m, correction, out=scratch)
                    scratch *= lr
                np.divide(v, 1 - beta2**step, out=denom)
                np.sqrt(denom, out=denom)
                denom += eps
                scratch /= denom
                params -= scratch
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
        self._n_features_in = x_mean.size
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


class _StepBuffers:
    """The forward/backward buffers of one batch length, for `fit`.

    Each is freshly allocated at its batch's shape, so every ``matmul``
    sees the operand layout a per-step temporary would have had.
    """

    def __init__(self, rows: int, hidden: int):
        self.rows = rows
        self.h0 = np.empty((rows, hidden))
        self.h1 = np.empty((rows, hidden))
        self.out = np.empty((rows, 1))
        self.mask0 = np.empty((rows, hidden), dtype=bool)
        self.mask1 = np.empty((rows, hidden), dtype=bool)
        self.err = np.empty(rows)
        self.g2 = np.empty(rows)
        self.grad1 = np.empty((rows, hidden))
        self.grad0 = np.empty((rows, hidden))
        self.h0_t, self.h1_t = self.h0.T, self.h1.T
        self.pred = self.out[:, 0]
        self.grad2 = self.g2[:, None]
