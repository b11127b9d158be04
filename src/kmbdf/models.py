"""Direct multi-step linear forecaster and Adam optimizer.

The forecaster applies one shared T x H map plus bias to every channel
(channel-independent, DLinear-style).  Gradients are analytic; Adam follows
the standard bias-corrected update.  The parameters (`weight` row by row,
then `bias`), their batch gradient `grad` and Adam's two moments are each one
float64 `ParamVector` of that layout, which a training step updates in place.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .kernels import as_stack

CHECKPOINT_VERSION = 1
# Adam's moment decay rates and the denominator's guard.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class ParamVector(dict):
    """Named views of one float64 vector `flat`, laid out in the key order
    of `shapes` ({name: shape}), holding a copy of `values` if given (else
    zeros).  The views are never rebound."""

    def __init__(self, shapes: dict, values=None):
        self.shapes, self.flat = shapes, np.zeros(sum(math.prod(s) for s in shapes.values()))
        lo = 0
        for k, s in shapes.items():
            self[k] = self.flat[lo : lo + math.prod(s)].reshape(s)
            lo += self[k].size
            if values is not None:
                self[k][...] = values[k]


@dataclass
class LinearForecaster:
    weight: np.ndarray  # (T, H), shared across channels
    bias: np.ndarray  # (T,)
    history_len: int
    horizon: int
    channels: int

    def __post_init__(self):
        shapes = {"weight": (self.horizon, self.history_len), "bias": (self.horizon,)}
        self._params, self.grad = ParamVector(shapes), ParamVector(shapes)
        self.set_params({"weight": self.weight, "bias": self.bias})
        self.weight, self.bias = self._params.values()
        if not np.isfinite(self._params.flat).all():
            raise ConfigError("model parameters must be finite")

    def __reduce__(self):  # a copy or unpickled model rebuilds its vector and views
        return type(self), (self.weight, self.bias, self.history_len, self.horizon, self.channels)

    def params(self) -> ParamVector:
        return self._params

    def set_params(self, params: dict[str, np.ndarray]) -> None:
        """Copy `params` into the model's vector, never aliasing them; a
        misshaped entry raises ShapeError before anything is copied."""
        for k, own in self._params.items():
            if np.shape(params[k]) != own.shape:
                raise ShapeError(f"{k} shape {np.shape(params[k])} != {own.shape}")
        for k, own in self._params.items():
            own[...] = params[k]


def init_forecaster(history_len: int, horizon: int, channels: int, seed: int = 0) -> LinearForecaster:
    """Fan-in uniform init for the weight, zero bias, seeded."""
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(history_len)
    weight = rng.uniform(-bound, bound, size=(horizon, history_len))
    return LinearForecaster(
        weight=weight,
        bias=np.zeros(horizon),
        history_len=history_len,
        horizon=horizon,
        channels=channels,
    )


def forward_batch(model: LinearForecaster, xs) -> np.ndarray:
    """Forecast a (N, H, D) batch: Yhat_n[:, d] = W @ X_n[:, d] + bias; returns (N, T, D)."""
    xs = as_stack(xs)
    if xs.ndim != 3 or xs.shape[1:] != (model.history_len, model.channels):
        raise ShapeError(
            f"batch shape {xs.shape} incompatible with ({model.history_len}, {model.channels})"
        )
    out = np.matmul(model.weight, xs)
    out += model.bias[:, None]
    return out


def backward_batch(model: LinearForecaster, xs, grad_outs):
    """Parameter gradients summed over a batch, given d loss / d forecast as
    a (N, T, D) batch: one product over the (sample, channel) pairs, written
    into `model.grad`, whose (weight, bias) views it returns."""
    xs, grad_outs = as_stack(xs), as_stack(grad_outs)
    h, t = model.history_len, model.horizon
    if xs.ndim != 3 or xs.shape[1] != h or grad_outs.shape != (len(xs), t, xs.shape[2]):
        raise ShapeError(f"input batch {xs.shape} and output gradients "
                         f"{grad_outs.shape} do not fit ({h}, D) and ({t}, D)")
    g = grad_outs.transpose(1, 0, 2).reshape(t, -1)
    x = xs.transpose(0, 2, 1).reshape(-1, h)
    gw, gb = model.grad.values()
    return np.matmul(g, x, out=gw), np.add.reduce(grad_outs, axis=(0, 2), out=gb)


@dataclass
class AdamState:
    """Adam moments as two vectors: m[k] and v[k] have params[k]'s shape."""

    lr: float
    t: int = 0
    m: ParamVector = field(default_factory=lambda: ParamVector({}))
    v: ParamVector = field(default_factory=lambda: ParamVector({}))
    work: np.ndarray = field(init=False, repr=False)  # the update's two temporaries

    def __post_init__(self):
        self.work = np.empty((2, self.m.flat.size))


def adam_init(params: dict[str, np.ndarray], lr: float) -> AdamState:
    if not 0 < lr < np.inf:
        raise ConfigError(f"lr must be > 0 and finite, got {lr}")
    shapes = {k: np.shape(p) for k, p in params.items()}
    return AdamState(lr=lr, m=ParamVector(shapes), v=ParamVector(shapes))


def adam_step(state: AdamState, params: dict, grads: dict) -> dict:
    """One bias-corrected Adam update of whole vectors; mutates state.  Given
    `ParamVector`s of the moments' layout (a model's `params()` and `grad`),
    it updates `params` in place and returns it; any other dicts are copied
    into new vectors after a shape check (ShapeError before the state moves)
    and answered with new arrays, by the same arithmetic."""
    shapes = state.m.shapes
    if not (isinstance(params, ParamVector) and isinstance(grads, ParamVector)
            and params.shapes == grads.shapes == shapes):
        for k, m in state.m.items():
            if not np.shape(params[k]) == np.shape(grads[k]) == m.shape:
                raise ShapeError(f"{k!r}: parameter {np.shape(params[k])}, gradient "
                                 f"{np.shape(grads[k])}, moments {m.shape}")
        params, grads = ParamVector(shapes, params), ParamVector(shapes, grads)
    state.t += 1
    (p, g, m, v), (a, b) = (params.flat, grads.flat, state.m.flat, state.v.flat), state.work
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(g, 1.0 - ADAM_BETA2, out=a), g, out=a)
    np.divide(m, 1.0 - ADAM_BETA1**state.t, out=b)  # m_hat
    np.divide(v, 1.0 - ADAM_BETA2**state.t, out=a)  # v_hat
    b *= state.lr
    p -= np.divide(b, np.add(np.sqrt(a, out=a), ADAM_EPS, out=a), out=b)
    return params


def save_forecaster(model: LinearForecaster, path) -> None:
    payload = {
        "version": CHECKPOINT_VERSION,
        "H": model.history_len,
        "T": model.horizon,
        "D": model.channels,
        "weight": model.weight.tolist(),
        "bias": model.bias.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_forecaster(path) -> LinearForecaster:
    """The forecaster `save_forecaster` wrote to `path`; a file that holds
    no such checkpoint raises DataError naming `path`."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # malformed JSON or not UTF-8
            raise DataError(f"{path}: not a JSON checkpoint: {exc}") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path}: checkpoint must be a JSON object, got {type(payload).__name__}")
    if type(payload.get("version")) is not int or payload["version"] != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {payload.get('version')!r}")
    dims = [payload.get(k) for k in ("H", "T", "D")]
    if any(type(v) is not int for v in dims):
        raise DataError(f"{path}: H, T and D must be integers, got {dims}")
    try:
        # A misshaped or non-finite parameter raises a ValueError subclass.
        return LinearForecaster(payload["weight"], payload["bias"], *dims)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed checkpoint: {exc!r}") from None
