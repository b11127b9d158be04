"""Direct multi-step linear forecaster and Adam optimizer.

The forecaster applies one shared T x H map plus bias to every channel
(channel-independent, DLinear-style).  Gradients are analytic; Adam follows
the standard bias-corrected update, with its moments kept per parameter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ShapeError

CHECKPOINT_VERSION = 1


@dataclass
class LinearForecaster:
    weight: np.ndarray  # (T, H), shared across channels
    bias: np.ndarray  # (T,)
    history_len: int
    horizon: int
    channels: int

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weight.shape != (self.horizon, self.history_len):
            raise ShapeError(
                f"weight shape {self.weight.shape} != ({self.horizon}, {self.history_len})"
            )
        if self.bias.shape != (self.horizon,):
            raise ShapeError(f"bias shape {self.bias.shape} != ({self.horizon},)")
        if not (np.isfinite(self.weight).all() and np.isfinite(self.bias).all()):
            raise ConfigError("model parameters must be finite")

    def params(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    def set_params(self, params: dict[str, np.ndarray]) -> None:
        self.weight = np.asarray(params["weight"], dtype=float)
        self.bias = np.asarray(params["bias"], dtype=float)


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


def forward_batch(model: LinearForecaster, xs: np.ndarray) -> np.ndarray:
    """Forecast a (N, H, D) stack: Yhat_n[:, d] = W @ X_n[:, d] + bias; returns (N, T, D)."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 3 or xs.shape[1:] != (model.history_len, model.channels):
        raise ShapeError(
            f"batch shape {xs.shape} incompatible with ({model.history_len}, {model.channels})"
        )
    out = np.matmul(model.weight, xs)
    out += model.bias[:, None]
    return out


def backward_batch(model: LinearForecaster, xs: np.ndarray, grad_outs: np.ndarray):
    """Parameter gradients summed over a batch, given d loss / d forecast as
    a (N, T, D) stack: one product over the (sample, channel) pairs."""
    xs = np.asarray(xs, dtype=float)
    grad_outs = np.asarray(grad_outs, dtype=float)
    if xs.ndim != 3 or grad_outs.ndim != 3 or xs.shape[::2] != grad_outs.shape[::2]:
        raise ShapeError(
            f"input batch {xs.shape} and output gradients {grad_outs.shape} differ "
            "in batch size or channels"
        )
    g = grad_outs.transpose(1, 0, 2).reshape(grad_outs.shape[1], -1)
    x = xs.transpose(0, 2, 1).reshape(-1, xs.shape[1])
    return g @ x, grad_outs.sum(axis=(0, 2))


@dataclass
class AdamState:
    """Adam moments, kept per parameter: m[k] and v[k] have params[k]'s shape."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_init(params: dict[str, np.ndarray], lr: float) -> AdamState:
    if lr <= 0:
        raise ConfigError(f"lr must be > 0, got {lr}")
    m = {k: np.zeros(np.shape(p)) for k, p in params.items()}
    return AdamState(lr=lr, m=m, v={k: np.zeros_like(z) for k, z in m.items()})


def adam_step(state: AdamState, params: dict, grads: dict) -> dict:
    """One bias-corrected Adam update; mutates state, returns new params as
    new arrays.  A misshaped parameter or gradient raises ShapeError first."""
    for k, m in state.m.items():
        if not np.shape(params[k]) == np.shape(grads[k]) == m.shape:
            raise ShapeError(f"{k!r}: parameter {np.shape(params[k])}, gradient "
                             f"{np.shape(grads[k])}, moments {m.shape}")
    state.t += 1
    new = {}
    for k, m in state.m.items():
        v, g = state.v[k], np.asarray(grads[k], dtype=float)
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1**state.t)
        v_hat = v / (1.0 - state.beta2**state.t)
        new[k] = params[k] - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return new


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
