"""Direct multi-step linear forecaster and Adam optimizer.

The forecaster applies one shared T x H map plus bias to every channel
(channel-independent, DLinear-style).  Gradients are analytic; Adam follows
the standard bias-corrected update.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError

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


def forward(model: LinearForecaster, x: np.ndarray) -> np.ndarray:
    """Forecast one history matrix: Yhat[:, d] = W @ X[:, d] + bias."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.history_len, model.channels):
        raise ShapeError(
            f"input shape {x.shape} != ({model.history_len}, {model.channels})"
        )
    return model.weight @ x + model.bias[:, None]


def forward_batch(model: LinearForecaster, xs: np.ndarray) -> np.ndarray:
    """Vectorized forward over a (N, H, D) stack; returns (N, T, D)."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 3 or xs.shape[1:] != (model.history_len, model.channels):
        raise ShapeError(
            f"batch shape {xs.shape} incompatible with ({model.history_len}, {model.channels})"
        )
    return np.matmul(model.weight, xs) + model.bias[None, :, None]


def backward(model: LinearForecaster, x: np.ndarray, grad_out: np.ndarray):
    """Parameter gradients for one sample given d loss / d forecast."""
    x = np.asarray(x, dtype=float)
    grad_out = np.asarray(grad_out, dtype=float)
    if grad_out.shape != (model.horizon, model.channels):
        raise ShapeError(
            f"grad_out shape {grad_out.shape} != ({model.horizon}, {model.channels})"
        )
    grad_w = grad_out @ x.T
    grad_b = grad_out.sum(axis=1)
    return grad_w, grad_b


def backward_batch(model: LinearForecaster, xs: np.ndarray, grad_outs: np.ndarray):
    """Summed parameter gradients over a batch of samples."""
    xs = np.asarray(xs, dtype=float)
    grad_outs = np.asarray(grad_outs, dtype=float)
    if xs.shape[0] != grad_outs.shape[0]:
        raise ShapeError("batch sizes differ between inputs and output gradients")
    grad_w = np.tensordot(grad_outs, xs, axes=([0, 2], [0, 2]))
    grad_b = grad_outs.sum(axis=(0, 2))
    return grad_w, grad_b


@dataclass
class AdamState:
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
    state = AdamState(lr=lr)
    state.m = {k: np.zeros_like(p) for k, p in params.items()}
    state.v = {k: np.zeros_like(p) for k, p in params.items()}
    return state


def adam_step(state: AdamState, params: dict, grads: dict) -> dict:
    """One bias-corrected Adam update; mutates state, returns new params."""
    state.t += 1
    out = {}
    for k, p in params.items():
        g = np.asarray(grads[k], dtype=float)
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        state.m[k] = state.beta1 * state.m[k] + (1.0 - state.beta1) * g
        state.v[k] = state.beta2 * state.v[k] + (1.0 - state.beta2) * g * g
        m_hat = state.m[k] / (1.0 - state.beta1**state.t)
        v_hat = state.v[k] / (1.0 - state.beta2**state.t)
        out[k] = p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return out


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
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {payload.get('version')}")
    return LinearForecaster(
        weight=np.array(payload["weight"], dtype=float),
        bias=np.array(payload["bias"], dtype=float),
        history_len=int(payload["H"]),
        horizon=int(payload["T"]),
        channels=int(payload["D"]),
    )
