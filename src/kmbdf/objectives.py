"""Baseline training objectives sharing one loss/gradient contract.

Every objective's `loss_and_grad(histories, labels, forecasts)` returns the
scalar loss, its analytic gradient with respect to the forecasts as one
(N, T, D) array, and diagnostics (None outside kmb_df).  Batches are stacked
arrays or lists of same-shaped per-sample arrays.
`mse` ignores the histories; `freq_l1` mixes an L1 penalty on DFT
coefficients of the forecast error with the MSE; `kmb_df` delegates to the
balancing module.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .balancing import BalanceConfig, kmb_df_loss_and_grad
from .errors import ConfigError, Node, ShapeError
from .kernels import as_stack


def _as_pair(labels, forecasts):
    y, f = as_stack(labels), as_stack(forecasts)
    if y.shape != f.shape:
        raise ShapeError(f"label/forecast shapes differ: {y.shape} vs {f.shape}")
    return y, f


def mse_loss(labels, forecasts) -> float:
    """Sum over the batch of squared Frobenius norms of the forecast error."""
    y, f = _as_pair(labels, forecasts)
    err = f - y
    return float(np.sum(err * err))


def mse_grad(labels, forecasts) -> np.ndarray:
    y, f = _as_pair(labels, forecasts)
    return 2.0 * (f - y)


def _dft_matrices(t: int) -> tuple[np.ndarray, np.ndarray]:
    # Direct O(T^2) DFT along the time axis; T stays small at desk scale.
    idx = np.arange(t)
    ang = -2.0 * np.pi * np.outer(idx, idx) / t
    return np.cos(ang), np.sin(ang)


def frequency_l1_loss(labels, forecasts, beta: float = 0.5) -> float:
    """beta * L1 distance of per-channel DFT coefficients + (1-beta) * MSE."""
    if not 0.0 <= beta <= 1.0:
        raise ConfigError(f"beta must be in [0, 1], got {beta}")
    y, f = _as_pair(labels, forecasts)
    fr, fi = _dft_matrices(y.shape[1])
    d = y - f
    freq_term = float(np.sum(np.abs(fr @ d)) + np.sum(np.abs(fi @ d)))
    return beta * freq_term + (1.0 - beta) * mse_loss(y, f)


def frequency_l1_grad(labels, forecasts, beta: float = 0.5) -> np.ndarray:
    """Subgradient of frequency_l1_loss w.r.t. each forecast; sign(0) := 0."""
    if not 0.0 <= beta <= 1.0:
        raise ConfigError(f"beta must be in [0, 1], got {beta}")
    y, f = _as_pair(labels, forecasts)
    fr, fi = _dft_matrices(y.shape[1])
    d = y - f
    # d/d yhat |F (y - yhat)| = -F^T sign(F (y - yhat)), per part.
    gf = -(fr.T @ np.sign(fr @ d) + fi.T @ np.sign(fi @ d))
    return beta * gf + (1.0 - beta) * 2.0 * (f - y)


@dataclass(frozen=True)
class MseObjective(Node):
    kind: ClassVar[str] = "mse"

    def loss_and_grad(self, histories, labels, forecasts):
        return mse_loss(labels, forecasts), mse_grad(labels, forecasts), None


@dataclass(frozen=True)
class FrequencyL1Objective(Node):
    kind: ClassVar[str] = "freq_l1"
    beta: float = 0.5

    def _check(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must be in [0, 1], got {self.beta}")

    def loss_and_grad(self, histories, labels, forecasts):
        return (
            frequency_l1_loss(labels, forecasts, self.beta),
            frequency_l1_grad(labels, forecasts, self.beta),
            None,
        )


@dataclass(frozen=True)
class KmbDfObjective(Node):
    kind: ClassVar[str] = "kmb_df"
    # In the dict form its keys sit beside `kind`.
    config: BalanceConfig = field(metadata={"flatten": True})

    def loss_and_grad(self, histories, labels, forecasts):
        # Trailing partial batches may be smaller than top_k; clamp rather
        # than reject so the final windows still contribute.
        cfg = self.config
        if cfg.top_k > len(histories):
            cfg = replace(cfg, top_k=len(histories))
        return kmb_df_loss_and_grad(cfg, histories, labels, forecasts)


def make_objective(kind: str, **params):
    """Factory keyed by the config value of `objective.kind`."""
    if kind == "mse":
        return MseObjective()
    if kind == "freq_l1":
        return FrequencyL1Objective(beta=params.get("beta", 0.5))
    if kind == "kmb_df":
        return KmbDfObjective(config=params.get("balance"))
    raise ConfigError(f"unknown objective kind {kind!r}")
