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

import functools
from dataclasses import dataclass, field, replace
from operator import length_hint
from typing import ClassVar

import numpy as np

from . import balancing
from .balancing import BalanceConfig, label_forecast_stacks
from .errors import ConfigError, Node


@functools.lru_cache(maxsize=1)
def _dft_matrices(t: int) -> tuple[np.ndarray, np.ndarray]:
    # Direct O(T^2) DFT along the time axis; a run keeps one T, so one pair.
    idx = np.arange(t)
    ang = -2.0 * np.pi * np.outer(idx, idx) / t
    fr, fi = np.cos(ang), np.sin(ang)
    fr.flags.writeable = fi.flags.writeable = False
    return fr, fi


@dataclass(frozen=True)
class MseObjective(Node):
    kind: ClassVar[str] = "mse"

    def loss_and_grad(self, histories, labels, forecasts):
        """Sum over the batch of squared Frobenius norms of the forecast
        error, and its gradient."""
        y, f = label_forecast_stacks(labels, forecasts)
        err = f - y
        return float(np.sum(err * err)), 2.0 * err, None


@dataclass(frozen=True)
class FrequencyL1Objective(Node):
    kind: ClassVar[str] = "freq_l1"
    beta: float = 0.5

    def _check(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must be in [0, 1], got {self.beta}")

    def loss_and_grad(self, histories, labels, forecasts):
        """beta * L1 norm of the per-channel DFT coefficients of the
        forecast error + (1 - beta) * MSE, and its subgradient; sign(0) := 0."""
        y, f = label_forecast_stacks(labels, forecasts)
        fr, fi = _dft_matrices(y.shape[1])
        d = y - f
        coef_r, coef_i = fr @ d, fi @ d
        beta = self.beta
        loss = beta * float(np.sum(np.abs(coef_r)) + np.sum(np.abs(coef_i)))
        loss += (1.0 - beta) * float(np.sum(d * d))
        # d/d yhat |F (y - yhat)| = -F^T sign(F (y - yhat)), per part.
        gf = -(fr.T @ np.sign(coef_r) + fi.T @ np.sign(coef_i))
        return loss, beta * gf + (1.0 - beta) * 2.0 * (f - y), None


@dataclass(frozen=True)
class KmbDfObjective(Node):
    kind: ClassVar[str] = "kmb_df"
    # In the dict form its keys sit beside `kind`.
    config: BalanceConfig = field(metadata={"flatten": True})

    def loss_and_grad(self, histories, labels, forecasts):
        # Trailing partial batches may be smaller than top_k; clamp rather
        # than reject so the final windows still contribute.  An empty or
        # scalar batch (no length) is left to raise ShapeError.
        cfg = self.config
        if cfg.top_k > length_hint(histories) > 0:
            cfg = replace(cfg, top_k=len(histories))
        # Through the module, so that a patched `kmb_df_grad` is the one called.
        grads, diag = balancing.kmb_df_grad(cfg, histories, labels, forecasts)
        return diag.total, grads, diag


def make_objective(kind: str, **params):
    """Factory keyed by the config value of `objective.kind`."""
    if kind == "mse":
        return MseObjective()
    if kind == "freq_l1":
        return FrequencyL1Objective(beta=params.get("beta", 0.5))
    if kind == "kmb_df":
        return KmbDfObjective(config=params.get("balance"))
    raise ConfigError(f"unknown objective kind {kind!r}")
