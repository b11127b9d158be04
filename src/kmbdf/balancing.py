"""Kernelized moment balancing objective.

Informativeness scores detect the first-moment gap between the empirical
joint distributions of (history, label) and (history, forecast) sequences,
anchored at individual samples.  The K most informative anchors are kept and
their residual imbalance is penalized through a soft-margin hinge; the total
objective mixes that penalty with the batch MSE:

    total = alpha * sum_k xi_{n_k} + (1 - alpha) * sum_n ||Y_n - Yhat_n||^2

Two documented ambiguities are kept switchable:

* anchor_mode: "forecast" anchors the second kernel sum at the forecast
  joints (delta_k = sum_n K(Z_n, Z_k) - sum_n K(Z_n, Zhat_k)); "real" keeps
  the anchor at the real joint (delta_k = sum_n K(Z_n, Z_k)
  - sum_n K(Zhat_n, Z_k)).  They differ in which forecasts receive penalty
  gradient (K anchors vs. all N).
* hinge_mode: "canonical" uses xi = max(0, |delta| - C), the minimal slack
  satisfying the two-sided margin constraints; "paper_literal" uses
  xi = max(0, -C - delta) + max(0, delta + C), algebraically |delta + C|.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ShapeError
from .kernels import KernelSpec, grad_b_batch, grad_b_sum, gram_matrix

ANCHOR_MODES = ("forecast", "real")
HINGE_MODES = ("canonical", "paper_literal")


@dataclass(frozen=True)
class BalanceConfig:
    alpha: float = 0.3
    top_k: int = 3
    margin_c: float = 0.001
    kernel: KernelSpec = field(default_factory=lambda: KernelSpec(sigma=1.0))
    anchor_mode: str = "forecast"
    hinge_mode: str = "canonical"

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.margin_c < 0.0:
            raise ConfigError(f"margin_c must be >= 0, got {self.margin_c}")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if self.anchor_mode not in ANCHOR_MODES:
            raise ConfigError(f"unknown anchor_mode {self.anchor_mode!r}")
        if self.hinge_mode not in HINGE_MODES:
            raise ConfigError(f"unknown hinge_mode {self.hinge_mode!r}")


@dataclass
class BalanceDiagnostics:
    """Intermediates of one objective evaluation, for logging and tests."""

    deltas: np.ndarray
    selected: np.ndarray
    slacks: np.ndarray
    penalty_term: float
    mse_term: float
    total: float

    def to_dict(self) -> dict:
        return {
            "deltas": [float(d) for d in self.deltas],
            "selected": [int(i) for i in self.selected],
            "slacks": [float(s) for s in self.slacks],
            "penalty_term": float(self.penalty_term),
            "mse_term": float(self.mse_term),
            "total": float(self.total),
        }


class MmdResult(NamedTuple):
    value: float
    biased: bool

    def __float__(self) -> float:
        return self.value


def _as_joint_lists(histories, labels, forecasts):
    n = len(histories)
    if not (len(labels) == len(forecasts) == n):
        raise ShapeError("histories, labels and forecasts must have equal length")
    if n == 0:
        raise ShapeError("empty batch")
    reals, fcs = [], []
    for x, y, yhat in zip(histories, labels, forecasts):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        yhat = np.asarray(yhat, dtype=float)
        if y.shape != yhat.shape:
            raise ShapeError(f"label/forecast shapes differ: {y.shape} vs {yhat.shape}")
        if x.shape[1:] != y.shape[1:]:
            raise ShapeError(f"history/label channel counts differ: {x.shape} vs {y.shape}")
        reals.append(np.concatenate([x, y], axis=0))
        fcs.append(np.concatenate([x, yhat], axis=0))
    return reals, fcs


def informativeness_scores(cfg: BalanceConfig, reals, forecasts) -> np.ndarray:
    """Per-anchor first-moment gap delta_k over a batch of joint sequences."""
    if len(reals) == 0:
        raise ShapeError("empty batch")
    if len(reals) != len(forecasts):
        raise ShapeError("reals and forecasts must have equal length")
    g_rr = gram_matrix(cfg.kernel, reals, reals)
    if cfg.anchor_mode == "forecast":
        g_rf = gram_matrix(cfg.kernel, reals, forecasts)
        return g_rr.sum(axis=0) - g_rf.sum(axis=0)
    g_fr = gram_matrix(cfg.kernel, forecasts, reals)
    return g_rr.sum(axis=0) - g_fr.sum(axis=0)


def select_top_k(deltas: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest |delta|, descending |delta|, ties by index."""
    deltas = np.asarray(deltas, dtype=float)
    if k > deltas.size:
        raise ConfigError(f"top_k={k} exceeds batch size {deltas.size}")
    order = np.lexsort((np.arange(deltas.size), -np.abs(deltas)))
    return order[:k]


def hinge_slack(delta: float, c: float, mode: str = "canonical") -> float:
    """Soft-margin slack for one informativeness score."""
    if c < 0.0:
        raise ConfigError(f"margin must be >= 0, got {c}")
    if mode == "canonical":
        return max(0.0, abs(delta) - c)
    if mode == "paper_literal":
        return max(0.0, -c - delta) + max(0.0, delta + c)
    raise ConfigError(f"unknown hinge mode {mode!r}")


def _hinge_subgradient(delta: float, c: float, mode: str) -> float:
    """d xi / d delta; 0 at kinks (minimal-norm subgradient)."""
    if mode == "canonical":
        if delta > c:
            return 1.0
        if delta < -c:
            return -1.0
        return 0.0
    if delta > -c:
        return 1.0
    if delta < -c:
        return -1.0
    return 0.0


def _mse_sum(labels, forecasts) -> float:
    total = 0.0
    for y, yhat in zip(labels, forecasts):
        d = np.asarray(yhat, dtype=float) - np.asarray(y, dtype=float)
        total += float(np.sum(d * d))
    return total


def _evaluate(cfg, histories, labels, forecasts, selected=None):
    reals, fcs = _as_joint_lists(histories, labels, forecasts)
    n = len(reals)
    if cfg.top_k > n:
        raise ConfigError(f"top_k={cfg.top_k} exceeds batch size {n}")
    mse = _mse_sum(labels, forecasts)
    if cfg.alpha == 0.0:
        # The penalty carries no weight: no scores, no anchors, no kernel work.
        empty = np.zeros(0)
        diag = BalanceDiagnostics(
            deltas=empty,
            selected=np.zeros(0, dtype=int),
            slacks=empty,
            penalty_term=0.0,
            mse_term=mse,
            total=mse,
        )
        return mse, diag, reals, fcs
    deltas = informativeness_scores(cfg, reals, fcs)
    if selected is None:
        selected = select_top_k(deltas, cfg.top_k)
    else:
        selected = np.asarray(selected, dtype=int)
    slacks = np.array(
        [hinge_slack(float(deltas[i]), cfg.margin_c, cfg.hinge_mode) for i in selected]
    )
    penalty = float(np.sum(slacks))
    total = cfg.alpha * penalty + (1.0 - cfg.alpha) * mse
    diag = BalanceDiagnostics(
        deltas=deltas,
        selected=selected,
        slacks=slacks,
        penalty_term=penalty,
        mse_term=mse,
        total=total,
    )
    return total, diag, reals, fcs


def kmb_df_loss(cfg: BalanceConfig, histories, labels, forecasts):
    """Composite balancing objective; returns (total, BalanceDiagnostics)."""
    total, diag, _, _ = _evaluate(cfg, histories, labels, forecasts)
    return total, diag


def kmb_df_loss_with_selection(cfg, histories, labels, forecasts, selected):
    """Objective value with the anchor selection pinned (for gradient checks)."""
    total, diag, _, _ = _evaluate(cfg, histories, labels, forecasts, selected=selected)
    return total, diag


def kmb_df_grad(cfg: BalanceConfig, histories, labels, forecasts):
    """d total / d forecast for every sample; top-K selection held constant.

    Returns (grads, BalanceDiagnostics) where grads is a list of T x D arrays.
    """
    total, diag, reals, fcs = _evaluate(cfg, histories, labels, forecasts)
    h_len = np.asarray(histories[0]).shape[0]
    grads = [
        2.0 * (1.0 - cfg.alpha) * (np.asarray(f, dtype=float) - np.asarray(y, dtype=float))
        for y, f in zip(labels, forecasts)
    ]
    if cfg.alpha > 0.0:
        gsub = {
            int(i): cfg.alpha * _hinge_subgradient(float(diag.deltas[i]), cfg.margin_c, cfg.hinge_mode)
            for i in diag.selected
        }
        if cfg.anchor_mode == "forecast":
            # delta_k depends on forecast k only: d delta_k / d Zhat_k =
            # -sum_n dK(Z_n, Zhat_k)/d Zhat_k.
            reals_stack = np.stack(reals)
            for i, g in gsub.items():
                if g == 0.0:
                    continue
                joint_grad = -grad_b_sum(cfg.kernel, reals_stack, fcs[i])
                grads[i] = grads[i] + g * joint_grad[h_len:, :]
        else:
            # delta_k = sum_n K(Z_n, Z_k) - sum_n K(Zhat_n, Z_k): every
            # forecast appears once per selected anchor.  All families are
            # symmetric, so the gradient w.r.t. the first argument equals
            # grad_b with the arguments swapped.
            fcs_stack = np.stack(fcs)
            for i, g in gsub.items():
                if g == 0.0:
                    continue
                per_fc = -grad_b_batch(cfg.kernel, reals[i], fcs_stack)
                for n in range(len(grads)):
                    grads[n] = grads[n] + g * per_fc[n][h_len:, :]
    return grads, diag


def kmb_df_loss_and_grad(cfg: BalanceConfig, histories, labels, forecasts):
    """Convenience wrapper used by the training loop."""
    grads, diag = kmb_df_grad(cfg, histories, labels, forecasts)
    return diag.total, grads, diag


def mmd_squared(kernel: KernelSpec, sample_p, sample_q) -> MmdResult:
    """Two-sample MMD^2 estimate between lists of joint sequences.

    Unbiased U-statistic when both samples have >= 2 points; for equal-size
    samples the paired form excluding diagonal cross terms is used, which is
    exactly 0 when the two lists coincide.  Falls back to the biased
    V-statistic (flagged) when either sample is a singleton.
    """
    m, n = len(sample_p), len(sample_q)
    if m == 0 or n == 0:
        raise ShapeError("mmd_squared requires nonempty samples")
    g_pp = gram_matrix(kernel, sample_p, sample_p)
    g_qq = gram_matrix(kernel, sample_q, sample_q)
    g_pq = gram_matrix(kernel, sample_p, sample_q)
    if m == n and m > 1:
        off = (
            float(g_pp.sum()) - float(np.trace(g_pp))
            + float(g_qq.sum()) - float(np.trace(g_qq))
            - 2.0 * (float(g_pq.sum()) - float(np.trace(g_pq)))
        )
        return MmdResult(off / (m * (m - 1)), biased=False)
    cross = 2.0 * float(g_pq.sum()) / (m * n)
    if m > 1 and n > 1:
        within_p = (float(g_pp.sum()) - float(np.trace(g_pp))) / (m * (m - 1))
        within_q = (float(g_qq.sum()) - float(np.trace(g_qq))) / (n * (n - 1))
        return MmdResult(within_p + within_q - cross, biased=False)
    within_p = float(g_pp.sum()) / (m * m)
    within_q = float(g_qq.sum()) / (n * n)
    return MmdResult(within_p + within_q - cross, biased=True)
