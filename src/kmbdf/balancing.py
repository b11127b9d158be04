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

from .errors import ConfigError, DomainError, ShapeError
from .kernels import (
    KernelSpec,
    as_stack,
    grad_b_sum,
    grad_coeffs,
    gram_matrix,
    joint_stats,
    kernel_from_stat,
)

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


class Scores(NamedTuple):
    """Informativeness scores and the pair statistic the penalty gradient
    reads its kernel coefficients from: column k of `cross` pairs anchor k
    with the N joints of its second kernel sum (see `kernels.joint_stats`)."""

    deltas: np.ndarray
    cross: np.ndarray


def _as_stacks(histories, labels, forecasts):
    """(N, H, D), (N, T, D) and (N, T, D) float stacks of one batch; lists
    are stacked once here, float ndarrays pass through uncopied."""
    x, y, f = as_stack(histories), as_stack(labels), as_stack(forecasts)
    if not len(x) == len(y) == len(f):
        raise ShapeError("histories, labels and forecasts must have equal length")
    if y.shape != f.shape:
        raise ShapeError(f"label/forecast shapes differ: {y.shape} vs {f.shape}")
    if x.ndim != 3 or y.ndim != 3 or x.shape[2] != y.shape[2]:
        raise ShapeError(f"history/label channel counts differ: {x.shape} vs {y.shape}")
    return x, y, f


def informativeness_scores(cfg: BalanceConfig, histories, labels, forecasts) -> Scores:
    """Per-anchor first-moment gap delta_k over one batch, with its statistic.

    The real joints are (history_n, label_n), the forecast joints
    (history_n, forecast_n).  The history block of the pair statistic is
    computed once and shared by both kernel sums; the label-label and
    label-forecast blocks come from one centring of the label and forecast
    stacks.  Each block keeps `_pairwise`'s error bound for its own width
    (H*D or T*D), so delta agrees with the per-pair `eval_kernel` sums to
    rtol 1e-12 in the tests, and forecasts equal to the labels give delta
    exactly 0.  Inputs must be finite.
    """
    x, y, f = _as_stacks(histories, labels, forecasts)
    if not (np.isfinite(x).all() and np.isfinite(y).all() and np.isfinite(f).all()):
        raise DomainError("histories, labels and forecasts must be finite")
    n = len(x)
    xf, yf = x.reshape(n, -1), y.reshape(n, -1)
    real, cross = joint_stats(
        cfg.kernel, xf, yf, f.reshape(n, -1), cfg.anchor_mode == "forecast"
    )
    size = xf.shape[1] + yf.shape[1]
    deltas = (
        kernel_from_stat(cfg.kernel, real, size).sum(axis=0)
        - kernel_from_stat(cfg.kernel, cross, size).sum(axis=0)
    )
    return Scores(deltas, cross)


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


def _evaluate(cfg, x, y, f, selected=None):
    """Total, diagnostics, forecast errors and scores (None at alpha=0) of
    one batch given as validated stacks."""
    n = len(x)
    if cfg.top_k > n:
        raise ConfigError(f"top_k={cfg.top_k} exceeds batch size {n}")
    err = f - y
    mse = float(np.sum(err * err))
    if cfg.alpha == 0.0:
        # The penalty carries no weight: no scores, no anchors, no kernel work.
        if not np.isfinite(mse):
            raise DomainError(f"non-finite MSE term {mse!r}: labels and forecasts must be finite")
        empty = np.zeros(0)
        return BalanceDiagnostics(empty, np.zeros(0, dtype=int), empty, 0.0, mse, mse), err, None
    scores = informativeness_scores(cfg, x, y, f)
    deltas = scores.deltas
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
    return diag, err, scores


def kmb_df_loss(cfg: BalanceConfig, histories, labels, forecasts):
    """Composite balancing objective; returns (total, BalanceDiagnostics)."""
    diag, _, _ = _evaluate(cfg, *_as_stacks(histories, labels, forecasts))
    return diag.total, diag


def kmb_df_loss_with_selection(cfg, histories, labels, forecasts, selected):
    """Objective value with the anchor selection pinned (for gradient checks)."""
    diag, _, _ = _evaluate(cfg, *_as_stacks(histories, labels, forecasts), selected)
    return diag.total, diag


def kmb_df_grad(cfg: BalanceConfig, histories, labels, forecasts):
    """d total / d forecast for every sample; top-K selection held constant.

    Returns (grads, BalanceDiagnostics) where grads is an (N, T, D) array.
    The penalty gradient touches only the label block of each joint: its
    kernel coefficients come from the scores' pair statistic.
    """
    x, y, f = _as_stacks(histories, labels, forecasts)
    diag, err, scores = _evaluate(cfg, x, y, f)
    grads = 2.0 * (1.0 - cfg.alpha) * err
    if scores is None:
        return grads, diag
    n = len(y)
    spec = cfg.kernel
    yf, ff, gf = y.reshape(n, -1), f.reshape(n, -1), grads.reshape(n, -1)
    size = x[0].size + yf.shape[1]
    for i in diag.selected:
        w = cfg.alpha * _hinge_subgradient(float(diag.deltas[i]), cfg.margin_c, cfg.hinge_mode)
        if w == 0.0:
            continue
        stat = scores.cross[:, i]
        if cfg.anchor_mode == "forecast":
            # delta_k depends on forecast k only: d delta_k / d Zhat_k =
            # -sum_n dK(Z_n, Zhat_k)/d Zhat_k.
            gf[i] -= w * grad_b_sum(spec, stat, yf, ff[i], size)
        else:
            # delta_k = sum_n K(Z_n, Z_k) - sum_n K(Zhat_n, Z_k): every
            # forecast appears once per selected anchor.  All families are
            # symmetric, so d K(Zhat_n, Z_k) / d Zhat_n = c_n (Z_k - Zhat_n)
            # or c_n Z_k, restricted to the label block.
            c = w * grad_coeffs(spec, stat, size)
            gf -= c[:, None] * (yf[i] - ff if spec.is_distance else yf[i])
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
