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

import math
from dataclasses import dataclass, field, fields
from typing import Literal, NamedTuple

import numpy as np

from .errors import ConfigError, DomainError, Node, ShapeError
from .kernels import (
    KernelSpec,
    as_stack,
    grad_b_sum,
    grad_coeffs,
    gram_matrix,
    joint_stats,
    kernel_from_stat,
    median_gram,
    pair_sq_dists,
)

ANCHOR_MODES = ("forecast", "real")
HINGE_MODES = ("canonical", "paper_literal")


@dataclass(frozen=True)
class BalanceConfig(Node):
    """The objective's settings.  `kernel` defaults to `KernelSpec()`, the
    exponential at sigma "median", built directly or parsed without the key."""

    alpha: float = 0.3
    top_k: int = 3
    margin_c: float = 0.001
    kernel: KernelSpec = field(default_factory=KernelSpec)
    anchor_mode: Literal[ANCHOR_MODES] = "forecast"
    hinge_mode: Literal[HINGE_MODES] = "canonical"

    def _check(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.margin_c < 0.0:
            raise ConfigError(f"margin_c must be >= 0, got {self.margin_c}")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")


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
        return {f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)}


class MmdResult(NamedTuple):
    """`mmd_squared`'s estimate; perfbench reads `.value`."""

    value: float


class Scores(NamedTuple):
    """Informativeness scores, and the pair statistic and kernel values the
    penalty gradient reads its kernel coefficients from: column k of `cross`
    pairs anchor k with the N joints of its second kernel sum (see
    `kernels.joint_stats`), and column k of `kernel` holds their K."""

    deltas: np.ndarray
    cross: np.ndarray
    kernel: np.ndarray


def label_forecast_stacks(labels, forecasts):
    """Same-shaped float stacks of a batch's labels and forecasts; lists are
    stacked once here, float ndarrays pass through uncopied."""
    y, f = as_stack(labels), as_stack(forecasts)
    if y.shape != f.shape:
        raise ShapeError(f"label/forecast shapes differ: {y.shape} vs {f.shape}")
    return y, f


def _as_stacks(histories, labels, forecasts):
    """(N, H, D), (N, T, D) and (N, T, D) float stacks of one batch, as
    `label_forecast_stacks` gives them."""
    x, (y, f) = as_stack(histories), label_forecast_stacks(labels, forecasts)
    if len(x) != len(y) or x.ndim != 3 or y.ndim != 3 or x.shape[2] != y.shape[2]:
        raise ShapeError(f"histories {x.shape} and labels {y.shape} are not (N, H, D), (N, T, D)")
    return x, y, f


def informativeness_scores(cfg: BalanceConfig, x, y, f) -> Scores:
    """Per-anchor first-moment gap delta_k over one batch, with its
    statistic and kernel values; a stage of `kmb_df_grad`, which passes its
    checked, finite (N, H, D), (N, T, D) and (N, T, D) float stacks.

    The real joints are (history_n, label_n), the forecast joints
    (history_n, forecast_n).  The history block of the pair statistic is
    computed once and shared by both kernel sums; the label-label and
    label-forecast blocks come from one centring of the label and forecast
    stacks.  Each block keeps `_pairwise`'s error bound for its own width
    (H*D or T*D), so delta agrees with sums of the per-pair reference
    kernel in `tests/kernel_reference.py` to rtol 1e-12, and forecasts
    equal to the labels give delta exactly 0.
    """
    n = len(x)
    xf, yf = x.reshape(n, -1), y.reshape(n, -1)
    real, cross = joint_stats(
        cfg.kernel, xf, yf, f.reshape(n, -1), cfg.anchor_mode == "forecast"
    )
    size = xf.shape[1] + yf.shape[1]
    real_k = kernel_from_stat(cfg.kernel, real, size)
    cross_k = kernel_from_stat(cfg.kernel, cross.copy(), size)
    return Scores(real_k.sum(axis=0) - cross_k.sum(axis=0), cross, cross_k)


def select_top_k(deltas: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest |delta|, descending |delta|, ties by index;
    a stage of `kmb_df_grad`, which passes its float scores and k in [1, N]."""
    return np.argsort(-np.abs(deltas), kind="stable")[:k]


def hinge_slack(deltas: np.ndarray, c: float, mode: str) -> np.ndarray:
    """Elementwise soft-margin slack of float scores; a stage of
    `kmb_df_grad`, which passes the config's checked margin and mode."""
    if mode == "canonical":
        return np.maximum(0.0, np.abs(deltas) - c)
    return np.maximum(0.0, -c - deltas) + np.maximum(0.0, deltas + c)


def _hinge_subgradient(deltas: np.ndarray, c: float, mode: str) -> np.ndarray:
    """d xi / d delta, elementwise; 0 at kinks (minimal-norm subgradient)."""
    lo = c if mode == "canonical" else -c
    return (deltas > lo).astype(float) - (deltas < -c)


def kmb_df_grad(cfg: BalanceConfig, histories, labels, forecasts, selected=None):
    """d total / d forecast for every sample; top-K selection held constant.

    Returns (grads, BalanceDiagnostics) where grads is an (N, T, D) array
    and the diagnostics' `total` is the objective's value.  `selected` pins
    the anchor indices in place of the top-K (gradient checks): distinct
    integers in [0, N); it is ignored at alpha=0.  The penalty gradient
    touches only the label block of each joint: the kernel factors of the
    anchors whose hinge is active come from the scores' pair statistic and
    kernel values as one (N, K) array, contracted with the label
    differences in one `grad_b_sum` call.  A non-finite `total`, as from
    finite inputs whose pair statistics overflow, raises DomainError; with
    warnings as errors, NumPy's overflow warning is raised first.
    """
    x, y, f = _as_stacks(histories, labels, forecasts)
    n = len(x)
    if cfg.top_k > n:
        raise ConfigError(f"top_k={cfg.top_k} exceeds batch size {n}")
    err = f - y
    mse = float(np.sum(err * err))
    grads = err  # scaled in place once the MSE is summed
    grads *= 2.0 * (1.0 - cfg.alpha)
    if cfg.alpha == 0.0:
        # The penalty carries no weight: no scores, no anchors, no kernel work.
        if not np.isfinite(mse):
            raise DomainError(f"non-finite MSE term {mse!r}: labels and forecasts must be finite")
        empty = np.zeros(0)
        return grads, BalanceDiagnostics(empty, np.zeros(0, dtype=int), empty, 0.0, mse, mse)
    if not (np.isfinite(x).all() and np.isfinite(y).all() and np.isfinite(f).all()):
        raise DomainError("histories, labels and forecasts must be finite")
    scores = informativeness_scores(cfg, x, y, f)
    deltas = scores.deltas
    if selected is None:
        selected = select_top_k(deltas, cfg.top_k)
    else:
        try:
            pinned = np.asarray(selected)
        except ValueError:  # ragged, such as [[0], [1, 2]]
            pinned = np.asarray(None)
        indices = pinned.dtype.kind in "iu" and pinned.ndim == 1
        distinct = indices and np.unique(pinned).size == pinned.size
        if not (distinct and np.all((pinned >= 0) & (pinned < n))):
            raise ConfigError(f"selected must hold distinct integers in [0, {n}), got {selected!r}")
        selected = pinned
    slacks = hinge_slack(deltas[selected], cfg.margin_c, cfg.hinge_mode)
    penalty = float(np.sum(slacks))
    total = cfg.alpha * penalty + (1.0 - cfg.alpha) * mse
    if not math.isfinite(total):
        raise DomainError(f"non-finite objective {total!r}: the batch's statistics overflow")
    diag = BalanceDiagnostics(
        deltas=deltas,
        selected=selected,
        slacks=slacks,
        penalty_term=penalty,
        mse_term=mse,
        total=total,
    )
    w = cfg.alpha * _hinge_subgradient(deltas[selected], cfg.margin_c, cfg.hinge_mode)
    active = w != 0.0
    if not active.any():
        return grads, diag
    sel = selected[active]
    yf, ff, gf = y.reshape(n, -1), f.reshape(n, -1), grads.reshape(n, -1)
    size = x[0].size + yf.shape[1]
    # Column k: the factors of anchor sel[k]'s second kernel sum, weighted
    # by the anchor's hinge subgradient.
    coeffs = grad_coeffs(cfg.kernel, scores.cross[:, sel], scores.kernel[:, sel], size) * w[active]
    if cfg.anchor_mode == "forecast":
        # delta_k depends on forecast k only: d delta_k / d Zhat_k =
        # -sum_n dK(Z_n, Zhat_k)/d Zhat_k.
        gf[sel] -= grad_b_sum(cfg.kernel, coeffs, yf, ff[sel])
    else:
        # delta_k = sum_n K(Z_n, Z_k) - sum_n K(Zhat_n, Z_k): every forecast
        # appears once per selected anchor.  All families are symmetric, so
        # d K(Zhat_n, Z_k) / d Zhat_n = d K(Z_k, Zhat_n) / d Zhat_n.
        gf -= grad_b_sum(cfg.kernel, coeffs.T, yf[sel], ff)
    return grads, diag


class RealSide(NamedTuple):
    """The half of `mmd_squared` that reads no forecast; see `real_side`."""

    kernel: KernelSpec
    history: object
    shared: np.ndarray | None
    sample: np.ndarray
    pp: float


def real_side(kernel: KernelSpec, sample_p, history=None) -> RealSide:
    """`mmd_squared`'s terms of p and `history` alone, for forecast samples to
    share: the distance kernel (sigma "median" resolved from the statistic
    that becomes g_pp, `kernels.median_gram`), the history, its pair
    statistic, p's stack and g_pp's off-diagonal sum."""
    kernel.require_distance()
    p = as_stack(sample_p)
    shared = None if history is None else pair_sq_dists(history)
    kernel, g_pp = median_gram(kernel, p, shared)
    s_pp, t_pp = _sum_trace(g_pp)
    return RealSide(kernel, history, shared, p, s_pp - t_pp)


def _sum_trace(g: np.ndarray) -> tuple[float, float]:
    return float(g.sum()), float(np.trace(g))


def mmd_squared(kernel: KernelSpec, sample_p, sample_q, history=None) -> MmdResult:
    """Paired two-sample MMD^2 U-statistic between n >= 2 pairs (p_i, q_i)
    of joint sequences, each sample a list or an (n, L, D) stack:
    sum_{i != j} h_ij / (n (n - 1)), with h_ij = k(p_i, p_j) + k(q_i, q_j)
    - k(p_i, q_j) - k(p_j, q_i) (Gretton et al., JMLR 2012), for a distance
    `kernel` (else ConfigError first): the characteristic ones.  Samples of
    other sizes raise ShapeError before any distance is formed.  With
    `history`, a list, stack or window view of the block that p_i and q_i
    share, the samples are the joints (history_i, p_i) and (history_i,
    q_i); the block's `pair_sq_dists` is added to each Gram's statistic.
    The terms of p alone come from `real_side`, or from a `RealSide` passed
    as `sample_p` with its resolved kernel and no history (the same bits);
    g_qq and g_pq from `gram_matrix`.  One Gram is alive at a time: each is
    reduced to its sum and trace first.

    Samples that coincide give exactly 0: they are recognised, because the
    within-sample Grams are symmetric products, which round differently
    from the cross product.
    """
    kernel.require_distance()
    real = sample_p if isinstance(sample_p, RealSide) else None
    if real is not None and (history is not None or kernel != real.kernel):
        raise ConfigError("a RealSide brings its history, and needs its resolved kernel")
    p, q = as_stack(sample_p) if real is None else real.sample, as_stack(sample_q)
    n = len(p)
    if not len(q) == n >= 2:
        raise ShapeError(f"the MMD^2 needs n >= 2 pairs, got samples of {n} and {len(q)}")
    real = real_side(kernel, p, history) if real is None else real
    s_qq, t_qq = _sum_trace(gram_matrix(real.kernel, q, q, real.shared))
    s_pq, t_pq = _sum_trace(gram_matrix(real.kernel, p, q, real.shared))
    # After the Grams, which reject non-finite samples.
    if np.array_equal(p, q):
        return MmdResult(0.0)
    return MmdResult((real.pp + s_qq - t_qq - 2.0 * (s_pq - t_pq)) / (n * (n - 1)))
