"""Finite-difference gradient checks exposed through the CLI."""

from __future__ import annotations

import numpy as np

from .balancing import (
    ANCHOR_MODES,
    HINGE_MODES,
    BalanceConfig,
    kmb_df_grad,
)
from .errors import ConfigError
from .kernels import KernelSpec


def fd_forecast_grads(loss_fn, forecasts, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of loss_fn w.r.t. each forecast entry, as
    an (N, T, D) array.  loss_fn is called on one stacked float copy of the
    forecasts with a single entry moved by +-eps in place."""
    bumped = np.array(forecasts, dtype=float)
    grads = np.zeros_like(bumped)
    for idx in np.ndindex(bumped.shape):
        saved = bumped[idx]
        bumped[idx] = saved + eps
        hi = loss_fn(bumped)
        bumped[idx] = saved - eps
        lo = loss_fn(bumped)
        bumped[idx] = saved
        grads[idx] = (hi - lo) / (2 * eps)
    return grads


def relative_error(analytic, numeric) -> float:
    a = np.concatenate([np.asarray(g).ravel() for g in analytic])
    b = np.concatenate([np.asarray(g).ravel() for g in numeric])
    denom = max(np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def _kernel_cases():
    return [
        KernelSpec(family="exponential", sigma=1.3),
        KernelSpec(family="gaussian", sigma=0.9),
        KernelSpec(family="linear"),
        KernelSpec(family="polynomial", degree=3),
        KernelSpec(family="sigmoid"),
    ]


def run_gradcheck(trials: int = 3, tol: float = 1e-5, seed: int = 0):
    """FD-check the balancing gradient across kernels and modes.

    Returns a list of dicts with the worst relative error per case.  Unless
    trials >= 1, 0 < tol < inf and seed >= 0, ConfigError before any check.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if not 0.0 < tol < np.inf or seed < 0:
        raise ConfigError(f"gradcheck needs 0 < tol < inf and seed >= 0, got tol={tol}, seed={seed}")
    rng = np.random.default_rng(seed)
    results = []
    for kernel in _kernel_cases():
        for anchor in ANCHOR_MODES:
            for hinge in HINGE_MODES:
                worst = 0.0
                for _ in range(trials):
                    n, h, t, d = 4, 3, 2, 2
                    cfg = BalanceConfig(
                        alpha=0.6,
                        top_k=2,
                        margin_c=0.01,
                        kernel=kernel,
                        anchor_mode=anchor,
                        hinge_mode=hinge,
                    )
                    hist = list(rng.normal(size=(n, h, d)))
                    labels = list(rng.normal(size=(n, t, d)))
                    fcs = list(rng.normal(size=(n, t, d)))
                    grads, diag = kmb_df_grad(cfg, hist, labels, fcs)

                    def loss_fn(bumped, _sel=diag.selected):
                        return kmb_df_grad(cfg, hist, labels, bumped, _sel)[1].total

                    fd = fd_forecast_grads(loss_fn, fcs)
                    worst = max(worst, relative_error(grads, fd))
                results.append(
                    {
                        "kernel": kernel.family,
                        "anchor_mode": anchor,
                        "hinge_mode": hinge,
                        "max_rel_error": worst,
                        "pass": worst < tol,
                    }
                )
    return results
