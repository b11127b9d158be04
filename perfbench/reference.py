"""Exact pairwise reference of the kmb_df objective, independent of kmbdf.

It covers the configuration `paper_t720` trains with: exponential kernel
K(a, b) = exp(-||a - b|| / (2 sigma^2)), forecast-anchored delta scores,
canonical hinge xi = max(0, |delta| - C).  Every kernel value is one
`np.linalg.norm` of one pair, so it shares no code path with the row-chunked
Gram matrices it checks.
"""

from __future__ import annotations

import math

import numpy as np

# Guard for 1/||a - b|| in the kernel gradient, as in kmbdf.kernels.
_EPS_NORM = 1e-12


def median_bandwidth(joints) -> float:
    """sigma with sigma^2 = median pairwise ||Z_i - Z_j|| (1.0 if that is 0)."""
    dists = [
        float(np.linalg.norm(joints[i] - joints[j]))
        for i in range(len(joints))
        for j in range(i + 1, len(joints))
    ]
    med = float(np.median(dists))
    return 1.0 if med <= 0.0 else math.sqrt(med)


def loss_and_grad(histories, labels, forecasts, *, alpha, top_k, margin_c, sigma):
    """Total objective and d total / d forecast_n for every n, pair by pair."""
    n = len(histories)
    h_len = histories[0].shape[0]
    two_s2 = 2.0 * sigma * sigma
    reals = [np.concatenate([x, y]) for x, y in zip(histories, labels)]
    fcs = [np.concatenate([x, f]) for x, f in zip(histories, forecasts)]

    def kernel(a, b):
        return math.exp(-float(np.linalg.norm(a - b)) / two_s2)

    deltas = [
        sum(kernel(reals[i], reals[k]) for i in range(n))
        - sum(kernel(reals[i], fcs[k]) for i in range(n))
        for k in range(n)
    ]
    selected = sorted(range(n), key=lambda k: (-abs(deltas[k]), k))[:top_k]
    penalty = sum(max(0.0, abs(deltas[k]) - margin_c) for k in selected)
    mse = sum(float(np.sum((f - y) ** 2)) for y, f in zip(labels, forecasts))
    total = alpha * penalty + (1.0 - alpha) * mse

    grads = [2.0 * (1.0 - alpha) * (f - y) for y, f in zip(labels, forecasts)]
    for k in selected:
        d = deltas[k]
        slope = 1.0 if d > margin_c else (-1.0 if d < -margin_c else 0.0)
        if slope == 0.0:
            continue
        # d delta_k / d Zhat_k = -sum_i dK(Z_i, Zhat_k) / d Zhat_k, and
        # dK(a, b) / db = K(a, b) (a - b) / (2 sigma^2 ||a - b||).
        joint_grad = np.zeros_like(fcs[k])
        for i in range(n):
            diff = reals[i] - fcs[k]
            dist = max(float(np.linalg.norm(diff)), _EPS_NORM)
            joint_grad -= math.exp(-dist / two_s2) / (two_s2 * dist) * diff
        grads[k] = grads[k] + alpha * slope * joint_grad[h_len:]
    return total, np.stack(grads), [int(k) for k in selected]
