"""Kernel evaluation, Gram matrices, and analytic kernel gradients.

The training objective takes five families: exponential, gaussian, linear,
polynomial and sigmoid.  Grams, bandwidths and the MMD^2 take the two
distance families only, as characteristic kernels.  Inputs are joint
sequences -- (H+T) x D matrices, a history block and a label/forecast block
concatenated along time -- but any consistently shaped arrays work.

Conventions:
    exponential:  K(a, b) = exp(-||a - b|| / (2 sigma^2))     (UNsquared norm)
    gaussian:     K(a, b) = exp(-||a - b||^2 / (2 sigma^2))
    linear:       K(a, b) = <a, b>
    polynomial:   K(a, b) = (<a, b> / P)^degree
    sigmoid:      K(a, b) = tanh(<a, b> / P - 1)

||.|| is the Frobenius norm of the flattened difference and P its length.
The inner-product scale 1/P and offsets (0 polynomial, -1 sigmoid) are fixed:
a config that names `scale` or `offset` fails at parse with ConfigError.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import length_hint
from typing import Literal

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, DomainError, Node, ShapeError

# Guard for the 1/||a-b|| factor in the exponential kernel gradient.
EPS_NORM = 1e-12

KERNEL_FAMILIES = ("exponential", "gaussian", "linear", "polynomial", "sigmoid")


@dataclass(frozen=True)
class KernelSpec(Node):
    """A kernel family plus the parameters that family reads.

    Parameters irrelevant to `family` are ignored.  `sigma` is a bandwidth
    > 0 whose square is a finite float > 0, or "median", unresolved: a
    distance kernel evaluated with it raises ConfigError unless `mmd_squared`
    or `median_gram` resolves it.  Only the distance families make Grams.
    """

    family: Literal[KERNEL_FAMILIES] = "exponential"
    sigma: float | Literal["median"] = "median"
    degree: int | None = None

    def _check(self):
        if self.is_distance and self.sigma != "median":
            if self.sigma <= 0:
                raise ConfigError(
                    f"{self.family} kernel requires sigma 'median' or > 0, got {self.sigma}"
                )
            if not 0.0 < self.sigma * self.sigma < np.inf:
                raise ConfigError(
                    f"{self.family} kernel requires sigma**2 finite and > 0, got {self.sigma}"
                )
        if self.family == "polynomial":
            if self.degree is None or self.degree < 1:
                raise ConfigError(
                    f"polynomial kernel requires degree >= 1, got {self.degree}"
                )

    @property
    def is_distance(self) -> bool:
        return self.family in ("exponential", "gaussian")

    def require_distance(self) -> None:
        """ConfigError unless a distance family: Grams and the MMD^2 take no other."""
        if not self.is_distance:
            raise ConfigError(f"Grams and the MMD^2 need a distance kernel, got {self.family}")


def kernel_from_stat(spec: KernelSpec, stat: np.ndarray, size: int) -> np.ndarray:
    """K from the pair statistic: the squared distance for the distance
    families, the inner product otherwise; `size` is the flattened length.
    K overwrites `stat`, a float array the caller owns, and is returned."""
    if spec.is_distance and spec.sigma == "median":
        raise ConfigError("sigma 'median' must be resolved by median_bandwidth or median_gram")
    if spec.is_distance:
        if spec.family == "exponential":
            np.sqrt(stat, out=stat)
        stat /= -2.0 * spec.sigma**2
        return np.exp(stat, out=stat)
    if spec.family == "linear":
        return stat
    stat *= 1.0 / size
    stat += 0.0 if spec.family == "polynomial" else -1.0
    if spec.family == "polynomial":
        stat **= int(spec.degree)
        return stat
    return np.tanh(stat, out=stat)


def grad_coeffs(spec: KernelSpec, stat, k, size: int):
    """Factor c of dK(a, b)/db from the pair statistic of `kernel_from_stat`
    and the kernel values `k` it gives.

    dK(a, b)/db = c (a - b) for the distance families and c a for the
    inner-product families.
    """
    if spec.family == "exponential":
        return k / (2.0 * spec.sigma**2 * np.maximum(np.sqrt(stat), EPS_NORM))
    if spec.family == "gaussian":
        return k / spec.sigma**2
    if spec.family == "linear":
        return np.ones_like(stat)
    s = 1.0 / size
    if spec.family == "polynomial":
        deg = int(spec.degree)
        return deg * (s * stat + 0.0) ** (deg - 1) * s  # offset 0, as in kernel_from_stat
    return (1.0 - k**2) * s


# Squared distances at most this share of ||a||^2 + ||b||^2 are recomputed
# from the difference: there the expansion loses its relative accuracy.
NEAR_PAIR_RATIO = 1e-3
# Elements of the differences formed per chunk of recomputed near pairs (32
# rows at paper scale).  A Gram of one sample against a copy of itself
# recomputes its whole diagonal, so the chunk's temporaries are kept small.
_NEAR_PAIR_ELEMENTS = 1 << 16
# Elements per row block of `_sq_dists`: a training step's (N, N) is one.
_ROW_BLOCK_ELEMENTS = 1 << 14


def _row_sq(a: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, a)


def _take(mats, idx) -> np.ndarray:
    """Rows `idx` of a list or stack as a (len(idx), P) float array; only
    those rows are copied."""
    sub = mats[idx] if isinstance(mats, np.ndarray) else [mats[k] for k in idx]
    return np.asarray(sub, dtype=float).reshape(len(idx), -1)


def _sq_dists(rf, cf, r_sq, c_sq, rows, cols, out=None) -> np.ndarray:
    """Squared distances between the rows of two centred stacks, given their
    squared row norms; see `_pairwise`.  Near pairs are recomputed from
    `rows` and `cols`, the caller's uncentred lists or stacks, so a near
    pair loses nothing to the rounding of the centring.  `out`, if given,
    is a C-contiguous (R, C) array that receives the result.  The product
    is one matrix product; the norms, expansion and near-pair mask run in
    row blocks of `_ROW_BLOCK_ELEMENTS`, the same operations in any blocking."""
    sq = np.matmul(rf, cf.T, out=out)
    width = sq.shape[1]
    step = max(1, _ROW_BLOCK_ELEMENTS // (width or 1))
    for lo in range(0, len(sq), step):
        block = sq[lo : lo + step]
        norms = r_sq[lo : lo + step, None] + c_sq
        block *= -2.0
        block += norms
        norms *= NEAR_PAIR_RATIO
        near = block <= norms
        if rows is cols:
            # Each row against itself: exactly 0, nothing to recompute.  The
            # block's diagonal starts at column lo; ravel() is a view.
            near.ravel()[lo :: width + 1] = False
            block.ravel()[lo :: width + 1] = 0.0
        if not np.count_nonzero(near):  # cheaper than near.any()
            continue
        ii, jj = np.nonzero(near)
        chunk = max(1, _NEAR_PAIR_ELEMENTS // (rf.shape[1] or 1))
        for k in range(0, ii.size, chunk):
            i, j = ii[k : k + chunk], jj[k : k + chunk]
            block[i, j] = _row_sq(_take(rows, i + lo) - _take(cols, j))
    return sq


def _pairwise(rows, cols) -> np.ndarray:
    """(R, C) squared distances between the matrices of two lists or stacks,
    left unmodified; `cols is rows` within one sample.

    Each distinct input gets one `_working_copy`, rows first and then cols
    against rows' matrix shape, centred in place: within one sample on its
    own mean, across two on their shared mean.  Squared distances are
    ||a||^2 + ||b||^2 - 2 <a, b> on the centred rows, one matrix product
    for all entries; an entry whose result is at most NEAR_PAIR_RATIO *
    (||a||^2 + ||b||^2) is recomputed as sum((a - b)^2) from the uncentred
    `rows` and `cols`, so coincident rows give exactly 0.

    Error bound: the expansion's rounding is at most about 2 P u
    (||a||^2 + ||b||^2) for unit roundoff u = 2^-53, so an entry kept from
    it is within a relative 2e3 P u of the squared distance of the centred
    rows; a recomputed entry carries only the rounding of the difference.
    """
    rf = cf = _working_copy(rows)
    if cols is rows:
        rf -= rf.mean(axis=0)
        r_sq = c_sq = _row_sq(rf)
    else:
        cf = _working_copy(cols, shape=np.shape(rows[0]))
        mean = (rf.sum(axis=0) + cf.sum(axis=0)) / (len(rf) + len(cf))
        rf -= mean
        cf -= mean
        r_sq, c_sq = _row_sq(rf), _row_sq(cf)
    return _sq_dists(rf, cf, r_sq, c_sq, rows, cols)


def joint_stats(spec: KernelSpec, hist, labels, forecasts, forecast_anchor: bool):
    """Pair statistics of real and forecast joints that share their history.

    `hist` (N, P_h), `labels` and `forecasts` (N, P_t) are flattened float
    stacks, left unmodified.  The real joint is Z_n = (hist_n, labels_n),
    the forecast joint Zhat_n = (hist_n, forecasts_n), and the statistic s
    (the squared distance for the distance families, the inner product
    otherwise) splits into a history block and a label block:
    s(Z_n, Zhat_k) = s(hist_n, hist_k) + s(labels_n, forecasts_k).  The
    history block is computed once for both results; labels and forecasts
    are centred once, on their shared mean, and near pairs are recomputed
    from the uncentred rows.

    Returns (real, cross), both (N, N): real[n, k] = s(Z_n, Z_k), and
    cross[n, k] = s(Z_n, Zhat_k) if `forecast_anchor`, else s(Zhat_n, Z_k).

    Error bound: each block keeps `_pairwise`'s bound for its own width, so
    a squared distance is within a relative 2e3 max(P_h, P_t) u of that of
    the exact joints.  Both label products are matrix products on distinct
    buffers (NumPy sends `a @ a.T` to a symmetric product that rounds
    differently), so forecasts equal to the labels give `cross` bit-identical
    to `real`.
    """
    if spec.is_distance:
        hc = hist - hist.sum(axis=0) / len(hist)
        h_sq = _row_sq(hc)
        shared = _sq_dists(hc, hc, h_sq, h_sq, hist, hist)
        mean = (labels.sum(axis=0) + forecasts.sum(axis=0)) / (2 * len(labels))
        yc, fc = labels - mean, forecasts - mean
        y_sq, f_sq = _row_sq(yc), _row_sq(fc)
        real = _sq_dists(yc, yc.copy(), y_sq, y_sq, labels, labels)
        if forecast_anchor:
            cross = _sq_dists(yc, fc, y_sq, f_sq, labels, forecasts)
        else:
            cross = _sq_dists(fc, yc, f_sq, y_sq, forecasts, labels)
    else:
        shared = hist @ hist.T
        real = labels @ labels.copy().T
        cross = labels @ forecasts.T if forecast_anchor else forecasts @ labels.T
    real += shared
    cross += shared
    return real, cross


def as_stack(batch, copy: bool = False) -> np.ndarray:
    """A batch as one float array; a list of same-shaped arrays is stacked.

    A float ndarray passes through without a copy unless `copy` is set; a
    copy is C-contiguous.  A scalar or empty batch raises ShapeError.
    """
    if length_hint(batch) == 0:  # also a float or a 0-d array, which have no length
        raise ShapeError(f"a batch needs a samples axis and a sample, got shape {np.shape(batch)}")
    try:
        if copy:
            return np.array(batch, dtype=float, order="C")
        return np.asarray(batch, dtype=float)
    except ValueError as exc:
        raise ShapeError(f"batch samples differ in shape: {exc}") from exc


def _working_copy(mats, shape=None) -> np.ndarray:
    """(N, L*D) float copy of a stack or a list of same-shaped finite
    matrices, each of `shape` if given; only `_pairwise` makes one, to centre in place."""
    stack = as_stack(mats, copy=True)
    if shape is not None and stack.shape[1:] != shape:
        raise ShapeError(f"kernel inputs differ in shape: {shape} vs {stack.shape[1:]}")
    if not np.isfinite(stack).all():
        raise DomainError("kernel inputs must be finite")
    return stack.reshape(len(stack), -1)


def _gram_sq_dists(spec: KernelSpec, rows, cols, shared) -> np.ndarray:
    """Squared distances between the joints (shared block, rows[i]) and
    (shared block, cols[j]), after `spec.require_distance()`."""
    spec.require_distance()
    stat = pair_sq_dists(rows) if cols is rows else _pairwise(rows, cols)
    if shared is not None:
        if np.shape(shared) != stat.shape:
            raise ShapeError(f"shared statistic {np.shape(shared)} does not match {stat.shape}")
        stat += shared
    return stat


def gram_matrix(spec: KernelSpec, rows, cols, shared=None) -> np.ndarray:
    """Entry (i, j) = K(rows[i], cols[j]), from one pair statistic made K in
    place; a family other than the distance ones raises ConfigError first.

    Rows and columns are lists or (N, L, D) stacks, left unmodified: on the
    product path each distinct input is copied once, inside `_pairwise`, and
    the sliding path copies none.  `gram_matrix(spec, z, z)` (the same object
    twice) takes its squared distances from `pair_sq_dists(z)`, one
    symmetric product or the sliding path: the result is exactly symmetric
    with a diagonal of exactly K(z_i, z_i) = 1.  Against the per-pair
    reference kernel in `tests/kernel_reference.py` the entries agree to
    rtol 1e-12, including near-duplicate points and points at a large
    common offset; see `_pairwise` for the bound.  Identical inputs give
    bit-identical results.

    `shared` (R, C) holds the squared distances of a block that rows and
    columns share: the Gram is then that of the joints (shared block,
    rows[i]) against (shared block, cols[j]), and each block keeps its own
    `_pairwise` bound.  Only `balancing`'s test MMD^2 passes it, as
    `pair_sq_dists` of the history block it is given.
    """
    return kernel_from_stat(spec, _gram_sq_dists(spec, rows, cols, shared), np.size(rows[0]))


# Differences per `grad_b_sum` product (2 MB) unless one row is larger.  A
# temporary several times the batch's own arrays is mapped and page-faulted
# afresh per call (glibc): at N=128, T=96, D=21, K=3 it cost 1.4x.
_DIFF_ELEMENTS = 1 << 18


def grad_b_sum(spec: KernelSpec, coeffs, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_m dK(A_m, B_j)/dB_j on one block of flattened joints, for every j.

    `coeffs` (M, J) holds the factors c[m, j] of the pairs (A_m, B_j) (see
    `grad_coeffs`), `a` (M, P) the block of each A_m and `b` (J, P) the same
    block of each B_j.  Row j of the (J, P) result is sum_m c[m, j] (a_m - b_j)
    for the distance families and sum_m c[m, j] a_m otherwise.  The
    differences are formed explicitly, so a near-coincident pair keeps its
    accuracy, as (J, M, P) arrays of up to `_DIFF_ELEMENTS` contracted by
    one batched product each; a row rounds the same in any chunk.

    Error bound: for the c given, entry p of row j is within g(M+1) sum_m
    |c[m, j] (a_mp - b_jp)| of its exact sum, g(k) = k u / (1 - k u): one
    rounding per difference, g(M) per product in any order (g(M) and
    |c[m, j] a_mp| otherwise).  c carries its pair statistic's error.
    """
    if not spec.is_distance:
        return coeffs.T @ a
    c = coeffs.T[:, None, :]
    step = max(1, _DIFF_ELEMENTS // a.size)
    return np.concatenate([
        np.matmul(c[lo : lo + step], a - b[lo : lo + step, None, :])[:, 0, :]
        for lo in range(0, len(b), step)
    ])


def _window_rows(stack):
    """A read-only (N+L-1, D) view of the rows of a stride-1 window stack,
    a nonempty (N, L, D) float64 ndarray whose first two strides are equal
    and nonzero (window i is rows i..i+L-1); None for any other input."""
    if not isinstance(stack, np.ndarray) or stack.ndim != 3 or stack.size == 0:
        return None
    step, inner, channel = stack.strides
    if stack.dtype != np.float64 or step != inner or step == 0:
        return None
    n, length, d = stack.shape
    return as_strided(stack, (n + length - 1, d), (step, channel), writeable=False)


def _sliding_sq_dists(rows, n: int, length: int) -> np.ndarray:
    """(n, n) squared distances between the windows rows[i : i+length].

    d(i, j) = sum_{t<length} E(i+t, j+t), where E is the matrix of squared
    distances between the m = n+length-1 rows, from `_sq_dists` (centred
    expansion, near pairs recomputed): O(m^2 D) work instead of the
    product's O(n^2 length D).  Each diagonal of E is summed in blocks of
    `length` rows: a window starting at offset o > 0 of block b is the
    suffix of block b from o plus the prefix of block b+1 up to o-1, and a
    window at o = 0 is block b's full prefix.  Both are running sums of
    non-negative terms, so no difference of prefix sums is taken and no
    entry loses accuracy to cancellation.

    Error bound: an entry of E kept from the expansion is within a relative
    2e3 D u of its row distance (see `_pairwise`), a recomputed one within
    D u.  A difference of prefix sums S_b - S_a would lose about u C / d for
    the prefix C = S_a it subtracts; here the suffix, the prefix and their
    sum add `length` - 1 roundings of non-negative partial sums, so d(i, j)
    is within a relative (2e3 D + length - 1) u <= 2e3 L D u, `_pairwise`'s
    bound, and no entry needs recomputing.  The result is exactly
    symmetric with an exactly-zero diagonal, and coincident windows give
    exactly 0: their terms of E are recomputed zeros.  It is formed in E's
    buffer, so besides E only (length, n) block sums are allocated.
    """
    m = len(rows)
    blocks = -(-n // length) + 1  # the blocks that windows start in, and one more
    step = m + 1  # flat offset from E(r, r+k) to E(r+1, r+1+k)
    # E is the head of `buf`; the zero tail keeps the diagonal view below,
    # which wraps into E's lower triangle past row m-1-k, inside the buffer.
    buf = np.empty(blocks * length * step + n)
    buf[m * m :] = 0.0
    centred = rows - rows.sum(axis=0) / m
    r_sq = _row_sq(centred)
    e = buf[: m * m].reshape(m, m)
    _sq_dists(centred, centred, r_sq, r_sq, rows, rows, out=e)
    it = buf.itemsize
    # diag[b, o, k] = E(b*length + o, b*length + o + k).  Block by block, the
    # window i = b*length + o of diagonal k lands in place on E(i, i+k).
    diag = as_strided(buf, (blocks, length, n), (length * step * it, step * it, it))
    after, total = np.cumsum(diag[0], axis=0), np.empty(n)
    for b in range(blocks - 1):
        total[...] = after[-1]
        np.cumsum(diag[b + 1], axis=0, out=after)
        np.cumsum(diag[b, ::-1], axis=0, out=diag[b, ::-1])
        diag[b, 0] = total
        diag[b, 1:] += after[:-1]
    # Into the head of `buf` in row blocks (NumPy copies an overlapping source
    # first), each mirrored from the rows above.  The rest is cut off with no
    # view left, unchecked: a tracer's snapshot of this frame would count one.
    sq = buf[: n * n].reshape(n, n)
    for lo in range(0, n, 64):
        hi = min(lo + 64, n)
        sq[lo:hi, lo:] = e[lo:hi, lo:n]
        sq[lo:hi, :lo] = sq[:lo, lo:hi].T
        block = sq[lo:hi, lo:hi]
        np.copyto(block, block.T, where=np.tri(hi - lo, k=-1, dtype=bool))
    del diag, e, sq, block
    buf.resize(n * n, refcheck=False)
    return buf.reshape(n, n)


def pair_sq_dists(stack) -> np.ndarray:
    """(N, N) squared distances within a list or (N, L, D) stack: exactly
    symmetric, with an exactly-zero diagonal.  The input is left unmodified.
    A stride-1 window stack (see `_window_rows`), such as a view from
    `data.joint_windows`, one of its blocks or a contiguous slice, takes the
    sliding path; any other input (a list, a gathered copy, `view[::2]`, float32)
    one symmetric `_pairwise(stack, stack)`, which copies it once.  Both keep its bound."""
    rows = _window_rows(stack)
    if rows is None:
        return _pairwise(stack, stack)
    if not np.isfinite(rows).all():
        raise DomainError("kernel inputs must be finite")
    return _sliding_sq_dists(rows, *stack.shape[:2])


def median_bandwidth(joints) -> float:
    """Median heuristic: sigma^2 = median pairwise ||Z_i - Z_j|| over a batch
    (a list or an (N, L, D) stack), from `pair_sq_dists`.

    Falls back to 1.0 if the median distance is zero (all points coincide).
    """
    return _median_sigma(pair_sq_dists(joints))


def _median_sigma(sq: np.ndarray) -> float:
    """sqrt of np.median(np.sqrt(upper triangle of `sq`)), bit for bit: sqrt
    is monotone, so the triangle is partitioned in place and only its one or
    two middle values are rooted (a NaN gives NaN, as np.median does)."""
    if len(sq) < 2:
        raise ConfigError("median bandwidth needs at least 2 joint sequences")
    tri = np.concatenate([row[i + 1 :] for i, row in enumerate(sq[:-1])])
    lo, hi = (tri.size - 1) // 2, tri.size // 2
    tri.partition([lo, hi, -1])
    med = float("nan") if np.isnan(tri[-1]) else (np.sqrt(tri[lo]) + np.sqrt(tri[hi])) / 2
    return 1.0 if med <= 0.0 else float(np.sqrt(med))


def median_gram(spec: KernelSpec, joints, shared=None):
    """A distance `spec`, sigma "median" resolved to the median bandwidth of
    the joints (shared block, joints[i]) and a numeric sigma kept, and its
    `gram_matrix(spec, joints, joints, shared)`, bit for bit."""
    sq = _gram_sq_dists(spec, joints, joints, shared)
    if spec.sigma == "median":
        spec = replace(spec, sigma=_median_sigma(sq))
    return spec, kernel_from_stat(spec, sq, np.size(joints[0]))
