"""Kernel evaluation, Gram matrices, and analytic kernel gradients.

Five families are supported: exponential, gaussian, linear, polynomial and
sigmoid.  Inputs are joint sequences -- (H+T) x D matrices obtained by
concatenating a history block and a label/forecast block along time -- but any
consistently shaped arrays work; distance- and inner-product-based families
both operate on the flattened matrix.

Conventions:
    exponential:  K(a, b) = exp(-||a - b|| / (2 sigma^2))     (UNsquared norm)
    gaussian:     K(a, b) = exp(-||a - b||^2 / (2 sigma^2))
    linear:       K(a, b) = <a, b>
    polynomial:   K(a, b) = (scale * <a, b> + offset)^degree
    sigmoid:      K(a, b) = tanh(scale * <a, b> + offset)

||.|| is the Frobenius norm of the flattened difference.  `scale` defaults to
1/len(flattened), `offset` defaults to 0 (polynomial) or -1 (sigmoid).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, DomainError, ShapeError

# Guard for the 1/||a-b|| factor in the exponential kernel gradient.
EPS_NORM = 1e-12


class KernelFamily(str, Enum):
    EXPONENTIAL = "exponential"
    GAUSSIAN = "gaussian"
    LINEAR = "linear"
    POLYNOMIAL = "polynomial"
    SIGMOID = "sigmoid"


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus the parameters that family reads.

    Parameters irrelevant to `family` are ignored.  `scale` / `offset` may be
    left as None to use the size-dependent defaults described in the module
    docstring.
    """

    family: KernelFamily = KernelFamily.EXPONENTIAL
    sigma: float | None = None
    degree: int | None = None
    scale: float | None = None
    offset: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "family", KernelFamily(self.family))
        if self.is_distance:
            if self.sigma is None or not np.isfinite(self.sigma) or self.sigma <= 0:
                raise ConfigError(
                    f"{self.family.value} kernel requires sigma > 0, got {self.sigma}"
                )
        if self.family is KernelFamily.POLYNOMIAL:
            if self.degree is None or int(self.degree) < 1:
                raise ConfigError(
                    f"polynomial kernel requires degree >= 1, got {self.degree}"
                )

    @property
    def is_distance(self) -> bool:
        return self.family in (KernelFamily.EXPONENTIAL, KernelFamily.GAUSSIAN)

    def resolved_scale(self, size: int) -> float:
        return 1.0 / size if self.scale is None else float(self.scale)

    def resolved_offset(self) -> float:
        if self.offset is not None:
            return float(self.offset)
        return -1.0 if self.family is KernelFamily.SIGMOID else 0.0


def _check_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ShapeError(f"kernel inputs differ in shape: {a.shape} vs {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DomainError("kernel inputs must be finite")
    return a, b


def kernel_from_stat(spec: KernelSpec, stat, size: int):
    """K from the pair statistic: the squared distance for the distance
    families, the inner product otherwise; `size` is the flattened length."""
    if spec.is_distance:
        if spec.family is KernelFamily.EXPONENTIAL:
            return np.exp(-np.sqrt(stat) / (2.0 * spec.sigma**2))
        return np.exp(-stat / (2.0 * spec.sigma**2))
    if spec.family is KernelFamily.LINEAR:
        return stat
    s = spec.resolved_scale(size)
    c = spec.resolved_offset()
    if spec.family is KernelFamily.POLYNOMIAL:
        return (s * stat + c) ** int(spec.degree)
    return np.tanh(s * stat + c)


def grad_coeffs(spec: KernelSpec, stat, size: int):
    """Factor c of dK(a, b)/db from the pair statistic of `kernel_from_stat`.

    dK(a, b)/db = c (a - b) for the distance families and c a for the
    inner-product families.
    """
    if spec.is_distance:
        k = kernel_from_stat(spec, stat, size)
        if spec.family is KernelFamily.EXPONENTIAL:
            return k / (2.0 * spec.sigma**2 * np.maximum(np.sqrt(stat), EPS_NORM))
        return k / spec.sigma**2
    if spec.family is KernelFamily.LINEAR:
        return np.ones_like(stat)
    s = spec.resolved_scale(size)
    c = spec.resolved_offset()
    if spec.family is KernelFamily.POLYNOMIAL:
        deg = int(spec.degree)
        return deg * (s * stat + c) ** (deg - 1) * s
    return (1.0 - np.tanh(s * stat + c) ** 2) * s


def eval_kernel(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> float:
    """Evaluate K(a, b) for two same-shaped matrices."""
    a, b = _check_pair(a, b)
    af, bf = a.ravel(), b.ravel()
    if spec.is_distance:
        d = af - bf
        return float(kernel_from_stat(spec, np.sum(d * d), af.size))
    return float(kernel_from_stat(spec, np.sum(af * bf), af.size))


# Squared distances at most this share of ||a||^2 + ||b||^2 are recomputed
# from the difference: there the expansion loses its relative accuracy.
NEAR_PAIR_RATIO = 1e-3
# Near pairs recomputed per chunk.  A Gram of one sample against a copy of
# itself recomputes its whole diagonal, so the chunk's (chunk, L*D)
# temporaries are kept small: at 256 pairs they set the process's peak
# memory in the test MMD^2.
_NEAR_PAIR_CHUNK = 32


def _row_sq(a: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, a)


def _sq_dists(rf, cf, r_sq, c_sq, rows=None, cols=None) -> np.ndarray:
    """Squared distances between the rows of two centred stacks, given their
    squared row norms; see `_pairwise`.  Near pairs are recomputed from
    `rows` and `cols`, the uncentred stacks, when the caller still has them
    (the centred ones otherwise): then a near pair loses nothing to the
    rounding of the centring."""
    rows = rf if rows is None else rows
    cols = cf if cols is None else cols
    norms = r_sq[:, None] + c_sq[None, :]
    sq = rf @ cf.T
    sq *= -2.0
    sq += norms
    norms *= NEAR_PAIR_RATIO
    near = sq <= norms
    if rows is cols:
        # Each row against itself: exactly 0, nothing to recompute.
        np.fill_diagonal(near, False)
        np.fill_diagonal(sq, 0.0)
    ii, jj = np.nonzero(near)
    for lo in range(0, ii.size, _NEAR_PAIR_CHUNK):
        i, j = ii[lo : lo + _NEAR_PAIR_CHUNK], jj[lo : lo + _NEAR_PAIR_CHUNK]
        d = rows[i] - cols[j]
        sq[i, j] = _row_sq(d)
    return sq


def _pairwise(rf: np.ndarray, cf: np.ndarray, distance: bool) -> np.ndarray:
    """Squared distances or inner products between the rows of two stacks.

    `rf` (R, P) and `cf` (C, P) are float stacks the caller owns; for
    distances they are centred in place on their shared mean (pass the same
    array twice for distances within one stack).  Inner products are
    `rf @ cf.T`.  Squared distances are ||a||^2 + ||b||^2 - 2 <a, b> on the
    centred rows, one matrix product for all entries; an entry whose result
    is at most NEAR_PAIR_RATIO * (||a||^2 + ||b||^2) is recomputed as
    sum((a - b)^2), so coincident rows give exactly 0.

    Error bound: the expansion's rounding is at most about 2 P u
    (||a||^2 + ||b||^2) for unit roundoff u = 2^-53, so an entry kept from
    it is within a relative 2e3 P u of the squared distance of the centred
    rows; a recomputed entry carries only the rounding of the difference.
    """
    if not distance:
        return rf @ cf.T
    if rf is cf:
        rf -= rf.mean(axis=0)
        r_sq = c_sq = _row_sq(rf)
    else:
        mean = (rf.sum(axis=0) + cf.sum(axis=0)) / (len(rf) + len(cf))
        rf -= mean
        cf -= mean
        r_sq, c_sq = _row_sq(rf), _row_sq(cf)
    return _sq_dists(rf, cf, r_sq, c_sq)


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
        hc = hist - hist.mean(axis=0)
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


def as_stack(batch) -> np.ndarray:
    """A batch as one float array; a list of same-shaped arrays is stacked.

    A float ndarray passes through without a copy.
    """
    if len(batch) == 0:
        raise ShapeError("empty batch")
    try:
        return np.asarray(batch, dtype=float)
    except ValueError as exc:
        raise ShapeError(f"batch samples differ in shape: {exc}") from exc


def _stack(mats, shape=None) -> np.ndarray:
    """(N, L*D) float stack of same-shaped finite matrices."""
    mats = [np.asarray(m, dtype=float) for m in mats]
    shape = mats[0].shape if shape is None else shape
    for m in mats:
        if m.shape != shape:
            raise ShapeError(f"kernel inputs differ in shape: {shape} vs {m.shape}")
    flat = np.stack([m.ravel() for m in mats])
    if not np.isfinite(flat).all():
        raise DomainError("kernel inputs must be finite")
    return flat


def gram_matrix(spec: KernelSpec, rows, cols) -> np.ndarray:
    """Entry (i, j) = K(rows[i], cols[j]), through one `_pairwise` product.

    Rows and columns are stacked into fresh arrays, so the in-place centring
    never touches the caller's data.  Against the sequential double loop over
    `eval_kernel` the entries agree to rtol 1e-12 in the tests, including
    near-duplicate points and points at a large common offset; see
    `_pairwise` for the bound.  Identical inputs give bit-identical results.
    """
    if len(rows) == 0 or len(cols) == 0:
        raise ShapeError("gram_matrix requires nonempty row/col lists")
    rf = _stack(rows)
    cf = _stack(cols, shape=np.shape(rows[0]))
    return kernel_from_stat(spec, _pairwise(rf, cf, spec.is_distance), rf.shape[1])


def kernel_grad_b(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Analytic gradient dK(a, b) / db, shaped like b."""
    a, b = _check_pair(a, b)
    if spec.is_distance:
        d = a - b
        return grad_coeffs(spec, np.sum(d * d), a.size) * d
    return grad_coeffs(spec, np.sum(a * b), a.size) * a


def grad_b_sum(spec: KernelSpec, stat, a: np.ndarray, b: np.ndarray, size: int) -> np.ndarray:
    """sum_n dK(A_n, B)/dB on one block of flattened joints, shaped like b.

    `stat` (N,) holds s(A_n, B) of the whole joints (see `joint_stats`),
    `a` (N, P) is the block of each A_n, `b` (P,) the same block of B and
    `size` the joint length.  The sum is sum_n c_n (a_n - b) for the
    distance families and sum_n c_n a_n otherwise, with c = `grad_coeffs`.
    The differences are formed explicitly, so a near-coincident pair keeps
    its accuracy.

    Error bound: c carries the relative error of `stat` (see `joint_stats`),
    scaled by the kernel's sensitivity to it; the block sum then adds only
    the rounding of one matrix-vector product over N terms.
    """
    c = grad_coeffs(spec, stat, size)
    return c @ (a - b) if spec.is_distance else c @ a


def median_bandwidth(joints) -> float:
    """Median heuristic: sigma^2 = median pairwise ||Z_i - Z_j|| over a batch.

    Falls back to 1.0 if the median distance is zero (all points coincide).
    """
    if len(joints) < 2:
        raise ConfigError("median bandwidth needs at least 2 joint sequences")
    flats = _stack(joints)
    sq = _pairwise(flats, flats, distance=True)
    med = float(np.median(np.sqrt(sq[np.triu_indices(len(flats), k=1)])))
    if med <= 0.0:
        return 1.0
    return float(np.sqrt(med))
