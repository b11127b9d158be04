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
# temporaries are kept small.
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
        # Each row against itself: exactly 0, nothing to recompute.  Both
        # are new C-contiguous arrays, so ravel() is a view.
        near.ravel()[:: len(near) + 1] = False
        sq.ravel()[:: len(sq) + 1] = 0.0
    if not near.any():
        return sq
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
    copy is C-contiguous.
    """
    if len(batch) == 0:
        raise ShapeError("empty batch")
    try:
        if copy:
            return np.array(batch, dtype=float, order="C")
        return np.asarray(batch, dtype=float)
    except ValueError as exc:
        raise ShapeError(f"batch samples differ in shape: {exc}") from exc


def _working_copy(mats, shape=None) -> np.ndarray:
    """(N, L*D) float copy of a stack or a list of same-shaped finite
    matrices, each of `shape` if given, for `_pairwise` to centre in place."""
    stack = as_stack(mats, copy=True)
    if shape is not None and stack.shape[1:] != shape:
        raise ShapeError(f"kernel inputs differ in shape: {shape} vs {stack.shape[1:]}")
    if not np.isfinite(stack).all():
        raise DomainError("kernel inputs must be finite")
    return stack.reshape(len(stack), -1)


def _add_shared(stat: np.ndarray, shared, spec: KernelSpec | None = None) -> np.ndarray:
    """`stat` plus `shared`, the squared distances of a block that every
    input shares; `spec`, if given, must be a distance kernel."""
    if shared is None:
        return stat
    if spec is not None and not spec.is_distance:
        # The inner-product families' default scale is 1/len of the whole
        # joint, which a label block alone does not know.
        raise ConfigError(f"a shared block needs a distance kernel, got {spec.family.value}")
    if np.shape(shared) != stat.shape:
        raise ShapeError(f"shared statistic {np.shape(shared)} does not match {stat.shape}")
    stat += shared
    return stat


def gram_matrix(spec: KernelSpec, rows, cols, shared=None) -> np.ndarray:
    """Entry (i, j) = K(rows[i], cols[j]), through one `_pairwise` product.

    Rows and columns are lists or (N, L, D) stacks; each distinct input is
    copied once, so the in-place centring never touches the caller's data.
    `gram_matrix(spec, z, z)` (the same object twice) is one symmetric
    product on one copy: the result is exactly symmetric, and for the
    distance families its diagonal is exactly K(z_i, z_i) = 1.  Against the
    sequential double loop over `eval_kernel` the entries agree to rtol
    1e-12 in the tests, including near-duplicate points and points at a
    large common offset; see `_pairwise` for the bound.  Identical inputs
    give bit-identical results.

    `shared` (R, C), for the distance families only, holds the squared
    distances of a block that rows and columns share, such as
    `pair_sq_dists` of a common history: the Gram is then that of the
    joints (shared block, rows[i]) against (shared block, cols[j]), and each
    block keeps its own `_pairwise` bound.
    """
    if len(rows) == 0 or len(cols) == 0:
        raise ShapeError("gram_matrix requires nonempty rows and columns")
    rf = _working_copy(rows)
    cf = rf if cols is rows else _working_copy(cols, shape=np.shape(rows[0]))
    stat = _add_shared(_pairwise(rf, cf, spec.is_distance), shared, spec)
    return kernel_from_stat(spec, stat, rf.shape[1])


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

    Error bound: c carries the relative error of its pair statistic (see
    `joint_stats`), scaled by the kernel's sensitivity to it; each row then
    adds only the rounding of one vector-matrix product over M terms.
    """
    if not spec.is_distance:
        return coeffs.T @ a
    c = coeffs.T[:, None, :]
    step = max(1, _DIFF_ELEMENTS // a.size)
    return np.concatenate([
        np.matmul(c[lo : lo + step], a - b[lo : lo + step, None, :])[:, 0, :]
        for lo in range(0, len(b), step)
    ])


def pair_sq_dists(stack) -> np.ndarray:
    """(N, N) squared distances within a list or (N, L, D) stack, from one
    symmetric `_pairwise` product: exactly symmetric, with an exactly-zero
    diagonal.  The input is left unmodified."""
    flats = _working_copy(stack)
    return _pairwise(flats, flats, distance=True)


def median_bandwidth(joints, shared=None) -> float:
    """Median heuristic: sigma^2 = median pairwise ||Z_i - Z_j|| over a batch
    (a list or an (N, L, D) stack), from one symmetric product.  With
    `shared` (N, N), the squared distances of a block every Z_i shares (see
    `gram_matrix`), the distances are those of the joints (block, Z_i).

    Falls back to 1.0 if the median distance is zero (all points coincide).
    """
    if len(joints) < 2:
        raise ConfigError("median bandwidth needs at least 2 joint sequences")
    sq = _add_shared(pair_sq_dists(joints), shared)
    med = float(np.median(np.sqrt(sq[np.triu_indices(len(sq), k=1)])))
    if med <= 0.0:
        return 1.0
    return float(np.sqrt(med))
