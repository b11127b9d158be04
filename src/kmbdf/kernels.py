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

_DISTANCE_FAMILIES = frozenset({"exponential", "gaussian"})
_INNER_FAMILIES = frozenset({"linear", "polynomial", "sigmoid"})


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
        if self.family.value in _DISTANCE_FAMILIES:
            if self.sigma is None or not np.isfinite(self.sigma) or self.sigma <= 0:
                raise ConfigError(
                    f"{self.family.value} kernel requires sigma > 0, got {self.sigma}"
                )
        if self.family is KernelFamily.POLYNOMIAL:
            if self.degree is None or int(self.degree) < 1:
                raise ConfigError(
                    f"polynomial kernel requires degree >= 1, got {self.degree}"
                )

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


def _from_sq_dist(spec: KernelSpec, sq: np.ndarray | float):
    if spec.family is KernelFamily.EXPONENTIAL:
        return np.exp(-np.sqrt(sq) / (2.0 * spec.sigma**2))
    return np.exp(-sq / (2.0 * spec.sigma**2))


def _from_inner(spec: KernelSpec, inner: np.ndarray | float, size: int):
    if spec.family is KernelFamily.LINEAR:
        return inner
    s = spec.resolved_scale(size)
    c = spec.resolved_offset()
    if spec.family is KernelFamily.POLYNOMIAL:
        return (s * inner + c) ** int(spec.degree)
    return np.tanh(s * inner + c)


def eval_kernel(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> float:
    """Evaluate K(a, b) for two same-shaped matrices."""
    a, b = _check_pair(a, b)
    af, bf = a.ravel(), b.ravel()
    if spec.family.value in _DISTANCE_FAMILIES:
        d = af - bf
        return float(_from_sq_dist(spec, np.sum(d * d)))
    return float(_from_inner(spec, np.sum(af * bf), af.size))


# Squared distances at most this share of ||a||^2 + ||b||^2 are recomputed
# from the difference: there the expansion loses its relative accuracy.
NEAR_PAIR_RATIO = 1e-3
# Near pairs recomputed per chunk.  Every self-Gram recomputes its diagonal,
# so the chunk's (chunk, L*D) temporaries are kept small: at 256 pairs they
# set the process's peak memory in the test MMD^2.
_NEAR_PAIR_CHUNK = 32


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
        r_sq = c_sq = np.einsum("ij,ij->i", rf, rf)
    else:
        mean = (rf.sum(axis=0) + cf.sum(axis=0)) / (len(rf) + len(cf))
        rf -= mean
        cf -= mean
        r_sq = np.einsum("ij,ij->i", rf, rf)
        c_sq = np.einsum("ij,ij->i", cf, cf)
    norms = r_sq[:, None] + c_sq[None, :]
    sq = rf @ cf.T
    sq *= -2.0
    sq += norms
    norms *= NEAR_PAIR_RATIO
    ii, jj = np.nonzero(sq <= norms)
    for lo in range(0, ii.size, _NEAR_PAIR_CHUNK):
        i, j = ii[lo : lo + _NEAR_PAIR_CHUNK], jj[lo : lo + _NEAR_PAIR_CHUNK]
        d = rf[i] - cf[j]
        sq[i, j] = np.einsum("ij,ij->i", d, d)
    return sq


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
    if spec.family.value in _DISTANCE_FAMILIES:
        return _from_sq_dist(spec, _pairwise(rf, cf, distance=True))
    return _from_inner(spec, _pairwise(rf, cf, distance=False), rf.shape[1])


def kernel_grad_b(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Analytic gradient dK(a, b) / db, shaped like b."""
    a, b = _check_pair(a, b)
    return grad_b_batch(spec, a, b[None, ...])[0]


def grad_b_batch(spec: KernelSpec, a: np.ndarray, bs: np.ndarray) -> np.ndarray:
    """dK(a, bs[n]) / d bs[n] for a batch of b's; shape (N, *a.shape)."""
    a = np.asarray(a, dtype=float)
    bs = np.asarray(bs, dtype=float)
    af = a.ravel()
    bf = bs.reshape(bs.shape[0], -1)
    if bf.shape[1] != af.size:
        raise ShapeError(f"gradient inputs differ in size: {a.shape} vs {bs.shape[1:]}")
    if spec.family.value in _DISTANCE_FAMILIES:
        diff = af[None, :] - bf
        sq = np.sum(diff * diff, axis=1)
        k = _from_sq_dist(spec, sq)
        if spec.family is KernelFamily.EXPONENTIAL:
            denom = 2.0 * spec.sigma**2 * np.maximum(np.sqrt(sq), EPS_NORM)
            g = (k / denom)[:, None] * diff
        else:
            g = (k / spec.sigma**2)[:, None] * diff
        return g.reshape(bs.shape)
    size = af.size
    inner = np.sum(af[None, :] * bf, axis=1)
    if spec.family is KernelFamily.LINEAR:
        coeff = np.ones_like(inner)
    elif spec.family is KernelFamily.POLYNOMIAL:
        s = spec.resolved_scale(size)
        c = spec.resolved_offset()
        deg = int(spec.degree)
        coeff = deg * (s * inner + c) ** (deg - 1) * s
    else:
        s = spec.resolved_scale(size)
        c = spec.resolved_offset()
        coeff = (1.0 - np.tanh(s * inner + c) ** 2) * s
    return (coeff[:, None] * af[None, :]).reshape(bs.shape)


def grad_b_sum(spec: KernelSpec, batch_a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_n dK(batch_a[n], b) / db, shaped like b.

    Accumulated index-ascending so the result is deterministic.
    """
    batch_a = np.asarray(batch_a, dtype=float)
    b = np.asarray(b, dtype=float)
    af = batch_a.reshape(batch_a.shape[0], -1)
    bf = b.ravel()
    if spec.family.value in _DISTANCE_FAMILIES:
        diff = af - bf[None, :]
        sq = np.sum(diff * diff, axis=1)
        k = _from_sq_dist(spec, sq)
        if spec.family is KernelFamily.EXPONENTIAL:
            denom = 2.0 * spec.sigma**2 * np.maximum(np.sqrt(sq), EPS_NORM)
            contrib = (k / denom)[:, None] * diff
        else:
            contrib = (k / spec.sigma**2)[:, None] * diff
    else:
        size = bf.size
        inner = np.sum(af * bf[None, :], axis=1)
        if spec.family is KernelFamily.LINEAR:
            coeff = np.ones_like(inner)
        elif spec.family is KernelFamily.POLYNOMIAL:
            s = spec.resolved_scale(size)
            c = spec.resolved_offset()
            deg = int(spec.degree)
            coeff = deg * (s * inner + c) ** (deg - 1) * s
        else:
            s = spec.resolved_scale(size)
            c = spec.resolved_offset()
            coeff = (1.0 - np.tanh(s * inner + c) ** 2) * s
        contrib = coeff[:, None] * af
    out = np.sum(contrib, axis=0).reshape(b.shape)
    return out


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
