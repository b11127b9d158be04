"""Reference implementations shared by the test modules."""

import numpy as np

from kmbdf.kernels import grad_coeffs


def kernel_grad_b(spec, a, b):
    """Per-pair reference gradient dK(a, b) / db, shaped like b, from the
    library's kernel factor `grad_coeffs`."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if spec.is_distance:
        d = a - b
        return grad_coeffs(spec, np.sum(d * d), a.size) * d
    return grad_coeffs(spec, np.sum(a * b), a.size) * a
