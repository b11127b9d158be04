"""Reference implementations and checks shared by the test modules."""

from contextlib import nullcontext

import numpy as np
import pytest

from kmbdf.errors import ConfigError
from kmbdf.kernels import grad_coeffs, kernel_from_stat


def refused_unless_distance(spec):
    """A no-op context for a distance `spec`, else `pytest.raises` of the
    ConfigError with which Grams and the MMD^2 refuse the other families."""
    return nullcontext() if spec.is_distance else pytest.raises(ConfigError, match="distance")


def eval_kernel(spec, a, b):
    """Per-pair reference K(a, b) for two same-shaped matrices, from the
    library's kernel formula `kernel_from_stat`."""
    af, bf = (np.asarray(z, dtype=float).ravel() for z in (a, b))
    if spec.is_distance:
        d = af - bf
        return float(kernel_from_stat(spec, np.array(np.sum(d * d)), af.size))
    return float(kernel_from_stat(spec, np.array(np.sum(af * bf)), af.size))


def kernel_grad_b(spec, a, b):
    """Per-pair reference gradient dK(a, b) / db, shaped like b, from the
    library's kernel factor `grad_coeffs`."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    d = a - b
    stat = np.sum(d * d) if spec.is_distance else np.sum(a * b)
    c = grad_coeffs(spec, stat, kernel_from_stat(spec, np.array(stat), a.size), a.size)
    return c * d if spec.is_distance else c * a
