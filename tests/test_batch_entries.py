"""Every public entry point that takes a batch validates it the same way.

A list of per-sample arrays and its stack give bit-identical results;
scalar, empty, ragged or mismatched input raises ShapeError; NaN raises
DomainError wherever the entry checks finiteness.  None of them may emit a
RuntimeWarning.
"""

import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest

from kmbdf.balancing import (
    BalanceConfig,
    BalanceDiagnostics,
    kmb_df_grad,
    mmd_squared,
)
from kmbdf.errors import DomainError, ShapeError
from kmbdf.harness import evaluate
from kmbdf.kernels import KernelSpec, gram_matrix, median_bandwidth, pair_sq_dists
from kmbdf.models import backward_batch, forward_batch, init_forecaster
from kmbdf.objectives import FrequencyL1Objective, KmbDfObjective, MseObjective

EXP = KernelSpec(family="exponential", sigma=1.3)
CFG = BalanceConfig(alpha=0.4, top_k=2, margin_c=0.01, kernel=EXP)
BATCH = [(5, 3, 2), (5, 2, 2), (5, 2, 2)]  # histories, labels, forecasts
PAIR = [(5, 3, 2), (4, 3, 2)]  # two samples of joints
MODEL = init_forecaster(history_len=3, horizon=2, channels=2, seed=0)


class Entry(NamedTuple):
    call: Callable
    shapes: list  # of each batch argument, as stacks
    reads: tuple  # the arguments the entry reads
    same_n: bool  # whether their sample counts must agree
    finite: bool  # whether the entry rejects NaN


ENTRIES = {
    "gram_matrix": Entry(lambda r, c: gram_matrix(EXP, r, c), PAIR, (0, 1), False, True),
    "gram_matrix_within": Entry(lambda z: gram_matrix(EXP, z, z), [(5, 3, 2)], (0,), False, True),
    "pair_sq_dists": Entry(pair_sq_dists, [(5, 3, 2)], (0,), False, True),
    "median_bandwidth": Entry(median_bandwidth, [(5, 3, 2)], (0,), False, True),
    "mmd_squared": Entry(lambda p, q: mmd_squared(EXP, p, q), [(5, 3, 2)] * 2, (0, 1), True, True),
    "kmb_df_grad": Entry(lambda *b: kmb_df_grad(CFG, *b), BATCH, (0, 1, 2), True, True),
    "mse": Entry(MseObjective().loss_and_grad, BATCH, (1, 2), True, False),
    "freq_l1": Entry(FrequencyL1Objective().loss_and_grad, BATCH, (1, 2), True, False),
    "kmb_df": Entry(KmbDfObjective(config=CFG).loss_and_grad, BATCH, (0, 1, 2), True, True),
    "forward_batch": Entry(lambda x: forward_batch(MODEL, x), BATCH[:1], (0,), False, False),
    "backward_batch": Entry(lambda x, g: backward_batch(MODEL, x, g), BATCH[:2], (0, 1), True, False),
    "evaluate": Entry(lambda x, y: evaluate(MODEL, (x, y)), BATCH[:2], (0, 1), True, False),
}


def stacks(entry):
    rng = np.random.default_rng(0)
    return [rng.normal(size=shape) for shape in entry.shapes]


def call(entry, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return entry.call(*args)


def bits(result) -> list:
    """(shape, dtype, bytes) of every number in a result."""
    if isinstance(result, BalanceDiagnostics):
        result = tuple(vars(result).values())
    if result is None:
        return []
    if isinstance(result, tuple):
        return [leaf for part in result for leaf in bits(part)]
    a = np.asarray(result)
    return [(a.shape, a.dtype.str, a.tobytes())]


def listed(batch):
    """A batch as a list of its samples; a scalar, which has none, as itself."""
    return list(batch) if getattr(batch, "ndim", 1) and hasattr(batch, "__len__") else batch


def replaced(args, i, value):
    return [value if j == i else a for j, a in enumerate(args)]


def shape_faults(entry):
    """Argument lists, each with one bad batch argument."""
    args = stacks(entry)
    for i in entry.reads:
        ragged = list(args[i])
        ragged[1] = ragged[1][:-1]
        yield replaced(args, i, 5.0)  # no samples axis: `listed` keeps it as it is
        yield replaced(args, i, np.array(5.0))
        yield replaced(args, i, [])
        yield replaced(args, i, args[i][:0])
        yield replaced(args, i, ragged)
        if len(entry.reads) > 1:
            yield replaced(args, i, args[i][..., :-1])
            if entry.same_n:
                yield replaced(args, i, args[i][:-1])


@pytest.mark.parametrize("name", ENTRIES)
def test_list_and_stack_give_identical_bits(name):
    entry = ENTRIES[name]
    args = stacks(entry)
    want = bits(call(entry, args))
    assert want
    assert bits(call(entry, [list(a) for a in args])) == want


@pytest.mark.parametrize("name", ENTRIES)
def test_empty_ragged_or_mismatched_input_raises_shape_error(name):
    entry = ENTRIES[name]
    for args in shape_faults(entry):
        for form in (args, [listed(a) for a in args]):
            with pytest.raises(ShapeError):
                call(entry, form)


@pytest.mark.parametrize("name", [n for n, e in ENTRIES.items() if e.finite])
def test_nan_raises_domain_error(name):
    entry = ENTRIES[name]
    for i in entry.reads:
        args = stacks(entry)
        args[i][(1,) * args[i].ndim] = np.nan
        for form in (args, [list(a) for a in args]):
            with pytest.raises(DomainError):
                call(entry, form)


@pytest.mark.parametrize("windows", [5.0, None, np.float64(2.0)], ids=repr)
def test_evaluate_rejects_a_scalar_as_its_windows(windows):
    with warnings.catch_warnings(), pytest.raises(ShapeError):
        warnings.simplefilter("error", RuntimeWarning)
        evaluate(MODEL, windows)
