"""Coupled, decoupled, and mixed U-statistic sums for fixed sample matrices.

A sample matrix is a numpy array of shape (n, copies) whose (i, j) entry is
the realization of the j-th independent copy of the i-th variable.  A leading
batch axis is allowed everywhere, so the same code paths serve single
realizations and vectorized Monte Carlo / enumeration sweeps.

Every sum goes through one core, `slot_sum`.  A kernel that carries a
coefficient tensor is summed by one tensor contraction (fast path).  Any other
kernel is called once per copy pattern and index tuple, in lexicographic
order, and the terms are accumulated in place (generic path).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import BudgetExceededError, ValidationError
from .kernel import (FACTORIAL_BUDGET, MAX_TUPLE_COUNT, KernelFamily,
                     distinct_mask, distinct_tuples)


def _check_sample(kf: KernelFamily, s: np.ndarray, copies_needed: int) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.ndim < 2:
        raise ValidationError("sample matrix must have shape (..., n, copies)")
    if s.shape[-2] != kf.n:
        raise ValidationError(f"sample has {s.shape[-2]} rows, kernel expects n={kf.n}")
    if s.shape[-1] < copies_needed:
        raise ValidationError(
            f"sample has {s.shape[-1]} copies, statistic needs {copies_needed}")
    if kf.k > kf.n:
        raise ValidationError("kernel order k exceeds n")
    if math.perm(kf.n, kf.k) > MAX_TUPLE_COUNT:
        raise BudgetExceededError("distinct tuple count exceeds evaluation ceiling")
    return s


def _contract(tensor: np.ndarray, cols) -> np.ndarray:
    """sum over idx of tensor[idx] * cols[0][..., idx_0] * ... * cols[k-1][..., idx_{k-1}],
    one slot at a time as (batched) matrix products."""
    cols = np.broadcast_arrays(*cols)
    n = tensor.shape[0]
    acc = cols[0].reshape(-1, n) @ tensor.reshape(n, -1)
    for c in cols[1:]:
        acc = (c.reshape(-1, 1, n) @ acc.reshape(len(acc), n, acc.shape[1] // n))[:, 0]
    return acc.reshape(cols[0].shape[:-1] + tensor.shape[len(cols):])


def slot_sum(kf: KernelFamily, s: np.ndarray, slots, weights=None) -> np.ndarray:
    """Sum over copy patterns j in slots[0] x ... x slots[k-1] and distinct index
    tuples idx of  w(idx) * f_idx(s[..., idx_0, j_0], ..., s[..., idx_{k-1}, j_{k-1}]),
    where w(idx) is the product of weights[r][..., idx_r] (1 without weights).

    `s` has shape (..., n, copies) and each weights[r] shape (..., n).  Inputs
    are not validated; the public sums below do that.
    """
    k = kf.k
    if kf.coeffs is not None:
        # multilinearity: the patterns of each slot add up column-wise
        weights = weights or [np.ones(kf.n)] * k
        cols = [s[..., list(sl)].sum(axis=-1) * w for sl, w in zip(slots, weights)]
        count = math.prod(len(sl) for sl in slots) * _contract(
            distinct_mask(kf.n, k), weights)
        const = np.broadcast_to(kf.const, kf.coeffs.shape[k:])  # () or (dim,)
        return _contract(kf.coeffs, cols) + np.multiply.outer(count, const)
    shapes = [s.shape[:-2]] + [w.shape[:-1] for w in weights or ()]
    acc = np.zeros(np.broadcast_shapes(*shapes) + ((kf.dim,) if kf.dim > 1 else ()))
    for j in itertools.product(*slots):
        for idx in distinct_tuples(kf.n, k):
            term = kf.evaluate(idx, tuple(s[..., idx[r], j[r]] for r in range(k)))
            if weights is not None:
                w = math.prod(weights[r][..., idx[r]] for r in range(k))
                term = term * (w[..., None] if kf.dim > 1 else w)
            acc += term
    return acc


def statistic(kf: KernelFamily, s: np.ndarray, mode: str, pattern=None,
              l: int | None = None) -> np.ndarray:
    """Unvalidated sum of one StatisticSpec mode on samples of shape (..., n, copies)."""
    k = kf.k
    if mode == "coupled":
        return slot_sum(kf, s, [(0,)] * k)
    if mode == "pattern":
        return slot_sum(kf, s, [(p,) for p in pattern])
    if mode == "mixed":
        return slot_sum(kf, s, [range(l)] * k)
    if mode == "not_all_equal":
        return (slot_sum(kf, s, [range(2)] * k)
                - slot_sum(kf, s, [(0,)] * k) - slot_sum(kf, s, [(1,)] * k))
    return sum(slot_sum(kf, s, [(p,) for p in pi])  # symmetrized: k! patterns
               for pi in itertools.permutations(range(k)))


def pattern_sum(kf: KernelFamily, s: np.ndarray, pattern) -> np.ndarray:
    """Sum over distinct index tuples with copy assignments given by `pattern`.

    Pattern (0,...,0) is the coupled statistic; (0,1,...,k-1) the fully
    decoupled one.
    """
    pattern = tuple(int(p) for p in pattern)
    if len(pattern) != kf.k:
        raise ValidationError("pattern length must equal kernel order")
    s = _check_sample(kf, s, max(pattern) + 1)
    return statistic(kf, s, "pattern", pattern)


def mixed_sum(kf: KernelFamily, s: np.ndarray, l: int) -> np.ndarray:
    """Sum over all distinct tuples and all l^k copy patterns."""
    if l < 1:
        raise ValidationError("l must be >= 1")
    return statistic(kf, _check_sample(kf, s, l), "mixed", l=l)


def not_all_equal_sum(kf: KernelFamily, s: np.ndarray) -> np.ndarray:
    """Two-copy mixed sum minus the two all-equal pattern sums."""
    return statistic(kf, _check_sample(kf, s, 2), "not_all_equal")


def symmetrized_decoupled_sum(kf: KernelFamily, s: np.ndarray) -> np.ndarray:
    """Sum over all distinct tuples and all k! permutation copy patterns."""
    if kf.k > FACTORIAL_BUDGET:
        raise BudgetExceededError(f"k={kf.k} exceeds factorial budget")
    return statistic(kf, _check_sample(kf, s, kf.k), "symmetrized")
