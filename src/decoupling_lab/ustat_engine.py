"""Coupled, decoupled, and mixed U-statistic sums for fixed sample matrices.

A sample matrix is a numpy array of shape (n, copies) whose (i, j) entry is
the realization of the j-th independent copy of the i-th variable.  A leading
batch axis is allowed everywhere, so the same code paths serve single
realizations and vectorized Monte Carlo / enumeration sweeps.

Each statistic is defined once, by a `StatisticSpec`: validated when built,
summed when called on samples; the public sums are spec calls.  Every sum is
one call of one core, `slot_sum`, over the spec's listed copy patterns.  A
kernel that carries a coefficient tensor is summed by one tensor contraction
when the patterns form a product set, else by one per pattern (fast path).
Any other kernel is called once per index tuple, in lexicographic order, on
all copy patterns at once (one broadcast axis for the patterns), and the
pattern sums are added at the end (generic path); a block of more than _BLOCK
values (batch x patterns x dim) is split into blocks of patterns.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetExceededError, ValidationError
from .kernel import (FACTORIAL_BUDGET, MAX_TUPLE_COUNT, KernelFamily,
                     distinct_mask, distinct_tuples)
from .value_space import NORM_KINDS

MODES = ("coupled", "pattern", "mixed", "not_all_equal", "symmetrized")
_BLOCK = 2 ** 13  # generic slot_sum: values per broadcast array (more only if batch x dim is)


def _contract(tensor: np.ndarray, cols) -> np.ndarray:
    """sum over idx of tensor[idx] * cols[0][..., idx_0] * ... * cols[k-1][..., idx_{k-1}],
    one slot at a time as (batched) matrix products."""
    cols = np.broadcast_arrays(*cols)
    n = tensor.shape[0]
    acc = cols[0].reshape(-1, n) @ tensor.reshape(n, -1)
    for c in cols[1:]:
        acc = (c.reshape(-1, 1, n) @ acc.reshape(len(acc), n, acc.shape[1] // n))[:, 0]
    return acc.reshape(cols[0].shape[:-1] + tensor.shape[len(cols):])


def slot_sum(kf: KernelFamily, s: np.ndarray, patterns, weights=None) -> np.ndarray:
    """Sum over the listed copy patterns j and distinct index tuples idx of
    w(idx, j) * f_idx(s[..., idx_0, j_0], ..., s[..., idx_{k-1}, j_{k-1}]), where
    w(idx, j) is the product of weights[r][..., idx_r, j_r] (1 without weights).
    The patterns are k-tuples of copy indices and must be distinct.

    `s` and each weights[r] have shape (..., n, copies).  Inputs are not
    validated; calling a StatisticSpec does that.
    """
    k, patterns = kf.k, [tuple(p) for p in patterns]
    batch = np.broadcast_shapes(s.shape[:-2], *[w.shape[:-2] for w in weights or ()])
    dims = (kf.dim,) if kf.dim > 1 else ()
    if not patterns:  # k = 1 not_all_equal lists none
        return np.zeros(batch + dims)
    if kf.coeffs is not None:
        slots = [sorted(set(copies)) for copies in zip(*patterns)]
        if math.prod(map(len, slots)) != len(patterns):  # no product set: pattern by pattern
            return functools.reduce(np.add, (slot_sum(kf, s, [p], weights) for p in patterns))
        # multilinearity: the weighted copies of each slot add up column-wise
        # unit weights: no ones array or multiply pass (on identities_mc, two shared cores,
        # these calls take 0.17-0.22 s, against 0.26-0.30 s on ones); each tuple counts once
        if weights is None:
            cols = [s[..., sl].sum(axis=-1) for sl in slots]
            count = math.perm(kf.n, k) * len(patterns)
        else:
            cols = [(s[..., sl] * w[..., sl]).sum(axis=-1) for sl, w in zip(slots, weights)]
            count = _contract(distinct_mask(kf.n, k),
                              [w[..., sl].sum(axis=-1) for sl, w in zip(slots, weights)])
        const = np.broadcast_to(kf.const, kf.coeffs.shape[k:])  # () or (dim,)
        return _contract(kf.coeffs, cols) + np.multiply.outer(count, const)
    total, step = 0, max(1, _BLOCK // (math.prod(batch) * kf.dim))  # patterns per block
    for a in range(0, len(patterns), step):
        block = np.array(patterns[a:a + step])  # (P, k); the P patterns on one broadcast axis
        cols = [np.moveaxis(s[..., block[:, r]], -2, 0) for r in range(k)]  # (n, ..., P)
        ws = [np.moveaxis(w[..., block[:, r]], -2, 0) for r, w in enumerate(weights or ())]
        acc = np.zeros(batch + (len(block),) + dims)
        for idx in distinct_tuples(kf.n, k):  # every pattern of the block at once
            term = kf.evaluate(idx, tuple(cols[r][idx[r]] for r in range(k)))
            if weights is not None:
                w = math.prod(ws[r][idx[r]] for r in range(k))
                term = term * (w[..., None] if kf.dim > 1 else w)
            acc += term
        total = total + acc.sum(axis=len(batch))
    return total


@dataclass(frozen=True)
class StatisticSpec:
    """One of the sums whose norm tail the theorems compare, validated when built.

    mode: one of MODES; 'pattern' reads `pattern` (k integer copy indices >= 0),
    'mixed' reads `l` (an integer >= 1), and a mode reads only its own fields.
    Calling the spec on samples of shape (..., n, copies) returns the sum.
    """

    kernel: KernelFamily
    mode: str
    pattern: Optional[tuple] = None
    l: Optional[int] = None
    norm_kind: str = "euclidean"

    def __post_init__(self):
        k = self.kernel.k
        if k > self.kernel.n:
            raise ValidationError(f"kernel order k={k} exceeds n={self.kernel.n}")
        if self.norm_kind not in NORM_KINDS:
            raise ValidationError(f"unknown norm kind {self.norm_kind!r}")
        if self.mode not in MODES:
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.mode == "pattern":
            if self.pattern is None or len(self.pattern) != k:
                raise ValidationError("pattern mode needs a pattern of length k")
            object.__setattr__(self, "pattern", tuple(
                _whole(p, "pattern entry", 0) for p in self.pattern))
        elif self.mode == "mixed":
            object.__setattr__(self, "l", _whole(self.l, "mixed mode l", 1))
        elif self.mode == "symmetrized":
            if k > FACTORIAL_BUDGET:
                raise BudgetExceededError(f"k={k} exceeds factorial budget")

    @property
    def copies_needed(self) -> int:
        if self.mode == "pattern":
            return max(self.pattern) + 1
        return {"coupled": 1, "mixed": self.l, "not_all_equal": 2,
                "symmetrized": self.kernel.k}[self.mode]

    def patterns(self):
        """Copy patterns whose pattern sums add up to the statistic."""
        k = self.kernel.k
        if self.mode == "coupled":
            return [(0,) * k]
        if self.mode == "pattern":
            return [self.pattern]
        if self.mode == "mixed":
            return list(itertools.product(range(self.l), repeat=k))
        if self.mode == "not_all_equal":
            return [p for p in itertools.product((0, 1), repeat=k) if len(set(p)) > 1]
        return list(itertools.permutations(range(k)))

    def __call__(self, s: np.ndarray) -> np.ndarray:
        """The sum on samples of shape (..., n, copies), one per leading index: one slot
        sum over the copy patterns in `patterns()`."""
        kf = self.kernel
        s = np.asarray(s, dtype=float)
        if s.ndim < 2:
            raise ValidationError("sample matrix must have shape (..., n, copies)")
        if s.shape[-2] != kf.n:
            raise ValidationError(
                f"sample has {s.shape[-2]} rows, kernel expects n={kf.n}")
        if s.shape[-1] < self.copies_needed:
            raise ValidationError(
                f"sample has {s.shape[-1]} copies, statistic needs {self.copies_needed}")
        if math.perm(kf.n, kf.k) > MAX_TUPLE_COUNT:
            raise BudgetExceededError("distinct tuple count exceeds evaluation ceiling")
        return slot_sum(kf, s, self.patterns())


def _whole(value, name: str, least: int) -> int:
    if not isinstance(value, numbers.Integral) or value < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def pattern_sum(kf: KernelFamily, s: np.ndarray, pattern) -> np.ndarray:
    """Sum over distinct index tuples with copy assignments given by `pattern`.

    Pattern (0,...,0) is the coupled statistic; (0,1,...,k-1) the fully
    decoupled one.
    """
    return StatisticSpec(kf, "pattern", pattern)(s)


def mixed_sum(kf: KernelFamily, s: np.ndarray, l: int) -> np.ndarray:
    """Sum over all distinct tuples and all l^k copy patterns."""
    return StatisticSpec(kf, "mixed", l=l)(s)


def not_all_equal_sum(kf: KernelFamily, s: np.ndarray) -> np.ndarray:
    """Sum over all distinct tuples and the 2^k - 2 two-copy patterns that are not all equal."""
    return StatisticSpec(kf, "not_all_equal")(s)


def symmetrized_decoupled_sum(kf: KernelFamily, s: np.ndarray) -> np.ndarray:
    """Sum over all distinct tuples and all k! permutation copy patterns."""
    return StatisticSpec(kf, "symmetrized")(s)
