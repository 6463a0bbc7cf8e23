"""Coupled, decoupled, and mixed U-statistic sums for fixed sample matrices.

A sample matrix is a numpy array of shape (n, copies) whose (i, j) entry is
the realization of the j-th independent copy of the i-th variable.  A leading
batch axis is allowed everywhere, so the same code paths serve single
realizations and vectorized Monte Carlo / enumeration sweeps.

Each statistic is defined once, by a `StatisticSpec`: validated when built,
summed when called on samples; the public sums are spec calls.  Every sum goes
through one core, `slot_sum`.  A kernel that carries a coefficient tensor is
summed by one tensor contraction (fast path).  Any other kernel is called once
per copy pattern and index tuple, in lexicographic order, and the terms are
accumulated in place (generic path).
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
    tuples idx of  w(idx, j) * f_idx(s[..., idx_0, j_0], ..., s[..., idx_{k-1}, j_{k-1}]),
    where w(idx, j) is the product of weights[r][..., idx_r, j_r] (1 without weights).

    `s` and each weights[r] have shape (..., n, copies).  Inputs are not
    validated; calling a StatisticSpec does that.
    """
    k = kf.k
    if kf.coeffs is not None:
        # multilinearity: the weighted patterns of each slot add up column-wise
        weights = weights or [np.ones(s.shape[-2:])] * k
        cols = [(s[..., list(sl)] * w[..., list(sl)]).sum(axis=-1)
                for sl, w in zip(slots, weights)]
        count = _contract(distinct_mask(kf.n, k),
                          [w[..., list(sl)].sum(axis=-1) for sl, w in zip(slots, weights)])
        const = np.broadcast_to(kf.const, kf.coeffs.shape[k:])  # () or (dim,)
        return _contract(kf.coeffs, cols) + np.multiply.outer(count, const)
    shapes = [s.shape[:-2]] + [w.shape[:-2] for w in weights or ()]
    acc = np.zeros(np.broadcast_shapes(*shapes) + ((kf.dim,) if kf.dim > 1 else ()))
    for j in itertools.product(*slots):
        for idx in distinct_tuples(kf.n, k):
            term = kf.evaluate(idx, tuple(s[..., idx[r], j[r]] for r in range(k)))
            if weights is not None:
                w = math.prod(weights[r][..., idx[r], j[r]] for r in range(k))
                term = term * (w[..., None] if kf.dim > 1 else w)
            acc += term
    return acc


@dataclass(frozen=True)
class StatisticSpec:
    """One of the sums whose norm tail the theorems compare, validated when built.

    mode: one of MODES; 'pattern' reads `pattern` (k copy indices), 'mixed'
    reads `l`, and a mode reads only its own fields.
    Calling the spec on samples of shape (..., n, copies) returns the sum.
    """

    kernel: KernelFamily
    mode: str
    pattern: Optional[tuple] = None
    l: Optional[int] = None
    norm_kind: str = "euclidean"

    def __post_init__(self):
        k = self.kernel.k
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
        sum over the product set of copy patterns for 'mixed' and 'not_all_equal' (less
        its two all-equal pattern sums), else one slot sum per pattern in `patterns()`."""
        kf, k = self.kernel, self.kernel.k
        s = np.asarray(s, dtype=float)
        if s.ndim < 2:
            raise ValidationError("sample matrix must have shape (..., n, copies)")
        if s.shape[-2] != kf.n:
            raise ValidationError(
                f"sample has {s.shape[-2]} rows, kernel expects n={kf.n}")
        if s.shape[-1] < self.copies_needed:
            raise ValidationError(
                f"sample has {s.shape[-1]} copies, statistic needs {self.copies_needed}")
        if k > kf.n:
            raise ValidationError("kernel order k exceeds n")
        if math.perm(kf.n, k) > MAX_TUPLE_COUNT:
            raise BudgetExceededError("distinct tuple count exceeds evaluation ceiling")
        if self.mode not in ("mixed", "not_all_equal"):
            return functools.reduce(np.add, (slot_sum(kf, s, [(p,) for p in pattern])
                                             for pattern in self.patterns()))
        total = slot_sum(kf, s, [range(self.copies_needed)] * k)
        if self.mode == "not_all_equal":
            total = total - slot_sum(kf, s, [(0,)] * k) - slot_sum(kf, s, [(1,)] * k)
        return total


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
    """Two-copy mixed sum minus the two all-equal pattern sums."""
    return StatisticSpec(kf, "not_all_equal")(s)


def symmetrized_decoupled_sum(kf: KernelFamily, s: np.ndarray) -> np.ndarray:
    """Sum over all distinct tuples and all k! permutation copy patterns."""
    return StatisticSpec(kf, "symmetrized")(s)
