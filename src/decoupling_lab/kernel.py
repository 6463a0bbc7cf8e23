"""Indexed families of k-argument kernels and permutation machinery.

A kernel family assigns to each tuple of distinct row indices a function of k
sample values.  Evaluation is vectorized: each argument may be a float or a
numpy array of trial values, and the result broadcasts accordingly (shape
(..., dim) when dim > 1).  Index tuples are 0-based throughout.  On a finite
law a kernel is a multilinear form in per-cell features (its cell tensor),
which gives exact laws and an exact symmetry test.  The constant, product, affine
and random-coefficient classes are one form, stated once in `_coefficient_kernel`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from .errors import BudgetExceededError, ValidationError
from .value_space import DiscreteDistribution

FACTORIAL_BUDGET = 7  # largest k for which permutation loops are allowed
MAX_TUPLE_COUNT = 2 ** 24  # ceiling on summed tuples and on coefficient-tensor entries
SYMMETRY_TOL = 1e-12  # largest entry change a symmetric cell tensor may show


@dataclass(frozen=True)
class KernelFamily:
    """Family f_{i_1...i_k} of k-argument functions on sample values.

    `evaluate(idx, args)` takes a tuple of k distinct 0-based indices and a
    tuple of k argument arrays, which may differ in shape and must broadcast;
    it must be deterministic and reentrant.

    A multilinear-plus-constant kernel may also carry `coeffs`, of shape (n,)*k
    (plus (dim,) when dim > 1) and zero off the distinct-index set, and `const`:
    evaluate(idx, args) == coeffs[idx] * args[0] * ... * args[k-1] + const.
    The U-statistic sums then contract the tensor instead of calling `evaluate`.
    """

    k: int
    n: int
    evaluate: Callable
    symmetric_claimed: bool = False
    dim: int = 1
    label: str = "kernel"
    coeffs: np.ndarray | None = field(default=None, compare=False, repr=False)
    const: float | np.ndarray = field(default=0.0, compare=False, repr=False)

    def __post_init__(self):
        if self.k < 1 or self.n < 1:
            raise ValidationError("kernel order and index bound must be >= 1")


def distinct_tuples(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of k pairwise-distinct indices from {0,...,n-1}."""
    return itertools.permutations(range(n), k)


@lru_cache(maxsize=8)
def distinct_mask(n: int, k: int) -> np.ndarray:
    """Read-only boolean (n,)*k array, True where the k indices are pairwise distinct."""
    grids = np.ix_(*[np.arange(n)] * k)
    mask = np.ones((n,) * k, dtype=bool)
    for a, b in itertools.combinations(range(k), 2):
        mask &= grids[a] != grids[b]
    mask.flags.writeable = False
    return mask


def symmetrize(kf: KernelFamily) -> KernelFamily:
    """Sum of the kernel over all k! joint permutations of indices and arguments."""
    if kf.k > FACTORIAL_BUDGET:
        raise BudgetExceededError(f"symmetrize: k={kf.k} exceeds factorial budget")
    perms = list(itertools.permutations(range(kf.k)))

    def sym_eval(idx, args):
        total = None
        for pi in perms:
            v = kf.evaluate(tuple(idx[p] for p in pi), tuple(args[p] for p in pi))
            total = v if total is None else total + v
        return total

    return KernelFamily(kf.k, kf.n, sym_eval, symmetric_claimed=True,
                        dim=kf.dim, label=f"sym({kf.label})")


def _cell_tensor(kf: KernelFamily, atoms: np.ndarray):
    """(tensor, feats, const) such that, for distinct idx and atom indices a_r,
    f_idx(atoms[a_0], ...) == const + sum over f of tensor[idx_0*F + f_0, ...] *
    feats[a_0, f_0] * ... * feats[a_{k-1}, f_{k-1}], with F features per atom:
    the coefficient tensor with atom values (F=1) when the kernel carries one,
    else one `evaluate` call per distinct tuple on one-hot atom features (F=m).
    """
    if kf.coeffs is not None:
        return kf.coeffs, atoms[:, None], kf.const
    n, k, m = kf.n, kf.k, atoms.size
    dims = (kf.dim,) if kf.dim > 1 else ()
    if (n * m) ** k * kf.dim > MAX_TUPLE_COUNT:
        raise BudgetExceededError(
            f"cell tensor of {(n * m) ** k * kf.dim} entries exceeds {MAX_TUPLE_COUNT}")
    tensor = np.zeros((n, m) * k + dims)
    args = np.ix_(*[atoms] * k)  # every atom tuple, as broadcasting arguments
    for idx in distinct_tuples(n, k):
        tensor[tuple(x for i in idx for x in (i, slice(None)))] = kf.evaluate(idx, args)
    return tensor.reshape((n * m,) * k + dims), np.eye(m), 0.0


def check_symmetry(kf: KernelFamily, dist: DiscreteDistribution) -> bool:
    """Exact test of the joint index/argument permutation invariance on the atoms
    of `dist`: the cell tensor is invariant, within SYMMETRY_TOL, under each of
    the k! permutations of its slots (each slot is one index with its argument).
    """
    tensor = _cell_tensor(kf, dist.values_array())[0]
    dims = tuple(range(kf.k, tensor.ndim))
    return all(np.max(np.abs(tensor - tensor.transpose(pi + dims))) <= SYMMETRY_TOL
               for pi in itertools.permutations(range(kf.k)))


@lru_cache(maxsize=None)
def _delta_table(k: int):
    deltas = np.array(list(itertools.product((0, 1), repeat=k)), dtype=np.int64)
    signs = np.where((k - deltas.sum(axis=1)) % 2 == 0, 1, -1)
    return (1 - deltas) @ (1 << np.arange(k)), signs  # the entries each delta zeroes


def mazur_orlicz_coefficient(j_tuple):
    """Inclusion-exclusion coefficient over {0,1}^k selector vectors.

    Equals 1 when j_tuple is a permutation of (0,...,k-1) and 0 otherwise.
    An (..., k) array of tuples gives an integer array of shape (...).
    """
    j = np.asarray(j_tuple, dtype=np.int64)
    k = j.shape[-1]
    if np.any((j < 0) | (j >= k)):
        raise ValidationError(f"entries of {j.tolist()} must lie in 0..{k - 1}")
    used = np.bitwise_or.reduce(1 << j, axis=-1)  # the entries of each tuple, as a bitmask
    zeroed, signs = _delta_table(k)
    total = np.zeros(j.shape[:-1], dtype=np.int64)
    for z, sign in zip(zeroed, signs):  # one selector vector at a time
        total += sign * ((used & z) == 0)  # the product of delta over the tuple's entries
    return int(total) if j.ndim == 1 else total


# ---------------------------------------------------------------------------
# kernel corpus constructors
# ---------------------------------------------------------------------------

def _coefficient_kernel(k: int, n: int, coeff, const=0.0, dim: int = 1,
                        label: str = "kernel", symmetric: bool = True) -> KernelFamily:
    """f_idx(x_1,...,x_k) = coeff(idx) * x_1 * ... * x_k + const, stated once for both
    `evaluate` and the coefficient tensor (none past MAX_TUPLE_COUNT entries).
    `coeff` is a number, the same for every distinct tuple, or a function of the tuple.
    """
    at = coeff if callable(coeff) else (lambda idx: coeff)
    shift = bool(np.any(const))  # adding a zero would turn -0.0 into 0.0

    def evaluate(idx, args):
        p = math.prod(np.asarray(a, dtype=float) for a in args)
        out = at(idx) * p if dim == 1 else np.asarray(p)[..., None] * at(idx)
        return out + const if shift else out

    tensor = None
    if n ** k * dim <= MAX_TUPLE_COUNT:
        tensor = np.zeros((n,) * k + ((dim,) if dim > 1 else ()))
        if callable(coeff):
            for idx in distinct_tuples(n, k):
                tensor[idx] = coeff(idx)
        else:
            tensor[distinct_mask(n, k)] = coeff
    return KernelFamily(k, n, evaluate, symmetric_claimed=symmetric, dim=dim,
                        label=label, coeffs=tensor, const=const)


def constant_kernel(k: int, n: int, c=1.0, dim: int = 1) -> KernelFamily:
    return _coefficient_kernel(k, n, 0.0, const=c, dim=dim, label=f"const({c})")


def product_kernel(k: int, n: int) -> KernelFamily:
    """f(x_1,...,x_k) = x_1 x_2 ... x_k, independent of the index tuple."""
    return _coefficient_kernel(k, n, 1.0, label="product")


def affine_product_kernel(k: int, n: int, c: float = 1.0) -> KernelFamily:
    return _coefficient_kernel(k, n, 1.0, const=c, label=f"product+{c}")


def first_argument_kernel(k: int, n: int) -> KernelFamily:
    """Asymmetric probe: returns the first argument only."""
    def ev(idx, args):
        return np.asarray(args[0], dtype=float) + 0.0
    return KernelFamily(k, n, ev, symmetric_claimed=False, label="first-arg")


def random_coefficient_kernel(k: int, n: int, seed: int = 0,
                              symmetric: bool = False, dim: int = 1) -> KernelFamily:
    """Integer coefficients in [-3, 3] per index tuple, times the product of args.

    With symmetric=True the coefficient depends on the sorted tuple only, which
    makes the family satisfy the joint permutation-invariance condition.
    """
    key = (lambda idx: tuple(sorted(idx))) if symmetric else tuple
    rng = np.random.default_rng(seed)
    coeffs = {}
    for t in distinct_tuples(n, k):  # drawn in tuple order, whatever is evaluated
        if key(t) not in coeffs:
            c = rng.integers(-3, 4, size=dim)
            coeffs[key(t)] = float(c[0]) if dim == 1 else c.astype(float)
    tag = "sym-coeff" if symmetric else "coeff"
    return _coefficient_kernel(k, n, lambda idx: coeffs[key(idx)], dim=dim,
                               label=f"{tag}(seed={seed})", symmetric=symmetric)
