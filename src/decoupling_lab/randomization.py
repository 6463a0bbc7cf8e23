"""Sign and selector couplings and their exact conditional-expectation identities.

Sign coupling swaps the two columns of a sample matrix row-wise according to a
vector of +/-1 signs.  Selector coupling picks one of l columns per row via
0/1 indicator rows summing to 1.  Both leave the joint law of the sample
invariant, and averaging over the randomization exactly recovers rescaled
mixed sums; the functions here verify those facts by exhaustive averaging,
never by sampling.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import BudgetExceededError, ValidationError
from .kernel import KernelFamily
from .ustat_engine import StatisticSpec, mixed_sum, slot_sum  # mixed_sum: re-exported
from .value_space import DEFAULT_ENUM_BUDGET, DiscreteDistribution, batch_norm, norm


def all_sign_vectors(n: int) -> np.ndarray:
    """All 2^n vectors of +/-1, one per row, in binary counting order."""
    return 2 * all_choice_vectors(n, 2) - 1


def all_choice_vectors(n: int, l: int) -> np.ndarray:
    """All l^n column-choice vectors, one per row, in mixed-radix order; more
    than DEFAULT_ENUM_BUDGET of them are refused before any is listed."""
    if l ** n > DEFAULT_ENUM_BUDGET:
        raise BudgetExceededError(f"{l}^{n} choice vectors exceed budget {DEFAULT_ENUM_BUDGET}")
    idx = np.arange(l ** n)[:, None]
    return (idx // (l ** np.arange(n)[None, :])) % l


def sign_couple(s: np.ndarray, signs) -> np.ndarray:
    """Swap the two columns of row i when the i-th sign is -1; s is (..., n, 2)
    and signs (..., n), whose batch axes broadcast against those of s."""
    s, signs = np.asarray(s), np.asarray(signs, dtype=np.int64)
    if s.ndim < 2 or s.shape[-1] != 2:
        raise ValidationError("sign coupling needs a two-column sample matrix")
    if signs.shape[-1:] != s.shape[-2:-1]:
        raise ValidationError("sign vector length must match row count")
    if not np.all(np.abs(signs) == 1):
        raise ValidationError("signs must be +/-1")
    return np.where(signs[..., None] > 0, s, s[..., ::-1])


def selector_couple(s: np.ndarray, choices) -> np.ndarray:
    """Pick the chosen column entry per row; s is (..., n, l) with choices (n,),
    or s is (n, l) with a batch of choices (..., n)."""
    s = np.asarray(s)
    choices = np.asarray(choices, dtype=np.int64)
    if s.ndim < 2 or choices.shape[-1:] != s.shape[-2:-1]:
        raise ValidationError("choice vector length must match row count")
    if np.any(choices < 0) or np.any(choices >= s.shape[-1]):
        raise ValidationError("choice out of column range")
    return s[..., np.arange(s.shape[-2]), choices]


def expansion_residual_batch(kf: KernelFamily, s: np.ndarray, signs: np.ndarray):
    """Residuals of the 2^k sign-product expansion, for every target pattern at once.

    Targets are the patterns of (0,1)^k in product order, on a leading axis.  Left
    side: 2^k times each target's pattern sum on the sample coupled by each sign
    vector of the (B, n) batch, one slot sum over (0,1)^k whose one-hot copy
    weights pick the target.  Right side: one slot sum over (0,1)^k on the original
    sample, each term weighted by the product over slots r of (1 + sign) when j_r
    matches the target pattern and (1 - sign) otherwise.  Returns the (2^k, B)
    residuals, identically 0 by contract, and the coupled pattern sums averaged over
    the batch: over all 2^n sign vectors, each target's sign conditional expectation.
    """
    s, signs = np.asarray(s, dtype=float), np.asarray(signs, dtype=np.int64)
    patterns = list(itertools.product((0, 1), repeat=kf.k))
    targets = np.array(patterns).T[:, :, None, None, None] == np.arange(2)  # (k, 2^k, 1, 1, 2)
    rows = np.ones((s.shape[-2], 1), dtype=bool)  # one-hot weights need the row axis
    coupled = slot_sum(kf, sign_couple(s, signs), patterns, list(targets & rows))
    rhs = slot_sum(kf, s, patterns, list(np.where(targets, 1 + signs[..., None],
                                                  1 - signs[..., None])))
    return batch_norm(2.0 ** kf.k * coupled - rhs, "euclidean", kf.dim), coupled.mean(axis=1)


def sign_conditional_expectation(kf: KernelFamily, s: np.ndarray, pattern):
    """Exact average of the coupled pattern sum over all 2^n sign vectors.

    Equals 2^{-k} times the two-copy mixed sum, for every pattern.
    """
    s = np.asarray(s, dtype=float)
    coupled = sign_couple(s, all_sign_vectors(s.shape[0]))  # (2^n, n, 2)
    return np.mean(StatisticSpec(kf, "pattern", pattern)(coupled), axis=0)


def selector_conditional_expectation(kf: KernelFamily, s: np.ndarray, l: int):
    """Exact average of the coupled statistic over all l^n selector matrices.

    Equals (1/l)^k times the l-copy mixed sum.
    """
    s = np.asarray(s, dtype=float)  # selector_couple checks it has l columns
    if l < 1:
        raise ValidationError("l must be >= 1")
    z = selector_couple(s, all_choice_vectors(s.shape[0], l))  # (l^n, n) coupled rows
    return np.mean(StatisticSpec(kf, "coupled")(z[..., None]), axis=0)


def _law_of(atom_idx: np.ndarray, probs: np.ndarray, m: int) -> np.ndarray:
    """Law of a batch of atom-index arrays, as probabilities indexed by their
    mixed-radix code (the order in which all_choice_vectors lists them)."""
    flat = atom_idx.reshape(len(atom_idx), -1)
    return np.bincount(flat @ m ** np.arange(flat.shape[1]), weights=probs,
                       minlength=m ** flat.shape[1])


def distributional_equality_check(dist: DiscreteDistribution, n: int,
                                  coupling: str = "selector", l: int = 2,
                                  budget: int = DEFAULT_ENUM_BUDGET) -> bool:
    """Exact law comparison between the coupled sample and a fresh copy.

    For selector coupling the induced law of (Z_1,...,Z_n) is compared with
    the product law of one copy; for sign coupling the law of the full
    two-column coupled matrix is compared with the product law of two copies.
    Every sample matrix of atom indices is coupled by `sign_couple` or
    `selector_couple` under every randomization vector.  Returns True iff the
    total-variation distance is at most 1e-12.
    """
    m = dist.size
    if coupling == "sign":
        width, rands, couple = 2, all_sign_vectors(n), sign_couple
    elif coupling == "selector":
        if l < 1:
            raise ValidationError("l must be >= 1")
        width, rands, couple = l, all_choice_vectors(n, l), selector_couple
    else:
        raise ValidationError(f"unknown coupling {coupling!r}")
    total = (m ** (n * width)) * len(rands)
    if total > budget:
        raise BudgetExceededError(f"{total} joint assignments exceed budget {budget}")

    probs = dist.probs_array()
    cells = all_choice_vectors(n * width, m)  # every sample matrix, in code order
    p_sample = probs[cells].prod(axis=1)
    cells = cells.reshape(-1, n, width)
    induced = sum(_law_of(couple(cells, r), p_sample, m) for r in rands) / len(rands)
    if coupling == "sign":
        reference = p_sample
    else:
        reference = probs[all_choice_vectors(n, m)].prod(axis=1)
    return 0.5 * float(np.abs(induced - reference).sum()) <= 1e-12


def pattern_invariance_spread(expectations, mixed, norm_kind: str = "euclidean") -> float:
    """Max distance between the sign conditional expectations of all 2^k patterns
    (one per row, as `expansion_residual_batch` averages them) and 2^{-k} times the
    two-copy mixed sum `mixed`, their common value by the identity; should be ~0.
    """
    target = np.asarray(mixed, dtype=float) / len(expectations)
    return float(np.max([norm(ce - target, norm_kind)
                         for ce in np.asarray(expectations, dtype=float)]))
