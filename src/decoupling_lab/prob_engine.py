"""Exact and Monte Carlo laws of U-statistic norms.

A statistic is a `ustat_engine.StatisticSpec`, which names, validates and
evaluates it; this module computes the law of its norm.  Exact laws by
column-grid contraction; mixed laws on per-row count vectors.
Either way the law covers every sample-matrix realization exactly.  Monte
Carlo tails use a counter-based (Philox) generator so that identical
(seed, spec) inputs give bit-identical output regardless of scheduling.
kappa is exact in every dimension, a minimum over finitely many directions.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, ValidationError
from .kernel import _cell_tensor
from .ustat_engine import StatisticSpec, _contract
from .value_space import DEFAULT_ENUM_BUDGET, DiscreteDistribution, batch_norm

_VALUE_DECIMALS = 12  # aggregation resolution for norm values
CONFIDENCE = 0.99  # of every Clopper-Pearson interval
MIN_TRIALS = 100  # fewest Monte Carlo trials mc_tail accepts
KAPPA_MEAN_TOL = 1e-9  # |E Y| above this is not mean zero
KAPPA_MAX_SUBSETS = 2 ** 16  # atom subsets kappa may take null vectors of


@dataclass(frozen=True)
class DiscreteLaw:
    """Finite law on the real line with strictly increasing support."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if v.ndim != 1 or v.shape != p.shape or v.size == 0:
            raise ValidationError("law needs matching non-empty value/prob vectors")
        if np.any(np.diff(v) <= 0):
            raise ValidationError("support values must be strictly increasing")
        if np.any(p <= 0) or abs(float(p.sum()) - 1.0) > 1e-9:
            raise ValidationError("probabilities must be positive and sum to 1")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probs", p)

    @functools.cached_property
    def suffix_sums(self) -> np.ndarray:
        """probs[i:].sum() for i = 0..size; entry searchsorted(values, t) is
        P(value >= t), bit for bit the masked sum probs[values >= t].sum(),
        which adds the same values in the same order."""
        return np.array([self.probs[i:].sum() for i in range(self.probs.size + 1)])


def aggregate_law(values, probs) -> DiscreteLaw:
    """Collapse repeated values (up to rounding resolution) into one law.  Each
    point's probabilities are added in the order the values come, as np.add.at would."""
    v = np.round(np.asarray(values, dtype=float), _VALUE_DECIMALS).ravel()
    s = np.sort(v)  # support: each value unequal to a non-NaN predecessor (NaNs last)
    uniq = np.append(s[:1], s[1:][(s[1:] != s[:-1]) & (s[:-1] == s[:-1])])
    agg = np.bincount(np.searchsorted(uniq, v), weights=np.ravel(probs), minlength=uniq.size)
    keep = agg > 0
    return DiscreteLaw(uniq[keep], agg[keep] / agg.sum())


def tail(law: DiscreteLaw, t: float) -> float:
    """P(value >= t), by lookup in the law's suffix sums."""
    return float(law.suffix_sums[np.searchsorted(law.values, t)])


def moment(law: DiscreteLaw, p: int) -> float:
    """(E |value|^p)^(1/p)."""
    return float(np.dot(law.probs, np.abs(law.values) ** p) ** (1.0 / p))


def evaluate_norms(spec: StatisticSpec, samples: np.ndarray) -> np.ndarray:
    """Statistic norms for a batch of sample matrices of shape (B, n, copies)."""
    if np.ndim(samples) != 3:
        raise ValidationError("expected batch of sample matrices (B, n, copies)")
    return batch_norm(spec(samples), spec.norm_kind, spec.kernel.dim)


def _count_vectors(probs: np.ndarray, l: int):
    """Atom counts (S, m) of l independent draws, and their multinomial probabilities."""
    draws = np.array(list(itertools.combinations_with_replacement(range(probs.size), l)))
    counts = (draws[:, :, None] == np.arange(probs.size)).sum(axis=1)
    ways = [math.factorial(l) // math.prod(map(math.factorial, c)) for c in counts]
    return counts, np.asarray(ways) * np.prod(probs ** counts, axis=1)


def _grid_contract(tensor: np.ndarray, grid: np.ndarray, pattern, copies: int):
    """Pattern sum of the cell tensor with each copy's column ranging over the
    rows of `grid`: one axis per copy (length 1 if unused), then the dim axis.

    Slots are sorted by copy, so the slots of copy j lead the axes left when
    its turn comes and contract against one shared grid axis.
    """
    order = np.argsort(pattern, kind="stable")
    acc = tensor.transpose(tuple(order) + tuple(range(len(order), tensor.ndim)))[None]
    shape = []
    for j in range(copies):  # acc: (grid points of the copies done, slots left)
        q = pattern.count(j)
        if q:
            acc = np.moveaxis(_contract(np.moveaxis(acc, 0, -1), [grid] * q), -1, 0)
        else:
            acc = acc[:, None]
        shape.append(acc.shape[1])
        acc = acc.reshape((-1,) + acc.shape[2:])
    return acc.reshape(tuple(shape) + acc.shape[1:])


def exact_law(spec: StatisticSpec, dist: DiscreteDistribution,
              budget: int = DEFAULT_ENUM_BUDGET) -> DiscreteLaw:
    """Exact law of the statistic norm over all m^(n*copies) sample matrices.

    The statistic is a multilinear form in per-cell features, so each pattern
    sum is contracted on the grid of all column realizations, never evaluated
    realization by realization.  A mixed statistic sees a row only through the
    atom counts of its l copies: one coupled contraction on the grid of per-row
    count vectors.  `budget` caps m^(n*copies), whatever grid is contracted.
    """
    kf = spec.kernel
    n, k, m = kf.n, kf.k, dist.size
    cells = n * spec.copies_needed
    if m ** cells > budget:
        raise BudgetExceededError(
            f"{m}^{cells} = {m ** cells} realizations exceeds budget {budget}")
    tensor, feats, const = _cell_tensor(kf, dist.values_array())
    probs, patterns, copies = dist.probs_array(), spec.patterns(), spec.copies_needed
    contracted = patterns
    if spec.mode == "mixed":  # all l^k patterns at once, on per-row counts
        counts, probs = _count_vectors(probs, spec.l)
        feats, contracted, copies = counts @ feats, [(0,) * k], 1
    idx = np.indices((probs.size,) * n).reshape(n, -1).T  # row states of every column
    grid, grid_probs = feats[idx].reshape(len(idx), -1), probs[idx].prod(axis=1)
    values = sum(_grid_contract(tensor, grid, p, copies) for p in contracted)
    values = values + len(patterns) * math.perm(n, k) * np.asarray(const)
    dims = values.shape[copies:]
    values = np.broadcast_to(values, (len(grid),) * copies + dims).reshape((-1,) + dims)
    probs = functools.reduce(np.multiply.outer, [grid_probs] * copies).ravel()
    if abs(float(probs.sum()) - 1.0) > 1e-9:  # a bug here, not a bad input
        raise RuntimeError(f"exact law of {spec.mode} has total mass {probs.sum()!r}")
    return aggregate_law(batch_norm(values, spec.norm_kind, kf.dim), probs)


@dataclass(frozen=True)
class TailEstimate:
    t: float
    p_hat: float
    ci_low: float
    ci_high: float

    def __post_init__(self):
        if not (self.ci_low <= self.p_hat <= self.ci_high):
            raise ValidationError("confidence interval must contain the estimate")


def clopper_pearson(successes: int, trials: int):
    """Exact binomial confidence interval at level CONFIDENCE."""
    # beta.ppf's own routine; scipy.special imports far faster than SciPy's stats
    from scipy.special import betaincinv

    alpha = 1.0 - CONFIDENCE
    if successes == 0:
        lo = 0.0
    else:
        lo = float(betaincinv(successes, trials - successes + 1, alpha / 2))
    if successes == trials:
        hi = 1.0
    else:
        hi = float(betaincinv(successes + 1, trials - successes, 1 - alpha / 2))
    return lo, hi


def sample_matrices(dist: DiscreteDistribution, n: int, copies: int,
                    trials: int, seed: int) -> np.ndarray:
    """Draw (trials, n, copies) sample matrices with a Philox counter generator."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random((trials, n, copies))
    cum = np.cumsum(dist.probs_array())
    idx = np.searchsorted(cum, u, side="right")
    idx = np.minimum(idx, dist.size - 1)
    return dist.values_array()[idx]


def mc_tail(spec: StatisticSpec, dist: DiscreteDistribution, t_grid,
            trials: int, seed: int) -> list[TailEstimate]:
    """Monte Carlo tail estimates with Clopper-Pearson intervals."""
    if trials < MIN_TRIALS:
        raise ValidationError(f"trials must be >= {MIN_TRIALS}")
    samples = sample_matrices(dist, spec.kernel.n, spec.copies_needed, trials, seed)
    norms = evaluate_norms(spec, samples)
    out = []
    for t in t_grid:
        hits = int(np.count_nonzero(norms >= t))
        lo, hi = clopper_pearson(hits, trials)
        out.append(TailEstimate(float(t), hits / trials, lo, hi))
    return out


@dataclass(frozen=True)
class KappaResult:
    value: float
    exact: bool  # the infimum itself, in every dimension


def kappa(values, probs) -> KappaResult:
    """Anticoncentration functional: inf over functionals x' of
    (E|x'(Y)|)^2 / E(x'(Y))^2, exactly, for mean-zero Y of any dimension.

    The ratio ignores the scale of x'.  On each cone of the arrangement
    {x : x . y_i = 0} of the atoms, E|x'Y| is linear and sqrt(E(x'Y)^2) is a
    norm, so the ratio is quasi-concave there and its infimum sits on an
    extreme ray: a direction normal to r - 1 independent atoms, r the rank of
    the atoms.  The atoms are written in a basis of their span and every
    (r-1)-subset contributes its null vector; a dependent subset contributes
    some other direction, which cannot undercut the infimum.
    """
    v = np.asarray(values, dtype=float)
    p = np.asarray(probs, dtype=float)
    if v.ndim not in (1, 2):
        raise ValidationError("values must be (m,) or (m, dim)")
    v = v.reshape(len(v), -1)
    mean = p @ v
    if float(np.max(np.abs(mean))) > KAPPA_MEAN_TOL:
        raise ValidationError(f"Y must be mean zero (mean={mean.tolist()})")
    _, s, basis = np.linalg.svd(v, full_matrices=False)
    r = int(np.count_nonzero(s > s[0] * max(v.shape) * np.finfo(float).eps))
    if r == 0:
        raise ValidationError("Y is almost surely 0")
    if math.comb(len(v), r - 1) > KAPPA_MAX_SUBSETS:
        raise BudgetExceededError(f"C({len(v)}, {r - 1}) atom subsets exceed "
                                  f"{KAPPA_MAX_SUBSETS}")
    w = v @ basis[:r].T
    subsets = np.array(list(itertools.combinations(range(len(w)), r - 1)), dtype=int)
    proj = w @ np.linalg.svd(w[subsets])[2][:, -1].T  # (m, directions)
    first = p @ np.abs(proj)
    return KappaResult(float(np.min(first * first / (p @ (proj * proj)))), exact=True)


def support_grid(*laws: DiscreteLaw) -> np.ndarray:
    """t-grid hitting every jump: support points, midpoints, 0+, and past the max."""
    pts = np.unique(np.concatenate([law.values for law in laws]))
    mids = (pts[:-1] + pts[1:]) / 2.0
    top = pts[-1] * 1.5 + 1.0
    tiny = min(1e-9, (pts[pts > 0].min() / 2.0) if np.any(pts > 0) else 1e-9)
    return np.unique(np.concatenate([pts, mids, [tiny, top]]))
