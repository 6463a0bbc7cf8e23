"""Pass/fail checks for every lemma, proposition, and theorem, plus the exact
smallest decoupling constants in closed form.

Each check is phrased against exact laws computed by enumeration, so a failure
is an implementation bug, never sampling noise.  Tail laws are finite step
functions, so the smallest constant C with all-t tail domination (factor C,
threshold t/C) is a max-min over pairs of support points; each tail is read
by `prob_engine.tail`, and an independent tail-domination check confirms
every constant before it counts.  Inequality rows and tail tests hold up to
IDENTITY_TOL relative to their larger side (`_holds`), which no scaling of the
kernel or the atoms changes; identity residuals stay absolute.

A campaign is a table of checks: each check is a generator that yields its
results (with their table rows) or the instances it could not finish, and one
driver records them, times each check and derives the summary.
Each exact law is computed once per instance and reused in every check that
compares it.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernel as kmod, randomization as rz, ustat_engine as ue
from .errors import BudgetExceededError, InvariantError, SymmetryError, ValidationError
from .kernel import (KernelFamily, check_symmetry, distinct_tuples,
                     mazur_orlicz_coefficient)
from .prob_engine import (MIN_TRIALS, DiscreteLaw, _mc_counts, aggregate_law, exact_law,
                          kappa, moment, sample_matrices, tail)
from .randomization import all_sign_vectors, all_choice_vectors
from .ustat_engine import StatisticSpec
from .value_space import (DEFAULT_ENUM_BUDGET, DiscreteDistribution, batch_norm, norm,
                          rademacher, uniform)

IDENTITY_TOL = 1e-12  # relative in _holds; absolute for the identity residuals
# Larger constants count as infeasible: without a ceiling almost every lemma3
# instance would pass, since a finite constant nearly always exists.
C_CEILING = float(2 ** 20)
DISTRIBUTIONAL_BUDGET = 2 ** 20  # joint assignments one distributional check may list
MC_ALPHA = 1e-9  # chance that mc_consistency fails a correct build, per campaign
_UNFINISHED = (BudgetExceededError, InvariantError, ValidationError)  # yielded as a Skip
NOT_RUN_BUDGET = "every instance exceeds a budget or size cap"
NOT_RUN_CONFIG = "no instance of the configured corpus applies"


@dataclass(frozen=True)
class CheckRow:
    t: float
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class InequalityReport:
    rows: tuple

    @property
    def passed(self) -> bool:
        return all(r.holds for r in self.rows)


@dataclass(frozen=True)
class ConstantSearchResult:
    c_min: float
    feasible: bool
    # max of lhs_tail(t) - c_min * rhs_tail(t / c_min) over the positive left
    # support points t; 0.0 when there is none or the search is infeasible
    max_slack: float
    binding: dict | None = None  # {"v", "w", "at_top"} where c_min binds, if anywhere
    row: CheckRow | None = None  # the tail comparison at t = binding v
    c_min_scaled: float | None = None  # lemma3 only: c_min for the mixed sum / l^k


# ---------------------------------------------------------------------------
# tail domination and the closed-form minimal constant
# ---------------------------------------------------------------------------

def _holds(lhs, rhs) -> bool:
    """Whether lhs <= rhs at every entry, up to IDENTITY_TOL times the larger magnitude."""
    return bool(np.all(lhs - rhs <= IDENTITY_TOL * np.maximum(np.abs(lhs), np.abs(rhs))))


def _positive_tails(law: DiscreteLaw, scale=1.0):
    """Positive support points divided by `scale`, and P(value >= point) at each."""
    ts = law.values[law.values > 0]
    return ts / scale, tail(law, ts)


def _tail_rows(law_l: DiscreteLaw, law_r: DiscreteLaw, c: float, scale=1.0):
    """(t, lhs_tail(t), c * rhs_tail(t/c)) at the positive left support points t
    (divided by scale), the only t > 0 that can bind: the left tail is constant
    up to each of them and c * rhs_tail(t/c) only falls as t grows."""
    ts, lhs = _positive_tails(law_l, scale)
    # a small relative slack, so that c * right support points survive the division by c
    u = ts / c - 1e-9 * np.maximum(1.0, ts / c)
    return ts, lhs, c * tail(law_r, u)


def tails_dominated(law_l: DiscreteLaw, law_r: DiscreteLaw, c: float, scale=1.0) -> bool:
    """Whether lhs_tail(t) <= c * rhs_tail(t/c) for every t > 0, left values / scale."""
    return _holds(*_tail_rows(law_l, law_r, c, scale)[1:])


def minimal_constant(law_l: DiscreteLaw, law_r: DiscreteLaw, scale=1.0) -> ConstantSearchResult:
    """Smallest c >= 1 with lhs_tail(t) <= c * rhs_tail(t/c) for every t > 0.

    At a positive left support point v (a value divided by scale) with a =
    lhs_tail(v), a constant c works exactly when some positive right support
    point w has v/w <= c and a/rhs_tail(w) <= c, so c_min = max(1, max_v min_w
    max(v/w, a/rhs_tail(w))).  The search is feasible only if tails_dominated
    confirms c_min and c_min <= C_CEILING; otherwise c_min is nan.
    """
    v, a = _positive_tails(law_l, scale)
    w, r = _positive_tails(law_r)
    c_min, binding = (math.inf if v.size else 1.0), None
    if v.size and w.size:
        # v/w falls and a/r(w) rises with w, so the min over w sits where they
        # cross: at the first w with w/r(w) >= v/a, or at the w before it
        j = np.searchsorted(w / r, v / a)
        lo, hi = np.maximum(j - 1, 0), np.minimum(j, w.size - 1)
        need_lo, need_hi = (np.maximum(v / w[x], a / r[x]) for x in (lo, hi))
        per_v = np.minimum(need_lo, need_hi)
        best_w = np.where(need_hi <= need_lo, hi, lo)  # ties go to the larger w
        i = v.size - 1 - int(np.argmax(per_v[::-1]))  # ties go to the larger v
        c_min = max(1.0, float(per_v[i]))
        if per_v[i] >= 1.0:  # below 1 no pair binds, only the floor c >= 1
            binding = {"v": float(v[i]), "w": float(w[best_w[i]]),
                       "at_top": bool(i == v.size - 1 and best_w[i] == w.size - 1)}
    if not (c_min <= C_CEILING and tails_dominated(law_l, law_r, c_min, scale)):
        return ConstantSearchResult(math.nan, False, 0.0)
    t, lhs, rhs = _tail_rows(law_l, law_r, c_min, scale)
    row = None if binding is None else CheckRow(  # row i is at t = binding v
        float(t[i]), float(lhs[i]), float(rhs[i]), _holds(lhs[i], rhs[i]))
    return ConstantSearchResult(c_min, True, max((lhs - rhs).tolist(), default=0.0),
                                binding, row)


def theorem1_constant(k: int) -> float:
    """Theorem 1's C_k.  The abstract of arXiv math/9309211: "for all n >= k >= 2,
    t > 0, there are numerical constants C_k depending on k only so that
    P(||sum f(X^(1)_i1, ..., X^(1)_ik)|| >= t) <= C_k P(C_k ||sum f(X^(1)_i1, ...,
    X^(k)_ik)|| >= t)", with C_k = 2^k (k^k - 1)((k-1)^(k-1) - 1) ... 3: 12, 624 and
    318,240 at k = 2, 3 and 4.  At k = 1 the coupled and decoupled statistics
    coincide, so C_1 = 1.  From k = 5 on, the search's C_CEILING binds first."""
    return 1.0 if k == 1 else float(2 ** k * math.prod(j ** j - 1 for j in range(2, k + 1)))


def search_constant(kf: KernelFamily, dist: DiscreteDistribution, direction: str,
                    l: int | None = None, norm_kind: str = "euclidean",
                    law_of=None) -> ConstantSearchResult:
    """Minimal feasible decoupling constant for one theorem direction.

    upper:  coupled tail dominated by the fully decoupled tail.
    lower:  fully decoupled tail dominated by the coupled tail
            (requires the joint symmetry condition).
    lemma3: l-copy mixed tail dominated by the coupled tail
            (requires the joint symmetry condition); c_min_scaled is the
            constant for the mixed sum divided by l^k.

    Each law is law_of(spec, dist), exact_law at its default budget if None.
    The law on more copies is computed first, so a budget refusal names its
    m^(n*copies) and comes before any law is computed.
    """
    k = kf.k
    left = StatisticSpec(kf, "coupled", norm_kind=norm_kind)
    right = StatisticSpec(kf, "pattern", pattern=tuple(range(k)), norm_kind=norm_kind)
    if direction == "lemma3":
        if l is None or not (1 <= l <= k):
            raise ValidationError("lemma3 direction needs 1 <= l <= k")
        left, right = StatisticSpec(kf, "mixed", l=l, norm_kind=norm_kind), left
    elif direction == "lower":
        left, right = right, left
    elif direction != "upper":
        raise ValidationError(f"unknown direction {direction!r}")
    if direction != "upper" and not check_symmetry(kf, dist):
        raise SymmetryError(
            f"{direction}-direction search requires a symmetric kernel, got {kf.label}")
    law_of = law_of or exact_law  # looked up here, so a wrapped exact_law is seen
    laws = {s: law_of(s, dist) for s in sorted((left, right), reverse=True,
                                                key=lambda s: s.copies_needed)}
    res = minimal_constant(laws[left], laws[right])
    if direction != "lemma3":
        return res
    return replace(res, c_min_scaled=minimal_constant(laws[left], laws[right], l ** k).c_min)


# ---------------------------------------------------------------------------
# lemma and proposition checks
# ---------------------------------------------------------------------------

def verify_lemma1(dist: DiscreteDistribution,
                  norm_kind: str = "euclidean") -> InequalityReport:
    """P(||X|| >= t) <= 3 P(||X + Y|| >= 2t/3) for X, Y i.i.d. with law `dist`: tail
    domination of ||X|| by ||X + Y|| / 2 at c = 3, one row per positive point of ||X||."""
    atoms, probs = dist.values_array(), dist.probs_array()
    dim = atoms[0].size
    law_x = aggregate_law(batch_norm(atoms, norm_kind, dim), probs)
    # every pair (i, j) in row-major order
    pairs = atoms[:, None] + atoms[None, :]
    law_sum = aggregate_law(batch_norm(pairs, norm_kind, dim), np.outer(probs, probs))
    rows = zip(*(a.tolist() for a in _tail_rows(
        law_x, DiscreteLaw(law_sum.values / 2, law_sum.probs), 3.0)))
    return InequalityReport(tuple(CheckRow(t, lhs, rhs, _holds(lhs, rhs))
                                  for t, lhs, rhs in rows))


def verify_prop1(a: float, dist: DiscreteDistribution) -> InequalityReport:
    """P(|a + Y| >= |a|) >= kappa/4 for mean-zero 1-D Y."""
    values, probs = dist.values_array(), dist.probs_array()
    target = abs(float(a))
    lhs = float(probs[np.abs(a + values) >= target - IDENTITY_TOL].sum())
    rhs = kappa(values, probs) / 4.0
    return InequalityReport((CheckRow(target, lhs, rhs, _holds(rhs, lhs)),))


def sign_chaos_values(coeffs: dict, n: int, x0=0.0) -> np.ndarray:
    """x0 + sum of coefficient * product-of-signs terms over all 2^n sign vectors.

    Keys of `coeffs` are tuples of distinct 0-based indices (any degree);
    values are scalars or vectors.
    """
    signs = all_sign_vectors(n).astype(float)
    terms = [np.multiply.outer(signs[:, list(t)].prod(axis=1), np.asarray(a, dtype=float))
             for t, a in coeffs.items()] or [np.zeros(len(signs))]
    return functools.reduce(np.add, terms) + np.asarray(x0, dtype=float)


def verify_lemma2(coeffs: dict, x, n: int, norm_kind: str = "euclidean",
                  ) -> tuple[float, InequalityReport]:
    """Exact P(||x + Bernoulli chaos|| >= ||x||) over all 2^n sign vectors.

    Returns the probability (the empirical inverse constant for this instance)
    and a report asserting strict positivity.
    """
    values = sign_chaos_values(coeffs, n, x0=x)
    target = norm(x, norm_kind)
    norms = batch_norm(values, norm_kind, values[0].size)
    prob = float(np.count_nonzero(norms >= target - IDENTITY_TOL)) / values.shape[0]
    row = CheckRow(target, prob, 0.0, prob > 0.0)
    return prob, InequalityReport((row,))


def verify_moment_comparison(coeffs, n: int, degree: int,
                             kind: str = "rademacher", l: int | None = None,
                             x0: float = 0.0) -> InequalityReport:
    """L4/L2 ratio check for polynomial chaos in signs or centered selectors.

    The bound is 3^(degree/2) (the q = 4 hypercontractivity constant for
    Rademacher chaos of the given degree).  For selectors both the centered
    and the recentered (raw indicator) linear forms are checked against the
    same bound.  Also checks the transfer implication
    ratio <= c  =>  L2 <= c^2 L1 with the measured c.
    """
    bound = 3.0 ** (degree / 2.0)
    if kind == "rademacher":
        if bad := [key for key, a in coeffs.items() if np.ndim(a)]:  # a scalar chaos bound
            raise ValidationError(f"coefficient {bad[0]} is not a scalar")
        variants = [sign_chaos_values(coeffs, n, x0=x0)]
    elif kind == "centered-selector":
        if l is None or l < 1:
            raise ValidationError("centered-selector kind needs l >= 1")
        a = np.asarray(coeffs, dtype=float)
        if a.shape != (n, l):
            raise ValidationError("selector coefficients must have shape (n, l)")
        # x0 + sum_i a[i, chosen column]; centering subtracts each row's mean
        raw = x0 + rz.selector_couple(a, all_choice_vectors(n, l)).sum(axis=1)
        variants = [raw - a.sum() / l, raw]
    else:
        raise ValidationError(f"unknown variable kind {kind!r}")

    rows = []
    for vals in variants:
        law = aggregate_law(vals, np.full(vals.shape[0], 1.0 / vals.shape[0]))
        m1, m2, m4 = moment(law, 1), moment(law, 2), moment(law, 4)
        if m2 == 0.0:
            rows.append(CheckRow(0.0, 0.0, bound, True))  # degenerate: skipped
            continue
        ratio = m4 / m2
        rows.append(CheckRow(0.0, ratio, bound, _holds(ratio, bound)))
        rows.append(CheckRow(1.0, m2, ratio * ratio * m1, _holds(m2, ratio * ratio * m1)))
    return InequalityReport(tuple(rows))


def mazur_orlicz_exhaustive(k_max: int = 6) -> bool:
    """Coefficient equals the permutation indicator for every tuple, k <= k_max,
    listed k^(k-1) tuples at a time: one block per first entry."""
    for k in range(1, k_max + 1):
        rest = all_choice_vectors(k - 1, k)  # every choice of the other k - 1 entries
        for first in range(k):
            j = np.insert(rest, 0, first, axis=1)
            expected = np.all(np.sort(j, axis=1) == np.arange(k), axis=1)
            if not np.array_equal(mazur_orlicz_coefficient(j), expected):
                return False
    return True


def symmetrized_expansion_residual(kf: KernelFamily, s: np.ndarray,
                                   norm_kind: str = "euclidean") -> float:
    """Residual of the Mazur-Orlicz extraction of the symmetrized sum.

    The symmetrized decoupled sum must equal the alternating sum, over the
    nonempty copy subsets S, of (-1)^(k - |S|) times the |S|-copy mixed sum
    on the columns in S.
    """
    k, s = kf.k, np.asarray(s, dtype=float)
    lhs = np.asarray(ue.symmetrized_decoupled_sum(kf, s), dtype=float)
    rhs = sum((-1) ** (k - size) * ue.mixed_sum(kf, s[..., list(S)], size)
              for size in range(1, k + 1) for S in itertools.combinations(range(k), size))
    return norm(lhs - rhs, norm_kind)


# ---------------------------------------------------------------------------
# corpus generation and the campaign: one generator per check, one driver
# ---------------------------------------------------------------------------

def named_distribution(name: str) -> DiscreteDistribution:
    if name == "rademacher":
        return rademacher()
    if name.startswith("uniform") and name[len("uniform"):].isdigit():
        return uniform(int(name[len("uniform"):]))
    raise ValidationError(f"unknown distribution name {name!r}")


def build_kernel(cls: str, n: int, k: int, seed: int) -> KernelFamily:
    if cls == "product":
        return kmod.product_kernel(k, n)
    if cls == "affine":
        return kmod.affine_product_kernel(k, n, c=1.0)
    if cls == "sym-coeff":
        return kmod.random_coefficient_kernel(k, n, seed=seed, symmetric=True)
    if cls == "coeff":
        return kmod.random_coefficient_kernel(k, n, seed=seed, symmetric=False)
    if cls == "first-arg":
        return kmod.first_argument_kernel(k, n)
    raise ValidationError(f"unknown kernel class {cls!r}")


def random_law(rng, dim: int = 1) -> DiscreteDistribution:
    """Random finite law with small integer-valued atoms."""
    m = int(rng.integers(2, 6))
    if dim == 1:
        vals = rng.choice(np.arange(-4, 5), size=m, replace=False)
        atoms = tuple(float(v) for v in vals)
    else:
        seen = set()
        while len(seen) < m:
            seen.add(tuple(float(x) for x in rng.integers(-3, 4, size=dim)))
        atoms = tuple(seen)
    w = rng.integers(1, 9, size=m).astype(float)
    probs = tuple(w / w.sum())
    return DiscreteDistribution(atoms, probs)


def random_mean_zero_law(rng) -> DiscreteDistribution:
    """Symmetric construction: atoms +/-v with equal weights, optional 0 atom."""
    j = int(rng.integers(1, 4))
    vals = rng.choice(np.arange(1, 6), size=j, replace=False).astype(float)
    w = rng.integers(1, 9, size=j).astype(float)
    include_zero = bool(rng.integers(0, 2))
    atoms, weights = [], []
    for v, wt in zip(vals, w):
        atoms.extend([float(v), float(-v)])
        weights.extend([wt / 2.0, wt / 2.0])
    if include_zero:
        atoms.append(0.0)
        weights.append(float(rng.integers(1, 9)))
    weights = np.asarray(weights)
    return DiscreteDistribution(tuple(atoms), tuple(weights / weights.sum()))


def random_chaos_coefficients(rng, n: int, k: int) -> dict:
    """Sparse integer coefficients over distinct tuples of degrees 1..k."""
    coeffs = {}
    for r in range(1, k + 1):
        for t in distinct_tuples(n, r):
            if rng.random() < 0.5:
                continue
            c = float(rng.integers(-3, 4))
            if c != 0:
                coeffs[t] = c
    if not coeffs:
        coeffs[(0,)] = 1.0
    return coeffs


# Each check is a generator of Outcomes and Skips.  run_corpus passes each the
# keywords cfg, instances and law_of, which every check shares, and rng, the
# check's own check_rng stream: what a check draws depends on the seed and that
# check alone, never on which checks run before it.

def check_rng(seed: int, check: str) -> np.random.Generator:
    """The stream a check draws its corpus from, keyed by the seed and the check's name."""
    return np.random.default_rng([seed, *check.encode()])


@dataclass(frozen=True)
class Outcome:
    """One result of a campaign check, with the table rows behind it."""
    instance: str
    passed: bool
    detail: dict = field(default_factory=dict)
    n: int | None = None
    k: int | None = None
    l: int | None = None
    rows: tuple = ()  # CheckRows
    constant: float | None = None  # written on each of the rows


@dataclass(frozen=True)
class Skip:
    """An instance a check could not finish, and the _UNFINISHED error that stopped it."""
    instance: str
    error: Exception


def _identities(cfg, rng, instances, **_):
    for inst, dist, kf in instances:
        n, k = kf.n, kf.k
        if n > 6:
            yield Skip(inst, BudgetExceededError(f"n={n} exceeds the identities cap n <= 6"))
            continue
        copies = max(k, max(cfg.ls, default=1), 2)
        s = sample_matrices(dist, n, copies, 1, rng)[0]
        res, ces = rz.expansion_residual_batch(kf, s[:, :2], rz.all_sign_vectors(n))
        mixed = np.asarray(ue.mixed_sum(kf, s, 2))  # the spread, l = 2 and partition target
        gaps = [rz.pattern_invariance_spread(ces, mixed, cfg.norm_kind)]
        try:
            for l in cfg.ls:
                ce = np.asarray(rz.selector_conditional_expectation(kf, s, l))
                target = (mixed if l == 2 else np.asarray(ue.mixed_sum(kf, s, l))) / float(l ** k)
                gaps.append(norm(ce - target, cfg.norm_kind))
        except _UNFINISHED as e:
            yield Skip(inst, e)
            continue
        # the two-copy mixed sum (a product set) less its partition: both all-equal
        # pattern sums and the not_all_equal sum (a listed set)
        partition = (mixed - ue.pattern_sum(kf, s, (0,) * k)
                     - ue.pattern_sum(kf, s, (1,) * k) - ue.not_all_equal_sum(kf, s))
        gaps.append(norm(partition, cfg.norm_kind))
        worst = float(np.max(np.append(res, gaps)))  # one NaN anywhere fails the instance
        yield Outcome(inst, worst <= IDENTITY_TOL, {"max_residual": worst}, n, k)


def _mazur_orlicz(cfg, rng, instances, **_):
    yield Outcome("coefficient:k<=6", mazur_orlicz_exhaustive(6))
    for inst, dist, kf in instances:
        if kf.symmetric_claimed and kf.k > 4:
            yield Skip(inst, BudgetExceededError(f"k={kf.k} exceeds the mazur_orlicz cap k <= 4"))
        elif kf.symmetric_claimed:
            s = sample_matrices(dist, kf.n, kf.k, 1, rng)[0]
            res = symmetrized_expansion_residual(kf, s, cfg.norm_kind)
            yield Outcome(inst, res <= IDENTITY_TOL, {"residual": res}, kf.n, kf.k)


def _distributional(cfg, **_):
    for dist_name in cfg.distributions:
        dist = named_distribution(dist_name)
        for n in (2, 3):
            runs = [(f"{dist_name}:sign:n{n}", "sign", None)] + [
                (f"{dist_name}:selector:n{n}l{l}", "selector", l)
                for l in cfg.ls if l >= 2]
            for iid, coupling, l in runs:
                try:  # the sign coupling has two columns whatever l is
                    ok = rz.distributional_equality_check(
                        dist, n, coupling, l or 2, budget=DISTRIBUTIONAL_BUDGET)
                except _UNFINISHED as e:
                    yield Skip(iid, e)
                    continue
                yield Outcome(iid, ok, n=n, l=l)


def _lemma1(cfg, rng, **_):
    for i in range(cfg.law_count):
        dim = 1 if i % 2 == 0 else 2
        rep = verify_lemma1(random_law(rng, dim=dim), cfg.norm_kind)
        yield Outcome(f"law{i}:dim{dim}", rep.passed, rows=rep.rows)


def _prop1(cfg, rng, **_):
    for i in range(cfg.law_count):
        law = random_mean_zero_law(rng)
        for a in (0.0, 0.5, 1.0, 2.5):
            rep = verify_prop1(a, law)
            yield Outcome(f"law{i}:a{a}", rep.passed, rows=rep.rows)


_CHAOS_CAP = "n={n}, k={k} exceeds the sign-chaos cap n <= 12, k <= 3"


def _lemma2(cfg, rng, **_):
    for n, k in cfg.nk_pairs:
        if k > 3 or n > 12:
            yield Skip(f"n{n}k{k}", BudgetExceededError(_CHAOS_CAP.format(n=n, k=k)))
            continue
        for i in range(5):
            coeffs = random_chaos_coefficients(rng, n, k)
            prob, rep = verify_lemma2(coeffs, float(rng.integers(1, 4)), n)
            yield Outcome(f"n{n}k{k}i{i}", rep.passed, {"prob": prob}, n, k)


def _moments(cfg, rng, **_):
    for n, k in cfg.nk_pairs:
        if k > 3 or n > 12:
            yield Skip(f"rademacher:n{n}k{k}", BudgetExceededError(_CHAOS_CAP.format(n=n, k=k)))
            continue
        for i in range(3):
            coeffs = random_chaos_coefficients(rng, n, k)
            rep = verify_moment_comparison(coeffs, n, k, "rademacher")
            yield Outcome(f"rademacher:n{n}k{k}i{i}", rep.passed, n=n, k=k, rows=rep.rows)
    for l in cfg.ls:
        if l < 2:
            continue
        n = 4
        a = rng.integers(-3, 4, size=(n, l)).astype(float)
        try:
            rep = verify_moment_comparison(a, n, 1, "centered-selector", l=l,
                                           x0=float(rng.integers(0, 3)))
        except _UNFINISHED as e:
            yield Skip(f"selector:l{l}", e)
            continue
        yield Outcome(f"selector:l{l}", rep.passed, n=n, l=l, rows=rep.rows)


def _search(direction, cfg, instances, law_of, **_):
    """Closed-form constants of one direction: one search_constant call per result,
    which passes if c_min is feasible and at most theorem1_constant (C_CEILING
    for lemma3, whose constant the paper does not state)."""
    for inst, dist, kf in instances:
        if direction != "upper" and not kf.symmetric_claimed:
            continue
        for l in range(1, kf.k + 1) if direction == "lemma3" else (None,):
            iid = inst if l is None else f"{inst}l{l}"
            try:
                res = search_constant(kf, dist, direction, l, cfg.norm_kind, law_of)
            except _UNFINISHED as e:
                yield Skip(iid, e)
                continue
            detail = ({"c_min": res.c_min, "max_slack": res.max_slack} if l is None
                      else {"c_min": res.c_min, "c_min_scaled": res.c_min_scaled})
            rows = () if res.row is None else (res.row,)  # the row where c_min binds
            bound = C_CEILING if l else theorem1_constant(kf.k)
            yield Outcome(iid, res.feasible and res.c_min <= bound,
                          {**detail, "binding": res.binding}, kf.n, kf.k, l, rows, res.c_min)


def _kl_threshold(m: int, level: float) -> float:
    """The x > m - 1 with e^-x (e x / (m - 1))^(m - 1) = level.

    N draws from a law on m points have empirical law q with
    P(N KL(q || law) >= x) <= e^-x (e x / (m - 1))^(m - 1) for every x > m - 1
    (R. Agrawal, IEEE Trans. Inf. Theory 2020), so G = N KL(q || law) reaches
    this x with probability at most `level`.
    """
    d, c = m - 1, -math.log(level)
    if d == 0:  # one point: G is 0
        return c

    def excess(x):  # log(bound(x) / level), concave and falling for x > d
        return d + d * math.log(x / d) - x + c

    x = d + c
    while excess(x) > 0:
        x *= 2
    for _ in range(64):  # Newton's steps from the right of the root stay right of it
        step = excess(x) / (d / x - 1)
        x -= step
        if abs(step) <= 1e-12 * x:
            break
    return x


def _kl_statistic(counts, probs, draws: int):
    """draws * KL(counts / draws || probs) over the last axis, 0 log 0 taken as 0."""
    return np.sum(counts * np.log(np.maximum(counts, 1) / (draws * probs)), axis=-1)


def _mc_gate(sampled, trials: int):
    """Whether each (exact law, _mc_counts of `trials` draws) in `sampled` fits,
    and the detail: a draw off the support fails, and so does a law whose
    G = N KL(draws || law) reaches _kl_threshold at level MC_ALPHA / (laws gated),
    so a correct build fails with probability at most MC_ALPHA."""
    ratio = max(float(_kl_statistic(counts, law.probs, trials))
                / _kl_threshold(law.values.size, MC_ALPHA / len(sampled))
                for law, (counts, _) in sampled)
    off = sum(missed for _, (_, missed) in sampled)
    return off == 0 and ratio < 1.0, {"alpha": MC_ALPHA, "laws": len(sampled),
                                      "off_support": off, "worst_ratio": ratio}


def _mc_consistency(cfg, instances, law_of, **_):
    """_mc_gate on the pattern (0..k-1) law of every third instance."""
    sampled = []
    for i in range(0, len(instances), 3):
        inst, dist, kf = instances[i]
        spec = StatisticSpec(kf, "pattern", pattern=tuple(range(kf.k)),
                             norm_kind=cfg.norm_kind)
        try:
            law = law_of(spec, dist)
        except _UNFINISHED as e:
            yield Skip(inst, e)
            continue
        sampled.append((law, _mc_counts(spec, dist, law, cfg.mc_trials, cfg.seed + i)))
    if sampled:
        yield Outcome("corpus", *_mc_gate(sampled, cfg.mc_trials))


_SEARCHES = {"theorem1_upper": "upper", "theorem1_lower": "lower", "lemma3": "lemma3"}
_CHECKS = {"identities": _identities, "mazur_orlicz": _mazur_orlicz,
           "distributional": _distributional, "lemma1": _lemma1, "prop1": _prop1,
           "lemma2": _lemma2, "moments": _moments,
           **{check: functools.partial(_search, d) for check, d in _SEARCHES.items()},
           "mc_consistency": _mc_consistency}
ALL_CHECKS = tuple(_CHECKS)


@dataclass
class CorpusConfig:
    seed: int = 0
    distributions: tuple = ("rademacher", "uniform3")
    kernel_classes: tuple = ("product", "affine", "sym-coeff", "coeff")
    nk_pairs: tuple = ((3, 2), (4, 2), (4, 3))
    ls: tuple = (1, 2, 3)
    checks: tuple = ALL_CHECKS
    enum_budget: int = DEFAULT_ENUM_BUDGET
    mc_trials: int = 20000
    law_count: int = 25
    norm_kind: str = "euclidean"

    def __post_init__(self):
        if self.seed < 0:  # NumPy seeds only non-negative integers
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        for n, k in self.nk_pairs:
            if k > n:
                raise ValidationError(f"configured pair n={n}, k={k} violates k <= n")
        if not self.checks:  # a campaign of no checks would pass vacuously
            raise ValidationError("checks: the check list is empty")
        for c in self.checks:
            if c not in ALL_CHECKS:
                raise ValidationError(f"unknown check name {c!r}")
        if self.enum_budget <= 0:
            raise ValidationError("enumeration budget must be positive")
        if self.mc_trials < MIN_TRIALS:
            raise ValidationError(
                f"mc_trials must be >= {MIN_TRIALS}, got {self.mc_trials}")
        if self.law_count < 1:
            raise ValidationError(f"law_count must be >= 1, got {self.law_count}")
        if any(l < 1 for l in self.ls):
            raise ValidationError(f"every l in ls must be >= 1, got {self.ls}")
        batch_norm(0.0, self.norm_kind, 1)  # each of these raises on an unknown name
        for name in self.distributions:
            named_distribution(name)
        for cls in self.kernel_classes:
            build_kernel(cls, 1, 1, seed=0)


def _instances(cfg: CorpusConfig):
    for dist_name in cfg.distributions:
        dist = named_distribution(dist_name)
        for n, k in cfg.nk_pairs:
            for i, cls in enumerate(cfg.kernel_classes):
                kf = build_kernel(cls, n, k, seed=cfg.seed * 1000 + i)
                yield f"{dist_name}:{kf.label}:n{n}k{k}", dist, kf


def _summary(cfg: CorpusConfig, results: list, skipped: list) -> dict:
    """The summary, read from the recorded results and skips alone."""
    constants, lemma2_min = {}, {}
    for r in results:
        detail, k = r["detail"], r["k"]
        if r["check"] == "lemma2":
            lemma2_min[k] = min(lemma2_min.get(k, 1.0), detail["prob"])
        for key, c in (((_SEARCHES.get(r["check"]), k), detail.get("c_min")),
                       (("lemma3_scaled", k), detail.get("c_min_scaled"))):
            if c is not None and not math.isnan(c):  # NaN: no feasible constant
                constants[key] = max(constants.get(key, 1.0), c)
    passed = sum(r["passed"] for r in results)
    summary = {"total": len(results), "passed": passed, "failed": len(results) - passed,
               "empirical_constants": {f"{d}:k={k}": c
                                       for (d, k), c in sorted(constants.items())},
               "lemma2_min_probability": {f"k={k}": p
                                          for k, p in sorted(lemma2_min.items())}}
    if skipped:  # only then, like not_run, so a report with none keeps its bytes
        summary["skipped"] = skipped
    ran = {r["check"] for r in results}
    budget_hit = {s["check"] for s in skipped}
    not_run = {c: NOT_RUN_BUDGET if c in budget_hit else NOT_RUN_CONFIG
               for c in cfg.checks if c not in ran}
    if not_run:  # only then, so a report where every check ran keeps its bytes
        summary["not_run"] = not_run
    return summary


def run_corpus(cfg: CorpusConfig) -> dict:
    """Run each configured check's generator, in ALL_CHECKS order, and record
    what it yields; returns a JSON-ready dict.

    Each result goes to `results` and its rows to `table`.  Of the instances a
    check could not finish, a budget refusal goes to `summary.skipped` and any
    other (a broken invariant, a refused input) to `results`, failed with
    `detail.error`.  `checks` holds every requested check's wall seconds and
    exact laws computed, measured around that check alone.
    """
    # each exact law once per (instance, statistic)
    law_of = functools.cache(functools.partial(exact_law, budget=cfg.enum_budget))
    context = {"cfg": cfg, "instances": list(_instances(cfg)),  # built once, shared
               "law_of": law_of}
    results, table, skipped, checks = [], [], [], {}
    for check, generate in _CHECKS.items():
        if check not in cfg.checks:
            continue
        start, laws = time.perf_counter(), law_of.cache_info().currsize
        for out in generate(**context, rng=check_rng(cfg.seed, check)):
            if isinstance(out, Skip):
                if isinstance(out.error, BudgetExceededError):
                    skipped.append({"check": check, "instance_id": out.instance,
                                    "reason": str(out.error)})
                    continue
                out = Outcome(out.instance, False, {"error": str(out.error)})
            where = {"check": check, "instance_id": out.instance,
                     "n": out.n, "k": out.k, "l": out.l}
            results.append({**where, "passed": bool(out.passed), "detail": out.detail})
            table.extend({**where, "t": r.t, "lhs": r.lhs, "rhs": r.rhs,
                          "constant": out.constant, "holds": bool(r.holds)}
                         for r in out.rows)
        checks[check] = {"wall_s": time.perf_counter() - start,
                         "exact_laws": law_of.cache_info().currsize - laws}
    return {"results": results, "summary": _summary(cfg, results, skipped),
            "table": table, "checks": checks}
