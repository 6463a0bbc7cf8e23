"""Exact and Monte Carlo laws of U-statistic norms.

A statistic is a `ustat_engine.StatisticSpec`, which names, validates and
evaluates it; this module computes the law of its norm.  Exact laws by
column-grid contraction, a block of first-copy grid rows at a time, so their
memory is bounded by _BLOCK floats, not by the number of realizations; mixed
laws on per-row count vectors.  Either way the law covers every sample-matrix
realization exactly.  While every realization has the same probability p, as in
every law over the named (uniform) distributions but mixed laws at l >= 2, the
norms are counted, not looked up: a point seen c times gets 0.0 + p + ... + p,
c terms in order, bit for bit what np.add.at gives, in about half the time of a
lookup per norm on the largest pattern laws (_aggregate).  Monte Carlo
tails and support counts draw from a PCG64 generator keyed by the seed, so
identical (seed, spec) inputs give bit-identical output regardless of
scheduling.  They draw in chunks of at most _CHUNK trials, fewer where a
trial's drawn cells and its row of the first contraction product,
n x copies x (atom size) + n^(k-1) x dim floats, would take a chunk past
_BLOCK floats (see _mc_norms), so their memory is bounded by the block too:
1.9 against 6.5 MiB traced for 10^5 draws of a pattern (0, 1, 2) law at n=6,
k=3.  Support counts sort each chunk once and take each point's run of equal
norms (_mc_counts): mc_consistency on the identities_mc workload took 0.23
against 0.31 s in process with a lookup per norm.
kappa is the closed form (E|Y|)^2 / E(Y^2) of a mean-zero 1-D law.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, InvariantError, ValidationError
from .kernel import _cell_tensor
from .ustat_engine import StatisticSpec, _contract
from .value_space import DEFAULT_ENUM_BUDGET, DiscreteDistribution, batch_norm

_VALUE_DECIMALS = 12  # aggregation resolution for norm values
MIN_TRIALS = 100  # fewest Monte Carlo trials mc_tail accepts
KAPPA_MEAN_TOL = 1e-9  # |E Y| above this is not mean zero
_CHUNK = 2 ** 13  # values per aggregation block; most trials per Monte Carlo chunk
_BLOCK = 2 ** 17  # floats in the widest array of one exact-law block or Monte Carlo chunk
_EDGE_ATOMS = 256  # a one-byte atom index; per chunk, edge passes tie bisection near here


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


def _run_starts(s: np.ndarray) -> np.ndarray:
    """Index of the first value of each run of equal values in sorted s; the
    NaNs, sorted last, are one run."""
    return np.flatnonzero(np.append(s.size > 0, (s[1:] != s[:-1]) & (s[:-1] == s[:-1])))


def _merged(points, counts):
    """Distinct points of the concatenated (points, counts) runs, sorted, each with
    its counts added; equal points keep the form seen first (-0.0 or 0.0)."""
    v, c = np.concatenate(points), np.concatenate(counts)
    order = np.argsort(v, kind="stable")
    v, c = v[order], c[order]
    at = _run_starts(v)
    return v[at], np.add.reduceat(c, at)


def _repeated_sums(counts: np.ndarray, p) -> np.ndarray:
    """0.0 + p + ... + p, with c terms added in order, for each count c: bit for bit
    what np.add.at adds for a point seen c times at probability p.  One running
    np.add.accumulate, at most _CHUNK terms a step, carries the last sum; each step
    serves the points whose count it reaches, so each distinct count costs one sum."""
    sums, last, done, todo = np.empty(counts.size), 0.0, 0, np.arange(counts.size)
    while todo.size:
        c = counts[todo] - done
        acc = np.add.accumulate(np.append(last, np.full(min(_CHUNK, int(c.max())), p)))
        now = c < acc.size
        sums[todo[now]] = acc[c[now]]
        todo, last, done = todo[~now], acc[-1], done + acc.size - 1
    return sums


def _counted(blocks):
    """Counting mode of _aggregate: while every probability equals the first, p,
    each block's sorted values become (point, run length) pairs, which integer
    counts add exactly in any order.  The pending pairs are merged into the merged
    ones only once they outnumber them, so a law of distinct values is not merged
    once per block.  Returns the support so far, its sums by _repeated_sums, and
    the first block whose probabilities differ, if any ([] if none)."""
    p0, points, counts, pending = None, [np.empty(0)], [np.empty(0, np.intp)], 0
    left = []
    for v, p, s in blocks:
        p0 = p[0] if p0 is None and p.size else p0
        if p.size and not np.all(p == p0):
            left.append((v, p, s))
            break
        at = _run_starts(s)
        points.append(s[at])
        counts.append(np.diff(at, append=s.size))
        pending += at.size
        if pending > points[0].size:  # the merged points lead the list
            support, support_counts = _merged(points, counts)
            points, counts, pending = [support], [support_counts], 0
    support, counts = _merged(points, counts)
    return support, _repeated_sums(counts, p0), left


def _aggregate(blocks, name=None) -> DiscreteLaw:
    """Collapse the rounded values of (values, probs) blocks, taken in order, into a law.

    Each point's probabilities are added to 0.0 in realization order.  While every
    probability is the same p (every coupled, pattern, not_all_equal and
    symmetrized exact law, and mixed laws at l = 1, since the named distributions
    are uniform), that sum depends only on the point's count, so the blocks are
    counted (`_counted`), with no lookup per value.  From the first block whose
    probabilities differ on, each block's new points go into the sorted support
    and np.add.at adds each value's probability at its point, found by
    searchsorted (`_looked_up`).  On two shared cores (NumPy 2.4), counting took
    the 8 largest pattern laws of the campaign and identities_mc workloads (2^18
    to 2^20 realizations) from 163-178 to 84-95 ms in total, and 2^20 distinct
    values in random order at equal probabilities from 1.15-1.36 to 0.19-0.26 s
    (medians of 5 to 7); at random probabilities they take 1.0-1.4 s, as before,
    since each block's new points are still inserted into the support.
    """
    blocks = map(_sorted_block, blocks)
    support, sums, left = _counted(blocks)
    for block in itertools.chain(left, blocks):
        support, sums = _looked_up(support, sums, *block)
    if name and abs(float(sums.sum()) - 1.0) > 1e-9:  # an exact_law bug, not a bad input
        raise InvariantError(f"exact {name} has total mass {float(sums.sum())}")
    return DiscreteLaw(support[sums > 0], sums[sums > 0] / sums.sum())


def _looked_up(support, sums, v, p, s):
    """The support and sums with one block added: its new points go into the sorted
    support, and np.add.at adds each value's probability at its point, looked up."""
    new = s[_run_starts(s)]
    new = new[np.searchsorted(support, new) == np.searchsorted(support, new, "right")]
    at = np.searchsorted(support, new)  # where each point the support lacks goes
    support, sums = np.insert(support, at, new), np.insert(sums, at, 0.0)
    np.add.at(sums, np.searchsorted(support, v), p)
    return support, sums


def _sorted_block(block):
    """A (values, probs) block as its rounded values, probs and sorted rounded values."""
    values, probs = block
    v, p = np.round(np.asarray(values, float), _VALUE_DECIMALS).ravel(), np.ravel(probs)
    if v.size != p.size:
        raise ValidationError(f"{v.size} values for {p.size} probabilities")
    return v, p, np.sort(v)  # NaNs last; np.unique would import numpy.ma


def aggregate_law(values, probs) -> DiscreteLaw:
    """Law of `values` weighted by `probs`, aggregated _CHUNK values at a time."""
    v, p = np.ravel(values), np.ravel(probs)
    return _aggregate((v[i:i + _CHUNK], p[i:i + _CHUNK])
                      for i in range(0, max(v.size, p.size), _CHUNK))


def tail(law: DiscreteLaw, t):
    """P(value >= t) at a scalar or an array of t, by lookup in the law's suffix sums."""
    return law.suffix_sums[np.searchsorted(law.values, t)]


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


def _grid_rows(feats: np.ndarray, probs: np.ndarray, n: int, start: int, stop: int):
    """Rows start..stop-1 of the column grid, in np.indices order, built from their
    mixed-radix codes: each column's n cells' features side by side, and its probability."""
    m = probs.size
    idx = np.arange(start, stop)[:, None] // m ** np.arange(n - 1, -1, -1) % m
    return feats[idx].reshape(len(idx), -1), probs[idx].prod(axis=1)


def _grid_contract(tensor: np.ndarray, grids, pattern):
    """Pattern sum of the cell tensor with copy j's column ranging over the rows
    of grids[j]: one axis per copy (length 1 if unused), then the dim axis.

    Slots are sorted by copy, so the slots of copy j lead the axes left when
    its turn comes and contract against one shared grid axis.
    """
    order = np.argsort(pattern, kind="stable")
    acc = tensor.transpose(tuple(order) + tuple(range(len(order), tensor.ndim)))[None, None]
    shape = []
    for j, grid in enumerate(grids):  # acc: (grid points of the copies done, slots left)
        acc = acc.reshape((-1,) + acc.shape[2:])  # first, so the output is never copied
        q = pattern.count(j)
        if q:
            acc = np.moveaxis(_contract(np.moveaxis(acc, 0, -1), [grid] * q), -1, 0)
        else:
            acc = acc[:, None]
        shape.append(acc.shape[1])
    return acc.reshape(tuple(shape) + acc.shape[2:])


def _block_rows(patterns, size: int, width: int, copies: int, dim: int) -> int:
    """First-copy grid rows per contraction block, so that no array one block builds
    passes _BLOCK floats.  Per first-copy row the widest is the grid row (width
    features), the output (size^(copies-1) x dim) or the first product of copy j's
    `_contract`, size^j x width^(slots left - 1) x dim."""
    widest = max([size ** (copies - 1)] + [size ** j * width ** (sum(c >= j for c in p) - 1)
                                           for p in patterns for j in set(p)])
    return max(1, _BLOCK // max(width, widest * dim))


def _joined(blocks):
    """Flat (values, probs) blocks, in order, with each run of blocks under _CHUNK / 2
    values joined until it reaches that."""
    vs, ps = [], []
    for v, p in blocks:
        vs.append(v)
        ps.append(p)
        if sum(map(len, vs)) >= _CHUNK // 2:
            yield (v, p) if len(vs) == 1 else (np.concatenate(vs), np.concatenate(ps))
            vs, ps = [], []
    if vs:
        yield np.concatenate(vs), np.concatenate(ps)


def exact_law(spec: StatisticSpec, dist: DiscreteDistribution,
              budget: int = DEFAULT_ENUM_BUDGET) -> DiscreteLaw:
    """Exact law of the statistic norm over all m^(n*copies) sample matrices.

    The statistic is a multilinear form in per-cell features, so each pattern
    sum is contracted on the grid of all column realizations, never evaluated
    realization by realization.  A mixed statistic sees a row only through the
    atom counts of its l copies: one coupled contraction on the grid of per-row
    count vectors.  `budget` caps m^(n*copies), whatever grid is contracted.
    A kernel without coeffs must be finite on the atoms: one NaN would reach every realization.

    The first copy's grid is contracted a block of rows at a time, each block
    built from its rows' mixed-radix codes; later copies read the whole grid,
    which is small, since size^copies is within the budget.  A block has as many
    rows as keep its widest array (`_block_rows`) within _BLOCK floats, or one row
    if one needs more, so a law within one block is one contraction per pattern.
    Norms are aggregated in realization order, about _CHUNK at a time, so the
    law is the same bit for bit whatever the blocks.  On two shared cores (NumPy
    2.4, OpenBLAS 0.3.31), median CLI times over 8-10 alternating runs: at 2^17
    floats (1 MiB) the mixed l=2 law of a first-arg kernel at n=5, k=3 on uniform4
    took 0.45 s in 32 MB RSS, against 0.45 s in 376 MB in one piece; at 2^16 its
    163-row first products (163 x 20 by 20 x 400) start OpenBLAS threads and it
    took 0.61 s, and at 2^15 the default campaign read 0.38 s against 0.36 s.
    """
    kf = spec.kernel
    n, k, m = kf.n, kf.k, dist.size
    cells = n * spec.copies_needed
    if m ** cells > budget:
        raise BudgetExceededError(
            f"{m}^{cells} = {m ** cells} realizations exceeds budget {budget}")
    tensor, feats, const = _cell_tensor(kf, dist.values_array())
    if kf.coeffs is None and not np.all(np.isfinite(tensor)):
        raise ValidationError(f"kernel {kf.label} is not finite on the atoms")
    probs, patterns, copies = dist.probs_array(), spec.patterns(), spec.copies_needed
    contracted = patterns
    if spec.mode == "mixed":  # all l^k patterns at once, on per-row counts
        counts, probs = _count_vectors(probs, spec.l)
        feats, contracted, copies = counts @ feats, [(0,) * k], 1
    size, dims = probs.size ** n, tensor.shape[k:]  # grid rows: the column realizations
    rows = _block_rows(contracted, size, n * feats.shape[1], copies, kf.dim)
    step = max(1, _CHUNK // size ** (copies - 1))  # first-copy grid rows per aggregation block
    later, later_probs = _grid_rows(feats, probs, n, 0, size) if copies > 1 else (None, None)
    shift = len(patterns) * math.perm(n, k) * np.asarray(const)

    def blocks():
        for a in range(0, size, rows):
            grid, grid_probs = _grid_rows(feats, probs, n, a, min(a + rows, size))
            grids = [grid] + [later] * (copies - 1)
            sums = (_grid_contract(tensor, grids, p) for p in contracted)
            empty = np.zeros((1,) * copies + dims)  # k = 1 not_all_equal has no pattern
            values = functools.reduce(np.add, sums, next(sums, empty))  # the first sum, not a copy
            values += shift  # a new array: add in place
            values = np.broadcast_to(values, tuple(map(len, grids)) + dims)
            for b in range(0, len(grid), step):
                yield (batch_norm(values[b:b + step].reshape((-1,) + dims),
                                  spec.norm_kind, kf.dim),
                       functools.reduce(np.multiply.outer,
                                        [grid_probs[b:b + step]] + [later_probs] * (copies - 1)
                                        ).ravel())

    return _aggregate(_joined(blocks()), f"{spec.mode} law of {kf.label} at n={n}, k={k}")


def sample_matrices(dist: DiscreteDistribution, n: int, copies: int,
                    trials: int, rng: np.random.Generator, out=None) -> np.ndarray:
    """Draw (trials, n, copies) sample matrices from `rng`, by inverse CDF lookup.

    A draw u takes atom i, the number of CDF edges at or below u: exactly
    searchsorted(edges, u, "right").  Up to _EDGE_ATOMS atoms i is counted in one
    `u >= edge` pass per edge into a one-byte index.  On a Monte Carlo chunk of
    8,192 x 5 x 3 cells (two shared cores, NumPy 2.4) that is 0.8-0.9 ms against
    1.9-2.8 ms by bisection at 2-4 atoms, 1.2 against 5.8 at 16, and 10.4 against
    11.2 at 256, where the byte index ends; wider laws bisect.  The byte index is
    what makes the passes cheap: with an intp index they lost 3x at 256 atoms.  A
    single small sample matrix pays about 1.7 us per edge against a flat 1 us.
    `out`, if given, is (draws, mask, index, samples): buffers of this call's shapes
    and dtypes that are refilled, the samples buffer returned, instead of allocated.
    """
    edges = np.cumsum(dist.probs_array())[:-1]
    u, mask, idx, samples = out or (None,) * 4
    u = rng.random((trials, n, copies), out=u)
    if dist.size > _EDGE_ATOMS:
        idx = edges.searchsorted(u, "right")
    else:
        idx = np.empty(u.shape, dtype=np.uint8) if idx is None else idx  # at most 255: a byte
        idx.fill(0)
        for e in edges:
            idx += np.greater_equal(u, e, out=mask)
    return dist.values_array().take(idx, axis=0, out=samples, mode="clip")  # idx < size


def _mc_norms(spec: StatisticSpec, dist: DiscreteDistribution, trials: int, seed: int):
    """Norms of `trials` sampled statistics, a chunk at a time, from one PCG64 stream
    that no check's corpus stream replays, since its seed sequence has a spawn
    key.  The chunks refill one set of sample_matrices buffers.

    A trial needs w = n x copies x (atom size) floats for its drawn cells and
    n^(k-1) x dim for its row of `_contract`'s first product, so a chunk has
    min(_CHUNK, _BLOCK // w) trials (at least one), the rule `_block_rows` gives
    exact laws.  PCG64 hands out doubles in stream order, so the chunks do not
    change a draw.  The pattern (0, 1, 2) laws of mc_consistency take chunks of
    2,427 trials at n=6, 3,276 at n=5 and 4,681 at n=4; k=2 laws up to n=5 keep
    8,192.  Traced peaks of _mc_counts at 10^5 trials on a Rademacher `coeff`
    kernel at n=6, k=3 fell from 6.5 to 1.9 MiB; of mc_tail at 2 x 10^4 trials
    on a uniform3 `coeff` kernel at n=10, k=4, from 77 to 1.2 MiB.
    """
    kf, copies = spec.kernel, spec.copies_needed
    atom = dist.values_array().shape[1:]
    width = kf.n * copies * math.prod(atom) + kf.n ** (kf.k - 1) * kf.dim
    chunk = min(_CHUNK, max(1, _BLOCK // width), trials)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(1,))))
    shape = (chunk, kf.n, copies)
    out = (np.empty(shape), np.empty(shape, dtype=bool), np.empty(shape, dtype=np.uint8),
           np.empty(shape + atom))
    for done in range(0, trials, chunk):
        size = min(chunk, trials - done)
        yield evaluate_norms(spec, sample_matrices(
            dist, kf.n, copies, size, rng, [b[:size] for b in out]))


def mc_tail(spec: StatisticSpec, dist: DiscreteDistribution, t_grid,
            trials: int, seed: int) -> np.ndarray:
    """Fraction of `trials` sampled norms at or above each t; a NaN norm is no hit."""
    if trials < MIN_TRIALS:
        raise ValidationError(f"trials must be >= {MIN_TRIALS}")
    hits = 0
    for norms in _mc_norms(spec, dist, trials, seed):
        norms = np.sort(norms)  # NaNs sort last
        hits = hits + np.searchsorted(norms, np.nan) - np.searchsorted(norms, t_grid)
    return hits / trials


def _mc_counts(spec: StatisticSpec, dist: DiscreteDistribution, law: DiscreteLaw,
               trials: int, seed: int):
    """Sampled norms, rounded as laws are aggregated, that land on each support
    point of `law`, and the number that land on none (a NaN lands on a NaN point).

    Each chunk's rounded norms are sorted once, NaNs last, and a point's count is
    the width of its run, searchsorted right minus left; the same expression gives
    a NaN point the NaN draws.  The draws on no point are the rest of the chunk.
    Per chunk (two shared cores, NumPy 2.4) that takes 44 us at 8,192 norms and
    81 points, and 12 us at 2,427 norms and 9 points, against 420-490 and 35-41 us
    for a lookup of each norm in the support and an equality test.
    """
    counts, off = np.zeros(law.values.size, dtype=np.int64), 0
    for norms in _mc_norms(spec, dist, trials, seed):
        v = np.sort(np.round(norms, _VALUE_DECIMALS))  # NaNs last
        hits = v.searchsorted(law.values, "right") - v.searchsorted(law.values)
        counts += hits
        off += v.size - int(hits.sum())
    return counts, off


def kappa(values, probs) -> float:
    """Anticoncentration functional (E|Y|)^2 / E(Y^2) of a mean-zero 1-D law."""
    v, p = np.asarray(values, dtype=float), np.asarray(probs, dtype=float)
    if v.ndim != 1:
        raise ValidationError(f"values must be 1-D atoms (m,), got shape {v.shape}")
    mean = float(np.dot(p, v))
    if abs(mean) > KAPPA_MEAN_TOL:
        raise ValidationError(f"Y must be mean zero (mean={mean})")
    first = float(np.dot(p, np.abs(v)))
    if first == 0.0:
        raise ValidationError("Y is almost surely 0")
    return first * first / float(np.dot(p, v * v))
