"""Streamed exact laws and chunked Monte Carlo tails against one-shot bodies.

The references below are the one-shot bodies the streamed code replaced,
kept here: exact_law built every realization's norm and probability at once
and aggregated them with one sort and one bincount; mc_tail drew every trial
from one call of its PCG64 generator and counted hits with count_nonzero.  Laws
contracted and aggregated block by block and tails counted chunk by chunk, on
sample buffers reused from chunk to chunk, must equal them bit for bit, in
memory bounded by the block or chunk; the Monte Carlo stream never replays a
check's corpus stream.  The support counts mc_consistency gates must equal the
hits of the same one-shot draws at every support point, and the counts of the
rule they replaced, which looked each norm up twice (left and right) and took
it as on the support when the two lookups differed.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from decoupling_lab import prob_engine
from decoupling_lab.errors import ValidationError
from decoupling_lab.kernel import (KernelFamily, _cell_tensor, first_argument_kernel,
                                   random_coefficient_kernel)
from decoupling_lab.prob_engine import (_VALUE_DECIMALS, DiscreteLaw, StatisticSpec,
                                        _count_vectors, _grid_contract, _mc_counts,
                                        _mc_norms, aggregate_law, evaluate_norms, exact_law,
                                        mc_tail, sample_matrices)
from decoupling_lab.value_space import DiscreteDistribution, batch_norm, rademacher, uniform
from decoupling_lab.verifier import ALL_CHECKS, build_kernel, check_rng

CHUNK = prob_engine._CHUNK


def one_shot_law(values, probs) -> DiscreteLaw:
    v = np.round(np.asarray(values, dtype=float), _VALUE_DECIMALS).ravel()
    s = np.sort(v)  # support: each value unequal to a non-NaN predecessor (NaNs last)
    uniq = np.append(s[:1], s[1:][(s[1:] != s[:-1]) & (s[:-1] == s[:-1])])
    agg = np.bincount(np.searchsorted(uniq, v), weights=np.ravel(probs), minlength=uniq.size)
    keep = agg > 0
    return DiscreteLaw(uniq[keep], agg[keep] / agg.sum())


def one_shot_exact_law(spec, dist) -> DiscreteLaw:
    kf = spec.kernel
    n, k = kf.n, kf.k
    tensor, feats, const = _cell_tensor(kf, dist.values_array())
    probs, patterns, copies = dist.probs_array(), spec.patterns(), spec.copies_needed
    contracted = patterns
    if spec.mode == "mixed":
        counts, probs = _count_vectors(probs, spec.l)
        feats, contracted, copies = counts @ feats, [(0,) * k], 1
    idx = np.indices((probs.size,) * n).reshape(n, -1).T
    grid, grid_probs = feats[idx].reshape(len(idx), -1), probs[idx].prod(axis=1)
    values = sum(_grid_contract(tensor, [grid] * copies, p) for p in contracted)
    values = values + len(patterns) * math.perm(n, k) * np.asarray(const)
    dims = values.shape[copies:]
    values = np.broadcast_to(values, (len(grid),) * copies + dims).reshape((-1,) + dims)
    probs = functools.reduce(np.multiply.outer, [grid_probs] * copies).ravel()
    return one_shot_law(batch_norm(values, spec.norm_kind, kf.dim), probs)


def mc_rng(seed):
    """The Monte Carlo generator: PCG64, keyed apart from the corpus stream default_rng(seed)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(1,))))


def one_shot_norms(spec, dist, trials, seed) -> np.ndarray:
    u = mc_rng(seed).random((trials, spec.kernel.n, spec.copies_needed))
    cum = np.cumsum(dist.probs_array())
    idx = np.minimum(np.searchsorted(cum, u, side="right"), dist.size - 1)
    return evaluate_norms(spec, dist.values_array()[idx])


def one_shot_mc_tail(spec, dist, t_grid, trials, seed) -> np.ndarray:
    norms = one_shot_norms(spec, dist, trials, seed)
    return np.array([np.count_nonzero(norms >= t) for t in t_grid]) / trials


def assert_same_law(got, want):
    assert np.array_equal(got.values, want.values, equal_nan=True)
    assert np.array_equal(got.probs, want.probs)


def _specs():
    kernels = [random_coefficient_kernel(2, 3, seed=4, symmetric=True),
               random_coefficient_kernel(2, 3, seed=5, dim=2),
               first_argument_kernel(2, 3)]
    for kf in kernels:
        yield StatisticSpec(kf, "coupled")
        yield StatisticSpec(kf, "pattern", pattern=(0, 1))
        yield StatisticSpec(kf, "pattern", pattern=(1, 1))
        yield StatisticSpec(kf, "mixed", l=2)
        yield StatisticSpec(kf, "mixed", l=3, norm_kind="maximum")


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("spec", list(_specs()),
                         ids=lambda s: f"{s.kernel.label}-{s.mode}-{s.pattern or s.l}")
def test_streamed_exact_law_matches_one_shot(monkeypatch, chunk, spec):
    monkeypatch.setattr(prob_engine, "_CHUNK", chunk)  # a support merge on every block
    for dist in (rademacher(), uniform(3)):
        assert_same_law(exact_law(spec, dist), one_shot_exact_law(spec, dist))


@pytest.mark.parametrize("chunk", [1, 7])
def test_aggregate_law_in_blocks_matches_one_shot(monkeypatch, chunk):
    monkeypatch.setattr(prob_engine, "_CHUNK", chunk)
    rng = np.random.default_rng(17)
    values = rng.integers(-9, 10, 500) * 0.37
    values[[3, 250, 499]] = np.nan
    probs = rng.random(values.size)
    assert_same_law(aggregate_law(values, probs), one_shot_law(values, probs))


@pytest.mark.parametrize("values, probs", [(np.ones(CHUNK), np.ones(2 * CHUNK)),
                                           (np.ones(5), np.ones(4)),
                                           (np.ones((2, 3)), np.ones(5))])
def test_aggregate_law_refuses_sizes_that_differ(values, probs):
    with pytest.raises(ValidationError, match="values for"):
        aggregate_law(values, probs)


@pytest.mark.parametrize("trials", [100, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17])
@pytest.mark.parametrize("kf", [random_coefficient_kernel(2, 4, seed=2, symmetric=True),
                                first_argument_kernel(2, 4)], ids=["fast", "callable"])
def test_chunked_mc_tail_matches_one_shot(trials, kf):
    spec = StatisticSpec(kf, "pattern", pattern=(0, 1))
    grid = np.linspace(0.0, 12.0, 25)
    got = mc_tail(spec, uniform(3), grid, trials, seed=11)
    assert np.array_equal(got, one_shot_mc_tail(spec, uniform(3), grid, trials, seed=11))


@pytest.mark.parametrize("seed", [0, 1, 11])
def test_mc_stream_never_replays_the_corpus_stream(seed):
    # no check's corpus stream is the one mc_consistency samples a law from
    spec = StatisticSpec(random_coefficient_kernel(2, 4, seed=2), "pattern", pattern=(0, 1))
    first = next(_mc_norms(spec, uniform(3), 100, seed))
    for check in ALL_CHECKS:
        corpus = evaluate_norms(spec, sample_matrices(uniform(3), 4, 2, 100,
                                                      check_rng(seed, check)))
        assert not np.array_equal(first, corpus), check


_WIDE = DiscreteDistribution(tuple(float(i) for i in range(300)), (1 / 300,) * 300)


@pytest.mark.parametrize("trials", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
@pytest.mark.parametrize("dist", [uniform(3), _WIDE], ids=["edges", "bisection"])
@pytest.mark.parametrize("kf", [random_coefficient_kernel(2, 4, seed=2, symmetric=True),
                                first_argument_kernel(2, 4)], ids=["fast", "callable"])
def test_buffered_mc_norms_match_one_shot_draws(trials, dist, kf):
    spec = StatisticSpec(kf, "pattern", pattern=(0, 1))
    chunks = list(_mc_norms(spec, dist, trials, seed=5))  # each chunk kept as yielded
    want = evaluate_norms(spec, sample_matrices(dist, 4, 2, trials, mc_rng(5)))
    assert [c.size for c in chunks] == [min(CHUNK, trials - a) for a in range(0, trials, CHUNK)]
    assert np.array_equal(np.concatenate(chunks), want)  # no later chunk overwrote one
    assert not any(np.shares_memory(a, b) for i, a in enumerate(chunks) for b in chunks[i + 1:])


def _nan_on_atom_1(idx, args):  # NaN whenever the first argument is the atom 1
    x = np.asarray(args[0], dtype=float)
    return np.where(x == 1.0, np.nan, x * args[1])


def test_mc_tail_never_counts_a_nan_norm():
    spec = StatisticSpec(KernelFamily(2, 3, _nan_on_atom_1), "coupled")
    grid = [0.0, 1.0, 2.0]
    got = mc_tail(spec, uniform(3), grid, 2 * CHUNK + 5, seed=3)
    assert np.array_equal(got, one_shot_mc_tail(spec, uniform(3), grid, 2 * CHUNK + 5,
                                                seed=3))
    assert 0.0 < got[0] < 1.0  # every norm is >= 0: the misses are the NaNs


@pytest.mark.parametrize("trials", [CHUNK - 1, CHUNK, CHUNK + 1])
@pytest.mark.parametrize("kf", [random_coefficient_kernel(2, 4, seed=2, symmetric=True),
                                first_argument_kernel(2, 4)], ids=["fast", "callable"])
def test_support_counts_match_one_shot_hits(trials, kf):
    spec = StatisticSpec(kf, "pattern", pattern=(0, 1))
    law = exact_law(spec, uniform(3))
    rounded = np.round(one_shot_norms(spec, uniform(3), trials, seed=11), _VALUE_DECIMALS)
    hits = [np.count_nonzero(rounded == v) for v in law.values]
    counts, off = _mc_counts(spec, uniform(3), law, trials, seed=11)
    assert counts.tolist() == hits and off == 0 and sum(hits) == trials
    # without its most likely point the law misses exactly that point's draws
    top = int(np.argmax(law.probs))
    keep = np.arange(law.values.size) != top
    short = DiscreteLaw(law.values[keep], law.probs[keep] / law.probs[keep].sum())
    counts, off = _mc_counts(spec, uniform(3), short, trials, seed=11)
    assert counts.tolist() == hits[:top] + hits[top + 1:] and off == hits[top] > 0


def two_lookup_counts(spec, dist, law, trials, seed):
    counts, off = np.zeros(law.values.size, dtype=np.int64), 0
    for norms in prob_engine._mc_norms(spec, dist, trials, seed):
        v = np.round(norms, _VALUE_DECIMALS)
        at = np.searchsorted(law.values, v)
        on = at != np.searchsorted(law.values, v, "right")
        counts += np.bincount(at[on], minlength=law.values.size)
        off += v.size - int(np.count_nonzero(on))
    return counts, off


def _without(law, i):
    keep = np.arange(law.values.size) != i
    return DiscreteLaw(law.values[keep], law.probs[keep] / law.probs[keep].sum())


@pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan-point"])
def test_support_counts_match_the_two_lookup_rule(nan):
    trials = CHUNK + 1
    if nan:  # the drawn points, NaN last
        spec = StatisticSpec(KernelFamily(2, 3, _nan_on_atom_1), "coupled")
        norms = one_shot_norms(spec, uniform(3), trials, seed=3)
        law = aggregate_law(norms, np.ones(norms.size))
        assert np.isnan(law.values[-1])
    else:
        spec = StatisticSpec(random_coefficient_kernel(2, 4, seed=2), "pattern", pattern=(0, 1))
        law = exact_law(spec, uniform(3))
    rounded = np.round(one_shot_norms(spec, uniform(3), trials, seed=3), _VALUE_DECIMALS)
    finite = np.flatnonzero(np.isfinite(law.values))
    # the whole law, then without its smallest point, its largest finite point and
    # its last point: draws below the first point and past the last are off it
    for drop in (None, 0, finite[-1], law.values.size - 1):
        short = law if drop is None else _without(law, drop)
        counts, off = _mc_counts(spec, uniform(3), short, trials, seed=3)
        want_counts, want_off = two_lookup_counts(spec, uniform(3), short, trials, seed=3)
        assert np.array_equal(counts, want_counts) and off == want_off
        missed = 0 if drop is None else np.count_nonzero(
            (rounded == law.values[drop]) | np.isnan(rounded) & np.isnan(law.values[drop]))
        assert off == missed and (drop is None or missed > 0)


@pytest.mark.parametrize("mode,args", [("coupled", {}), ("pattern", {"pattern": (0, 1)}),
                                       ("mixed", {"l": 2})])
def test_exact_law_refuses_a_kernel_with_a_nan_on_an_atom(mode, args):
    # the contraction would multiply the NaN cells by zero one-hot features and return
    # {NaN: 1}, while sampled norms are NaN only on the draws that read the atom 1
    spec = StatisticSpec(KernelFamily(2, 3, _nan_on_atom_1), mode, **args)
    with pytest.raises(ValidationError, match="not finite"):
        exact_law(spec, uniform(3))
    law = exact_law(spec, uniform(2))  # atoms -0.5 and 0.5: finite, so a law
    assert np.all(np.isfinite(law.values))


def test_support_counts_land_a_nan_norm_on_a_nan_point():
    spec = StatisticSpec(KernelFamily(2, 3, _nan_on_atom_1), "coupled")
    norms = one_shot_norms(spec, uniform(3), CHUNK + 1, seed=3)
    law = aggregate_law(norms, np.ones(norms.size))  # every drawn point, NaN last
    counts, off = _mc_counts(spec, uniform(3), law, CHUNK + 1, seed=3)
    assert np.isnan(law.values[-1]) and off == 0
    assert counts[-1] == np.count_nonzero(np.isnan(norms)) > 0
    assert np.array_equal(counts / counts.sum(), law.probs)


def _peak_bytes(fn) -> int:
    fn()  # warm up any lazily allocated state
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mc_tail_memory_is_bounded_by_the_chunk():
    spec = StatisticSpec(first_argument_kernel(2, 4), "pattern", pattern=(0, 1))
    grid = [0.5, 1.5]
    small = _peak_bytes(lambda: mc_tail(spec, uniform(3), grid, 10 ** 4, seed=1))
    large = _peak_bytes(lambda: mc_tail(spec, uniform(3), grid, 10 ** 5, seed=1))
    assert large <= 1.5 * small


BLOCK_BYTES = 8 * prob_engine._BLOCK  # the widest float array one contraction block builds


def _pattern_spec(cls, n, k):
    return StatisticSpec(build_kernel(cls, n, k, 0), "pattern", pattern=tuple(range(k)))


def test_mc_counts_memory_is_bounded_by_the_block():
    # a chunk of 8,192 trials would hold 8,192 x 6^2 floats of first product
    spec, dist = _pattern_spec("coeff", 6, 3), rademacher()
    law = exact_law(spec, dist)
    assert _peak_bytes(lambda: _mc_counts(spec, dist, law, 10 ** 5, seed=1)) <= 4 * BLOCK_BYTES


def test_mc_tail_memory_is_bounded_by_the_block():
    # n^(k-1) = 1,000 floats of first product per trial
    spec = _pattern_spec("coeff", 10, 4)
    assert _peak_bytes(lambda: mc_tail(spec, uniform(3), [0.5, 5.0], 2 * 10 ** 4,
                                       seed=1)) <= 4 * BLOCK_BYTES


@pytest.mark.parametrize("cls, n, k, dist, trials, sizes", [
    ("coeff", 6, 3, rademacher(), 2428, [2427, 1]),  # 6 x 3 cells + 6^2: 54 floats a trial
    ("coeff", 4, 3, uniform(4), 8193, [4681, 3512]),  # 4 x 3 + 4^2 = 28
    ("coeff", 5, 2, uniform(3), 8193, [8192, 1]),  # 5 x 2 + 5 = 15: the _CHUNK cap
])
def test_mc_chunks_are_sized_by_their_width(cls, n, k, dist, trials, sizes):
    chunks = list(_mc_norms(_pattern_spec(cls, n, k), dist, trials, seed=1))
    assert [c.size for c in chunks] == sizes


@pytest.mark.parametrize("block", [1, 997])
@pytest.mark.parametrize("cls", ["coeff", "first-arg"])
def test_width_sized_mc_chunks_match_one_shot(monkeypatch, block, cls):
    # one-trial chunks, and chunks of 997 // 12 = 83 trials that end inside no
    # power of two: the draws, tails and support counts of one-shot sampling
    monkeypatch.setattr(prob_engine, "_BLOCK", block)
    spec, dist, trials = _pattern_spec(cls, 4, 2), uniform(3), 301
    grid = np.linspace(0.0, 12.0, 25)
    assert np.array_equal(mc_tail(spec, dist, grid, trials, seed=7),
                          one_shot_mc_tail(spec, dist, grid, trials, seed=7))
    law = exact_law(spec, dist)
    rounded = np.round(one_shot_norms(spec, dist, trials, seed=7), _VALUE_DECIMALS)
    counts, off = _mc_counts(spec, dist, law, trials, seed=7)
    assert counts.tolist() == [np.count_nonzero(rounded == v) for v in law.values]
    assert off == 0


def test_exact_law_memory_is_bounded_by_the_block():
    # 4^10 = 2^20 realizations: 8 MiB of output floats, held a block at a time
    spec = StatisticSpec(random_coefficient_kernel(2, 5, seed=0, symmetric=True),
                         "pattern", pattern=(0, 1))
    assert _peak_bytes(lambda: exact_law(spec, uniform(4))) <= 4 * BLOCK_BYTES


def test_wide_first_product_law_memory_is_bounded_by_the_block():
    # the mixed l=2 law of a callable first-arg kernel at n=5, k=3 on uniform4: a grid
    # of 10^5 count-vector columns whose first product has (n*m)^(k-1) = 400 floats per
    # column, 320 MB over the whole grid
    spec = StatisticSpec(build_kernel("first-arg", 5, 3, 0), "mixed", l=2)
    assert _peak_bytes(lambda: exact_law(spec, uniform(4))) <= 4 * BLOCK_BYTES


def test_exact_law_memory_does_not_grow_with_the_realizations(monkeypatch):
    # at a block of 2^16 floats the 2^16-realization law is one block and the
    # 2^20-realization law sixteen
    monkeypatch.setattr(prob_engine, "_BLOCK", 2 ** 16)
    kf = functools.partial(random_coefficient_kernel, 2, seed=0, symmetric=True)
    small, large = (StatisticSpec(kf(n), "pattern", pattern=(0, 1)) for n in (4, 5))
    small_peak = _peak_bytes(lambda: exact_law(small, uniform(4)))
    large_peak = _peak_bytes(lambda: exact_law(large, uniform(4)))
    assert large_peak <= 1.5 * small_peak


def _counted_contractions(monkeypatch):
    calls = []

    def counted(tensor, grids, pattern):
        calls.append(pattern)
        return _grid_contract(tensor, grids, pattern)

    monkeypatch.setattr(prob_engine, "_grid_contract", counted)
    return calls


@pytest.mark.parametrize("mode,args", [("coupled", {}), ("pattern", {"pattern": (0, 1, 2)}),
                                       ("not_all_equal", {}), ("symmetrized", {}),
                                       ("mixed", {"l": 3})])
def test_a_law_under_the_block_is_one_contraction_per_pattern(monkeypatch, mode, args):
    calls = _counted_contractions(monkeypatch)
    # at most 3^9 realizations, and 27 grid rows of at most 27^2 output floats each
    spec = StatisticSpec(random_coefficient_kernel(3, 3, seed=1), mode, **args)
    exact_law(spec, uniform(3))
    assert calls == ([(0, 0, 0)] if mode == "mixed" else spec.patterns())


def test_a_law_past_the_block_is_contracted_block_by_block(monkeypatch):
    calls = _counted_contractions(monkeypatch)
    spec = StatisticSpec(random_coefficient_kernel(2, 5, seed=0), "pattern", pattern=(0, 1))
    exact_law(spec, uniform(4))  # 1024 first-copy rows of 1024 output floats each
    assert len(calls) == 1024 // (prob_engine._BLOCK // 1024) > 1


@pytest.mark.parametrize("block", [1, 300])
@pytest.mark.parametrize("spec", list(_specs()),
                         ids=lambda s: f"{s.kernel.label}-{s.mode}-{s.pattern or s.l}")
def test_blocked_exact_law_matches_one_shot(monkeypatch, block, spec):
    # one-row blocks, and blocks that end inside an aggregation block, give the
    # one-shot law bit for bit
    monkeypatch.setattr(prob_engine, "_BLOCK", block)
    for dist in (rademacher(), uniform(3)):
        assert_same_law(exact_law(spec, dist), one_shot_exact_law(spec, dist))
