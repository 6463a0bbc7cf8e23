"""The generic slot sum, the sign identities, the sampler and the Mazur-Orlicz
coefficient against the bodies they replaced.

The references below are those bodies, kept here: slot_sum called the kernel
once per (listed copy pattern, index tuple) and accumulated the terms in that order;
the fast slot sum without weights ran its weighted rule on unit weights;
expansion_residual_batch took one target pattern per call and the spread averaged
one pattern sum per target over all sign vectors;
sample_matrices searched the cumulative probabilities for each uniform draw;
the coefficient multiplied each selector vector over the tuple's entries.  The
new code must give the same sums (bit for bit on integer atoms, where every
order of summation is exact, and always for unit weights), the same residuals and
conditional expectations (within 1e-12), the same draws and the same coefficients.
"""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from decoupling_lab import kernel, prob_engine, randomization as rz, ustat_engine
from decoupling_lab.kernel import (KernelFamily, affine_product_kernel, constant_kernel,
                                   distinct_tuples, first_argument_kernel,
                                   mazur_orlicz_coefficient, product_kernel,
                                   random_coefficient_kernel, symmetrize)
from decoupling_lab.prob_engine import StatisticSpec, _mc_norms, sample_matrices
from decoupling_lab.ustat_engine import mixed_sum, slot_sum
from decoupling_lab.value_space import DiscreteDistribution, batch_norm
from decoupling_lab.verifier import mazur_orlicz_exhaustive

CHUNK = prob_engine._CHUNK


def mc_rng(seed):
    """The Monte Carlo generator: PCG64, keyed apart from the corpus stream default_rng(seed)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(1,))))


# ---------------------------------------------------------------------------
# generic slot_sum
# ---------------------------------------------------------------------------

def per_pattern_slot_sum(kf, s, patterns, weights=None):
    k = kf.k
    shapes = [s.shape[:-2]] + [w.shape[:-2] for w in weights or ()]
    acc = np.zeros(np.broadcast_shapes(*shapes) + ((kf.dim,) if kf.dim > 1 else ()))
    for j in patterns:
        for idx in distinct_tuples(kf.n, k):
            term = kf.evaluate(idx, tuple(s[..., idx[r], j[r]] for r in range(k)))
            if weights is not None:
                w = math.prod(weights[r][..., idx[r], j[r]] for r in range(k))
                term = term * (w[..., None] if kf.dim > 1 else w)
            acc += term
    return acc


def _max_squared(idx, args):  # nonlinear, and integer on integer atoms
    return functools.reduce(np.maximum, args) ** 2 + (idx[0] - idx[-1]) * args[-1]


def _two_values(idx, args):
    prod = math.prod(np.asarray(a, dtype=float) for a in args)
    return np.stack(np.broadcast_arrays(prod, args[0] ** 2 + idx[0]), axis=-1)


def _python_float(idx, args):
    return float(idx[0] + 1)


def _nan_on_atom_1(idx, args):
    x = np.asarray(args[0], dtype=float)
    return np.where(x == 1.0, np.nan, x * args[-1])


def _kernels(k, n):
    return {"first-arg": first_argument_kernel(k, n),
            "nonlinear": KernelFamily(k, n, _max_squared),
            "symmetrized": symmetrize(KernelFamily(k, n, _max_squared)),
            "dim2": KernelFamily(k, n, _two_values, dim=2),
            "python-float": KernelFamily(k, n, _python_float),
            "nan": KernelFamily(k, n, _nan_on_atom_1)}


def _sign_weights(pattern, signs):
    """The weights of expansion_residual_batch: (1 + sign) on the target copy."""
    signs = signs[..., None]
    return [np.where(np.arange(2) == p, 1 + signs, 1 - signs) for p in pattern]


def _cases(k, n, rng, draw):
    """(patterns, samples, weights): one pattern, the sign-batched two-copy product set,
    all three copies on every slot, slots of different copies, and two sets that are no
    product set (the permutations, with weights, and the not-all-equal patterns)."""
    pattern = tuple(r % 2 for r in range(k))
    yield [pattern], draw((5, n, 2)), None
    yield [pattern], draw((n, 2)), None  # no batch axis
    signs = 2 * rng.integers(0, 2, size=(6, n)) - 1
    two = list(itertools.product((0, 1), repeat=k))
    yield two, draw((n, 2)), _sign_weights(pattern, signs)
    yield two, draw((6, n, 2)), _sign_weights(pattern, signs)
    yield list(itertools.product(range(3), repeat=k)), draw((4, n, 3)), None
    yield list(itertools.product(*[(2, 0), (1,), (0, 2, 1)][:k])), draw((3, n, 3)), None
    yield (list(itertools.permutations(range(3), k)), draw((3, n, 3)),
           [draw((n, 3)) for _ in range(k)])
    yield [p for p in two if len(set(p)) > 1], draw((5, n, 2)), None  # none at k = 1


@pytest.mark.parametrize("block", [None, 12, 1])  # None: the default; 1: a pattern per block
@pytest.mark.parametrize("name", list(_kernels(1, 1)))
@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (4, 3)])
def test_slot_sum_matches_the_per_pattern_loop(name, n, k, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(ustat_engine, "_BLOCK", block)
    kf = _kernels(k, n)[name]
    rng = np.random.default_rng(10 * n + k)
    integer = lambda shape: rng.integers(-2, 3, size=shape).astype(float)
    nans = []
    for patterns, s, weights in _cases(k, n, rng, integer):
        got = slot_sum(kf, s, patterns, weights)
        want = per_pattern_slot_sum(kf, s, patterns, weights)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        nans += np.isnan(got).ravel().tolist()
    assert (name == "nan") == any(nans) and not all(nans)  # NaN where the atom 1 is read
    for patterns, s, weights in _cases(k, n, rng, rng.standard_normal):
        got = slot_sum(kf, s, patterns, weights)
        want = per_pattern_slot_sum(kf, s, patterns, weights)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_slot_sum_calls_the_kernel_once_per_index_tuple():
    calls = []

    def counted(idx, args):
        calls.append(idx)
        return _max_squared(idx, args)

    rng = np.random.default_rng(0)
    for n, k in [(3, 1), (4, 2), (4, 3)]:
        kf = KernelFamily(k, n, counted)
        for patterns, s, weights in _cases(k, n, rng, rng.standard_normal):
            calls.clear()
            slot_sum(kf, s, patterns, weights)
            assert calls == (list(distinct_tuples(n, k)) if patterns else [])
    # every statistic is one slot sum over its listed patterns: P(4, 3) = 24 calls in
    # each mode, where one slot sum per permutation made 144 for 'symmetrized'
    kf, s = KernelFamily(3, 4, counted), rng.standard_normal((10, 4, 3))
    for mode, extra in [("coupled", {}), ("pattern", {"pattern": (2, 0, 1)}), ("mixed", {"l": 3}),
                        ("not_all_equal", {}), ("symmetrized", {})]:
        calls.clear()
        StatisticSpec(kf, mode, **extra)(s)
        assert calls == list(distinct_tuples(4, 3)) and len(calls) == math.perm(4, 3), mode


def test_slot_sum_memory_does_not_grow_with_the_patterns():
    """A Monte Carlo chunk of a callable mixed sum with l^k = 256 patterns: the
    broadcast block stays at _BLOCK values per array (the unsplit block was 256
    times the chunk, 23 MB at its peak), and the sum is the unsplit one."""
    n = k = l = 4
    kf = KernelFamily(k, n, _max_squared)
    spec = StatisticSpec(kf, "mixed", l=l)
    s = np.random.default_rng(1).integers(-2, 3, size=(ustat_engine._BLOCK, n, l)).astype(float)
    tracemalloc.start()
    got = spec(s)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 3 * s.nbytes  # measured: 1.8 MB, for 1 MB of samples
    want = per_pattern_slot_sum(kf, s[:64], itertools.product(range(l), repeat=k))
    assert np.array_equal(got[:64], want)


# ---------------------------------------------------------------------------
# fast slot_sum without weights
# ---------------------------------------------------------------------------

def _fast_kernels(k, n):
    return {"product": product_kernel(k, n),
            "affine": affine_product_kernel(k, n, c=0.7),
            "constant": constant_kernel(k, n, c=1.5),
            "constant-dim2": constant_kernel(k, n, c=(0.3, -1.7), dim=2),
            "coeff-dim2": random_coefficient_kernel(k, n, seed=5, dim=2)}


def _listed_sets(k):
    """The coupled, pattern, mixed l = 3, sign-expansion (0,1)^k and symmetrized sets."""
    return {"coupled": [(0,) * k], "pattern": [tuple(range(k))[::-1]],
            "mixed3": list(itertools.product(range(3), repeat=k)),
            "signs": list(itertools.product((0, 1), repeat=k)),
            "symmetrized": list(itertools.permutations(range(k)))}


@pytest.mark.parametrize("batch", [(), (5,), (2, 3)], ids=["no-batch", "batch", "batch2"])
@pytest.mark.parametrize("name", list(_fast_kernels(1, 1)))
@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (4, 3)])
def test_unweighted_fast_slot_sum_equals_unit_weights(name, n, k, batch):
    kf = _fast_kernels(k, n)[name]
    rng = np.random.default_rng(7 * n + k)
    for set_name, patterns in _listed_sets(k).items():
        s = rng.standard_normal(batch + (n, 3))
        got = slot_sum(kf, s, patterns)
        want = slot_sum(kf, s, patterns, [np.ones(s.shape[-2:])] * k)
        assert got.shape == want.shape and np.array_equal(got, want), set_name
    # on zero samples only the constant is left, once per distinct tuple and pattern
    const_only = slot_sum(kf, np.zeros(batch + (n, 3)), _listed_sets(k)["mixed3"])
    assert np.array_equal(const_only, np.broadcast_to(
        math.perm(n, k) * 3 ** k * np.asarray(kf.const, dtype=float), const_only.shape))


# ---------------------------------------------------------------------------
# the sign identities, every target pattern in one slot sum per side
# ---------------------------------------------------------------------------

def per_target_identities(kf, s, signs):
    """The residuals of one expansion_residual_batch call per target pattern, and the
    sign conditional expectation of each target, one coupled pattern sum each."""
    residuals, expectations = [], []
    for pattern in itertools.product((0, 1), repeat=kf.k):
        coupled = StatisticSpec(kf, "pattern", pattern)(rz.sign_couple(s, signs))
        rhs = slot_sum(kf, s, itertools.product((0, 1), repeat=kf.k),
                       _sign_weights(pattern, signs))
        residuals.append(batch_norm((2.0 ** kf.k) * coupled - rhs, "euclidean", kf.dim))
        expectations.append(np.mean(coupled, axis=0))
    return np.array(residuals), np.array(expectations)


def _finite_kernels(k, n):
    """Every fast kernel and the corpus's coefficient classes, each also without its
    tensor, and the finite callable ones."""
    fast = {**_fast_kernels(k, n), "coeff": random_coefficient_kernel(k, n, seed=3),
            "sym-coeff": random_coefficient_kernel(k, n, seed=4, symmetric=True)}
    generic = {f"{name}-generic": KernelFamily(kf.k, kf.n, kf.evaluate, dim=kf.dim)
               for name, kf in fast.items()}
    return {**fast, **generic, **{name: kf for name, kf in _kernels(k, n).items()
                                  if name != "nan"}}  # a NaN term reaches every target


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (4, 3), (6, 3)])
def test_batched_sign_identities_match_the_per_target_loop(n, k):
    rng = np.random.default_rng(n + 10 * k)
    signs = rz.all_sign_vectors(n)
    for name, kf in _finite_kernels(k, n).items():
        s = rng.standard_normal((n, 2))
        got_res, got_ce = rz.expansion_residual_batch(kf, s, signs)
        want_res, want_ce = per_target_identities(kf, s, signs)
        assert got_res.shape == want_res.shape == (2 ** k, 2 ** n), name
        assert got_ce.shape == want_ce.shape, name
        np.testing.assert_allclose(got_res, want_res, rtol=1e-12, atol=1e-12, err_msg=name)
        np.testing.assert_allclose(got_ce, want_ce, rtol=1e-12, atol=1e-12, err_msg=name)
        some = signs[rng.permutation(2 ** n)[:5]]  # a batch that is not every sign vector
        np.testing.assert_allclose(rz.expansion_residual_batch(kf, s, some)[0],
                                   per_target_identities(kf, s, some)[0],
                                   rtol=1e-12, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (5, 3), (6, 3)])
def test_sign_identities_call_the_kernel_three_times_per_tuple(n, k):
    """Residuals plus spread: one slot sum per side and the two-copy mixed sum, where
    a call per target pattern and side, the mixed sum and a conditional expectation
    per target made (3 * 2^k + 1) * P(n, k) calls."""
    calls = []
    first = first_argument_kernel(k, n)

    def counted(idx, args):
        calls.append(idx)
        return first.evaluate(idx, args)

    kf = KernelFamily(k, n, counted)
    s = np.random.default_rng(n).integers(-2, 3, size=(n, 2)).astype(float)
    _, expectations = rz.expansion_residual_batch(kf, s, rz.all_sign_vectors(n))
    rz.pattern_invariance_spread(expectations, mixed_sum(kf, s, 2))
    assert len(calls) <= 3 * math.perm(n, k)


# ---------------------------------------------------------------------------
# sample_matrices
# ---------------------------------------------------------------------------

def searchsorted_sample(dist, n, copies, trials, rng, out=None):  # allocates: out unused
    idx = np.cumsum(dist.probs_array()).searchsorted(rng.random((trials, n, copies)), "right")
    return dist.values_array()[np.minimum(idx, dist.size - 1)]


def _random_law(rng, m):
    probs = rng.dirichlet(np.ones(m)) + 1e-3
    probs /= probs.sum()
    return DiscreteDistribution(tuple(np.sort(rng.standard_normal(m)).tolist()),
                                tuple(probs.tolist()))


def _short_law(m):
    """A law whose probabilities add to 1 - 5e-13, so the last CDF edge is below 1."""
    probs = [1.0 / m] * (m - 1) + [1.0 / m - 5e-13]
    return DiscreteDistribution(tuple(float(i) for i in range(m)), tuple(probs))


def _same_draws(dist, n, copies, trials, seed):
    rng_new, rng_old = (mc_rng(seed) for _ in range(2))
    got = sample_matrices(dist, n, copies, trials, rng_new)
    want = searchsorted_sample(dist, n, copies, trials, rng_old)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    return got


@pytest.mark.parametrize("m", range(1, 41))
def test_sampler_matches_searchsorted_on_random_laws(m):
    rng = np.random.default_rng(m)
    got = _same_draws(_random_law(rng, m), 3, 2, 400, seed=m)
    assert got.shape == (400, 3, 2)


# up to prob_engine._EDGE_ATOMS atoms the sampler counts edges, past it it bisects
@pytest.mark.parametrize("m", [2, 3, 7, 256, 257, 300])
def test_sampler_matches_searchsorted_when_the_cdf_ends_below_1(m):
    dist = _short_law(m)
    edges = np.cumsum(dist.probs_array())
    assert edges[-1] < 1.0
    _same_draws(dist, 4, 3, 1000, seed=m)
    u = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, 1),
                        [0.0, np.nextafter(1.0, 0)]])

    class Uniforms:  # every edge, its neighbours, and draws past the last edge
        def random(self, shape, out=None):
            assert math.prod(shape) >= u.size  # every one of them is drawn
            return np.resize(u, shape)

    got = sample_matrices(dist, 2, 3, m + 1, Uniforms())
    assert np.array_equal(got, searchsorted_sample(dist, 2, 3, m + 1, Uniforms()))
    assert got.max() == m - 1  # a draw past the last edge takes the last atom


def test_sampler_matches_searchsorted_on_vector_atoms():
    dist = DiscreteDistribution(((0.0, 1.0), (1.0, -1.0), (2.5, 0.0)), (0.2, 0.5, 0.3))
    got = _same_draws(dist, 3, 2, 500, seed=4)
    assert got.shape == (500, 3, 2, 2)


@pytest.mark.parametrize("trials", [CHUNK - 1, CHUNK, CHUNK + 1])
def test_mc_norms_match_searchsorted_draws_across_chunks(trials, monkeypatch):
    spec = StatisticSpec(first_argument_kernel(2, 3), "pattern", pattern=(0, 1))
    dist = _short_law(3)
    got = list(_mc_norms(spec, dist, trials, seed=6))
    monkeypatch.setattr(prob_engine, "sample_matrices", searchsorted_sample)
    want = list(_mc_norms(spec, dist, trials, seed=6))
    assert [len(a) for a in got] == [len(b) for b in want]
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


# ---------------------------------------------------------------------------
# mazur_orlicz_coefficient
# ---------------------------------------------------------------------------

def product_coefficient(j_tuple):
    j = np.asarray(j_tuple, dtype=np.int64)
    k = j.shape[-1]
    deltas = np.array(list(itertools.product((0, 1), repeat=k)), dtype=np.int64)
    signs = np.where((k - deltas.sum(axis=1)) % 2 == 0, 1, -1)
    total = np.zeros(j.shape[:-1], dtype=np.int64)
    for delta, sign in zip(deltas, signs):
        total += sign * delta[j].prod(axis=-1)
    return int(total) if j.ndim == 1 else total


@pytest.mark.parametrize("k", range(1, 7))
def test_coefficient_matches_the_selector_products(k):
    j = np.array(list(itertools.product(range(k), repeat=k)))
    got, want = mazur_orlicz_coefficient(j), product_coefficient(j)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    batched = j.reshape(k, -1, k)  # two batch axes
    assert np.array_equal(mazur_orlicz_coefficient(batched), product_coefficient(batched))
    for t in j[:: max(1, len(j) // 200)]:  # one tuple at a time
        assert mazur_orlicz_coefficient(tuple(t)) == product_coefficient(tuple(t))


@pytest.mark.parametrize("which", [1, 3, -1])
def test_exhaustive_check_fails_with_one_sign_flipped(which, monkeypatch):
    assert mazur_orlicz_exhaustive(6)
    table = kernel._delta_table

    def flipped(k):
        zeroed, signs = table(k)
        signs = signs.copy()
        signs[which if which < len(signs) else -1] *= -1
        return zeroed, signs

    monkeypatch.setattr(kernel, "_delta_table", flipped)
    assert not mazur_orlicz_exhaustive(6)
