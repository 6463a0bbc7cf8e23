"""Differential tests: coefficient-tensor fast path against the generic callable path.

Every corpus kernel that carries a coefficient tensor is compared with the same
kernel stripped of it (`dataclasses.replace(kf, coeffs=None)`), which forces
the per-tuple callable path.
"""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from decoupling_lab import randomization as rz
from decoupling_lab import ustat_engine
from decoupling_lab.kernel import (affine_product_kernel, constant_kernel,
                                   first_argument_kernel, product_kernel,
                                   random_coefficient_kernel)
from decoupling_lab.prob_engine import StatisticSpec, exact_law
from decoupling_lab.ustat_engine import (mixed_sum, not_all_equal_sum,
                                         pattern_sum, symmetrized_decoupled_sum)
from decoupling_lab.value_space import rademacher, uniform
from decoupling_lab.verifier import CorpusConfig, run_corpus

TOL = 1e-12

KERNELS = {
    "product": lambda k, n: product_kernel(k, n),
    "affine": lambda k, n: affine_product_kernel(k, n, c=1.0),
    "coeff": lambda k, n: random_coefficient_kernel(k, n, seed=3),
    "sym-coeff": lambda k, n: random_coefficient_kernel(k, n, seed=4, symmetric=True),
    "constant": lambda k, n: constant_kernel(k, n, c=1.5),
    "coeff-dim2": lambda k, n: random_coefficient_kernel(k, n, seed=5, dim=2),
}

LAWS = {"rademacher": rademacher, "uniform3": lambda: uniform(3),
        "uniform4": lambda: uniform(4)}


def _pair(name, k, n):
    kf = KERNELS[name](k, n)
    assert kf.coeffs is not None
    return kf, dataclasses.replace(kf, coeffs=None)


def _specs(kf):
    k = kf.k
    yield StatisticSpec(kf, "coupled")
    yield StatisticSpec(kf, "pattern", pattern=tuple(range(k)))
    for l in (1, 2, 3):
        yield StatisticSpec(kf, "mixed", l=l)
    yield StatisticSpec(kf, "not_all_equal")
    yield StatisticSpec(kf, "symmetrized")


def _close(a, b):
    np.testing.assert_allclose(np.asarray(a), np.asarray(b), rtol=TOL, atol=TOL)


def test_tensor_matches_callable_pointwise():
    # every distinct tuple, on arguments of broadcasting shapes in every order
    rng = np.random.default_rng(19)
    values = [rng.normal(size=shape) for shape in ((4, 1), (3,), ())]
    makers = [*KERNELS.values(), lambda k, n: constant_kernel(k, n, c=(0.3, -1.7), dim=2)]
    for make, (k, n) in itertools.product(makers, ((2, 3), (3, 4))):
        kf = make(k, n)
        for idx, args in itertools.product(itertools.permutations(range(n), k),
                                           itertools.permutations(values[:k])):
            p = np.prod(np.broadcast_arrays(*args), axis=0)
            expected = np.multiply.outer(p, kf.coeffs[idx]) + np.asarray(kf.const)
            got = kf.evaluate(idx, args)
            assert np.shape(got) == expected.shape == (4, 3) + kf.coeffs.shape[k:]
            _close(got, expected)


def test_callable_only_kernels_and_ceiling():
    assert first_argument_kernel(2, 3).coeffs is None
    # no tensor beyond 2^24 entries: 65^4 > 2^24 and 2 * (2^12)^2 > 2^24
    assert product_kernel(4, 65).coeffs is None
    assert constant_kernel(2, 2 ** 12, dim=2).coeffs is None
    assert constant_kernel(2, 3, c=[1.0, 2.0], dim=2).coeffs.shape == (3, 3, 2)


def test_equality_ignores_tensor():
    kf = product_kernel(2, 3)
    assert dataclasses.replace(kf, coeffs=None) == kf
    assert dataclasses.replace(kf, evaluate=kf.evaluate).coeffs is kf.coeffs


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_exact_law_fast_equals_generic(name, law):
    dist = LAWS[law]()
    for k, n in ((2, 3), (3, 3)):
        if law != "rademacher" and k == 3:
            continue  # keeps the generic mixed l=3 enumeration small
        fast, generic = _pair(name, k, n)
        for spec in _specs(fast):
            slow = dataclasses.replace(spec, kernel=generic)
            a, b = exact_law(spec, dist), exact_law(slow, dist)
            assert a.values.shape == b.values.shape, (name, spec.mode, spec.l)
            _close(a.values, b.values)
            _close(a.probs, b.probs)


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("batch", [(), (5,)])
def test_sums_fast_equals_generic(name, batch):
    rng = np.random.default_rng(7)
    for k, n in ((1, 3), (2, 4), (3, 4)):
        fast, generic = _pair(name, k, n)
        s = rng.normal(size=batch + (n, 3))
        for p in [(0,) * k, tuple(range(k)), (2,) * k]:
            _close(pattern_sum(fast, s, p), pattern_sum(generic, s, p))
        for l in (1, 2, 3):
            _close(mixed_sum(fast, s, l), mixed_sum(generic, s, l))
        _close(not_all_equal_sum(fast, s), not_all_equal_sum(generic, s))
        _close(symmetrized_decoupled_sum(fast, s), symmetrized_decoupled_sum(generic, s))


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_per_copy_weights_fast_equals_generic(name):
    rng = np.random.default_rng(13)
    for k, n in ((1, 3), (2, 4), (3, 4)):
        fast, generic = _pair(name, k, n)
        pattern_sets = (itertools.product(range(3), repeat=k),  # every copy in every slot
                        itertools.product(*[(2, 0), (1,), (0, 2)][:k]),  # copies out of order
                        itertools.permutations(range(3), k))  # no product set at k >= 2
        # batched weights with one sample, one sample batch with shared weights,
        # and both batched
        shapes = (((n, 3), (5, n, 3)), ((5, n, 3), (n, 3)), ((5, n, 3), (5, n, 3)))
        for patterns in map(list, pattern_sets):
            for s_shape, w_shape in shapes:
                s = rng.normal(size=s_shape)
                weights = [rng.normal(size=w_shape) for _ in range(k)]
                a = ustat_engine.slot_sum(fast, s, patterns, weights)
                b = ustat_engine.slot_sum(generic, s, patterns, weights)
                assert a.shape == b.shape == (5,) + ((2,) if fast.dim > 1 else ())
                _close(a, b)


@pytest.mark.parametrize("make", [KERNELS["coeff"], first_argument_kernel],
                         ids=["coeff", "first-arg"])
def test_one_hot_copy_weights_pick_one_pattern(make):
    # weights that are 1 on copy pattern[r] and 0 elsewhere leave the pattern sum
    kf = make(3, 4)
    s = np.random.default_rng(17).normal(size=(4, 3))
    for pattern in [(0, 1, 2), (2, 2, 0), (1, 0, 1)]:
        weights = [np.broadcast_to(np.arange(3) == p, (4, 3)) for p in pattern]
        _close(ustat_engine.slot_sum(kf, s, itertools.product(range(3), repeat=3), weights),
               pattern_sum(kf, s, pattern))
    _close(ustat_engine.slot_sum(kf, s, itertools.product(range(3), repeat=3),
                                 [np.ones((4, 3))] * 3),
           mixed_sum(kf, s, 3))


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_randomization_helpers_fast_equals_generic(name):
    rng = np.random.default_rng(11)
    for k, n in ((2, 3), (3, 4)):
        fast, generic = _pair(name, k, n)
        s = rng.normal(size=(n, 3))
        signs = rz.all_sign_vectors(n)
        for pattern in [(0,) * k, (1,) + (0,) * (k - 1)]:
            coupled = rz.sign_couple(s[:, :2], signs)  # every sign vector at once
            _close(StatisticSpec(fast, "pattern", pattern)(coupled),
                   StatisticSpec(generic, "pattern", pattern)(coupled))
            _close(rz.sign_conditional_expectation(fast, s[:, :2], pattern),
                   rz.sign_conditional_expectation(generic, s[:, :2], pattern))
        (res, ces), (res_generic, ces_generic) = (
            rz.expansion_residual_batch(kf, s[:, :2], signs) for kf in (fast, generic))
        for r in (res, res_generic):  # one row per target pattern, one column per sign vector
            assert r.shape == (2 ** k, 2 ** n) and np.max(r) <= 1e-9
        _close(ces, ces_generic)
        for l in (1, 2, 3):
            _close(rz.selector_conditional_expectation(fast, s, l),
                   rz.selector_conditional_expectation(generic, s, l))


def _peak_alloc(spec, dist):
    tracemalloc.start()
    try:
        exact_law(spec, dist)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generic_memory_bounded_by_chunk_not_terms():
    # Same 2^12 realizations either way; the mixed statistic sums 27x more terms.
    kf = first_argument_kernel(3, 4)
    dist = rademacher()
    few = _peak_alloc(StatisticSpec(kf, "pattern", pattern=(0, 1, 2)), dist)
    many = _peak_alloc(StatisticSpec(kf, "mixed", l=3), dist)
    assert many <= 1.25 * few, (many, few)


def _identities_passed():
    cfg = CorpusConfig(seed=2, distributions=("rademacher",),
                       kernel_classes=("product", "first-arg"), nk_pairs=((3, 2),),
                       checks=("identities",))
    return [r["passed"] for r in run_corpus(cfg)["results"]]


def test_partition_residual_can_fail(monkeypatch):
    assert _identities_passed() == [True, True]

    def off_by_one_pattern(kf, s):
        return ustat_engine.mixed_sum(kf, s, 2) - ustat_engine.pattern_sum(kf, s, (0,) * kf.k)

    monkeypatch.setattr(ustat_engine, "not_all_equal_sum", off_by_one_pattern)
    assert _identities_passed() == [False, False]


def _mazur_orlicz_passed():
    cfg = CorpusConfig(seed=2, distributions=("rademacher",),
                       kernel_classes=("product", "affine"), nk_pairs=((3, 2), (3, 3)),
                       checks=("mazur_orlicz",))
    return [r["passed"] for r in run_corpus(cfg)["results"]]


def test_expansion_residual_can_fail(monkeypatch):
    assert _identities_passed() == [True, True]
    slot_sum = ustat_engine.slot_sum

    def first_copy_only(kf, s, patterns, weights=None):  # only the pattern (0, ..., 0)
        return slot_sum(kf, s, [p for p in patterns if not any(p)], weights)

    # both sides of the sign expansion go through this binding
    monkeypatch.setattr(rz, "slot_sum", first_copy_only)
    assert _identities_passed() == [False, False]


def ignore_the_sign_of_row_1(monkeypatch):
    # row 1: both samples differ there between the two copies, so its swap is seen
    # (swapping equal entries changes nothing; both samples are equal in row 0)
    sign_couple = rz.sign_couple
    monkeypatch.setattr(rz, "sign_couple", lambda s, signs: sign_couple(
        s, np.where(np.arange(signs.shape[-1]) == 1, 1, signs)))


def flip_one_residual_weight(monkeypatch):
    slot_sum = ustat_engine.slot_sum

    def flipped(kf, s, patterns, weights=None):
        if weights is not None and s.ndim == 2:  # the right side: the uncoupled sample
            weights = [w.copy() for w in weights]
            weights[0][..., 0, :] *= -1  # slot 0's weight on row 0, every copy
        return slot_sum(kf, s, patterns, weights)
    monkeypatch.setattr(rz, "slot_sum", flipped)


@pytest.mark.parametrize("fault", [ignore_the_sign_of_row_1, flip_one_residual_weight])
def test_sign_identity_faults_fail_identities(monkeypatch, fault):
    assert _identities_passed() == [True, True]
    fault(monkeypatch)
    assert _identities_passed() == [False, False]


def test_mazur_orlicz_residual_can_fail(monkeypatch):
    assert _mazur_orlicz_passed() == [True] * 5
    slot_sum = ustat_engine.slot_sum

    def last_copy_dropped(kf, s, l):
        return slot_sum(kf, np.asarray(s, dtype=float),
                        itertools.product(range(max(l - 1, 1)), repeat=kf.k))

    monkeypatch.setattr(ustat_engine, "mixed_sum", last_copy_dropped)
    # the exhaustive coefficient check does not sum, so it still passes
    assert _mazur_orlicz_passed() == [True] + [False] * 4
