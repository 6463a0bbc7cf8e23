import dataclasses
import itertools
import math

import numpy as np
import pytest

from decoupling_lab.errors import ValidationError
from decoupling_lab.kernel import (KernelFamily, check_symmetry,
                                   distinct_tuples, first_argument_kernel,
                                   mazur_orlicz_coefficient, product_kernel,
                                   random_coefficient_kernel, symmetrize)
from decoupling_lab.value_space import rademacher


def test_distinct_tuples_examples():
    assert len(list(distinct_tuples(3, 2))) == 6
    assert set(distinct_tuples(2, 2)) == {(0, 1), (1, 0)}
    assert len(list(distinct_tuples(5, 3))) == 60
    assert list(distinct_tuples(2, 3)) == []


@pytest.mark.parametrize("n", range(1, 9))
def test_distinct_tuples_count_formula(n):
    for k in range(1, n + 1):
        count = len(list(distinct_tuples(n, k)))
        assert count == math.factorial(n) // math.factorial(n - k)
        assert count == math.perm(n, k)


def test_symmetrize_product_kernel():
    kf = symmetrize(product_kernel(2, 3))
    # product is symmetric: each of the two permutation terms contributes ab
    assert kf.evaluate((0, 1), (2.0, 3.0)) == pytest.approx(12.0)


def test_symmetrize_first_argument():
    kf = symmetrize(first_argument_kernel(2, 3))
    assert kf.evaluate((0, 1), (2.0, 5.0)) == pytest.approx(7.0)


def test_symmetrize_already_symmetric_scales_by_factorial():
    base = product_kernel(3, 4)
    sym = symmetrize(base)
    rng = np.random.default_rng(3)
    for _ in range(20):
        args = tuple(rng.normal(size=3))
        expected = math.factorial(3) * base.evaluate((0, 1, 2), args)
        assert sym.evaluate((0, 1, 2), args) == pytest.approx(expected, abs=1e-12)


def test_symmetrize_idempotent_up_to_factorial():
    base = random_coefficient_kernel(2, 4, seed=5)
    once = symmetrize(base)
    twice = symmetrize(once)
    rng = np.random.default_rng(11)
    for _ in range(30):
        idx = tuple(int(i) for i in rng.permutation(4)[:2])
        args = tuple(rng.normal(size=2))
        assert twice.evaluate(idx, args) == pytest.approx(
            2.0 * once.evaluate(idx, args), abs=1e-12)


def test_check_symmetry():
    d = rademacher()
    assert check_symmetry(product_kernel(2, 4), d)
    assert not check_symmetry(first_argument_kernel(2, 4), d)
    assert check_symmetry(symmetrize(first_argument_kernel(2, 4)), d)
    assert check_symmetry(random_coefficient_kernel(2, 4, seed=2, symmetric=True), d)
    assert not check_symmetry(random_coefficient_kernel(2, 4, seed=2), d)


def test_check_symmetry_rejects_one_asymmetric_tuple():
    # a symmetric coefficient kernel made asymmetric at one index tuple of 720
    base = random_coefficient_kernel(3, 10, seed=0, symmetric=True)
    coeffs = base.coeffs.copy()
    coeffs[7, 8, 9] += 1.0

    def ev(idx, args):
        return coeffs[idx] * args[0] * args[1] * args[2]

    for tensor in (coeffs, None):  # coefficient tensor, then tabulated one-hot
        kf = KernelFamily(3, 10, ev, symmetric_claimed=True, coeffs=tensor)
        assert not check_symmetry(kf, rademacher())
    assert check_symmetry(base, rademacher())
    assert check_symmetry(dataclasses.replace(base, coeffs=None), rademacher())


def test_mazur_orlicz_examples():
    assert mazur_orlicz_coefficient((0, 1)) == 1
    assert mazur_orlicz_coefficient((0, 0)) == 0
    # brute-force oracle over the 8 selector vectors for k=3
    def brute(j):
        k = len(j)
        total = 0
        for delta in itertools.product((0, 1), repeat=k):
            term = (-1) ** (k - sum(delta))
            for x in j:
                term *= delta[x]
            total += term
        return total
    assert mazur_orlicz_coefficient((1, 0, 2)) == brute((1, 0, 2)) == 1


@pytest.mark.parametrize("k", range(1, 6))
def test_mazur_orlicz_permutation_indicator(k):
    for j in itertools.product(range(k), repeat=k):
        expected = 1 if sorted(j) == list(range(k)) else 0
        assert mazur_orlicz_coefficient(j) == expected


def test_mazur_orlicz_rejects_out_of_range():
    with pytest.raises(ValidationError):
        mazur_orlicz_coefficient((0, 2))
    with pytest.raises(ValidationError):
        mazur_orlicz_coefficient(np.array([[0, 1], [2, 0]]))


@pytest.mark.parametrize("k", range(1, 5))
def test_mazur_orlicz_batched_equals_scalar(k):
    tuples = np.array(list(itertools.product(range(k), repeat=k)))
    batched = mazur_orlicz_coefficient(tuples.reshape(-1, k, k))  # (..., k) input
    assert batched.dtype.kind == "i"
    np.testing.assert_array_equal(
        batched.reshape(-1), [mazur_orlicz_coefficient(tuple(j)) for j in tuples])
    assert isinstance(mazur_orlicz_coefficient(tuple(range(k))), int)


def test_kernel_evaluate_broadcasts():
    kf = product_kernel(2, 3)
    x = np.array([1.0, 2.0, 3.0])
    y = np.array([4.0, 5.0, 6.0])
    np.testing.assert_allclose(kf.evaluate((0, 1), (x, y)), x * y)
