import functools
import itertools

import numpy as np
import pytest

from decoupling_lab import prob_engine
from decoupling_lab.errors import BudgetExceededError, ValidationError
from decoupling_lab.kernel import (FACTORIAL_BUDGET, constant_kernel, first_argument_kernel,
                                   product_kernel, random_coefficient_kernel)
from decoupling_lab.prob_engine import evaluate_norms, exact_law
from decoupling_lab.ustat_engine import (StatisticSpec, mixed_sum, not_all_equal_sum,
                                         pattern_sum, symmetrized_decoupled_sum)
from decoupling_lab.value_space import NORM_KINDS, rademacher


def two_row_sample():
    # column 0 = (1, -1), column 1 = (1, 1)
    return np.array([[1.0, 1.0], [-1.0, 1.0]])


def test_pattern_sum_constant_kernel():
    kf = constant_kernel(2, 3, c=2.5)
    s = np.zeros((3, 2))
    for p in [(0, 0), (0, 1), (1, 0)]:
        assert pattern_sum(kf, s, p) == pytest.approx(6 * 2.5)


def test_pattern_sum_product_kernel_coupled():
    kf = product_kernel(2, 2)
    s = two_row_sample()
    assert pattern_sum(kf, s, (0, 0)) == pytest.approx(-2.0)


def test_pattern_sum_product_kernel_decoupled():
    kf = product_kernel(2, 2)
    s = two_row_sample()
    assert pattern_sum(kf, s, (0, 1)) == pytest.approx(0.0)


def test_pattern_sum_validates_pattern():
    kf = product_kernel(2, 2)
    with pytest.raises(ValidationError):
        pattern_sum(kf, two_row_sample(), (0,))
    with pytest.raises(ValidationError):
        pattern_sum(kf, two_row_sample(), (0, 2))


def test_mixed_sum_single_copy_equals_coupled():
    kf = product_kernel(2, 3)
    rng = np.random.default_rng(0)
    s = rng.normal(size=(3, 2))
    assert mixed_sum(kf, s, 1) == pytest.approx(pattern_sum(kf, s, (0, 0)))


def test_mixed_sum_constant_counting():
    kf = constant_kernel(2, 2, c=3.0)
    s = np.zeros((2, 2))
    assert mixed_sum(kf, s, 2) == pytest.approx(2 * 4 * 3.0)


def test_mixed_sum_product_kernel_oracle():
    # oracle: enumerate the four patterns explicitly
    kf = product_kernel(2, 2)
    s = two_row_sample()
    by_patterns = sum(pattern_sum(kf, s, p)
                      for p in itertools.product((0, 1), repeat=2))
    assert by_patterns == pytest.approx(0.0)
    assert mixed_sum(kf, s, 2) == pytest.approx(by_patterns)


def test_not_all_equal_examples():
    kf = constant_kernel(2, 2, c=1.0)
    s = np.zeros((2, 2))
    assert not_all_equal_sum(kf, s) == pytest.approx(8 - 2 - 2)

    kf = product_kernel(2, 2)
    s = two_row_sample()
    assert not_all_equal_sum(kf, s) == pytest.approx(0.0 - (-2.0) - 2.0)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_partition_identity(k):
    n = k + 1
    kf = random_coefficient_kernel(k, n, seed=k)
    rng = np.random.default_rng(k)
    s = rng.normal(size=(n, 2))
    total = mixed_sum(kf, s, 2)
    parts = (pattern_sum(kf, s, (0,) * k) + pattern_sum(kf, s, (1,) * k)
             + not_all_equal_sum(kf, s))
    assert total == pytest.approx(parts, abs=1e-12)


def test_symmetrized_decoupled_sum_counting():
    kf = constant_kernel(2, 2, c=1.0)
    s = np.zeros((2, 2))
    assert symmetrized_decoupled_sum(kf, s) == pytest.approx(4.0)


def test_symmetrized_decoupled_sum_k1():
    kf = product_kernel(1, 3)
    rng = np.random.default_rng(1)
    s = rng.normal(size=(3, 1))
    assert symmetrized_decoupled_sum(kf, s) == pytest.approx(
        pattern_sum(kf, s, (0,)))


def test_symmetrized_decoupled_sum_product():
    kf = product_kernel(2, 2)
    s = two_row_sample()
    expected = pattern_sum(kf, s, (0, 1)) + pattern_sum(kf, s, (1, 0))
    assert symmetrized_decoupled_sum(kf, s) == pytest.approx(expected)
    assert expected == pytest.approx(0.0)


def test_constant_kernel_all_operations_count_patterns():
    n, k, c = 4, 2, 1.5
    kf = constant_kernel(k, n, c=c)
    s = np.zeros((n, 3))
    tuples = n * (n - 1)
    assert pattern_sum(kf, s, (0, 1)) == pytest.approx(tuples * c)
    assert mixed_sum(kf, s, 3) == pytest.approx(tuples * 9 * c)
    assert not_all_equal_sum(kf, s) == pytest.approx(tuples * 2 * c)
    assert symmetrized_decoupled_sum(kf, s) == pytest.approx(tuples * 2 * c)


# Each bad statistic argument is rejected by the spec itself, so every entry
# point that builds one (the sums, evaluate_norms, exact_law) raises the same
# ValidationError before touching a sample.

def _entry_points(kf, mode, **args):
    s = np.array([[1.0, 2.0], [3.0, 5.0]])
    spec = functools.partial(StatisticSpec, kf, mode, **args)
    if mode == "pattern":
        yield lambda: pattern_sum(kf, s, args["pattern"])
    else:
        yield lambda: mixed_sum(kf, s, args["l"])
    yield spec
    yield lambda: evaluate_norms(spec(), s[None])
    yield lambda: exact_law(spec(), rademacher())


@pytest.mark.parametrize("pattern", [(-1, 0), (0, -1)])
def test_negative_pattern_entry_rejected(pattern):
    # a negative copy index must not wrap around to the last copy
    for call in _entry_points(product_kernel(2, 2), "pattern", pattern=pattern):
        with pytest.raises(ValidationError, match="pattern entry"):
            call()


@pytest.mark.parametrize("pattern", [(0.5, 0), (0, "1"), (1.0, 0), None])
def test_non_integer_pattern_rejected(pattern):
    for call in _entry_points(product_kernel(2, 2), "pattern", pattern=pattern):
        with pytest.raises(ValidationError, match="pattern"):
            call()


@pytest.mark.parametrize("l", [2.5, 2.0, 0, None])
def test_non_integer_or_small_l_rejected(l):
    for call in _entry_points(product_kernel(2, 2), "mixed", l=l):
        with pytest.raises(ValidationError, match="l must be an integer >= 1"):
            call()


def test_spec_rejects_unknown_norm_kind():
    # rejected when the spec is built, before any law is enumerated or sampled
    with pytest.raises(ValidationError, match="unknown norm kind 'bogus'"):
        StatisticSpec(product_kernel(2, 3), "coupled", norm_kind="bogus")
    for kind in NORM_KINDS:
        assert StatisticSpec(product_kernel(2, 3), "coupled", norm_kind=kind)


def test_spec_stores_integer_arguments():
    kf = product_kernel(2, 2)
    spec = StatisticSpec(kf, "pattern", pattern=[np.int64(1), 0])
    assert spec.pattern == (1, 0) and all(type(p) is int for p in spec.pattern)
    assert type(StatisticSpec(kf, "mixed", l=np.int64(2)).l) is int
    assert prob_engine.StatisticSpec is StatisticSpec


def test_symmetrized_spec_checks_factorial_budget():
    with pytest.raises(BudgetExceededError, match="factorial budget"):
        StatisticSpec(product_kernel(FACTORIAL_BUDGET + 1, FACTORIAL_BUDGET + 1),
                      "symmetrized")


def test_spec_call_validates_sample():
    spec = StatisticSpec(product_kernel(2, 3), "mixed", l=3)
    for bad in (np.zeros(3), np.zeros((2, 3)), np.zeros((3, 2))):
        with pytest.raises(ValidationError):
            spec(bad)
    assert spec(np.ones((4, 3, 3))).shape == (4,)


@pytest.mark.parametrize("kf", [random_coefficient_kernel(3, 4, seed=2),
                                first_argument_kernel(2, 3)], ids=lambda kf: kf.label)
@pytest.mark.parametrize("mode,args", [("coupled", {}), ("pattern", {"pattern": (2, 0, 1)}),
                                       ("mixed", {"l": 3}), ("not_all_equal", {}),
                                       ("symmetrized", {})])
def test_each_mode_is_the_sum_of_its_pattern_sums(kf, mode, args):
    k = kf.k
    if "pattern" in args:
        args = {"pattern": args["pattern"][:k]}
    spec = StatisticSpec(kf, mode, **args)
    s = np.random.default_rng(5).normal(size=(7, kf.n, 3))  # a batch of 7 samples
    expected = sum(pattern_sum(kf, s, p) for p in spec.patterns())
    assert np.allclose(spec(s), expected, rtol=1e-12, atol=1e-12)
