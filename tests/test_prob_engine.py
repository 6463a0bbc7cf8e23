from fractions import Fraction

import numpy as np
import pytest

from decoupling_lab.errors import BudgetExceededError, ValidationError
from decoupling_lab.kernel import constant_kernel, product_kernel
from decoupling_lab.prob_engine import (DiscreteLaw, StatisticSpec, aggregate_law,
                                        exact_law, kappa, mc_tail, moment,
                                        sample_matrices, tail)
from decoupling_lab.value_space import rademacher, uniform


def test_exact_law_coupled_product():
    spec = StatisticSpec(product_kernel(2, 2), "coupled")
    law = exact_law(spec, rademacher())
    np.testing.assert_allclose(law.values, [2.0])
    np.testing.assert_allclose(law.probs, [1.0])


def test_exact_law_decoupled_product():
    spec = StatisticSpec(product_kernel(2, 2), "pattern", pattern=(0, 1))
    law = exact_law(spec, rademacher())
    np.testing.assert_allclose(law.values, [0.0, 2.0])
    np.testing.assert_allclose(law.probs, [0.5, 0.5])


def test_exact_law_zero_kernel():
    spec = StatisticSpec(constant_kernel(2, 3, c=0.0), "coupled")
    law = exact_law(spec, rademacher())
    np.testing.assert_allclose(law.values, [0.0])
    np.testing.assert_allclose(law.probs, [1.0])


def test_exact_law_budget():
    spec = StatisticSpec(product_kernel(2, 4), "pattern", pattern=(0, 1))
    with pytest.raises(BudgetExceededError):
        exact_law(spec, uniform(3), budget=100)


def test_tail_examples():
    law = DiscreteLaw(np.array([0.0, 2.0]), np.array([0.5, 0.5]))
    assert tail(law, 1.0) == pytest.approx(0.5)
    assert tail(law, 0.0) == pytest.approx(1.0)
    point = DiscreteLaw(np.array([2.0]), np.array([1.0]))
    assert tail(point, 2.0) == pytest.approx(1.0)
    assert tail(point, 2.0 + 1e-9) == 0.0


def test_tail_monotone():
    rng = np.random.default_rng(0)
    vals = np.sort(rng.uniform(0, 5, size=6))
    probs = np.full(6, 1 / 6)
    law = DiscreteLaw(vals, probs)
    grid = np.sort(np.concatenate([vals, (vals[:-1] + vals[1:]) / 2]))
    tails = [tail(law, t) for t in grid]
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    assert tail(law, 0.0) == pytest.approx(1.0)


def test_tail_lookup_equals_masked_sum():
    rng = np.random.default_rng(3)
    for _ in range(20):
        vals = np.sort(rng.choice(np.arange(-6.0, 7.0), size=5, replace=False))
        law = DiscreteLaw(vals, rng.dirichlet(np.ones(5)))
        mids = (vals[:-1] + vals[1:]) / 2
        ts = np.concatenate([vals, mids, [-10.0, vals[-1] + 1.0]])
        for t in ts:
            assert tail(law, t) == float(law.probs[law.values >= t].sum())
        assert tail(law, ts).tolist() == [tail(law, t) for t in ts]  # an array of t


def test_moment_examples():
    # law of a two-sign sum: values -2, 0, 0, 2
    law = aggregate_law([-2.0, 0.0, 0.0, 2.0], [0.25] * 4)
    assert moment(law, 4) == pytest.approx(8.0 ** 0.25)
    assert moment(law, 2) == pytest.approx(2.0 ** 0.5)
    point = DiscreteLaw(np.array([3.0]), np.array([1.0]))
    for p in (1, 2, 4):
        assert moment(point, p) == pytest.approx(3.0)


def test_moment_monotone():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = int(rng.integers(2, 6))
        vals = np.sort(rng.normal(size=m))
        probs = rng.dirichlet(np.ones(m))
        law = aggregate_law(vals, probs)
        assert moment(law, 1) <= moment(law, 2) + 1e-12
        assert moment(law, 2) <= moment(law, 4) + 1e-12


def test_kappa_examples():
    signs, three_points = np.array([-1.0, 1.0]), np.array([-1.0, 0.0, 1.0])
    assert kappa(signs, np.full(2, 1 / 2)) == pytest.approx(1.0, abs=1e-12)
    assert kappa(three_points, np.full(3, 1 / 3)) == pytest.approx(2 / 3, abs=1e-12)


def test_kappa_validation():
    with pytest.raises(ValidationError):
        kappa(np.array([0.0, 1.0]), np.array([0.5, 0.5]))  # nonzero mean
    with pytest.raises(ValidationError):
        kappa(np.array([0.0]), np.array([1.0]))  # degenerate


def test_kappa_refuses_vector_atoms():
    # kappa is the 1-D closed form; (m, dim) atoms, even dim 1, are refused
    signs = np.array([[1.0, 1.0], [-1.0, -1.0]])
    for vals in (signs, signs[:, :1]):
        with pytest.raises(ValidationError, match="1-D atoms"):
            kappa(vals, np.full(2, 0.5))


def exact_kappa(values, probs) -> Fraction:
    """(E|Y|)^2 / E(Y^2) in exact rational arithmetic."""
    first = sum(p * abs(v) for v, p in zip(values, probs))
    return first * first / sum(p * v * v for v, p in zip(values, probs))


def random_integer_law(rng):
    """A mean-zero law on integer atoms, as exact fractions: random positive and
    negative atoms and weights, each side rescaled by the other's first moment, and
    sometimes an atom at 0; the two sides differ in atoms and count."""
    up = [int(a) for a in rng.choice(np.arange(1, 10), size=rng.integers(1, 4), replace=False)]
    down = [-int(b) for b in rng.choice(np.arange(1, 10), size=rng.integers(1, 4),
                                        replace=False)]
    w_up, w_down = rng.integers(1, 10, len(up)), rng.integers(1, 10, len(down))
    pull_up = sum(int(w) * a for w, a in zip(w_up, up))
    pull_down = -sum(int(w) * b for w, b in zip(w_down, down))
    masses = [int(w) * pull_down for w in w_up] + [int(w) * pull_up for w in w_down]
    values = up + down
    if rng.random() < 0.5:
        values, masses = values + [0], masses + [int(rng.integers(1, 100))]
    total = sum(masses)
    return values, [Fraction(mass, total) for mass in masses]


def test_kappa_matches_exact_rational_arithmetic():
    assert exact_kappa([8, -1], [Fraction(1, 9), Fraction(8, 9)]) == Fraction(32, 81)
    assert kappa(np.array([8.0, -1.0]), np.array([1 / 9, 8 / 9])) == pytest.approx(
        32 / 81, rel=1e-15, abs=0)
    rng = np.random.default_rng(5)
    asymmetric = 0
    for _ in range(400):
        values, probs = random_integer_law(rng)
        assert sum(p * v for v, p in zip(values, probs)) == 0
        asymmetric += sorted(values) != sorted(-v for v in values)
        got = kappa(np.array(values, dtype=float), np.array([float(p) for p in probs]))
        assert got == pytest.approx(float(exact_kappa(values, probs)), rel=1e-15, abs=0)
    assert asymmetric > 300


def test_kappa_at_most_one():
    rng = np.random.default_rng(2)
    for _ in range(50):
        j = int(rng.integers(1, 4))
        v = rng.uniform(0.5, 3.0, size=j)
        vals = np.concatenate([v, -v])
        probs = np.full(2 * j, 0.5 / j)
        assert kappa(vals, probs) <= 1.0 + 1e-12


def test_mc_tail_zero_kernel():
    spec = StatisticSpec(constant_kernel(2, 3, c=0.0), "coupled")
    assert mc_tail(spec, rademacher(), [0.5], trials=200, seed=0).tolist() == [0.0]


def test_mc_tail_below_support():
    spec = StatisticSpec(product_kernel(2, 2), "coupled")
    assert mc_tail(spec, rademacher(), [0.5, 2.0, 2.5], trials=200,
                   seed=0).tolist() == [1.0, 1.0, 0.0]  # the norm is 2 on every draw


def test_mc_tail_matches_exact():
    spec = StatisticSpec(product_kernel(2, 2), "pattern", pattern=(0, 1))
    (frac,) = mc_tail(spec, rademacher(), [1.0], trials=100_000, seed=42)
    assert abs(frac - 0.5) <= 5 * (0.25 / 100_000) ** 0.5  # five standard deviations


def test_mc_tail_deterministic():
    spec = StatisticSpec(product_kernel(2, 3), "pattern", pattern=(0, 1))
    a = mc_tail(spec, uniform(3), [0.5, 1.5], trials=1000, seed=7)
    b = mc_tail(spec, uniform(3), [0.5, 1.5], trials=1000, seed=7)
    assert np.array_equal(a, b)
    c = mc_tail(spec, uniform(3), [0.5, 1.5], trials=1000, seed=8)
    assert not np.array_equal(a, c)


def test_sample_matrices_shape_and_support():
    rng = np.random.default_rng(1)
    s = sample_matrices(uniform(3), 4, 2, trials=500, rng=rng)
    assert s.shape == (500, 4, 2)
    assert set(np.unique(s)) <= {-1.0, 0.0, 1.0}


def test_mc_tail_requires_trials():
    spec = StatisticSpec(product_kernel(2, 2), "coupled")
    with pytest.raises(ValidationError):
        mc_tail(spec, rademacher(), [1.0], trials=10, seed=0)
