import itertools
import warnings

import numpy as np
import pytest

from decoupling_lab import randomization as rz
from decoupling_lab.errors import ValidationError
from decoupling_lab.kernel import (constant_kernel, product_kernel,
                                   random_coefficient_kernel)
from decoupling_lab.randomization import (all_sign_vectors,
                                          distributional_equality_check,
                                          expansion_residual_batch,
                                          pattern_invariance_spread,
                                          selector_conditional_expectation,
                                          selector_couple,
                                          sign_conditional_expectation,
                                          sign_couple)
from decoupling_lab.ustat_engine import mixed_sum, pattern_sum
from decoupling_lab.value_space import rademacher, uniform


def test_all_sign_vectors():
    sv = all_sign_vectors(3)
    assert sv.shape == (8, 3)
    assert set(map(tuple, sv)) == set(itertools.product((-1, 1), repeat=3))


@pytest.mark.parametrize("n", range(7))
def test_sign_vectors_are_two_column_choice_vectors(n):
    sv = all_sign_vectors(n)
    expected = 2 * rz.all_choice_vectors(n, 2) - 1
    assert sv.dtype == np.int64 and sv.shape == (2 ** n, n)
    np.testing.assert_array_equal(sv, expected)
    # binary counting order: row b holds bit i of b in column i
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    np.testing.assert_array_equal(sv, 2 * bits - 1)


def test_sign_couple_identity_and_swap():
    rng = np.random.default_rng(0)
    s = rng.normal(size=(4, 2))
    np.testing.assert_array_equal(sign_couple(s, [1, 1, 1, 1]), s)
    np.testing.assert_array_equal(sign_couple(s, [-1] * 4), s[:, ::-1])
    mixed = sign_couple(s[:2], [1, -1])
    np.testing.assert_array_equal(mixed[0], s[0])
    np.testing.assert_array_equal(mixed[1], s[1, ::-1])


def test_sign_couple_validation():
    s = np.zeros((3, 2))
    with pytest.raises(ValidationError):
        sign_couple(s, [1, 1])
    with pytest.raises(ValidationError):
        sign_couple(s, [1, 0, 1])


def test_expansion_residual_all_plus_signs():
    kf = product_kernel(2, 3)
    rng = np.random.default_rng(1)
    s = rng.normal(size=(3, 2))
    res, means = expansion_residual_batch(kf, s, np.array([[1, 1, 1]]))
    assert res.shape == (4, 1) and np.max(res) <= 1e-12
    # all signs +1 leave the sample as it is: each target's own pattern sum
    np.testing.assert_allclose(means, [pattern_sum(kf, s, p) for p in
                                       itertools.product((0, 1), repeat=2)], atol=1e-12)


@pytest.mark.parametrize("pattern", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_expansion_residual_random_signs(pattern):
    kf = product_kernel(2, 3)
    rng = np.random.default_rng(2)
    s = rng.choice([-1.0, 1.0], size=(3, 2))
    res, _ = expansion_residual_batch(kf, s, all_sign_vectors(3))
    row = list(itertools.product((0, 1), repeat=2)).index(pattern)  # targets in product order
    assert res.shape == (4, 8) and float(np.max(res[row])) <= 1e-12


def test_expansion_residual_k3():
    # the k = 3 case, every target pattern including the mixed (0, 0, 1)
    kf = random_coefficient_kernel(3, 4, seed=9)
    rng = np.random.default_rng(3)
    s = rng.normal(size=(4, 2))
    res, _ = expansion_residual_batch(kf, s, all_sign_vectors(4))
    assert res.shape == (8, 16) and float(np.max(res)) <= 1e-12


def test_sign_conditional_expectation_constant():
    kf = constant_kernel(2, 2, c=1.0)
    s = np.zeros((2, 2))
    ce = sign_conditional_expectation(kf, s, (0, 0))
    assert ce == pytest.approx(2.0)
    assert ce == pytest.approx(mixed_sum(kf, s, 2) / 4.0)


def test_sign_conditional_expectation_pattern_invariant():
    kf = random_coefficient_kernel(2, 4, seed=1)
    rng = np.random.default_rng(4)
    s = rng.normal(size=(4, 2))
    _, ces = expansion_residual_batch(kf, s, all_sign_vectors(4))
    for ce, pattern in zip(ces, itertools.product((0, 1), repeat=2)):
        assert ce == pytest.approx(sign_conditional_expectation(kf, s, pattern), abs=1e-12)
    assert pattern_invariance_spread(ces, mixed_sum(kf, s, 2)) <= 1e-12
    assert pattern_invariance_spread(ces, 1.01 * mixed_sum(kf, s, 2)) > 1e-3


def test_selector_couple():
    rng = np.random.default_rng(5)
    s = rng.normal(size=(3, 3))
    np.testing.assert_array_equal(selector_couple(s[:, :1], [0, 0, 0]), s[:, 0])
    np.testing.assert_array_equal(selector_couple(s, [0, 0, 0]), s[:, 0])
    out = selector_couple(s[:2], [0, 1])
    assert out[0] == s[0, 0] and out[1] == s[1, 1]


def test_selector_conditional_expectation_l1():
    kf = product_kernel(2, 3)
    rng = np.random.default_rng(6)
    s = rng.normal(size=(3, 2))
    assert selector_conditional_expectation(kf, s, 1) == pytest.approx(
        pattern_sum(kf, s, (0, 0)))


def test_selector_conditional_expectation_counting():
    kf = constant_kernel(2, 2, c=1.0)
    s = np.zeros((2, 2))
    assert selector_conditional_expectation(kf, s, 2) == pytest.approx(2.0)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_selector_conditional_expectation_identity(l):
    kf = random_coefficient_kernel(2, 4, seed=7)
    rng = np.random.default_rng(7)
    s = rng.normal(size=(4, 3))
    ce = selector_conditional_expectation(kf, s, l)
    assert ce == pytest.approx(mixed_sum(kf, s, l) / l ** 2, abs=1e-12)


@pytest.mark.parametrize("l", [0, -1])
def test_selector_conditional_expectation_rejects_l_below_1(l):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no empty-mean warning on the way
        with pytest.raises(ValidationError, match="l must be >= 1"):
            selector_conditional_expectation(product_kernel(2, 3), np.ones((3, 2)), l)


def test_distributional_equality_selector():
    assert distributional_equality_check(rademacher(), 2, "selector", 2)
    assert distributional_equality_check(uniform(3), 2, "selector", 3)


def test_distributional_equality_sign():
    assert distributional_equality_check(rademacher(), 3, "sign")
    assert distributional_equality_check(uniform(3), 2, "sign")


def test_sign_and_selector_couple_batched():
    rng = np.random.default_rng(8)
    s = rng.normal(size=(5, 3, 2))
    batched = sign_couple(s, [1, -1, -1])
    for b in range(5):
        np.testing.assert_array_equal(batched[b], sign_couple(s[b], [1, -1, -1]))
    np.testing.assert_array_equal(selector_couple(s, [1, 0, 1]),
                                  [selector_couple(x, [1, 0, 1]) for x in s])


def test_couplings_accept_a_batch_of_vectors():
    rng = np.random.default_rng(9)
    s = rng.normal(size=(3, 2))
    signs = all_sign_vectors(3).reshape(2, 4, 3)
    np.testing.assert_array_equal(
        sign_couple(s, signs),
        np.stack([sign_couple(s, v) for v in signs.reshape(8, 3)]).reshape(2, 4, 3, 2))
    s = rng.normal(size=(3, 4))
    choices = rng.integers(0, 4, size=(5, 3))
    np.testing.assert_array_equal(selector_couple(s, choices),
                                  np.stack([selector_couple(s, c) for c in choices]))
    # the batch axes of sample matrices and of sign vectors broadcast together
    pairs = rng.normal(size=(4, 3, 2))
    np.testing.assert_array_equal(sign_couple(pairs, signs[1]),
                                  np.stack([sign_couple(x, v)
                                            for x, v in zip(pairs, signs[1])]))
    with pytest.raises(ValidationError):
        selector_couple(s, choices[:, :2])
    with pytest.raises(ValidationError):
        sign_couple(s[:, :2], signs[..., :2])


def test_distributional_equality_detects_wrong_coupling(monkeypatch):
    # Swapping any fixed set of rows keeps the law, so swapping only row 0 passes.
    original = rz.sign_couple
    monkeypatch.setattr(rz, "sign_couple", lambda s, signs: original(
        s, np.where(np.arange(signs.size) == 0, signs, 1)))
    assert distributional_equality_check(uniform(3), 2, "sign")
    # A "swap" that copies the first column over the second changes the law.
    monkeypatch.setattr(rz, "sign_couple", lambda s, signs: np.where(
        signs[:, None] > 0, s, s[..., [0, 0]]))
    assert not distributional_equality_check(uniform(3), 2, "sign")
    assert not distributional_equality_check(rademacher(), 3, "sign")
    # A selector biased by the data (towards the larger entry) changes the law.
    monkeypatch.setattr(rz, "selector_couple", lambda s, choices: s.max(axis=-1))
    assert not distributional_equality_check(rademacher(), 2, "selector", 2)
    assert not distributional_equality_check(uniform(3), 2, "selector", 3)
