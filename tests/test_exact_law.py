"""Exact laws by grid contraction against brute-force enumeration.

The reference lists every sample matrix, as exact enumeration did before the
grid contraction, and sums each one through the generic per-tuple `slot_sum`
path of the kernel stripped of its coefficient tensor.
"""

import dataclasses
import math

import numpy as np
import pytest

from decoupling_lab import prob_engine
from decoupling_lab.errors import BudgetExceededError
from decoupling_lab.kernel import (KernelFamily, affine_product_kernel,
                                   constant_kernel, first_argument_kernel,
                                   product_kernel, random_coefficient_kernel,
                                   symmetrize)
from decoupling_lab.prob_engine import StatisticSpec, aggregate_law, exact_law
from decoupling_lab.value_space import batch_norm, rademacher, uniform

TOL = 1e-12


def nonlinear_kernel(k, n):
    """Not multilinear, and asymmetric in both the indices and the arguments."""
    def ev(idx, args):
        return ((1 + idx[0]) * args[0] ** 2 - (2 + idx[-1]) * args[-1]
                + math.prod(args) - 0.5)
    return KernelFamily(k, n, ev, label="nonlinear")


KERNELS = {
    "product": lambda k, n: product_kernel(k, n),
    "affine": lambda k, n: affine_product_kernel(k, n, c=1.0),
    "coeff": lambda k, n: random_coefficient_kernel(k, n, seed=3),
    "sym-coeff": lambda k, n: random_coefficient_kernel(k, n, seed=4, symmetric=True),
    "constant": lambda k, n: constant_kernel(k, n, c=1.5),
    "coeff-dim2": lambda k, n: random_coefficient_kernel(k, n, seed=5, dim=2),
    "first-arg": lambda k, n: first_argument_kernel(k, n),
    "sym-first-arg": lambda k, n: symmetrize(first_argument_kernel(k, n)),
    "nonlinear": nonlinear_kernel,
}

LAWS = {"rademacher": rademacher, "uniform3": lambda: uniform(3),
        "uniform4": lambda: uniform(4)}


def _specs(kf):
    k = kf.k
    yield StatisticSpec(kf, "coupled")
    yield StatisticSpec(kf, "pattern", pattern=tuple(range(k)))
    yield StatisticSpec(kf, "pattern", pattern=(2,) + (0,) * (k - 1))  # skips copy 1
    for l in (1, 2, 3):
        yield StatisticSpec(kf, "mixed", l=l)
    yield StatisticSpec(kf, "not_all_equal")
    yield StatisticSpec(kf, "symmetrized")


def brute_force_law(spec, dist):
    """Law over every sample matrix, each summed by the generic per-tuple path."""
    kf = dataclasses.replace(spec.kernel, coeffs=None)
    cells = kf.n * spec.copies_needed
    idx = np.indices((dist.size,) * cells).reshape(cells, -1).T
    samples = dist.values_array()[idx].reshape(-1, kf.n, spec.copies_needed)
    probs = dist.probs_array()[idx].prod(axis=1)
    total = dataclasses.replace(spec, kernel=kf)(samples)
    return aggregate_law(batch_norm(total, spec.norm_kind, kf.dim), probs)


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_exact_law_equals_brute_force(name, law):
    dist = LAWS[law]()
    for k, n in ((2, 3), (3, 3)):
        if law != "rademacher" and k == 3:
            continue  # keeps the brute-force mixed l=3 enumeration small
        for spec in _specs(KERNELS[name](k, n)):
            a, b = exact_law(spec, dist), brute_force_law(spec, dist)
            assert a.values.shape == b.values.shape, (name, spec.mode, spec.l)
            np.testing.assert_allclose(a.values, b.values, rtol=TOL, atol=TOL)
            np.testing.assert_allclose(a.probs, b.probs, rtol=TOL, atol=TOL)


def test_callable_kernel_tabulated_once_per_tuple():
    calls = []
    base = first_argument_kernel(3, 4)

    def counted(idx, args):
        calls.append(idx)
        return base.evaluate(idx, args)

    kf = dataclasses.replace(base, evaluate=counted)
    for spec in _specs(kf):
        calls.clear()
        exact_law(spec, uniform(3))
        assert len(calls) <= math.perm(kf.n, kf.k), (spec.mode, spec.l, len(calls))


def test_cell_tensor_ceiling():
    # (33 * 2)^4 one-hot cell-tensor entries exceed the 2^24 ceiling
    spec = StatisticSpec(first_argument_kernel(4, 33), "coupled")
    with pytest.raises(BudgetExceededError, match="cell tensor"):
        exact_law(spec, rademacher(), budget=2 ** 40)


def test_exact_law_refuses_a_law_whose_mass_is_not_1(monkeypatch):
    # drop the multinomial factor: every mixed law with l >= 2 loses mass
    count_vectors = prob_engine._count_vectors

    def without_ways(probs, l):
        counts, _ = count_vectors(probs, l)
        return counts, np.prod(probs ** counts, axis=1)

    monkeypatch.setattr(prob_engine, "_count_vectors", without_ways)
    for dist in (rademacher(), uniform(3)):
        for l in (2, 3):
            spec = StatisticSpec(product_kernel(2, 3), "mixed", l=l)
            with pytest.raises(RuntimeError, match="total mass") as e:
                exact_law(spec, dist)
            assert type(e.value) is RuntimeError  # neither a budget nor an input error
    law = exact_law(StatisticSpec(product_kernel(2, 3), "coupled"), uniform(3))
    assert law.probs.sum() == pytest.approx(1.0)
