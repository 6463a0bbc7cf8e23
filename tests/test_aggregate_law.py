"""aggregate_law against the np.unique + np.add.at body it replaced.

The reference below is that body, kept verbatim: np.unique(return_inverse=True)
finds the support and np.add.at adds each point's probabilities.  Aggregating
block by block must give the same law bit for bit, and hold less memory.
"""

import tracemalloc

import numpy as np
import pytest

from decoupling_lab.kernel import random_coefficient_kernel
from decoupling_lab.prob_engine import (_VALUE_DECIMALS, DiscreteLaw, StatisticSpec,
                                        aggregate_law, exact_law)
from decoupling_lab.value_space import uniform


def reference_law(values, probs) -> DiscreteLaw:
    v = np.round(np.asarray(values, dtype=float), _VALUE_DECIMALS)
    p = np.asarray(probs, dtype=float)
    uniq, inv = np.unique(v, return_inverse=True)
    agg = np.zeros(uniq.size)
    np.add.at(agg, inv, p)
    keep = agg > 0
    return DiscreteLaw(uniq[keep], agg[keep] / agg.sum())


def assert_same_law(values, probs):
    got, want = aggregate_law(values, probs), reference_law(values, probs)
    assert np.array_equal(got.values, want.values, equal_nan=True)
    assert np.array_equal(got.probs, want.probs)


def _tied_inputs():
    rng = np.random.default_rng(15)
    for _ in range(40):
        size = int(rng.integers(1, 3000))
        points = int(rng.integers(1, 40))
        values = rng.integers(-points, points + 1, size) * 0.37
        yield values, rng.random(size)


@pytest.mark.parametrize("values, probs", list(_tied_inputs()))
def test_many_ties_match_reference(values, probs):
    assert_same_law(values, probs)


def test_values_within_rounding_match_reference():
    rng = np.random.default_rng(7)
    base = rng.integers(0, 25, 5000) / 3.0
    jitter = rng.choice([0.0, 1e-14, -1e-14, 3e-13, -4e-13, 2e-16], base.size)
    assert_same_law(base + jitter, rng.random(base.size))


@pytest.mark.parametrize("values, probs", [
    ([2.5], [1.0]),
    ([1.25] * 9, np.arange(1.0, 10.0)),
    ([-0.0, 0.0, 1.0, 0.0, -0.0, -1e-14], [0.1, 0.2, 0.3, 0.1, 0.2, 0.1]),
    ([np.inf, 1.0, np.nan, -np.inf, np.nan, 1.0, np.inf, np.nan], np.arange(1.0, 9.0)),
    ([np.nan, np.nan], [0.5, 0.5]),
    # a second NaN point, even with no mass, would make 8 points and change
    # how np.sum pairs them up in the normalization
    ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, np.nan, np.nan],
     [0.5, 0.5, 0.7, 0.9, 0.1, 0.2, 0.8, 0.9]),
])
def test_edge_values_match_reference(values, probs):
    assert_same_law(values, probs)


def test_zero_probability_points_are_dropped_like_reference():
    assert_same_law([3.0, 1.0, 2.0, 1.0], [0.0, 0.5, 0.0, 0.5])


def test_peak_memory_is_a_small_multiple_of_the_input():
    # 81^3 realizations, as in a decoupled uniform3 law at n=4, k=3
    rng = np.random.default_rng(3)
    values = rng.integers(0, 30, 81 ** 3) * 0.5
    probs = np.full(values.size, 1.0 / values.size)
    aggregate_law(values, probs)  # warm up any lazily allocated state
    tracemalloc.start()
    try:
        aggregate_law(values, probs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * values.nbytes


def test_decoupled_uniform3_law_is_unchanged():
    # stored from the np.unique + np.add.at aggregation, as float.hex
    kf = random_coefficient_kernel(3, 4, seed=0, symmetric=True)
    law = exact_law(StatisticSpec(kf, "pattern", pattern=(0, 1, 2)), uniform(3))
    values = list(range(21)) + [22, 24, 30]
    probs = [
        "0x1.76a47eb8e562ep-3", "0x1.554803d98d64dp-3", "0x1.89d088891e9b7p-3",
        "0x1.d5784b3a43643p-4", "0x1.02697371abee3p-3", "0x1.d45c2b944a8b3p-5",
        "0x1.ffe421570d7a6p-5", "0x1.dc7fbe555bacfp-6", "0x1.bee71d0baf056p-6",
        "0x1.39b8474026046p-7", "0x1.1fd2ba1faf010p-6", "0x1.c1dcc6c63feeap-9",
        "0x1.dd7c4c3e3661dp-9", "0x1.aa2f78f1b5dcfp-10", "0x1.86ab8432e6ae9p-9",
        "0x1.7ad4dd48a1afep-13", "0x1.1c1fa5f67944dp-11", "0x1.7ad4dd48a1b0dp-12",
        "0x1.b9f8577f674eep-11", "0x1.7ad4dd48a1afep-13", "0x1.7ad4dd48a1af0p-14",
        "0x1.7ad4dd48a1af0p-14", "0x1.7ad4dd48a1afep-13", "0x1.f91bd1b62ce9fp-16",
    ]
    assert np.array_equal(law.values, np.array(values, dtype=float))
    assert np.array_equal(law.probs, np.array([float.fromhex(p) for p in probs]))
