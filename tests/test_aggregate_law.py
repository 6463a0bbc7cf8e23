"""aggregate_law against the bodies it replaced.

The first reference below is the np.unique + np.add.at body, kept verbatim:
np.unique(return_inverse=True) finds the support and np.add.at adds each
point's probabilities.  Aggregating block by block must give the same law bit
for bit, and hold less memory.

The second is the block-by-block body that looked every value up in the
running support, also kept verbatim.  While every probability is the same,
_aggregate counts each point's values instead, and adds the probability to
0.0 once per count in one running np.add.accumulate; both must give the law
that body gives, bit for bit, whatever the blocks, including blocks whose
probabilities change partway, NaN, +-inf, +-0.0, zero probabilities and
counts past _BLOCK.  The tests rely on np.add.at and np.add.accumulate adding
in order, so they run on every NumPy the package accepts.
"""

import tracemalloc

import numpy as np
import pytest

from decoupling_lab import prob_engine, verifier
from decoupling_lab.errors import ValidationError
from decoupling_lab.kernel import first_argument_kernel, random_coefficient_kernel
from decoupling_lab.prob_engine import (_VALUE_DECIMALS, DiscreteLaw, StatisticSpec,
                                        _aggregate, aggregate_law, exact_law)
from decoupling_lab.value_space import DEFAULT_ENUM_BUDGET, rademacher, uniform


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


def looked_up_law(blocks) -> DiscreteLaw:
    """The block-by-block body that looked each value up, verbatim."""
    support, sums = np.empty(0), np.empty(0)
    for values, probs in blocks:
        v, p = np.round(np.asarray(values, float), _VALUE_DECIMALS).ravel(), np.ravel(probs)
        if v.size != p.size:
            raise ValidationError(f"{v.size} values for {p.size} probabilities")
        s = np.sort(v)  # NaNs last; np.unique would import numpy.ma
        new = np.append(s[:1], s[1:][(s[1:] != s[:-1]) & (s[:-1] == s[:-1])])  # a single NaN
        new = new[np.searchsorted(support, new) == np.searchsorted(support, new, "right")]
        at = np.searchsorted(support, new)  # where each point the support lacks goes
        support, sums = np.insert(support, at, new), np.insert(sums, at, 0.0)
        np.add.at(sums, np.searchsorted(support, v), p)
    return DiscreteLaw(support[sums > 0], sums[sums > 0] / sums.sum())


def _outcome(make_law):
    """The bytes of the law make_law() returns, or the message of the ValidationError
    it raises."""
    try:
        law = make_law()
    except ValidationError as e:
        return str(e)
    return law.values.tobytes(), law.probs.tobytes()


def assert_same_as_looked_up(blocks):
    assert _outcome(lambda: _aggregate(iter(blocks))) == _outcome(lambda: looked_up_law(blocks))


def _block(rng, size, points, p):
    """`size` values on about `points` points (None: nearly all distinct) with a
    sprinkling of NaN, +-inf and +-0.0, at probability p (None: random)."""
    values = (rng.standard_normal(size) if points is None
              else rng.integers(-points, points + 1, size) * 0.37)
    special = rng.choice([np.nan, np.inf, -np.inf, -0.0, 0.0], size)
    values = np.where(rng.random(size) < 0.08, special, values)
    probs = rng.random(size) if p is None else np.full(size, p)
    return values, probs


def _block_sequences(seed, count):
    """Random block sequences whose probabilities are all p up to a random block,
    then random (p may be 0.0; the switch may never come)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = rng.choice([0.25, 1 / 3, 0.0, 1e-7, 2.0 ** -20])
        blocks = int(rng.integers(1, 10))
        switch = int(rng.integers(0, blocks + 2))
        yield [_block(rng, int(rng.choice([0, 1, 5, 100, 3000, 20000])),
                      int(rng.integers(1, 50)) if rng.random() < 0.7 else None,
                      p if b < switch else None)
               for b in range(blocks)]


@pytest.mark.parametrize("seed", range(8))
def test_counted_blocks_match_the_looked_up_body(seed):
    for blocks in _block_sequences(seed, 25):
        assert_same_as_looked_up(blocks)


@pytest.mark.parametrize("chunk, block", [(7, 3), (100, 1), (1, 2)])
def test_counted_blocks_match_the_looked_up_body_at_small_sizes(monkeypatch, chunk, block):
    # a few values per aggregation block and a running sum carried every few counts
    monkeypatch.setattr(prob_engine, "_CHUNK", chunk)
    monkeypatch.setattr(prob_engine, "_BLOCK", block)
    for blocks in _block_sequences(100 + chunk, 15):
        assert_same_as_looked_up(blocks)
    rng = np.random.default_rng(chunk)
    values, probs = _block(rng, 600, 6, 0.125)
    probs[400:] = rng.random(200)
    blocks = [(values[i:i + chunk], probs[i:i + chunk]) for i in range(0, values.size, chunk)]
    assert _outcome(lambda: aggregate_law(values, probs)) == _outcome(
        lambda: looked_up_law(blocks))


def test_counts_past_the_block_carry_the_running_sum():
    # 300,000 values on two points at one probability: each count passes _BLOCK,
    # so the sums carry the running sum over many accumulation steps of _CHUNK
    # terms; then a block of random probabilities
    rng = np.random.default_rng(5)
    big = [(rng.integers(0, 2, 100_000) * 1.5, np.full(100_000, 1 / 3e5)) for _ in range(3)]
    assert 150_000 > prob_engine._BLOCK > prob_engine._CHUNK
    assert_same_as_looked_up(big)
    assert_same_as_looked_up(big + [_block(rng, 200_000, 3, None)])
    assert_same_as_looked_up([_block(rng, 200_000, None, 0.5)] + big)


@pytest.mark.parametrize("p", [2.0 ** -20, None], ids=["equal", "random"])
def test_two_to_the_twenty_distinct_values_match_the_looked_up_body(p):
    rng = np.random.default_rng(20)
    values, probs = _block(rng, 2 ** 20, None, p)
    chunk = prob_engine._CHUNK
    blocks = [(values[i:i + chunk], probs[i:i + chunk]) for i in range(0, values.size, chunk)]
    assert _outcome(lambda: aggregate_law(values, probs)) == _outcome(
        lambda: looked_up_law(blocks))


@pytest.mark.parametrize("values, probs", [
    ([1.0, 2.0, 1.0], [0.0, 0.0, 0.0]),  # no mass: refused alike
    ([1.0, 2.0, 1.0, 3.0], [0.0, 0.0, 0.0, 0.5]),  # zero-probability points dropped
    ([-0.0, 0.0, 0.0, -0.0], [0.25] * 4),
    ([0.0, -0.0, np.nan, np.nan, np.inf, -np.inf], [0.5] * 6),
    ([1.0, 1.0, 2.0], [np.nan] * 3),
])
def test_edge_blocks_match_the_looked_up_body(values, probs):
    values, probs = np.array(values), np.array(probs)
    for cut in range(values.size + 1):  # every split into two blocks, one maybe empty
        assert_same_as_looked_up([(values[:cut], probs[:cut]), (values[cut:], probs[cut:])])


def _campaign_laws(monkeypatch):
    """(spec, dist, budget, law) of every exact law the default campaign computes."""
    laws = []

    def recording(spec, dist, budget=DEFAULT_ENUM_BUDGET):
        law = exact_law(spec, dist, budget)
        laws.append((spec, dist, budget, law))
        return law

    monkeypatch.setattr(verifier, "exact_law", recording)
    verifier.run_corpus(verifier.CorpusConfig(seed=1))
    monkeypatch.undo()
    return laws


def test_counting_is_the_path_equal_probability_laws_take(monkeypatch):
    laws = _campaign_laws(monkeypatch)

    def lookup(*args):
        raise AssertionError("a value was looked up")

    monkeypatch.setattr(prob_engine, "_looked_up", lookup)
    equal = [law for law in laws if law[0].mode in ("coupled", "pattern")]
    assert {spec.mode for spec, *_ in equal} == {"coupled", "pattern"} and len(equal) > 20
    for spec, dist, budget, law in equal:
        got = exact_law(spec, dist, budget)
        assert got.values.tobytes() == law.values.tobytes()
        assert got.probs.tobytes() == law.probs.tobytes()
    kf = first_argument_kernel(2, 4)
    for spec in (StatisticSpec(kf, "symmetrized"), StatisticSpec(kf, "not_all_equal"),
                 StatisticSpec(kf, "mixed", l=1)):
        exact_law(spec, uniform(3))
    with pytest.raises(AssertionError, match="looked up"):  # unequal count-vector weights
        exact_law(StatisticSpec(kf, "mixed", l=2), rademacher())
