import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from decoupling_lab import prob_engine, verifier
from decoupling_lab.errors import BudgetExceededError, SymmetryError, ValidationError
from decoupling_lab.kernel import (check_symmetry, constant_kernel,
                                   first_argument_kernel, product_kernel,
                                   random_coefficient_kernel)
from decoupling_lab.prob_engine import (DiscreteLaw, StatisticSpec, aggregate_law,
                                        exact_law, moment, tail)
from decoupling_lab.randomization import all_choice_vectors
from decoupling_lab.value_space import (NORM_KINDS, DiscreteDistribution, batch_norm,
                                        rademacher, uniform)
from decoupling_lab.verifier import (ALL_CHECKS, CorpusConfig, mazur_orlicz_exhaustive,
                                     minimal_constant, random_law, run_corpus,
                                     search_constant, theorem1_constant,
                                     symmetrized_expansion_residual,
                                     tails_dominated, verify_lemma1,
                                     verify_lemma2, verify_moment_comparison,
                                     verify_prop1)


def test_lemma1_rademacher():
    rep = verify_lemma1(rademacher())
    assert rep.passed
    row = next(r for r in rep.rows if r.t == 1.0)
    assert row.lhs == pytest.approx(1.0)
    assert row.rhs == pytest.approx(1.5)


def test_lemma1_degenerate():
    rep = verify_lemma1(DiscreteDistribution((0.0,), (1.0,)))
    assert rep.passed


@pytest.mark.parametrize("dist", [uniform(3), uniform(4), rademacher(),
                                  DiscreteDistribution((-2.0, 0.0, 1.0, 3.0),
                                                       (0.1, 0.2, 0.3, 0.4))],
                         ids=["uniform3", "uniform4", "rademacher", "skewed"])
def test_lemma1_rows_are_the_positive_support_points(dist):
    rep = verify_lemma1(dist)
    assert rep.passed
    law_x = aggregate_law(np.abs(dist.values_array()), dist.probs_array())
    assert [r.t for r in rep.rows] == law_x.values[law_x.values > 0].tolist()


def _tail_tol(law, u):
    # P(value >= u) by suffix-sum lookup, with a small relative slack so that
    # C * support points survive the division by C; u may be an array
    u = u - 1e-9 * np.maximum(1.0, np.abs(u))
    return law.suffix_sums[np.searchsorted(law.values, u)]


def _lemma1_t_grid_reference(dist, norm_kind):
    # the former body of verify_lemma1: every t > 0 among the support points of
    # ||X|| and the midpoints between them
    atoms, probs = dist.values_array(), dist.probs_array()
    dim = atoms[0].size
    law_x = aggregate_law(batch_norm(atoms, norm_kind, dim), probs)
    # every pair (i, j) in row-major order
    pairs = atoms[:, None] + atoms[None, :]
    law_sum = aggregate_law(batch_norm(pairs, norm_kind, dim), np.outer(probs, probs))
    rows, pts = [], law_x.values
    for t in np.sort(np.concatenate([pts, (pts[:-1] + pts[1:]) / 2])):
        if t <= 0:
            continue
        lhs = tail(law_x, t)
        rhs = 3.0 * float(_tail_tol(law_sum, 2.0 * t / 3.0))
        rows.append(verifier.CheckRow(float(t), lhs, rhs, _reference_holds(lhs, rhs)))
    return verifier.InequalityReport(tuple(rows))


@pytest.mark.parametrize("norm_kind", NORM_KINDS)
def test_lemma1_support_rows_match_the_t_grid_loop(norm_kind):
    rng = np.random.default_rng(16)
    for i in range(150):
        dist = random_law(rng, dim=1 + i % 3)
        new, old = verify_lemma1(dist, norm_kind), _lemma1_t_grid_reference(dist, norm_kind)
        assert new.passed == old.passed
        old_at = {r.t: r for r in old.rows}
        assert all(old_at[r.t] == r for r in new.rows)


def test_lemma1_fails_at_factor_1(monkeypatch):
    # with P(||X|| >= t) <= 1 P(||X + Y|| / 2 >= t) in place of the factor 3
    tail_rows = verifier._tail_rows
    monkeypatch.setattr(verifier, "_tail_rows", lambda l, r, c: tail_rows(l, r, 1.0))
    assert not verify_lemma1(rademacher()).passed
    rng = np.random.default_rng(3)
    assert not all(verify_lemma1(random_law(rng, dim=1)).passed for _ in range(20))


def test_lemma1_vector_law():
    d = DiscreteDistribution(((1.0, 0.0), (-1.0, 0.0), (0.0, 2.0), (0.0, -2.0)),
                             (0.25, 0.25, 0.25, 0.25))
    assert verify_lemma1(d).passed


def test_prop1_examples():
    rep = verify_prop1(1.0, rademacher())
    assert rep.passed
    assert rep.rows[0].lhs == pytest.approx(0.5)
    assert rep.rows[0].rhs == pytest.approx(0.25)

    rep = verify_prop1(0.0, rademacher())
    assert rep.rows[0].lhs == pytest.approx(1.0)

    rep = verify_prop1(1.0, uniform(3))
    assert rep.rows[0].lhs == pytest.approx(2 / 3)
    assert rep.rows[0].rhs == pytest.approx(1 / 6)


def test_lemma2_examples():
    prob, rep = verify_lemma2({(0,): 1.0}, 1.0, 1)
    assert prob == pytest.approx(0.5)
    assert rep.passed

    prob, rep = verify_lemma2({}, 2.0, 3)
    assert prob == pytest.approx(1.0)

    rng = np.random.default_rng(0)
    coeffs = {(0, 1): 2.0, (1, 2): -1.0, (0,): 1.0}
    prob, rep = verify_lemma2(coeffs, 1.0, 3)
    assert prob > 0.0
    assert rep.passed


def test_moment_comparison_rademacher():
    # two-term linear chaos: ratio (E xi^4)^(1/4) / (E xi^2)^(1/2) = 2^(1/4)
    rep = verify_moment_comparison({(0,): 1.0, (1,): 1.0}, 2, 1, "rademacher")
    assert rep.passed
    assert rep.rows[0].lhs == pytest.approx(8 ** 0.25 / 2 ** 0.5)

    # single sign: two-point symmetric, ratio 1
    rep = verify_moment_comparison({(0,): 1.0}, 1, 1, "rademacher")
    assert rep.rows[0].lhs == pytest.approx(1.0)

    # degree-2 product of signs is again a sign: ratio 1 <= 3
    rep = verify_moment_comparison({(0, 1): 1.0}, 2, 2, "rademacher")
    assert rep.rows[0].lhs == pytest.approx(1.0)
    assert rep.rows[0].rhs == pytest.approx(3.0)


def test_moment_comparison_rademacher_refuses_vector_coefficients():
    # 3^(d/2) bounds scalar chaos; a vector coefficient is named, not summed
    with pytest.raises(ValidationError, match=r"coefficient \(0,\) is not a scalar"):
        verify_moment_comparison({(0,): [1, 2], (1,): [0, 1]}, 2, 1, "rademacher")


def test_moment_comparison_centered_selector():
    rng = np.random.default_rng(1)
    a = rng.integers(-3, 4, size=(3, 2)).astype(float)
    rep = verify_moment_comparison(a, 3, 1, "centered-selector", l=2, x0=1.0)
    assert rep.passed


def _selector_moment_reference(a, n, l, x0):
    # the former one-hot body: (l^n, n, l) indicator tensors contracted by einsum
    choices = all_choice_vectors(n, l)
    delta = np.stack([(choices == r).astype(float) for r in range(l)], axis=2)
    eps = delta - 1.0 / l
    rows = []
    for vals in (x0 + np.einsum("bnr,nr->b", eps, a), x0 + np.einsum("bnr,nr->b", delta, a)):
        law = aggregate_law(vals, np.full(vals.shape[0], 1.0 / vals.shape[0]))
        m1, m2, m4 = moment(law, 1), moment(law, 2), moment(law, 4)
        if m2 == 0.0:  # degenerate: one row
            rows.append((0.0, 3.0 ** 0.5))
            continue
        rows += [(m4 / m2, 3.0 ** 0.5), (m2, (m4 / m2) ** 2 * m1)]
    return rows


@pytest.mark.parametrize("integer", [True, False])
def test_selector_moments_match_the_one_hot_einsum(integer):
    rng = np.random.default_rng(11)
    for _ in range(100):
        n, l = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        a = (rng.integers(-3, 4, size=(n, l)).astype(float) if integer
             else rng.normal(size=(n, l)))
        x0 = float(rng.integers(0, 3))
        rep = verify_moment_comparison(a, n, 1, "centered-selector", l=l, x0=x0)
        ref = _selector_moment_reference(a, n, l, x0)
        assert len(rep.rows) == len(ref)
        assert rep.passed == all(lhs <= rhs + 1e-12 for lhs, rhs in ref)
        for row, (lhs, rhs) in zip(rep.rows, ref):
            assert row.lhs == pytest.approx(lhs, rel=1e-12, abs=1e-12)
            assert row.rhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_selector_moments_refuse_over_budget_before_allocating():
    # 65^4 = 17.9 million choice vectors would take more than 1 GB to list
    a = np.ones((4, 65))
    tracemalloc.start()
    with pytest.raises(BudgetExceededError, match="65\\^4 choice vectors"):
        verify_moment_comparison(a, 4, 1, "centered-selector", l=65)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 2 ** 20


def test_moments_records_a_selector_over_budget_as_skip():
    out = run_corpus(CorpusConfig(seed=1, nk_pairs=((2, 1),), ls=(2, 65),
                                  checks=("moments",)))
    assert [s["instance_id"] for s in out["summary"]["skipped"]] == ["selector:l65"]
    assert "selector:l2" in {r["instance_id"] for r in out["results"]}


def test_search_constant_zero_kernel():
    res = search_constant(constant_kernel(2, 3, c=0.0), rademacher(), "upper")
    assert res.feasible
    assert res.c_min == pytest.approx(1.0)


def test_search_constant_hand_derived_upper():
    res = search_constant(product_kernel(2, 2), rademacher(), "upper")
    assert res.feasible
    assert res.c_min == 2.0
    # coupled 2 x0 x1 has norm 2 surely; the decoupled sum has norm 2 with
    # probability 1/2, so the threshold 2 needs max(2 / 2, 1 / (1/2))
    assert res.binding == {"v": 2.0, "w": 2.0, "at_top": True}
    assert res.row == verifier.CheckRow(2.0, 1.0, 1.0, True)


def test_search_constant_lower_symmetric():
    res = search_constant(product_kernel(2, 2), rademacher(), "lower")
    assert res.feasible
    assert res.c_min >= 1.0


def test_search_constant_lower_rejects_asymmetric():
    with pytest.raises(SymmetryError):
        search_constant(first_argument_kernel(2, 3), rademacher(), "lower")


def test_search_constant_lemma3_rejects_asymmetric():
    with pytest.raises(SymmetryError, match="lemma3"):
        search_constant(first_argument_kernel(2, 3), rademacher(), "lemma3", l=1)


def test_monotone_feasibility():
    kf = random_coefficient_kernel(2, 3, seed=4, symmetric=True)
    d = uniform(3)
    law_l = exact_law(StatisticSpec(kf, "coupled"), d)
    law_r = exact_law(StatisticSpec(kf, "pattern", pattern=(0, 1)), d)
    res = minimal_constant(law_l, law_r)
    assert res.feasible
    assert tails_dominated(law_l, law_r, res.c_min * 1.1)
    assert tails_dominated(law_l, law_r, res.c_min * 10.0)


def test_scale_covariance():
    # multiplying both laws' supports by s leaves the verdict unchanged
    kf = product_kernel(2, 3)
    d = rademacher()
    law_l = exact_law(StatisticSpec(kf, "coupled"), d)
    law_r = exact_law(StatisticSpec(kf, "pattern", pattern=(0, 1)), d)
    res = minimal_constant(law_l, law_r)
    s = 3.0
    scaled_l = DiscreteLaw(law_l.values * s, law_l.probs)
    scaled_r = DiscreteLaw(law_r.values * s, law_r.probs)
    res_s = minimal_constant(scaled_l, scaled_r)
    assert res_s.c_min == pytest.approx(res.c_min, rel=1e-9)


def test_holds_is_relative_to_the_larger_side():
    assert not verifier._holds(2e-20, 1e-20)
    assert verifier._holds(1e6 + 1e-7, 1e6)
    assert verifier._holds(np.array([1e-20, 1.0]), np.array([1e-20, 1.0]))
    assert not verifier._holds(np.array([1e-20, 1.0]), np.array([0.0, 1.0]))


def test_tails_dominated_refuses_constants_below_c_min_at_tiny_tails():
    # on (-1, 9999) at 0.9999 / 0.0001 the binding coupled tail is 1e-20, far
    # below an absolute slack of 1e-12
    kf, dist = product_kernel(3, 5), DiscreteDistribution((-1.0, 9999.0), (0.9999, 0.0001))
    law_l = exact_law(StatisticSpec(kf, "coupled"), dist)
    law_r = exact_law(StatisticSpec(kf, "pattern", pattern=(0, 1, 2)), dist)
    c_min = minimal_constant(law_l, law_r).c_min
    assert c_min == pytest.approx(15.0045, abs=1e-4)
    assert not tails_dominated(law_l, law_r, c_min / 2)
    assert not tails_dominated(law_l, law_r, c_min * (1 - 1e-6))
    assert tails_dominated(law_l, law_r, c_min)


def test_search_constant_lemma3_at_large_atoms():
    # the mixed law's values divided by l^k = 27 as a law of their own would
    # merge adjacent support points near 1e17
    dist = DiscreteDistribution((-1.0, 1e5), (0.5, 0.5))
    res = search_constant(product_kernel(3, 4), dist, "lemma3", 3)
    assert res.feasible and res.c_min == 27.0
    assert res.c_min_scaled == pytest.approx(2.94765625, rel=1e-9)


@pytest.mark.parametrize("j", range(-4, 6))
def test_constants_do_not_change_with_the_scale_of_the_atoms(j):
    kf = verifier.build_kernel("sym-coeff", 4, 3, seed=7)
    dist = DiscreteDistribution(tuple(x * 10.0 ** j for x in (-1.0, 2.0, 0.5)),
                                (0.5, 0.25, 0.25))
    got = [search_constant(kf, dist, d).c_min for d in ("upper", "lower")]
    for l in (2, 3):
        res = search_constant(kf, dist, "lemma3", l)
        got += [res.c_min, res.c_min_scaled]
    assert got == pytest.approx([32 / 9, 1.0, 8.0, 1.0, 27.0, 1.0], rel=1e-12)


@pytest.mark.parametrize("l", [1, 2])
def test_search_constant_lemma3(l):
    res = search_constant(product_kernel(2, 3), rademacher(), "lemma3", l=l)
    assert res.feasible
    assert res.c_min < 2 ** 20


def test_mazur_orlicz_exhaustive_small():
    assert mazur_orlicz_exhaustive(4)


def test_symmetrized_expansion_residual():
    rng = np.random.default_rng(5)
    for k in (2, 3):
        kf = random_coefficient_kernel(k, k + 1, seed=k, symmetric=True)
        s = rng.normal(size=(k + 1, k))
        assert symmetrized_expansion_residual(kf, s) <= 1e-12


def test_corpus_config_refuses_empty_checks():
    # a campaign of no checks would print "0/0 checks passed" and exit 0
    with pytest.raises(ValidationError, match="checks"):
        CorpusConfig(checks=())


def test_run_corpus_raises_a_runtime_error_that_is_no_invariant(monkeypatch):
    # only an InvariantError becomes a failed result; any other bug keeps its traceback
    def broken(**_):
        raise RuntimeError("a kernel bug")
        yield
    monkeypatch.setitem(verifier._CHECKS, "prop1", broken)
    with pytest.raises(RuntimeError, match="a kernel bug"):
        run_corpus(CorpusConfig(checks=("prop1",)))


def test_run_corpus_fails_a_tail_that_reads_above_t(monkeypatch):
    # prob_engine.tail planted to read P(X > t), not P(X >= t): its code is
    # swapped, so every module that imported the function reads the fault
    def strict_tail(law, t):
        return law.suffix_sums[np.searchsorted(law.values, t, side="right")]
    monkeypatch.setattr(prob_engine.tail, "__code__", strict_tail.__code__)
    cfg = CorpusConfig(seed=1, distributions=("rademacher",), kernel_classes=("product",),
                       nk_pairs=((3, 2),), ls=(1, 2),
                       checks=("theorem1_upper", "theorem1_lower", "lemma3"))
    with np.errstate(divide="ignore", invalid="ignore"):  # a top support point's tail is 0
        rep = run_corpus(cfg)
    failed = {r["check"] for r in rep["results"] if not r["passed"]}
    assert failed & {"theorem1_upper", "theorem1_lower", "lemma3"}


def test_run_corpus_small():
    cfg = CorpusConfig(nk_pairs=((3, 2),), distributions=("rademacher",),
                       kernel_classes=("product", "coeff"),
                       checks=("identities", "lemma1", "theorem1_upper"),
                       law_count=5, mc_trials=500)
    rep = run_corpus(cfg)
    assert rep["summary"]["failed"] == 0
    assert rep["summary"]["total"] > 0


def test_run_corpus_table_rows_carry_their_results_n_k_l():
    cfg = CorpusConfig(nk_pairs=((3, 2), (4, 3)), distributions=("rademacher",),
                       kernel_classes=("product", "sym-coeff"), ls=(1, 2),
                       checks=("lemma1", "prop1", "moments", "theorem1_upper",
                               "lemma3"),
                       law_count=2)
    rep = run_corpus(cfg)
    where = {(r["check"], r["instance_id"]): (r["n"], r["k"], r["l"])
             for r in rep["results"]}
    assert {row["check"] for row in rep["table"]} == set(cfg.checks)
    for row in rep["table"]:
        assert (row["n"], row["k"], row["l"]) == where[row["check"], row["instance_id"]]
    assert any(row["check"] == "moments" and row["l"] == 2 for row in rep["table"])


def test_each_check_alone_gives_its_rows_in_the_full_campaign():
    # every check draws from a stream keyed by the seed and its own name, so
    # which other checks run changes none of its results or table rows
    cfg = CorpusConfig(seed=1, distributions=("rademacher",),
                       kernel_classes=("product", "sym-coeff", "coeff"),
                       nk_pairs=((3, 2), (4, 3)), ls=(1, 2), law_count=3, mc_trials=500)
    full = run_corpus(cfg)
    assert {r["check"] for r in full["results"]} == set(ALL_CHECKS)
    for check in ALL_CHECKS:
        alone = run_corpus(CorpusConfig(**{**vars(cfg), "checks": (check,)}))
        for section in ("results", "table"):
            assert alone[section] == [r for r in full[section] if r["check"] == check], \
                (check, section)


CAPPED = CorpusConfig(distributions=("rademacher",), kernel_classes=("product",),
                      nk_pairs=((4, 2), (7, 2), (5, 5), (13, 2)),
                      checks=("identities", "mazur_orlicz", "lemma2", "moments"))


def test_instances_past_a_check_cap_are_recorded_as_skips():
    rep = run_corpus(CAPPED)
    ran = {(r["check"], r["instance_id"]) for r in rep["results"]}
    assert {i for c, i in ran if c == "identities"} == {"rademacher:product:n4k2",
                                                       "rademacher:product:n5k5"}
    skipped = {(s["check"], s["instance_id"]): s["reason"] for s in rep["summary"]["skipped"]}
    assert skipped == {
        ("identities", "rademacher:product:n7k2"): "n=7 exceeds the identities cap n <= 6",
        ("identities", "rademacher:product:n13k2"): "n=13 exceeds the identities cap n <= 6",
        ("mazur_orlicz", "rademacher:product:n5k5"): "k=5 exceeds the mazur_orlicz cap k <= 4",
        **{(check, f"{prefix}n{n}k{k}"): f"n={n}, k={k} exceeds the sign-chaos cap n <= 12, k <= 3"
           for check, prefix in (("lemma2", ""), ("moments", "rademacher:"))
           for n, k in ((5, 5), (13, 2))}}
    assert not ran & set(skipped)
    assert rep["summary"]["failed"] == 0 and "not_run" not in rep["summary"]


def test_theorem1_constant_is_the_papers_c_k():
    assert [theorem1_constant(k) for k in (1, 2, 3, 4)] == [1.0, 12.0, 624.0, 318240.0]
    assert theorem1_constant(5) > verifier.C_CEILING  # the ceiling binds first from k = 5


def _one_point_law_of(coupled: float, decoupled: float):
    def law_of(spec, dist):  # c_min = coupled / decoupled, binding at the top
        return _law({coupled if spec.mode == "coupled" else decoupled: 1.0})
    return law_of


@pytest.mark.parametrize("direction", ["upper", "lower"])
@pytest.mark.parametrize("c_min, passed", [(12.0 - 1e-6, True), (12.0, True),
                                           (12.0 + 1e-6, False)])
def test_theorem1_passes_only_at_most_c_k(direction, c_min, passed):
    kf = product_kernel(2, 3)  # k = 2: C_2 = 12
    left, right = (c_min, 1.0) if direction == "upper" else (1.0, c_min)
    out, = verifier._search(direction, CorpusConfig(), [("pair", rademacher(), kf)],
                            _one_point_law_of(left, right))
    assert out.detail["c_min"] == pytest.approx(c_min, rel=1e-12)
    assert out.passed is passed


def test_theorem1_upper_fails_a_decoupled_law_scaled_by_1_16(monkeypatch):
    def shrunk_decoupled(spec, dist, budget):
        law = exact_law(spec, dist, budget)
        return DiscreteLaw(law.values / 16, law.probs) if spec.mode == "pattern" else law
    monkeypatch.setattr(verifier, "exact_law", shrunk_decoupled)
    rep = run_corpus(CorpusConfig(seed=1, checks=("theorem1_upper",)))
    failed = {r["k"] for r in rep["results"] if not r["passed"]}
    # at k = 3 the shrunk law needs c_min up to 32, far under C_3 = 624, so the
    # gate leaves this fault unseen there; at k = 2 it needs up to 21.3 > C_2 = 12
    assert failed == {2}
    assert rep["summary"]["empirical_constants"]["upper:k=2"] > 12.0


@pytest.mark.parametrize("budget", [16, 64])
def test_run_corpus_skip_reasons_name_the_larger_law(budget):
    # each skipped search or mc_consistency instance names m^(n * copies) of the
    # law with more copies: n * k for theorem1 and mc_consistency, n * l for lemma3
    cfg = CorpusConfig(enum_budget=budget, mc_trials=500,
                       checks=("theorem1_upper", "theorem1_lower", "lemma3",
                               "mc_consistency"))
    rep = run_corpus(cfg)
    skipped = rep["summary"]["skipped"]
    assert {s["check"] for s in skipped} == set(cfg.checks)
    for s in skipped:
        dist, _, shape = s["instance_id"].split(":")
        m = 2 if dist == "rademacher" else int(dist[len("uniform"):])
        n, k = int(shape[1]), int(shape[3])
        cells = n * int(shape[5]) if s["check"] == "lemma3" else n * k
        assert s["reason"] == (f"{m}^{cells} = {m ** cells} realizations exceeds "
                               f"budget {budget}"), s
    upper = {s["instance_id"]: s["reason"] for s in skipped
             if s["check"] == "theorem1_upper"}
    assert upper["uniform3:product:n3k2"] == (
        f"3^6 = 729 realizations exceeds budget {budget}")


def _reference_holds(lhs, rhs):
    # lhs <= rhs up to 1e-12 of the larger magnitude, at every entry
    return bool(np.all(lhs - rhs <= 1e-12 * np.maximum(np.abs(lhs), np.abs(rhs))))


def _reference_tails(law_l, law_r, c):
    # per-threshold masked tail sums on a dense grid: every positive support
    # point of both laws and every c * w, the points just above and below
    # each, the midpoints between them, and one point below them all
    def masked_tail(law, u):
        return float(law.probs[law.values >= u].sum())

    def tail_tol(law, u):
        return masked_tail(law, u - 1e-9 * max(1.0, abs(u)))

    pts = np.concatenate([law_l.values, law_r.values, c * law_r.values])
    pts = np.unique(pts[pts > 0])
    ts = np.unique(np.concatenate([pts, pts * (1 + 1e-6), pts * (1 - 1e-6),
                                   (pts[1:] + pts[:-1]) / 2, pts[:1] / 2]))
    return (ts, np.array([masked_tail(law_l, t) for t in ts]),
            np.array([c * tail_tol(law_r, t / c) for t in ts]))


def _reference_feasible(law_l, law_r, c):
    return _reference_holds(*_reference_tails(law_l, law_r, c)[1:])


def _law_pairs():
    rng = np.random.default_rng(7)
    for dist in (rademacher(), uniform(3), random_law(rng), random_law(rng)):
        for kf in (product_kernel(2, 3), random_coefficient_kernel(3, 3, seed=1)):
            pattern = tuple(range(kf.k))
            coupled = exact_law(StatisticSpec(kf, "coupled"), dist)
            decoupled = exact_law(StatisticSpec(kf, "pattern", pattern=pattern), dist)
            yield coupled, decoupled
            yield decoupled, coupled
    for _ in range(4):  # laws of |X| for random finite laws X
        law_l, law_r = (random_law(rng) for _ in range(2))
        yield (aggregate_law(np.abs(law_l.values_array()), law_l.probs_array()),
               aggregate_law(np.abs(law_r.values_array()), law_r.probs_array()))


@pytest.mark.parametrize("pair", list(_law_pairs()))
def test_tail_lookup_bit_identical_to_masked_sums(pair):
    law_l, law_r = pair
    # c on a geometric sweep, and at ratios of support points, where t / c lands
    # on a right support point, or just above it within the tail slack
    ratios = np.unique(np.divide.outer(law_l.values, law_r.values[law_r.values > 0]))
    ratios = ratios[(ratios >= 1.0) & (ratios <= verifier.C_CEILING)]
    ratios = ratios[np.linspace(0, ratios.size - 1, min(ratios.size, 20)).astype(int)]
    cs = np.concatenate([np.geomspace(1.0, verifier.C_CEILING, 41), ratios,
                         np.maximum(1.0, ratios * (1 - 7.5e-10))])
    for c in cs.tolist():
        # the suffix-sum slack at the positive left support points equals the
        # masked sums there bit for bit, and no other threshold binds
        ts, lhs, rhs = verifier._tail_rows(law_l, law_r, c)
        slack = lhs - rhs
        ref_ts, ref_lhs, ref_rhs = _reference_tails(law_l, law_r, c)
        at = np.searchsorted(ref_ts, ts)
        assert np.array_equal(ref_ts[at], ts), c
        assert np.array_equal(ref_lhs[at] - ref_rhs[at], slack), c
        assert tails_dominated(law_l, law_r, c) == _reference_holds(ref_lhs, ref_rhs), c
    # the closed-form constant is feasible and minimal under the reference
    res = minimal_constant(law_l, law_r)
    if not res.feasible:  # a right law with no positive point
        assert not _reference_feasible(law_l, law_r, verifier.C_CEILING)
        return
    assert tails_dominated(law_l, law_r, res.c_min)
    assert _reference_feasible(law_l, law_r, res.c_min)
    if res.c_min > 1.0:
        assert not _reference_feasible(law_l, law_r, res.c_min * (1 - 1e-7))


def _law(points):
    return DiscreteLaw(np.array(list(points), dtype=float),
                       np.array(list(points.values()), dtype=float))


def test_minimal_constant_edge_cases():
    # a left law with no positive point needs no constant above 1
    res = minimal_constant(_law({0.0: 1.0}), _law({0.0: 0.5, 1.0: 0.5}))
    assert res.feasible and res.c_min == 1.0 and res.binding is None
    assert res.row is None and res.max_slack == 0.0
    # a right law with no positive point can dominate no positive left tail
    res = minimal_constant(_law({0.0: 0.5, 1.0: 0.5}), _law({0.0: 1.0}))
    assert not res.feasible and np.isnan(res.c_min) and res.binding is None
    assert res.max_slack == 0.0
    # the closed form gives 1e7 here, above the ceiling of 2^20
    right = _law({0.0: 1 - 1e-7, 1.0: 1e-7})
    assert tails_dominated(_law({1.0: 1.0}), right, 1e7)
    res = minimal_constant(_law({1.0: 1.0}), right)
    assert not res.feasible and np.isnan(res.c_min)
    # a right law that dominates with room: c_min is the floor 1, bound by no pair
    res = minimal_constant(_law({0.0: 0.5, 1.0: 0.5}), _law({2.0: 1.0}))
    assert res.feasible and res.c_min == 1.0 and res.binding is None


def test_minimal_constant_binding():
    # left {1: 1/2, 4: 1/2}, right {1: 1/2, 2: 1/2}: the threshold 4 needs
    # max(4 / 2, (1/2) / (1/2)) = 2 at the tops of both supports
    res = minimal_constant(_law({1.0: 0.5, 4.0: 0.5}), _law({1.0: 0.5, 2.0: 0.5}))
    assert res.c_min == 2.0
    assert res.binding == {"v": 4.0, "w": 2.0, "at_top": True}
    assert res.row == verifier.CheckRow(4.0, 0.5, 1.0, True)
    # left {1: 1/2, 2: 1/2}, right {1: 3/4, 8: 1/4}: the threshold 1 needs
    # 1 / rhs_tail(1) = 1, and the threshold 2 needs min(max(2, 1/2), max(1/4, 2)) = 2,
    # reached at w = 1 and at w = 8; ties go to the larger w
    res = minimal_constant(_law({1.0: 0.5, 2.0: 0.5}), _law({1.0: 0.75, 8.0: 0.25}))
    assert res.c_min == 2.0
    assert res.binding == {"v": 2.0, "w": 8.0, "at_top": True}
    # left {2: 1}, right {1: 3/4, 4: 1/4}: the threshold 2 needs
    # min(max(2 / 1, 1 / 1), max(2 / 4, 1 / (1/4))) = 2, below the top of the right
    res = minimal_constant(_law({2.0: 1.0}), _law({1.0: 0.75, 4.0: 0.25}))
    assert res.c_min == 2.0
    assert res.binding == {"v": 2.0, "w": 1.0, "at_top": False}
    # equal laws {1: 1/2, 2: 1/2}: both thresholds need exactly 1; ties go to
    # the larger v
    law = _law({1.0: 0.5, 2.0: 0.5})
    res = minimal_constant(law, law)
    assert res.c_min == 1.0
    assert res.binding == {"v": 2.0, "w": 2.0, "at_top": True}
    # left {1: 1/2, 2: 1/2}, right {1: 1/4, 4: 3/4}: the threshold 1 needs
    # max(1 / 1, 1 / 1) = 1 and the threshold 2 only max(2 / 4, (1/2) / (3/4))
    res = minimal_constant(_law({1.0: 0.5, 2.0: 0.5}), _law({1.0: 0.25, 4.0: 0.75}))
    assert res.c_min == 1.0
    assert res.binding == {"v": 1.0, "w": 1.0, "at_top": False}


def test_minimal_constant_feasible_only_when_confirmed(monkeypatch):
    monkeypatch.setattr(verifier, "tails_dominated", lambda *args: False)
    res = minimal_constant(_law({1.0: 0.5, 4.0: 0.5}), _law({1.0: 0.5, 2.0: 0.5}))
    assert not res.feasible and np.isnan(res.c_min) and res.binding is None


def test_run_corpus_lemma3_scaled_constant():
    # product kernel, k = 2, n = 3, Rademacher: with y_i the sum of row i's two
    # copies, the l = 2 mixed sum is the sum of y_i y_j over i != j; divided by
    # l^k = 4 it is the same sum over z_i = y_i / 2, which is -1, 0, 1 with
    # probabilities 1/4, 1/2, 1/4
    cfg = CorpusConfig(distributions=("rademacher",), kernel_classes=("product",),
                       nk_pairs=((3, 2),), checks=("lemma3",))
    rep = run_corpus(cfg)
    detail = next(r["detail"] for r in rep["results"] if r["l"] == 2)
    z = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=3)))
    probs = np.prod(np.where(z == 0, 0.5, 0.25), axis=1)
    scaled = aggregate_law(np.abs(z.sum(axis=1) ** 2 - (z ** 2).sum(axis=1)), probs)
    coupled = exact_law(StatisticSpec(product_kernel(2, 3), "coupled"), rademacher())
    expected = minimal_constant(scaled, coupled)
    assert detail["c_min_scaled"] == expected.c_min < detail["c_min"]
    assert rep["summary"]["empirical_constants"]["lemma3_scaled:k=2"] >= expected.c_min


def test_run_corpus_searches_through_search_constant(monkeypatch):
    # every constant search result and budget skip is one public search_constant call
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return search_constant(*args, **kwargs)

    monkeypatch.setattr(verifier, "search_constant", counted)
    cfg = CorpusConfig(distributions=("rademacher",), kernel_classes=("product", "coeff"),
                       nk_pairs=((3, 2), (4, 3)), enum_budget=2 ** 10,
                       checks=("theorem1_upper", "theorem1_lower", "lemma3"))
    rep = run_corpus(cfg)
    skipped = rep["summary"]["skipped"]
    assert rep["results"] and skipped
    assert len(calls) == len(rep["results"]) + len(skipped)
    assert set(calls) == {"upper", "lower", "lemma3"}


def test_search_constant_law_of_computes_each_spec_once():
    kf, dist, computed = product_kernel(3, 3), rademacher(), []

    @functools.cache
    def law_of(spec, d):
        computed.append(spec)
        return exact_law(spec, d)

    for direction, l in [("upper", None), ("lower", None),
                         *(("lemma3", l) for l in range(1, kf.k + 1))]:
        assert search_constant(kf, dist, direction, l, law_of=law_of).feasible
    assert len(computed) == len(set(computed)) == kf.k + 2  # coupled, pattern, k mixed
    assert {s.mode for s in computed} == {"coupled", "pattern", "mixed"}


@pytest.mark.parametrize("l", [1, 2, 3])
def test_search_constant_c_min_scaled(l):
    kf, dist = random_coefficient_kernel(3, 3, seed=2, symmetric=True), uniform(3)
    res = search_constant(kf, dist, "lemma3", l)
    mixed = exact_law(StatisticSpec(kf, "mixed", l=l), dist)
    coupled = exact_law(StatisticSpec(kf, "coupled"), dist)
    assert res.c_min == minimal_constant(mixed, coupled).c_min
    assert res.c_min_scaled == minimal_constant(
        DiscreteLaw(mixed.values / l ** kf.k, mixed.probs), coupled).c_min
    for direction in ("upper", "lower"):
        assert search_constant(kf, dist, direction).c_min_scaled is None


@pytest.mark.parametrize("direction, l, cells", [("upper", None, 9), ("lower", None, 9),
                                                 ("lemma3", 2, 6), ("lemma3", 3, 9)])
def test_search_constant_budgeted_law_of_names_the_larger_law(direction, l, cells):
    # both laws exceed a budget of 4; the coupled law has only 2^3 realizations
    law_of = functools.partial(exact_law, budget=4)
    with pytest.raises(BudgetExceededError, match=rf"^2\^{cells} = {2 ** cells} realizations"):
        search_constant(product_kernel(3, 3), rademacher(), direction, l, law_of=law_of)


def test_run_corpus_computes_each_law_once(monkeypatch):
    law_keys, symmetry_keys = [], []

    def counted_law(spec, dist, budget):
        kf = spec.kernel
        law_keys.append((dist, kf.label, kf.n, kf.k, spec.mode, spec.pattern, spec.l))
        return exact_law(spec, dist, budget)

    def counted_symmetry(kf, dist):
        symmetry_keys.append((dist, kf.label, kf.n, kf.k))
        return check_symmetry(kf, dist)

    monkeypatch.setattr(verifier, "exact_law", counted_law)
    monkeypatch.setattr(verifier, "check_symmetry", counted_symmetry)
    cfg = CorpusConfig(distributions=("rademacher", "uniform3"),
                       kernel_classes=("product", "sym-coeff", "coeff"),
                       nk_pairs=((3, 2),), ls=(1, 2), mc_trials=500,
                       checks=("theorem1_upper", "theorem1_lower", "lemma3",
                               "mc_consistency"))
    rep = run_corpus(cfg)
    assert rep["summary"]["failed"] == 0
    assert len(law_keys) == len(set(law_keys))
    symmetric = {(dist, kf.label, kf.n, kf.k)
                 for _, dist, kf in verifier._instances(cfg) if kf.symmetric_claimed}
    # one symmetry test per search that needs one: lower, and lemma3 for l = 1, 2
    assert sorted(symmetry_keys, key=repr) == sorted(list(symmetric) * 3, key=repr)
    assert sum(c["exact_laws"] for c in rep["checks"].values()) == len(law_keys)
