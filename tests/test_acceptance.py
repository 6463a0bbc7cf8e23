"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import functools
import json
import time

import numpy as np
import pytest

from decoupling_lab import kernel as km
from decoupling_lab import prob_engine as pe
from decoupling_lab import randomization as rz
from decoupling_lab import ustat_engine as ue
from decoupling_lab import verifier as vf
from decoupling_lab.cli import parse_config, run
from decoupling_lab.value_space import rademacher, uniform
from decoupling_lab.verifier import CorpusConfig

TOL = 1e-12
LAW_2_22 = functools.partial(pe.exact_law, budget=2 ** 22)  # the searches' law_of


def _report(criterion, passed, start, detail=""):
    status = "PASS" if passed else "FAIL"
    elapsed = time.perf_counter() - start
    print(f"[{status}] criterion {criterion} ({elapsed:.1f}s) {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


def _identity_corpus():
    """>= 50 instances: k in {2,3}, n in {3..6}, Rademacher and uniform(3)."""
    dists = [("rademacher", rademacher()), ("uniform3", uniform(3))]
    for k in (2, 3):
        for n in (3, 4, 5, 6):
            for dist_name, dist in dists:
                yield dist_name, dist, km.product_kernel(k, n)
                yield dist_name, dist, km.affine_product_kernel(k, n, c=1.0)
                yield dist_name, dist, km.random_coefficient_kernel(
                    k, n, seed=10 * n + k, symmetric=True)
                yield dist_name, dist, km.random_coefficient_kernel(
                    k, n, seed=20 * n + k)


def test_criterion_1_expansion_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst, count = 0.0, 0
    for _, dist, kf in _identity_corpus():
        s = pe.sample_matrices(dist, kf.n, 2, 1, rng)[0]
        res, _ = rz.expansion_residual_batch(kf, s, rz.all_sign_vectors(kf.n))  # every target
        worst = max(worst, float(np.max(res)))
        count += 1
    _report(1, count >= 50 and worst <= TOL, start,
            f"instances={count}, max residual={worst:.2e}")


def test_criterion_2_conditional_expectations():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst, count = 0.0, 0
    for _, dist, kf in _identity_corpus():
        s = pe.sample_matrices(dist, kf.n, 3, 1, rng)[0]
        _, ces = rz.expansion_residual_batch(kf, s[:, :2], rz.all_sign_vectors(kf.n))
        worst = max(worst, rz.pattern_invariance_spread(ces, ue.mixed_sum(kf, s[:, :2], 2)))
        for l in (1, 2, 3):
            ce = np.asarray(rz.selector_conditional_expectation(kf, s, l))
            target = np.asarray(ue.mixed_sum(kf, s, l)) / float(l ** kf.k)
            worst = max(worst, float(np.max(np.abs(ce - target))))
        count += 1
    _report(2, count >= 50 and worst <= TOL, start,
            f"instances={count}, max deviation={worst:.2e}")


def test_criterion_3_mazur_orlicz():
    start = time.perf_counter()
    coeff_ok = vf.mazur_orlicz_exhaustive(6)
    rng = np.random.default_rng(2)
    worst = 0.0
    for k in (2, 3, 4):
        n = k + 1
        for kf in (km.product_kernel(k, n),
                   km.random_coefficient_kernel(k, n, seed=k, symmetric=True)):
            s = rng.normal(size=(n, k))
            worst = max(worst, vf.symmetrized_expansion_residual(kf, s))
    _report(3, coeff_ok and worst <= TOL, start,
            f"coefficients exhaustive k<=6: {coeff_ok}, "
            f"expansion residual={worst:.2e}")


def test_criterion_4_distributional_equality():
    start = time.perf_counter()
    cases = [
        (rademacher(), 2, "sign", None), (rademacher(), 3, "sign", None),
        (rademacher(), 4, "sign", None), (uniform(3), 2, "sign", None),
        (uniform(3), 3, "sign", None),
        (rademacher(), 2, "selector", 2), (rademacher(), 3, "selector", 2),
        (rademacher(), 3, "selector", 3), (rademacher(), 2, "selector", 3),
        (uniform(3), 2, "selector", 2), (uniform(3), 3, "selector", 2),
        (uniform(3), 2, "selector", 3),
    ]
    ok = True
    for dist, n, coupling, l in cases:
        cells = 2 * n if coupling == "sign" else n * l
        rand = 2 ** n if coupling == "sign" else l ** n
        assert dist.size ** cells * rand <= 2 ** 20
        ok &= rz.distributional_equality_check(
            dist, n, coupling, l if l else 2, budget=2 ** 20)
    _report(4, ok, start, f"cases={len(cases)}")


def test_criterion_5_lemma1():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    failures = 0
    for i in range(100):
        law = vf.random_law(rng, dim=1 if i < 50 else 2)
        if not vf.verify_lemma1(law).passed:
            failures += 1
    _report(5, failures == 0, start, f"laws=100, failures={failures}")


def test_criterion_6_prop1():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    a_values = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0,
                0.1, 0.75, 1.25, 1.75, 2.25, 2.75, 3.5, 4.5, 6.0, 10.0]
    failures = 0
    for _ in range(100):
        law = vf.random_mean_zero_law(rng)
        for a in a_values:
            if not vf.verify_prop1(a, law).passed:
                failures += 1
    kappa_rad = pe.kappa(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    _report(6, failures == 0 and kappa_rad == 1.0, start,
            f"failures={failures}, kappa(Rademacher)={kappa_rad}")


def test_criterion_7_lemma2():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    min_prob = {}
    ok = True
    for k in (1, 2, 3):
        for n in (4, 8, 12):
            for i in range(4):
                coeffs = vf.random_chaos_coefficients(rng, n, k)
                x = float(rng.integers(1, 4))
                prob, rep = vf.verify_lemma2(coeffs, x, n)
                ok &= rep.passed and prob > 0.0
                min_prob[k] = min(min_prob.get(k, 1.0), prob)
    detail = ", ".join(f"c_{k}^-1 >= {p:.4f}" for k, p in sorted(min_prob.items()))
    _report(7, ok, start, f"empirical {detail}")


def test_criterion_8_moment_comparisons():
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    ok = True
    for k in (1, 2, 3):
        for n in (4, 6, 8):
            for i in range(4):
                coeffs = vf.random_chaos_coefficients(rng, n, k)
                rep = vf.verify_moment_comparison(coeffs, n, k, "rademacher")
                ok &= rep.passed
    _report(8, ok, start, "ratio <= 3^(k/2) and L2 <= c^2 L1 on all instances")


def _constant_search_corpus():
    cases = []
    for dist_name, dist in (("rademacher", rademacher()), ("uniform3", uniform(3))):
        for n, k in ((3, 2), (4, 2), (5, 2), (3, 3), (4, 3), (5, 3)):
            if dist.size ** (n * k) > 2 ** 21:
                continue
            kernels = [km.product_kernel(k, n),
                       km.affine_product_kernel(k, n, c=1.0),
                       km.random_coefficient_kernel(k, n, seed=n + k,
                                                    symmetric=True),
                       km.random_coefficient_kernel(k, n, seed=n + k)]
            for kf in kernels:
                cases.append((dist_name, dist, kf))
    return cases


def test_criterion_9_theorem1_constant_search():
    start = time.perf_counter()
    ok = True
    worst = {}
    for dist_name, dist, kf in _constant_search_corpus():
        res = vf.search_constant(kf, dist, "upper", law_of=LAW_2_22)
        ok &= res.feasible and res.c_min < 2 ** 20
        key = ("upper", kf.k)
        worst[key] = max(worst.get(key, 1.0), res.c_min)
        if kf.symmetric_claimed:
            res = vf.search_constant(kf, dist, "lower", law_of=LAW_2_22)
            ok &= res.feasible and res.c_min < 2 ** 20
            key = ("lower", kf.k)
            worst[key] = max(worst.get(key, 1.0), res.c_min)
    hand = vf.search_constant(km.product_kernel(2, 2), rademacher(), "upper")
    ok &= abs(hand.c_min - 2.0) <= 1e-3
    detail = ", ".join(f"{d}:k={k} C={c:.3f}" for (d, k), c in sorted(worst.items()))
    _report(9, ok, start, f"hand instance c_min={hand.c_min:.5f}; {detail}")


def test_criterion_10_lemma3():
    start = time.perf_counter()
    ok = True
    for dist_name, dist, kf in _constant_search_corpus():
        if not kf.symmetric_claimed or kf.n > 4:
            continue
        for l in range(1, kf.k + 1):
            if dist.size ** (kf.n * l) > 2 ** 21:
                continue
            res = vf.search_constant(kf, dist, "lemma3", l=l, law_of=LAW_2_22)
            ok &= res.feasible and res.c_min < 2 ** 20
    _report(10, ok, start, "lemma3 feasible for all l in 1..k")


def test_criterion_11_mc_consistency():
    # mc_consistency's rule, _mc_counts per law and then _mc_gate, on 100 laws
    start = time.perf_counter()
    sampled = []
    modes = [("coupled", None), ("pattern", None), ("mixed", 2)]
    dists = [rademacher(), uniform(3)]
    seeds = 0
    while len(sampled) < 100:
        for (n, k) in ((3, 2), (4, 2), (3, 3)):
            for dist in dists:
                for mode, l in modes:
                    if len(sampled) >= 100:
                        break
                    kf = km.random_coefficient_kernel(k, n, seed=seeds,
                                                      symmetric=(seeds % 2 == 0))
                    seeds += 1
                    if mode == "pattern":
                        spec = pe.StatisticSpec(kf, "pattern",
                                                pattern=tuple(range(k)))
                    elif mode == "mixed":
                        spec = pe.StatisticSpec(kf, "mixed", l=l)
                    else:
                        spec = pe.StatisticSpec(kf, "coupled")
                    law = pe.exact_law(spec, dist, budget=2 ** 22)
                    counts = pe._mc_counts(spec, dist, law, 100_000, 1000 + len(sampled))
                    sampled.append((law, counts))
    passed, detail = vf._mc_gate(sampled, 100_000)
    _report(11, detail["laws"] == 100 and passed, start,
            f"laws={detail['laws']}, off support={detail['off_support']}, "
            f"worst G/threshold={detail['worst_ratio']:.3f} at alpha={detail['alpha']}")


def test_criterion_12_cli_determinism():
    start = time.perf_counter()
    small = {
        "seed": 0,
        "corpus": {"distributions": ["rademacher"], "nk_pairs": [[3, 2], [4, 2]],
                   "law_count": 5},
        "budgets": {"enumeration": 2 ** 20, "mc_trials": 1000},
    }
    cfg, _ = parse_config(json.dumps(small))
    rep_a, code_a = run(cfg)
    rep_b, code_b = run(cfg)
    sections = lambda r: json.dumps(
        {k: r[k] for k in ("config", "results", "summary", "table")},
        sort_keys=True).encode()
    identical = sections(rep_a) == sections(rep_b)

    default_report, default_code = run(CorpusConfig())
    _report(12, identical and code_a == code_b == 0 and default_code == 0, start,
            f"identical sections={identical}, default exit={default_code}")
