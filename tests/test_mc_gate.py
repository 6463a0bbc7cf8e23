"""The mc_consistency gate: a multinomial relative-entropy bound and its power.

N draws from a law on m points have an empirical law q with
P(N KL(q || p) >= x) <= e^-x (e x / (m - 1))^(m - 1) for x > m - 1 (R. Agrawal,
"Finite-sample concentration of the multinomial in relative entropy", IEEE
Trans. Inf. Theory 2020).  mc_consistency gates each sampled law at the x
where that bound is MC_ALPHA / (laws gated).  The tests check the solver, the
bound itself by simulation, that correct code passes at the seeds where the
old coverage gate failed it, and that planted faults fail it.
"""

import math

import numpy as np
import pytest

from decoupling_lab import prob_engine, ustat_engine, verifier
from decoupling_lab.prob_engine import DiscreteLaw
from decoupling_lab.verifier import (MC_ALPHA, CorpusConfig, _kl_statistic,
                                     _kl_threshold, run_corpus)


def log_bound(x: float, m: int) -> float:
    d = m - 1
    return -x + (d * math.log(math.e * x / d) if d else 0.0)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 30, 200])
def test_threshold_solves_the_bound_above_m_minus_1(m):
    xs = [_kl_threshold(m, level) for level in (0.1, 0.01, 1e-9, 1e-9 / 8, 1e-15)]
    for x, level in zip(xs, (0.1, 0.01, 1e-9, 1e-9 / 8, 1e-15)):
        assert x > m - 1
        assert abs(log_bound(x, m) - math.log(level)) < 1e-9
    assert all(a < b for a, b in zip(xs, xs[1:]))  # a smaller level, a larger x


@pytest.mark.parametrize("delta", [0.1, 0.01])
@pytest.mark.parametrize("probs", [[0.5, 0.5], [0.9, 0.1], [0.2, 0.3, 0.5],
                                   [0.6, 0.1, 0.1, 0.1, 0.1], [0.2] * 5])
def test_simulated_false_alarm_rate_is_at_most_the_level(probs, delta):
    rng = np.random.default_rng(len(probs) * 1000 + int(1 / delta))
    x = _kl_threshold(len(probs), delta)
    for draws in (10, 50, 200):
        counts = rng.multinomial(draws, probs, size=20_000)
        rate = np.mean(_kl_statistic(counts, np.asarray(probs), draws) >= x)
        assert rate <= delta, (draws, rate)


def gate(seed: int = 1) -> dict:
    (result,) = run_corpus(CorpusConfig(seed=seed, checks=("mc_consistency",)))["results"]
    return result


@pytest.mark.parametrize("seed", [30, 53])
def test_default_campaign_passes_where_the_coverage_gate_failed(seed):
    result = gate(seed)
    assert result["passed"]
    assert result["detail"]["alpha"] == MC_ALPHA and result["detail"]["laws"] == 8
    assert result["detail"]["off_support"] == 0 and result["detail"]["worst_ratio"] < 1


def drop_the_constant(monkeypatch):
    cell_tensor = prob_engine._cell_tensor
    monkeypatch.setattr(prob_engine, "_cell_tensor",
                        lambda kf, atoms: (*cell_tensor(kf, atoms)[:2], 0.0))


def read_copy_0_in_every_slot(monkeypatch):
    slot_sum = ustat_engine.slot_sum
    monkeypatch.setattr(ustat_engine, "slot_sum",
                        lambda kf, s, patterns, weights=None:
                        slot_sum(kf, s, [(0,) * kf.k] * len(patterns), weights))


def sample_copy_1_as_copy_0(monkeypatch):
    sample = prob_engine.sample_matrices

    def duplicated(*args):
        s = sample(*args)
        s[..., 1] = s[..., 0]
        return s
    monkeypatch.setattr(prob_engine, "sample_matrices", duplicated)


@pytest.mark.parametrize("fault", [drop_the_constant, read_copy_0_in_every_slot,
                                   sample_copy_1_as_copy_0])
def test_planted_faults_fail_the_gate(monkeypatch, fault):
    fault(monkeypatch)
    result = gate()
    assert not result["passed"]
    assert result["detail"]["off_support"] > 0 or result["detail"]["worst_ratio"] >= 1


def test_a_law_missing_a_support_point_fails_off_support(monkeypatch):
    exact_law = verifier.exact_law

    def short_law(*args, **kwargs):  # the most likely point left out
        law = exact_law(*args, **kwargs)
        keep = np.arange(law.values.size) != np.argmax(law.probs)
        return DiscreteLaw(law.values[keep], law.probs[keep] / law.probs[keep].sum())
    monkeypatch.setattr(verifier, "exact_law", short_law)
    result = gate()
    assert not result["passed"] and result["detail"]["off_support"] > 0
