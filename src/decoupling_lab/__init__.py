"""Verification lab for tail-probability decoupling of multivariate U-statistics."""

__version__ = "0.1.0"

from .value_space import DiscreteDistribution, norm, rademacher, uniform
from .kernel import (KernelFamily, check_symmetry, distinct_tuples,
                     mazur_orlicz_coefficient, symmetrize)
from .ustat_engine import (StatisticSpec, mixed_sum, not_all_equal_sum,
                           pattern_sum, symmetrized_decoupled_sum)
from .prob_engine import DiscreteLaw, exact_law, kappa, mc_tail, moment, tail
from .verifier import (ConstantSearchResult, CorpusConfig, InequalityReport,
                       run_corpus, search_constant, verify_lemma1, verify_lemma2,
                       verify_moment_comparison, verify_prop1)

__all__ = [
    "DiscreteDistribution", "norm", "rademacher", "uniform",
    "KernelFamily", "check_symmetry", "distinct_tuples",
    "mazur_orlicz_coefficient", "symmetrize", "mixed_sum", "not_all_equal_sum",
    "pattern_sum", "symmetrized_decoupled_sum", "DiscreteLaw", "StatisticSpec",
    "exact_law", "kappa", "mc_tail", "moment", "tail", "ConstantSearchResult",
    "CorpusConfig", "InequalityReport", "run_corpus", "search_constant",
    "verify_lemma1", "verify_lemma2", "verify_moment_comparison", "verify_prop1",
]
