"""Workload definitions: CLI configs and the per-check result counts they must give.

Each workload is one `decoupling-lab verify` call.  `config` is the JSON
config passed with `--config` (None means the CLI's default campaign), and
`expected` is the number of results per check that a correct run reports.
The counts depend only on the corpus shape, never on the seed, so they are
fixed here and checked on every run.  The smoke variants are tiny versions of
the same calls for the benchmark's own tests; they are not measured.
"""

CHECKS = ("identities", "mazur_orlicz", "distributional", "lemma1", "prop1",
          "lemma2", "moments", "theorem1_upper", "theorem1_lower", "lemma3",
          "mc_consistency")

WORKLOADS = {
    # The run users make: the default campaign, many small exact laws.
    "campaign": {
        "config": None,
        "expected": {"identities": 24, "mazur_orlicz": 19, "distributional": 12,
                     "lemma1": 25, "prop1": 100, "lemma2": 15, "moments": 11,
                     "theorem1_upper": 24, "theorem1_lower": 18, "lemma3": 42,
                     "mc_consistency": 1},
    },
    # One 2^18-realization mixed law (n=6, k=3, l=3): enumeration throughput
    # and peak memory, with no per-instance overhead.
    "big_mixed_law": {
        "config": {"seed": 0,
                   "corpus": {"distributions": ["rademacher"],
                              "kernel_classes": ["sym-coeff"],
                              "nk_pairs": [[6, 3]], "ls": [3]},
                   "checks": ["lemma3"]},
        "expected": {"lemma3": 3},
    },
    # Randomization identities and Monte Carlo on single samples, including
    # the callable first-arg kernel; no constant search.
    "identities_mc": {
        "config": {"seed": 0,
                   "corpus": {"distributions": ["rademacher", "uniform3", "uniform4"],
                              "kernel_classes": ["product", "affine", "sym-coeff",
                                                 "coeff", "first-arg"],
                              "nk_pairs": [[4, 2], [5, 2], [5, 3], [6, 3]],
                              "ls": [1, 2, 3]},
                   "budgets": {"mc_trials": 100000, "enumeration": 1048576},
                   "checks": ["identities", "mazur_orlicz", "distributional",
                              "mc_consistency"]},
        "expected": {"identities": 60, "mazur_orlicz": 37, "distributional": 17,
                     "mc_consistency": 1},
    },
}

SMOKE = {
    "campaign": {
        "config": {"seed": 0,
                   "corpus": {"distributions": ["rademacher"],
                              "kernel_classes": ["product", "sym-coeff"],
                              "nk_pairs": [[3, 2]], "ls": [1, 2], "law_count": 2},
                   "budgets": {"mc_trials": 1000}},
        "expected": {"identities": 2, "mazur_orlicz": 3, "distributional": 4,
                     "lemma1": 2, "prop1": 8, "lemma2": 5, "moments": 4,
                     "theorem1_upper": 2, "theorem1_lower": 2, "lemma3": 4,
                     "mc_consistency": 1},
    },
    "big_mixed_law": {
        "config": {"seed": 0,
                   "corpus": {"distributions": ["rademacher"],
                              "kernel_classes": ["sym-coeff"],
                              "nk_pairs": [[3, 2]], "ls": [2]},
                   "checks": ["lemma3"]},
        "expected": {"lemma3": 2},
    },
    "identities_mc": {
        "config": {"seed": 0,
                   "corpus": {"distributions": ["rademacher", "uniform3"],
                              "kernel_classes": ["product", "first-arg"],
                              "nk_pairs": [[3, 2]], "ls": [1, 2]},
                   "budgets": {"mc_trials": 1000, "enumeration": 4096},
                   "checks": ["identities", "mazur_orlicz", "distributional",
                              "mc_consistency"]},
        "expected": {"identities": 4, "mazur_orlicz": 3, "distributional": 8,
                     "mc_consistency": 1},
    },
}
