"""Outside-in tracing of the decoupling_lab package, from the benchmark's own files.

Nothing under src/ knows about tracing.  `Tracer.install()` replaces each traced
public function at every module attribute of the package that is bound to it,
so a name imported by value (`verifier.exact_law`, `cli.run_corpus`,
`randomization.norm`, ...) is wrapped where callers resolve it.  Spans are kept
in memory; `metrics()` turns them into per-layer numbers and `write_spans()`
writes them out once the run has ended.

A span group counts a re-entrant call (for example `mixed_sum` calling
`pattern_sum`) once: the inner call runs inside the outer span.  Kernel
evaluations get counters, not spans, because a run makes more than 10^5 of them.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

MODES = ("coupled", "pattern", "mixed", "not_all_equal", "symmetrized")

# (module, function, span group, counter or None)
SPANNED = (
    ("value_space", "norm", "value_space", "value_space.norm.calls"),
    ("value_space", "batch_norm", "value_space", None),
    ("kernel", "check_symmetry", "kernel.check_symmetry", None),
    ("ustat_engine", "pattern_sum", "ustat_engine", "ustat_engine.calls"),
    ("ustat_engine", "mixed_sum", "ustat_engine", "ustat_engine.calls"),
    ("ustat_engine", "not_all_equal_sum", "ustat_engine", "ustat_engine.calls"),
    ("ustat_engine", "symmetrized_decoupled_sum", "ustat_engine", "ustat_engine.calls"),
    ("prob_engine", "exact_law", "prob_engine.exact_law", "prob_engine.exact_law.calls"),
    ("prob_engine", "evaluate_norms", "prob_engine.evaluate_norms", None),
    ("prob_engine", "mc_tail", "prob_engine.mc_tail", "prob_engine.mc_tail.calls"),
    ("prob_engine", "sample_matrices", "prob_engine.sample_matrices", None),
    ("randomization", "expansion_residual_batch",
     "randomization.expansion_residual_batch",
     "randomization.expansion_residual_batch.calls"),
    ("randomization", "distributional_equality_check",
     "randomization.distributional_equality_check",
     "randomization.distributional_equality_check.calls"),
    ("randomization", "sign_conditional_expectation",
     "randomization.conditional_expectation",
     "randomization.conditional_expectation.calls"),
    ("randomization", "selector_conditional_expectation",
     "randomization.conditional_expectation",
     "randomization.conditional_expectation.calls"),
    ("randomization", "pattern_invariance_spread",
     "randomization.conditional_expectation",
     "randomization.conditional_expectation.calls"),
    ("verifier", "search_constant", "verifier.search_constant",
     "verifier.search_constant.calls"),
    ("verifier", "minimal_constant", "verifier.minimal_constant",
     "verifier.minimal_constant.calls"),
    ("verifier", "mazur_orlicz_exhaustive", "verifier.identity_checks", None),
    ("verifier", "symmetrized_expansion_residual", "verifier.identity_checks", None),
    ("verifier", "run_corpus", "verifier.run_corpus", None),
    ("cli", "run", "cli.run", None),
)

# Counted without a span, so their time stays in the caller's self time.
COUNTED = (
    ("verifier", "tails_dominated", "verifier.tails_dominated.calls"),
)

# Groups whose self time is reported as `<group>.s`; cli.run's is `cli.report_s`.
SELF_TIME_GROUPS = tuple(dict.fromkeys(g for _, _, g, _ in SPANNED if g != "cli.run"))

EXACT_COUNTERS = (
    "kernel.evaluate.calls", "kernel.evaluate.elements",
    "prob_engine.exact_law.realizations", "prob_engine.exact_law.support_points",
    "verifier.tails_dominated.calls",
)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "decoupling_lab"
                                  or name.startswith("decoupling_lab."))]


class Tracer:
    """Spans and counters of one in-process CLI pass.

    With `track_alloc`, allocation tracing runs only inside `exact_law` calls
    and gives `prob_engine.exact_law.peak_alloc_mb`; it slows those calls, so
    the timing pass runs without it.
    """

    def __init__(self, track_alloc: bool = False):
        self.track_alloc = track_alloc
        self.spans = []  # [id, parent id or -1, group, start, end, attrs]
        self.counts = defaultdict(int)
        self.peak_alloc = 0
        self.missing = []
        self._stack = []
        self._depth = defaultdict(int)
        self._patched = []

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        import decoupling_lab.cli  # noqa: F401  (loads every module)

        modules = _package_modules()
        for mod_name, fn_name, group, counter in SPANNED:
            self._patch(modules, mod_name, fn_name,
                        lambda fn, g=group, c=counter: self._spanned(fn, g, c))
        for mod_name, fn_name, counter in COUNTED:
            self._patch(modules, mod_name, fn_name,
                        lambda fn, c=counter: self._counted(fn, c))
        self._patch(modules, "verifier", "build_kernel", self._counting_kernels)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, modules, mod_name, fn_name, make_wrapper) -> None:
        home = sys.modules.get(f"decoupling_lab.{mod_name}")
        original = getattr(home, fn_name, None)
        if original is None:
            self.missing.append(f"{mod_name}.{fn_name}")
            return
        wrapper = make_wrapper(original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _spanned(self, fn, group, counter):
        sig = inspect.signature(fn)
        on_exit = {"prob_engine.exact_law": self._exact_law_exit,
                   "prob_engine.mc_tail": self._mc_tail_exit}.get(group)
        alloc = self.track_alloc and group == "prob_engine.exact_law"

        def wrapper(*args, **kwargs):
            if self._depth[group]:
                return fn(*args, **kwargs)
            self._depth[group] += 1
            if counter:
                self.counts[counter] += 1
            rec = [len(self.spans), self._stack[-1] if self._stack else -1,
                   group, 0.0, 0.0, None]
            self.spans.append(rec)
            self._stack.append(rec[0])
            if alloc:
                tracemalloc.start()
            rec[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                if alloc:
                    self.peak_alloc = max(self.peak_alloc,
                                          tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                self._stack.pop()
                self._depth[group] -= 1
            if on_exit:
                on_exit(rec, sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def _counted(self, fn, counter):
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _counting_kernels(self, build_kernel):
        counts = self.counts

        def wrapper(*args, **kwargs):
            kf = build_kernel(*args, **kwargs)
            evaluate = kf.evaluate

            def counted_evaluate(idx, kernel_args):
                counts["kernel.evaluate.calls"] += 1
                counts["kernel.evaluate.elements"] += np.broadcast(*kernel_args).size
                return evaluate(idx, kernel_args)

            return dataclasses.replace(kf, evaluate=counted_evaluate)

        return wrapper

    def _exact_law_exit(self, rec, arguments, law):
        spec, dist = arguments["spec"], arguments["dist"]
        # Size of the full sample space, whatever the enumeration strategy.
        realizations = dist.size ** (spec.kernel.n * spec.copies_needed)
        rec[5] = {"mode": spec.mode, "realizations": realizations}
        self.counts["prob_engine.exact_law.realizations"] += realizations
        self.counts["prob_engine.exact_law.support_points"] += int(law.values.size)

    def _mc_tail_exit(self, rec, arguments, _estimates):
        rec[5] = {"trials": int(arguments["trials"])}

    # -- results ----------------------------------------------------------

    def self_times(self) -> list:
        """Self time of every span: its duration minus its direct children's."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, _, _, start, end, _) in enumerate(self.spans)]

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of a pass that took `wall_s` end to end."""
        selfs = self.self_times()
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        mode_s = defaultdict(float)
        mode_real = defaultdict(int)
        trials = 0
        for rec, own in zip(self.spans, selfs):
            _, parent, group, start, end, attrs = rec
            self_s[group] += own
            incl_s[group] += end - start
            # attrs stays None when the call raised
            if group == "prob_engine.exact_law" and attrs:
                mode_s[attrs["mode"]] += own
                mode_real[attrs["mode"]] += attrs["realizations"]
            elif group == "prob_engine.mc_tail" and attrs:
                trials += attrs["trials"]
        root_s = sum(end - start for _, parent, _, start, end, _ in self.spans
                     if parent < 0)

        def rate(work, seconds):
            return work / seconds if seconds > 0 else 0.0

        c = self.counts
        names = [n for *_, n in SPANNED + COUNTED if n] + list(EXACT_COUNTERS)
        out = {name: c[name] for name in dict.fromkeys(names)}
        out.update({
            "prob_engine.exact_law.realizations_per_s": rate(
                c["prob_engine.exact_law.realizations"], incl_s["prob_engine.exact_law"]),
            "prob_engine.mc_tail.trials_per_s": rate(trials, incl_s["prob_engine.mc_tail"]),
            "cli.report_s": self_s["cli.run"],
            "trace.untraced_s": wall_s - root_s,
        })
        for group in SELF_TIME_GROUPS:
            out[f"{group}.s"] = self_s[group]
        for mode in MODES:
            out[f"prob_engine.exact_law.{mode}.s"] = mode_s[mode]
            out[f"prob_engine.exact_law.{mode}.realizations"] = mode_real[mode]
        return out

    def exact_counts(self) -> dict:
        return {name: self.counts[name] for name in EXACT_COUNTERS}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, group, start, end, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": group,
                                     "start": start, "end": end,
                                     "attrs": attrs}) + "\n")
