"""Tests of the benchmark itself, on the smoke configs.

Run from the root of the repository:  python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracer import Tracer
from workloads import SMOKE, WORKLOADS

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", sorted(SMOKE))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= sum(SMOKE[workload]["expected"].values())
    declared = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert f"[{workload}] fail_frac = 0 ratio" in proc.stdout


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert set(SMOKE) == set(WORKLOADS)


def test_empty_checkout_fails_without_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "campaign", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _write_report(path, counts, failed=0):
    results = [{"check": c, "passed": True} for c, n in counts.items() for _ in range(n)]
    path.write_text(json.dumps({"config": {}, "results": results, "table": [],
                                "summary": {"total": len(results), "failed": failed}}))


def test_validate_flags_each_problem(tmp_path):
    expected = {"lemma3": 2}
    report = tmp_path / "r.json"
    _write_report(report, expected)
    assert run.validate(0, report, expected)[0] == []
    assert run.validate(1, report, expected)[0] == ["exit code 1"]
    _write_report(report, expected, failed=1)
    assert run.validate(0, report, expected)[0] == ["summary.failed = 1"]
    _write_report(report, {"lemma3": 1})
    assert len(run.validate(0, report, expected)[0]) == 2
    assert run.validate(0, tmp_path / "missing.json", expected)[0]


def test_differing_sections_fail_the_whole_run(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    store = run.Store("key")
    tally = run.Tally({"lemma3": 2})
    tally.add("a", [], {"results": [1]}, store)
    tally.add("b", [], {"results": [2]}, store)
    assert (tally.attempted, tally.failed) == (4, 2)
    store.save()
    later = run.Tally({"lemma3": 2})
    later.add("c", [], {"results": [1]}, run.Store("key"))
    assert later.failed == 0
    later.add("d", [], {"results": [3]}, run.Store("key"))
    assert later.failed == 2


def test_tracer_wraps_names_bound_by_value_and_restores_them():
    sys.path.insert(0, str(run.SRC))
    import decoupling_lab.cli as cli
    from decoupling_lab import prob_engine, randomization, ustat_engine, verifier
    from decoupling_lab.kernel import product_kernel

    originals = (prob_engine.exact_law, verifier.exact_law, cli.run_corpus,
                 randomization.norm, cli.build_kernel)
    with Tracer() as tracer:
        for fn in (prob_engine.exact_law, verifier.exact_law, cli.exact_law,
                   verifier.norm, randomization.norm, cli.run_corpus,
                   cli.build_kernel, randomization.mixed_sum):
            assert fn.__module__ == "tracer"
        kf = product_kernel(2, 3)
        # mixed_sum calls pattern_sum l^k times: one re-entrant span.
        ustat_engine.mixed_sum(kf, [[1.0, -1.0]] * 3, 2)
        counted = verifier.build_kernel("product", 3, 2, seed=0)
        counted.evaluate((0, 1), (1.0, 2.0))
    assert tracer.counts["ustat_engine.calls"] == 1
    assert [s[2] for s in tracer.spans] == ["ustat_engine"]
    assert tracer.counts["kernel.evaluate.calls"] == 1
    assert tracer.missing == []
    assert (prob_engine.exact_law, verifier.exact_law, cli.run_corpus,
            randomization.norm, cli.build_kernel) == originals
