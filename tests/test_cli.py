import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import decoupling_lab
from decoupling_lab import cli, prob_engine, randomization, ustat_engine, verifier
from decoupling_lab.cli import main, parse_config, run
from decoupling_lab.errors import ValidationError
from decoupling_lab.prob_engine import exact_law
from decoupling_lab.ustat_engine import MODES, StatisticSpec
from decoupling_lab.value_space import uniform
from decoupling_lab.verifier import ALL_CHECKS


@pytest.fixture
def no_campaign(monkeypatch):
    def refuse(cfg):
        raise AssertionError("a check ran")
    monkeypatch.setattr(cli, "run_corpus", refuse)


SMALL_CONFIG = {
    "seed": 0,
    "corpus": {
        "distributions": ["rademacher"],
        "kernel_classes": ["product", "coeff"],
        "nk_pairs": [[3, 2]],
        "ls": [1, 2],
        "law_count": 5,
    },
    "budgets": {"enumeration": 2 ** 20, "mc_trials": 500},
    "checks": ["identities", "lemma1", "prop1", "theorem1_upper"],
}


def test_parse_config_minimal_defaults():
    cfg, out = parse_config('{"seed": 3}')
    assert cfg.seed == 3
    assert cfg.checks == ALL_CHECKS
    assert out is None


def test_parse_config_rejects_bad_pair():
    with pytest.raises(ValidationError, match="n=2, k=3"):
        parse_config('{"corpus": {"nk_pairs": [[2, 3]]}}')


def test_parse_config_rejects_unknown_field():
    with pytest.raises(ValidationError, match="bogus"):
        parse_config('{"bogus": 1}')
    with pytest.raises(ValidationError, match="corpus"):
        parse_config('{"corpus": {"bogus": 1}}')


def test_parse_config_check_selection():
    cfg, _ = parse_config('{"checks": ["lemma1", "theorem1_upper"]}')
    assert cfg.checks == ("lemma1", "theorem1_upper")
    with pytest.raises(ValidationError, match="unknown check"):
        parse_config('{"checks": ["lemma99"]}')


def test_run_exit_codes(tmp_path):
    cfg, _ = parse_config(json.dumps(SMALL_CONFIG))
    report, code = run(cfg, str(tmp_path / "report.json"))
    assert code == 0
    assert report["summary"]["failed"] == 0
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "report.csv").exists()


def test_run_deterministic(tmp_path):
    cfg, _ = parse_config(json.dumps(SMALL_CONFIG))
    rep_a, _ = run(cfg)
    rep_b, _ = run(cfg)
    numeric = lambda r: json.dumps(
        {k: r[k] for k in ("config", "results", "summary", "table")},
        sort_keys=True)
    assert numeric(rep_a) == numeric(rep_b)


def test_meta_records_per_check_timing():
    cfg, _ = parse_config(json.dumps(SMALL_CONFIG))
    report, _ = run(cfg)
    checks = report["meta"]["checks"]
    assert set(checks) == set(cfg.checks)
    for entry in checks.values():
        assert set(entry) == {"wall_s", "exact_laws"}
        assert entry["wall_s"] >= 0.0
    # coupled and decoupled law of the product and coeff instances
    assert checks["theorem1_upper"]["exact_laws"] == 4
    assert checks["identities"]["exact_laws"] == 0


def test_identity_residual_forces_failure(monkeypatch):
    monkeypatch.setattr(randomization, "pattern_invariance_spread", lambda *_: 1e-9)
    cfg, _ = parse_config(json.dumps({**SMALL_CONFIG, "checks": ["identities"]}))
    report, code = run(cfg)
    assert code == 1
    assert report["summary"]["failed"] > 0


def _nan_in_batch(part, index):
    """Plant a NaN at `index` of the residuals (part 0) or the means (part 1)
    that `expansion_residual_batch` returns."""
    def plant(batch):
        def planted(*args):
            out = [a.copy() for a in batch(*args)]
            out[part][index] = np.nan
            return tuple(out)
        return planted
    return plant


@pytest.mark.parametrize("module, name, plant", [
    (randomization, "selector_conditional_expectation", lambda f: lambda *a: f(*a) * np.nan),
    (ustat_engine, "not_all_equal_sum", lambda f: lambda *a: f(*a) * np.nan),
    (randomization, "expansion_residual_batch", _nan_in_batch(1, 1)),
    (randomization, "expansion_residual_batch", _nan_in_batch(0, (-1, -1))),
], ids=["selector", "partition", "sign_means_row1", "residual_entry"])
def test_identity_nan_residual_fails_the_instance(monkeypatch, module, name, plant):
    """A NaN in any residual source fails `identities` with a NaN max_residual."""
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    cfg = verifier.CorpusConfig(seed=2, distributions=("rademacher",),
                                kernel_classes=("product",), nk_pairs=((3, 2),),
                                checks=("identities",))
    [result] = verifier.run_corpus(cfg)["results"]
    assert result["instance_id"] == "rademacher:product:n3k2"
    assert not result["passed"]
    assert np.isnan(result["detail"]["max_residual"])


def test_cli_verify_subcommand(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(SMALL_CONFIG))
    code = main(["verify", "--config", str(cfg_path),
                 "--out", str(tmp_path / "r.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "checks passed" in out


def test_cli_config_error_exit_2(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text('{"bogus": 1}')
    assert main(["verify", "--config", str(cfg_path)]) == 2
    assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 2


def test_cli_budget_error_exit_3():
    assert main(["oracle", "--n", "6", "--k", "3", "--dist", "uniform4",
                 "--mode", "pattern", "--budget", "100"]) == 3


def test_cli_oracle(tmp_path, capsys):
    code = main(["oracle", "--n", "2", "--k", "2", "--mode", "pattern"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["values"] == [0.0, 2.0]
    assert payload["probs"] == [0.5, 0.5]


@pytest.mark.parametrize("mode", MODES)
def test_cli_oracle_prints_exact_law_of_each_mode(capsys, mode):
    assert main(["oracle", "--n", "3", "--k", "2", "--mode", mode,
                 "--dist", "uniform3", "--kernel", "coeff", "--seed", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    kf = verifier.build_kernel("coeff", 3, 2, seed=4)
    args = {"pattern": {"pattern": (0, 1)}, "mixed": {"l": 2}}.get(mode, {})
    law = exact_law(StatisticSpec(kf, mode, **args), uniform(3))
    assert payload == {"values": law.values.tolist(), "probs": law.probs.tolist()}


@pytest.mark.parametrize("argv, message", [
    (["--n", "2", "--k", "3"], "k=3 exceeds n=2"),
    (["--n", "2", "--k", "2", "--budget", "0"], "enumeration budget must be positive"),
    (["--n", "2", "--k", "2", "--budget", "-1"], "enumeration budget must be positive"),
    # NumPy would raise "expected non-negative integer" and exit 1, the failed-check code
    (["--kernel", "sym-coeff", "--n", "3", "--k", "2", "--seed", "-1"],
     "seed must be >= 0, got -1"),
])
def test_cli_oracle_refuses_bad_input_with_exit_2(capsys, argv, message):
    assert main(["oracle", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_cli_oracle_bad_l_exits_2(capsys):
    assert main(["oracle", "--n", "3", "--k", "2", "--mode", "mixed", "--l", "0"]) == 2
    assert "l must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("config, key", [
    ({"corpus": {"law_count": "x"}}, "corpus.law_count"),
    ({"corpus": {"nk_pairs": [[3]]}}, "corpus.nk_pairs"),
    ({"budgets": {"enumeration": 2.7}}, "budgets.enumeration"),
    # True == 1 in Python, but a JSON boolean is no integer
    ({"seed": True}, "seed"),
    ({"corpus": {"nk_pairs": [[3, True]]}}, "corpus.nk_pairs"),
    ({"corpus": {"nk_pairs": [[False, 2]]}}, "corpus.nk_pairs"),
    ({"corpus": {"ls": [1, True]}}, "corpus.ls"),
    ({"corpus": {"law_count": True}}, "corpus.law_count"),
    ({"budgets": {"enumeration": True}}, "budgets.enumeration"),
    ({"budgets": {"mc_trials": True}}, "budgets.mc_trials"),
])
def test_cli_malformed_config_value_exits_2(tmp_path, capsys, config, key):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**config, "checks": ["prop1"]}))
    assert main(["verify", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"configuration error: {key}: invalid value" in captured.err


def test_parse_config_accepts_values_that_convert_unchanged():
    cfg, _ = parse_config(json.dumps({"corpus": {"law_count": 3.0, "ls": [2]}}))
    assert (cfg.law_count, cfg.ls) == (3, (2,))
    for bad in ({"corpus": {"distributions": "rademacher"}},
                {"corpus": {"distributions": [["rademacher"]]}},
                {"corpus": {"nk_pairs": [[3, 2, 1]]}}, {"corpus": {"norm": 1}}):
        with pytest.raises(ValidationError, match="invalid value"):
            parse_config(json.dumps(bad))


def test_cli_lists_distributional_skip_over_its_budget(tmp_path, capsys):
    # uniform4 selector coupling at n=3, l=3: 4^9 sample matrices times 3^3
    # choice vectors exceed the check's 2^20 joint assignments
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"corpus": {"distributions": ["uniform4"],
                                               "ls": [3]},
                                    "checks": ["distributional"]}))
    out = tmp_path / "r.json"
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert (captured.out.splitlines()[-1]
            == "3/3 checks passed, 1 instance skipped over a budget or size cap")
    summary = json.loads(out.read_text())["summary"]
    assert summary["skipped"] == [{
        "check": "distributional", "instance_id": "uniform4:selector:n3l3",
        "reason": "7077888 joint assignments exceed budget 1048576"}]


def test_a_broken_exact_law_invariant_is_a_failed_result(monkeypatch, tmp_path, capsys):
    # count vectors without their multinomial factor: a mixed law of mass below 1
    count_vectors = prob_engine._count_vectors

    def unweighted(probs, l):
        counts, _ = count_vectors(probs, l)
        return counts, np.prod(probs ** counts, axis=1)
    monkeypatch.setattr(prob_engine, "_count_vectors", unweighted)
    out = tmp_path / "r.json"
    assert main(["verify", "--seed", "1", "--out", str(out)]) == 1
    assert "267/291 checks passed" in capsys.readouterr().out
    results = json.loads(out.read_text())["results"]
    assert len(results) == 291  # each broken law fails alone; the check goes on
    assert sum(r["check"] == "lemma3" for r in results) == 42
    failed = [r for r in results if not r["passed"]]
    assert len(failed) == 24
    for r in failed:  # each under its own lemma3 id, l >= 2, naming its mixed law
        _, label, shape = r["instance_id"].split(":")
        n, k, l = map(int, re.fullmatch(r"n(\d)k(\d)l(\d)", shape).groups())
        assert r["check"] == "lemma3" and l >= 2
        assert list(r["detail"]) == ["error"]
        assert re.fullmatch(rf"exact mixed law of {re.escape(label)} at n={n}, k={k} "
                            r"has total mass 0\.\d+", r["detail"]["error"])


def test_cli_identities_subcommand(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**SMALL_CONFIG, "checks": ["identities"]}))
    assert main(["identities", "--config", str(cfg_path)]) == 0


def test_cli_import_skips_scipy_stats():
    # importing the CLI does not load scipy.stats, and neither does a kappa call
    src = str(Path(decoupling_lab.__file__).resolve().parents[1])
    code = ("import sys, decoupling_lab.cli; from decoupling_lab import kappa; "
            "kappa([-1, 0, 1], [0.25, 0.5, 0.25]); "
            "print('scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "False"


def test_verify_with_mc_consistency_never_imports_scipy(tmp_path):
    # mc_consistency gates its draws with math and NumPy alone, and neither a small
    # campaign nor the default one imports numpy.ma (np.unique would, on its first call)
    src = str(Path(decoupling_lab.__file__).resolve().parents[1])
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**SMALL_CONFIG, "checks": ["lemma1", "mc_consistency"]}))
    for argv in (["verify", "--config", str(cfg_path)], ["verify", "--seed", "1"]):
        code = ("import sys; from decoupling_lab.cli import main; "
                f"code = main({argv!r}); "
                "print(code, 'scipy' in sys.modules, 'numpy.ma' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert out.stdout.splitlines()[-1] == "0 False False", argv


# theorem1_lower is not defined on an asymmetric kernel, so this corpus empties it
ASYMMETRIC_ONLY = {"corpus": {"kernel_classes": ["coeff"]}}


def test_cli_check_emptied_by_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**ASYMMETRIC_ONLY, "checks": ["theorem1_lower"]}))
    out = tmp_path / "r.json"
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "0/0 checks passed" in captured.out
    assert "not run: theorem1_lower" in captured.err
    summary = json.loads(out.read_text())["summary"]
    assert summary["not_run"] == {"theorem1_lower": verifier.NOT_RUN_CONFIG}
    assert "skipped" not in summary


def test_cli_check_emptied_by_its_size_cap_exits_3(tmp_path, capsys):
    # every n = 7 instance is past the identities cap: each is a skip, not silence
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"corpus": {"nk_pairs": [[7, 2]]},
                                    "checks": ["identities"]}))
    out = tmp_path / "r.json"
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "0/0 checks passed, 8 instances skipped over a budget or size cap" in captured.out
    assert ("skipped: identities rademacher:product:n7k2: "
            "n=7 exceeds the identities cap n <= 6") in captured.err
    summary = json.loads(out.read_text())["summary"]
    assert summary["not_run"] == {"identities": verifier.NOT_RUN_BUDGET}
    assert len(summary["skipped"]) == 8


def test_meta_times_every_requested_check():
    # a check that yields nothing still gets its timing entry, and not_run is
    # read from the results, not from meta
    cfg, _ = parse_config(json.dumps({**ASYMMETRIC_ONLY,
                                      "checks": ["theorem1_lower", "lemma1"]}))
    report, code = run(cfg)
    assert code == 2
    checks = report["meta"]["checks"]
    assert set(checks) == {"theorem1_lower", "lemma1"}
    assert checks["theorem1_lower"]["exact_laws"] == 0
    assert checks["theorem1_lower"]["wall_s"] >= 0
    assert report["summary"]["not_run"] == {"theorem1_lower": verifier.NOT_RUN_CONFIG}


@pytest.mark.parametrize("corpus, field", [
    ({"norm": "bogus", "law_count": 2}, "norm"),
    ({"distributions": ["uniformx"]}, "distribution"),
    ({"kernel_classes": ["bogus"]}, "kernel class"),
])
def test_cli_unknown_corpus_name_exits_2_before_any_check(tmp_path, capsys, corpus,
                                                           field):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"corpus": corpus, "checks": ["prop1", "lemma2"]}))
    out = tmp_path / "r.json"
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert "configuration error" in captured.err and field in captured.err


@pytest.mark.parametrize("output", [1, 7])
def test_parse_config_rejects_non_string_output(output):
    with pytest.raises(ValidationError, match="output"):
        parse_config(json.dumps({"output": output}))


def test_cli_integer_output_exits_2_writing_nothing(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"output": 1, "checks": ["prop1"],
                                    "corpus": {"law_count": 1}}))
    assert main(["verify", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "configuration error: output" in captured.err


def test_cli_ls_below_1_exits_2_before_any_check(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"corpus": {"ls": [0]},
                                    "checks": ["lemma1", "identities"]}))
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. NumPy's "Mean of empty slice"
        assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert "configuration error" in captured.err and "ls" in captured.err
    with pytest.raises(ValidationError, match="ls"):
        verifier.CorpusConfig(ls=(2, 0))


@pytest.mark.parametrize("config, flags, message", [
    ({"budgets": {"mc_trials": 50}}, [], "mc_trials must be >= 100"),
    ({}, ["--trials", "99"], "mc_trials must be >= 100"),
    ({"corpus": {"law_count": 0}}, [], "law_count must be >= 1"),
    ({"tolerances": {"identity": 1e300}}, [], "['tolerances']"),
    ({"checks": ["lemma1", "theorem1-upper"]}, [], "'theorem1-upper'"),
    ({}, ["--checks", "lemma1,theorem1-upper"], "'theorem1-upper'"),
    ({"seed": -2}, [], "seed must be >= 0, got -2"),
    ({}, ["--seed", "-1"], "seed must be >= 0, got -1"),
    ({"checks": []}, [], "checks: the check list is empty"),
], ids=["mc_trials", "trials-flag", "law_count", "tolerances", "hyphen-config",
        "hyphen-flag", "negative-seed", "negative-seed-flag", "empty-checks"])
def test_cli_rejected_config_exits_2_before_any_check(tmp_path, capsys, no_campaign,
                                                      config, flags, message):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"checks": ["lemma1", "mc_consistency"], **config}))
    out = tmp_path / "r.json"
    assert main(["verify", "--config", str(cfg_path), "--out", str(out), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert "configuration error" in captured.err and message in captured.err


@pytest.mark.parametrize("config, flags, message", [
    ({}, ["--out", "r.csv"], "'r.csv' is where the CSV table is written"),
    ({"output": "r.csv"}, [], "'r.csv' is where the CSV table is written"),
    ({}, ["--out", ""], "the report path is empty"),
    ({"output": ""}, [], "the report path is empty"),
    ({"output": "r.json"}, ["--out", ""], "the report path is empty"),
    ({}, ["--out", "missing/r.json"], "the directory of 'missing/r.json' does not exist"),
    ({"output": "missing/r.json"}, [], "the directory of 'missing/r.json' does not exist"),
    ({}, ["--out", "taken"], "'taken' is a directory"),
    ({"output": "taken"}, [], "'taken' is a directory"),
    ({}, ["--out", "taken.json"], "'taken.csv' is a directory"),
], ids=["csv-flag", "csv-config", "empty-flag", "empty-config", "empty-flag-over-config",
        "missing-dir-flag", "missing-dir-config", "directory-flag", "directory-config",
        "table-directory"])
def test_cli_refused_report_path_exits_2_before_any_check(tmp_path, capsys, monkeypatch,
                                                         no_campaign, config, flags,
                                                         message):
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps({"checks": ["prop1"], **config}))
    Path("taken").mkdir()
    Path("taken.csv").mkdir()
    assert main(["verify", "--config", "config.json", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert sorted(os.listdir()) == ["config.json", "taken", "taken.csv"]
    assert os.listdir("taken") == os.listdir("taken.csv") == []
    assert f"configuration error: output: {message}" in captured.err


@pytest.mark.parametrize("path, message", [
    ("", "the report path is empty"),
    ("missing/x.json", "the directory of 'missing/x.json' does not exist"),
    ("taken", "'taken' is a directory"),
], ids=["empty", "missing-dir", "directory"])
def test_cli_oracle_refused_report_path_exits_2_before_the_law(tmp_path, capsys,
                                                               monkeypatch, path, message):
    def refuse(*args):
        raise AssertionError("the law was computed")

    monkeypatch.setattr(cli, "exact_law", refuse)
    monkeypatch.chdir(tmp_path)
    Path("taken").mkdir()
    assert main(["oracle", "--n", "3", "--k", "2", "--out", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and os.listdir() == ["taken"] and os.listdir("taken") == []
    assert f"configuration error: output: {message}" in captured.err


def test_cli_oracle_writes_the_law_to_its_report_path(tmp_path, capsys):
    out = tmp_path / "law.json"
    assert main(["oracle", "--n", "2", "--k", "2", "--mode", "pattern", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text()) == {"values": [0.0, 2.0], "probs": [0.5, 0.5]}


def test_corpus_config_rejects_unknown_names():
    for kwargs in ({"norm_kind": "bogus"}, {"distributions": ("uniform",)},
                   {"kernel_classes": ("bogus",)}):
        with pytest.raises(ValidationError):
            verifier.CorpusConfig(**kwargs)


def test_cli_check_emptied_by_budget_exits_3(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**SMALL_CONFIG, "checks": [
        "lemma1", "theorem1_upper", "mc_consistency"]}))
    out = tmp_path / "r.json"
    assert main(["verify", "--config", str(cfg_path), "--budget", "16",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err.count("not run:") == 2
    summary = json.loads(out.read_text())["summary"]
    assert summary["failed"] == 0 and summary["total"] == 5
    assert summary["not_run"] == {"theorem1_upper": verifier.NOT_RUN_BUDGET,
                                  "mc_consistency": verifier.NOT_RUN_BUDGET}


def test_cli_lists_instances_skipped_over_budget(tmp_path, capsys):
    # at budget 16 the default corpus runs only the 9 Rademacher lemma3 searches
    # with l = 1
    out = tmp_path / "r.json"
    assert main(["verify", "--budget", "16", "--checks", "lemma3",
                 "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "9/9 checks passed, 33 instances skipped over a budget or size cap" in captured.out
    assert captured.err.count("skipped: lemma3 ") == 33
    summary = json.loads(out.read_text())["summary"]
    assert summary["total"] == 9 and "not_run" not in summary
    skipped = summary["skipped"]
    assert len(skipped) == 33 and {s["check"] for s in skipped} == {"lemma3"}
    assert skipped[0] == {"check": "lemma3",
                          "instance_id": "rademacher:product:n3k2l2",
                          "reason": "2^6 = 64 realizations exceeds budget 16"}


def test_cli_constants_csv_has_one_row_per_search(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**SMALL_CONFIG, "corpus": {
        **SMALL_CONFIG["corpus"], "kernel_classes": ["product", "sym-coeff"]}}))
    out = tmp_path / "c.json"
    assert main(["constants", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert "not_run" not in report["summary"]
    with open(tmp_path / "c.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    results = report["results"]
    assert {r["check"] for r in results} == {"theorem1_upper", "theorem1_lower",
                                             "lemma3"}
    assert len(rows) == len(results)
    for row, res in zip(rows, results):
        detail = res["detail"]
        assert (row["check"], row["instance_id"]) == (res["check"], res["instance_id"])
        assert float(row["constant"]) == detail["c_min"]
        assert float(row["t"]) == detail["binding"]["v"]
        assert float(row["lhs"]) <= float(row["rhs"]) + 1e-12
        if res["check"] == "lemma3":
            assert 1.0 <= detail["c_min_scaled"] <= detail["c_min"]
    constants = report["summary"]["empirical_constants"]
    assert constants["lemma3_scaled:k=2"] <= constants["lemma3:k=2"]


@pytest.mark.parametrize("command", [c for c, (_, preset) in cli._CAMPAIGNS.items()
                                     if preset])
def test_campaign_subcommand_is_verify_with_its_preset(tmp_path, capsys, command):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(SMALL_CONFIG))
    checks = cli._CAMPAIGNS[command][1]["checks"]
    runs = []
    for argv in ([command], ["verify", "--checks", ",".join(checks)]):
        out = tmp_path / f"{argv[0]}.json"
        assert main([*argv, "--config", str(cfg_path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        runs.append((json.dumps({s: report[s] for s in ("results", "summary", "table")}),
                     out.with_suffix(".csv").read_bytes(), capsys.readouterr()))
    assert runs[0] == runs[1]
    assert {r["check"] for r in json.loads(runs[0][0])["results"]} == set(checks)


@pytest.mark.parametrize("key", [key for key, (_, _, flag) in cli._FIELDS.items()
                                 if flag])
def test_common_flag_overrides_its_config_field(tmp_path, key):
    # the flag sets its field to the default, which the config file must not hold
    name, _, (flag, _, _) = cli._FIELDS[key]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**SMALL_CONFIG, "seed": 1}))
    from_file, _ = parse_config(cfg_path.read_text())
    default = getattr(verifier.CorpusConfig(), name)
    assert getattr(from_file, name) != default
    value = ",".join(default) if isinstance(default, tuple) else str(default)
    args = cli.build_parser().parse_args(
        ["verify", "--config", str(cfg_path), flag, value])
    cfg, _ = cli._load_config(args)
    assert cfg == dataclasses.replace(from_file, **{name: default})


OVERSIZE_L_CONFIG = {"corpus": {"nk_pairs": [[4, 2]], "ls": [1, 2, 65],
                                "distributions": ["rademacher"], "law_count": 1},
                     "checks": ["lemma1", "identities", "distributional"]}


def test_cli_oversize_l_skips_identities_and_keeps_the_report(tmp_path, capsys):
    # 65^4 choice vectors exceed the enumeration default at every n = 4
    # instance, so identities records skips and is not run; lemma1 still reports
    cfg_path, out = tmp_path / "config.json", tmp_path / "r.json"
    cfg_path.write_text(json.dumps(OVERSIZE_L_CONFIG))
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "budget error" not in err
    assert "not run: identities: " + verifier.NOT_RUN_BUDGET in err
    summary = json.loads(out.read_text())["summary"]
    assert summary["failed"] == 0
    assert summary["not_run"] == {"identities": verifier.NOT_RUN_BUDGET}
    skipped = [s for s in summary["skipped"] if s["check"] == "identities"]
    assert len(skipped) == 4
    assert skipped[0] == {"check": "identities",
                          "instance_id": "rademacher:product:n4k2",
                          "reason": "65^4 choice vectors exceed budget 16777216"}
    checks = {r["check"] for r in json.loads(out.read_text())["results"]}
    assert checks == {"lemma1", "distributional"}


def test_cli_oversize_l_keeps_the_identities_it_can_run(tmp_path, capsys):
    cfg = {**OVERSIZE_L_CONFIG, "corpus": {**OVERSIZE_L_CONFIG["corpus"],
                                           "nk_pairs": [[3, 2], [4, 2]]}}
    cfg_path, out = tmp_path / "config.json", tmp_path / "r.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    identities = [r["instance_id"] for r in report["results"] if r["check"] == "identities"]
    assert len(identities) == 4 and all(i.endswith(":n3k2") for i in identities)
    assert "not_run" not in report["summary"]
    assert {s["instance_id"] for s in report["summary"]["skipped"]
            if s["check"] == "identities"} == {i.replace("n3k2", "n4k2") for i in identities}
