"""Batch driver: config ingestion, campaign execution, machine-readable reports.

Config and report are JSON; `_SECTIONS` maps each config key to the CorpusConfig
field it sets, which validates it.  The report carries the echoed config,
per-check results, a summary, and meta information (each requested check's wall
seconds and exact laws computed, under `meta.checks`); a flat CSV export (one
row per check per threshold) is written next to the JSON report for plotting.

Exit codes: 0 all checks pass, 1 any check failed, 2 configuration error,
3 budget/resource error.  Instances left out for the enumeration budget are
listed under `summary.skipped` and on stderr, and do not change the exit code.
A requested check that records no result (listed under `summary.not_run`)
exits 3 when the enumeration budget emptied it and 2 otherwise, unless a check
failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

from . import __version__
from .errors import BudgetExceededError, ValidationError
from .prob_engine import exact_law
from .ustat_engine import StatisticSpec
from .value_space import DEFAULT_ENUM_BUDGET
from .verifier import (NOT_RUN_BUDGET, CorpusConfig, build_kernel,
                       named_distribution, run_corpus)

FORMAT_VERSION = 1

_CHECK_ALIASES = {
    "theorem1-upper": "theorem1_upper",
    "theorem1-lower": "theorem1_lower",
    "mazur-orlicz": "mazur_orlicz",
    "mc-consistency": "mc_consistency",
}

# Each config section: its keys, the CorpusConfig field each sets and how its
# JSON value converts.  _config_dict echoes the same fields under the same keys.
_SECTIONS = {
    "corpus": {
        "distributions": ("distributions", tuple),
        "kernel_classes": ("kernel_classes", tuple),
        "nk_pairs": ("nk_pairs", lambda v: tuple((int(p[0]), int(p[1])) for p in v)),
        "ls": ("ls", lambda v: tuple(int(x) for x in v)),
        "law_count": ("law_count", int),
        "norm": ("norm_kind", str)},
    "budgets": {"enumeration": ("enum_budget", int), "mc_trials": ("mc_trials", int)},
    "tolerances": {"identity": ("identity_tol", float)},
}


def parse_config(text: str) -> tuple[CorpusConfig, str | None]:
    """Parse and validate a JSON config; returns (config, output path)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"config is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ValidationError("config must be a JSON object")
    unknown = set(raw) - {"seed", "checks", "output", *_SECTIONS}
    if unknown:
        raise ValidationError(f"unknown top-level config field(s): {sorted(unknown)}")

    kwargs = {}
    if "seed" in raw:
        if not isinstance(raw["seed"], int):
            raise ValidationError("seed: must be an integer")
        kwargs["seed"] = raw["seed"]
    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise ValidationError("output: must be a file path string")
    for section, fields in _SECTIONS.items():
        given = raw.get(section, {})
        if not isinstance(given, dict):
            raise ValidationError(f"{section}: must be a JSON object")
        unknown = set(given) - set(fields)
        if unknown:
            raise ValidationError(f"{section}: unknown field(s): {sorted(unknown)}")
        for key, value in given.items():
            name, convert = fields[key]
            try:
                converted = convert(value)
            except (TypeError, ValueError, LookupError):
                converted = None
            if converted is None or _listed(converted) != value:  # failed or changed it
                raise ValidationError(f"{section}.{key}: invalid value {value!r}")
            kwargs[name] = converted
    if "checks" in raw:
        kwargs["checks"] = tuple(_CHECK_ALIASES.get(c, c) for c in raw["checks"])
    return CorpusConfig(**kwargs), output


def _listed(value):
    return [_listed(v) for v in value] if isinstance(value, tuple) else value


def _config_dict(cfg: CorpusConfig) -> dict:
    return {"seed": cfg.seed, "checks": list(cfg.checks),
            **{section: {key: _listed(getattr(cfg, name))
                         for key, (name, _) in fields.items()}
               for section, fields in _SECTIONS.items()}}


def run(cfg: CorpusConfig, out_path: str | None = None) -> tuple[dict, int]:
    """Execute the campaign; returns (report, exit code)."""
    start = time.perf_counter()
    body = run_corpus(cfg)
    elapsed = time.perf_counter() - start
    report = {
        "config": _config_dict(cfg),
        "results": body["results"],
        "summary": body["summary"],
        "meta": {
            "library_version": __version__,
            "format_version": FORMAT_VERSION,
            "wall_clock_seconds": elapsed,
            "checks": body["checks"],
        },
        "table": body["table"],
    }
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _write_table_csv(os.path.splitext(out_path)[0] + ".csv", body["table"])
    code = 0 if body["summary"]["failed"] == 0 else 1
    for skip in body["summary"].get("skipped", []):
        print(f"skipped: {skip['check']} {skip['instance_id']}: {skip['reason']}",
              file=sys.stderr)
    not_run = body["summary"].get("not_run", {})
    for check, reason in not_run.items():
        print(f"not run: {check}: {reason}", file=sys.stderr)
    if not_run and code == 0:
        code = 3 if NOT_RUN_BUDGET in not_run.values() else 2
    return report, code


def _write_table_csv(path: str, rows: list[dict]) -> None:
    cols = ["check", "instance_id", "n", "k", "l", "t", "lhs", "rhs",
            "constant", "holds"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _load_config(args) -> tuple[CorpusConfig, str | None]:
    if args.config:
        with open(args.config) as fh:
            cfg, out = parse_config(fh.read())
    else:
        cfg, out = CorpusConfig(), None
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.budget is not None:
        overrides["enum_budget"] = args.budget
    if args.trials is not None:
        overrides["mc_trials"] = args.trials
    if args.checks is not None:
        overrides["checks"] = tuple(
            _CHECK_ALIASES.get(c, c) for c in args.checks.split(","))
    if overrides:
        cfg = CorpusConfig(**{**cfg.__dict__, **overrides})
    if args.out is not None:
        out = args.out
    return cfg, out


def _cmd_campaign(args, fixed_checks=None) -> int:
    cfg, out = _load_config(args)
    if fixed_checks is not None:
        cfg = CorpusConfig(**{**cfg.__dict__, "checks": fixed_checks})
    report, code = run(cfg, out)
    summary = report["summary"]
    for r in report["results"]:
        status = "pass" if r["passed"] else "FAIL"
        print(f"[{status}] {r['check']:>16} {r['instance_id']}")
    skipped = len(summary.get("skipped", []))
    print(f"{summary['passed']}/{summary['total']} checks passed"
          + (f", {skipped} instances skipped over budget" if skipped else ""))
    return code


def _cmd_oracle(args) -> int:
    dist = named_distribution(args.dist)
    kf = build_kernel(args.kernel, args.n, args.k, seed=args.seed or 0)
    spec = StatisticSpec(kf, args.mode, pattern=tuple(range(args.k)), l=args.l,
                         norm_kind=args.norm)
    law = exact_law(spec, dist, args.budget or DEFAULT_ENUM_BUDGET)
    payload = {"values": law.values.tolist(), "probs": law.probs.tolist()}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="report output path (JSON; CSV written beside)")
    p.add_argument("--checks", help="comma-separated check names")
    p.add_argument("--budget", type=int, help="enumeration budget override")
    p.add_argument("--trials", type=int, help="Monte Carlo trials override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decoupling-lab",
        description="Verification campaigns for U-statistic decoupling inequalities")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the full campaign")
    _add_common(p)
    p = sub.add_parser("identities", help="exact-identity suite only")
    _add_common(p)
    p = sub.add_parser("constants", help="constant searches only")
    _add_common(p)

    p = sub.add_parser("oracle", help="dump the exact law of one statistic")
    p.add_argument("--dist", default="rademacher")
    p.add_argument("--kernel", default="product")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", default="coupled",
                   choices=["coupled", "pattern", "mixed", "not_all_equal",
                            "symmetrized"])
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--norm", default="euclidean")
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_campaign(args)
        if args.command == "identities":
            return _cmd_campaign(
                args, fixed_checks=("identities", "mazur_orlicz", "distributional"))
        if args.command == "constants":
            return _cmd_campaign(
                args, fixed_checks=("theorem1_upper", "theorem1_lower", "lemma3"))
        return _cmd_oracle(args)
    except BudgetExceededError as e:
        print(f"budget error: {e}", file=sys.stderr)
        return 3
    except (ValidationError, OSError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
