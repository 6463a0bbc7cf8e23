"""Batch driver: config ingestion, campaign execution, machine-readable reports.

Config and report are JSON.  `_FIELDS` is the one map from config keys and
common flags to the CorpusConfig fields they set, and `_CAMPAIGNS` gives each
campaign subcommand its preset check list.  A config that parse_config or
CorpusConfig rejects (an unknown key such as `tolerances`, an unknown check
name such as `theorem1-upper`, a value its field cannot take unchanged,
`mc_trials` below 100, `law_count` below 1, an empty check list) exits 2 before
any check runs, as does an `--out` or `output` report path that is empty, ends
in `.csv` (the CSV table's path), names an existing directory, lies in a
missing one or puts the CSV table on a directory.  `oracle --out` refuses an
empty path, a directory and a missing directory before it computes the law.
The report carries the echoed config, per-check results, a summary, and meta
information (each requested check's wall seconds and exact laws computed,
under `meta.checks`); a flat CSV export (one row per check per threshold) is
written next to the JSON report for plotting.

Exit codes: 0 all checks pass, 1 any check failed, 2 configuration error,
3 budget/resource error.  Instances left out for a budget or a check's size cap
are listed under `summary.skipped` and on stderr, and do not change the exit
code.  A requested check that records no result (listed under `summary.not_run`)
exits 3 when budgets or size caps emptied it and 2 otherwise, unless a check
failed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time

from . import __version__
from .errors import BudgetExceededError, ValidationError
from .prob_engine import exact_law
from .ustat_engine import MODES, StatisticSpec
from .value_space import DEFAULT_ENUM_BUDGET
from .verifier import (NOT_RUN_BUDGET, CorpusConfig, build_kernel,
                       named_distribution, run_corpus)

FORMAT_VERSION = 1


def _names(value) -> tuple:
    return tuple(str(x) for x in value)


def _int(value) -> int | None:
    return None if isinstance(value, bool) else int(value)  # JSON true is not 1


# Each settable CorpusConfig field by its JSON key ("section.key" inside a
# section): the field, how its JSON value converts, and its common flag as
# (flag, argparse type, help) if it has one.  _config_dict echoes every field
# under its key.
_FIELDS = {
    "seed": ("seed", _int, ("--seed", int, "overrides the config seed")),
    "checks": ("checks", _names, ("--checks", lambda v: tuple(v.split(",")),
                                  "comma-separated check names")),
    "corpus.distributions": ("distributions", _names, None),
    "corpus.kernel_classes": ("kernel_classes", _names, None),
    "corpus.nk_pairs": ("nk_pairs",
                        lambda v: tuple((_int(p[0]), _int(p[1])) for p in v), None),
    "corpus.ls": ("ls", lambda v: tuple(_int(x) for x in v), None),
    "corpus.law_count": ("law_count", _int, None),
    "corpus.norm": ("norm_kind", str, None),
    "budgets.enumeration": ("enum_budget", _int,
                            ("--budget", int, "enumeration budget override")),
    "budgets.mc_trials": ("mc_trials", _int,
                          ("--trials", int, "Monte Carlo trials override")),
}

# The subcommands that run a campaign: help and the fields each one presets,
# applied over the config and flags.
_CAMPAIGNS = {
    "verify": ("run the full campaign", {}),
    "identities": ("exact-identity suite only",
                   {"checks": ("identities", "mazur_orlicz", "distributional")}),
    "constants": ("constant searches only",
                  {"checks": ("theorem1_upper", "theorem1_lower", "lemma3")}),
}


def parse_config(text: str) -> tuple[CorpusConfig, str | None]:
    """Parse and validate a JSON config; returns (config, output path)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"config is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ValidationError("config must be a JSON object")
    unknown = set(raw) - {"output", *(key.split(".")[0] for key in _FIELDS)}
    if unknown:
        raise ValidationError(f"unknown top-level config field(s): {sorted(unknown)}")
    output = raw.pop("output", None)
    if output is not None and not isinstance(output, str):
        raise ValidationError("output: must be a file path string")
    given = {}  # each value by its _FIELDS key
    for top, value in raw.items():
        if top in _FIELDS:
            given[top] = value
        elif not isinstance(value, dict):
            raise ValidationError(f"{top}: must be a JSON object")
        else:
            given.update((f"{top}.{key}", v) for key, v in value.items())
    unknown = set(given) - set(_FIELDS)
    if unknown:
        raise ValidationError(f"unknown config field(s): {sorted(unknown)}")

    kwargs = {}
    for key, value in given.items():
        name, convert, _ = _FIELDS[key]
        try:
            converted = convert(value)
        except (TypeError, ValueError, LookupError):
            converted = None
        if converted is None or _listed(converted) != value:  # failed or changed it
            raise ValidationError(f"{key}: invalid value {value!r}")
        kwargs[name] = converted
    return CorpusConfig(**kwargs), output


def _listed(value):
    return [_listed(v) for v in value] if isinstance(value, tuple) else value


def _config_dict(cfg: CorpusConfig) -> dict:
    out = {}
    for key, (name, _, _) in _FIELDS.items():
        section, _, leaf = key.rpartition(".")
        (out.setdefault(section, {}) if section else out)[leaf] = _listed(
            getattr(cfg, name))
    return out


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
        _write_table_csv(_table_path(out_path), body["table"])
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
    flags = {name: getattr(args, name) for name, _, flag in _FIELDS.values()
             if flag and getattr(args, name) is not None}
    cfg = dataclasses.replace(cfg, **{**flags, **args.preset})
    out = out if args.out is None else args.out
    if out is not None:  # refused here, so no check runs for a report never written
        _check_report_path(out)
        if os.path.splitext(out)[1] == ".csv":
            raise ValidationError(f"output: {out!r} is where the CSV table is written")
        _check_report_path(_table_path(out))
    return cfg, out


def _table_path(out_path: str) -> str:
    return os.path.splitext(out_path)[0] + ".csv"


def _check_report_path(path: str) -> None:
    """Refuse a report path that is empty, names a directory or lies in a missing
    one, before any work is done for a report that could not be written."""
    if not path:
        raise ValidationError("output: the report path is empty")
    if os.path.isdir(path):
        raise ValidationError(f"output: {path!r} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ValidationError(f"output: the directory of {path!r} does not exist")


def _cmd_campaign(args) -> int:
    report, code = run(*_load_config(args))
    summary = report["summary"]
    for r in report["results"]:
        status = "pass" if r["passed"] else "FAIL"
        print(f"[{status}] {r['check']:>16} {r['instance_id']}")
    skipped = len(summary.get("skipped", []))
    print(f"{summary['passed']}/{summary['total']} checks passed"
          + (f", {skipped} instance{'s' * (skipped > 1)} skipped over a budget or size cap"
             if skipped else ""))
    return code


def _cmd_oracle(args) -> int:
    if args.out is not None:
        _check_report_path(args.out)
    if args.budget <= 0:
        raise ValidationError("enumeration budget must be positive")
    if args.seed is not None and args.seed < 0:
        raise ValidationError(f"seed must be >= 0, got {args.seed}")
    dist = named_distribution(args.dist)
    kf = build_kernel(args.kernel, args.n, args.k, seed=args.seed or 0)
    spec = StatisticSpec(kf, args.mode, pattern=tuple(range(args.k)), l=args.l)
    law = exact_law(spec, dist, args.budget)
    payload = {"values": law.values.tolist(), "probs": law.probs.tolist()}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decoupling-lab",
        description="Verification campaigns for U-statistic decoupling inequalities")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (help_text, preset) in _CAMPAIGNS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="report output path (JSON; CSV written beside)")
        for name, _, flag in _FIELDS.values():
            if flag:
                p.add_argument(flag[0], dest=name, type=flag[1], help=flag[2])
        p.set_defaults(handler=_cmd_campaign, preset=preset)

    p = sub.add_parser("oracle", help="dump the exact law of one statistic")
    p.add_argument("--dist", default="rademacher")
    p.add_argument("--kernel", default="product")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", default="coupled", choices=MODES)
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=int, default=DEFAULT_ENUM_BUDGET)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExceededError as e:
        print(f"budget error: {e}", file=sys.stderr)
        return 3
    except (ValidationError, OSError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
