#!/usr/bin/env python3
"""Benchmark of the decoupling-lab CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload is one `python -m decoupling_lab.cli verify --seed <seed> ...`
call on the package under src/ (see workloads.py).  The run is a closed loop
with one client: one CLI child process at a time, started only after the last
one exited.

`--trace 0` reports the end-to-end metrics, measured with tracing off:
  wall_s       median wall time of the CLI child, from spawn to exit;
  peak_rss_mb  median peak RSS of that child, from os.wait4 on that child only;
  setup_s      median time to `import decoupling_lab.cli` in a fresh
               interpreter (spawn to exit), after one untimed warm-up import.
The run starts CLI children back to back until one more would overrun
`--seconds`; it always starts at least one.

`--trace 1` reports per-layer metrics.  It runs one untraced CLI child as the
reference, then the same CLI call twice in this process with the package's
public functions wrapped from outside (tracer.py): a timing pass, and a pass
with allocation tracing around `exact_law` calls.  The exact counters of the
two passes must be equal.

Every CLI run is validated: exit code 0, `summary.failed == 0`, per-check
result counts equal to the workload's expected counts, and the report's
config/results/summary/table sections byte-identical across all runs of the
same source, workload and seed (including earlier runs in this checkout).  A
run that fails any of these counts all its checks as failed; `fail_frac` is
failed / attempted checks.

The benchmark measures only its own child processes and its own process.  It
drops no caches and pins no CPUs.  Everything it writes goes under
.bench_build/perfbench/ in the checkout.  `--smoke` swaps in tiny configs for
the benchmark's own tests; smoke figures are not measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

from workloads import CHECKS, SMOKE, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0  # every child is killed by then, so a run ends within 180 s
SECTIONS = ("config", "results", "summary", "table")
END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class SetupError(RuntimeError):
    """The program cannot be built or imported; no result is printed."""


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv, workdir: Path, tag: str, deadline: float) -> dict:
    """Run one child to exit; wall time from spawn to exit, RSS and CPU of it alone."""
    with open(workdir / f"{tag}.out", "wb") as out, \
            open(workdir / f"{tag}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime, "code": proc.returncode,
            "stdout": workdir / f"{tag}.out", "stderr": workdir / f"{tag}.err"}


def import_child(workdir: Path, deadline: float) -> dict:
    code = "import decoupling_lab.cli as m; print(m.__file__)"
    return spawn([sys.executable, "-c", code], workdir, "import", deadline)


def warm_up(workdir: Path, deadline: float) -> None:
    """Untimed first import: writes the bytecode cache and checks the source tree."""
    res = import_child(workdir, deadline)
    where = res["stdout"].read_text().strip()
    if res["code"] != 0 or not Path(where).resolve().is_relative_to(SRC.resolve()):
        raise SetupError("cannot import decoupling_lab.cli from src/:\n"
                         + res["stderr"].read_text()[-2000:])


def measure_setup(workdir: Path, deadline: float) -> float:
    walls = []
    for _ in range(SETUP_SAMPLES):
        res = import_child(workdir, deadline)
        if res["code"] != 0:
            raise SetupError(res["stderr"].read_text()[-2000:])
        walls.append(res["wall_s"])
    return statistics.median(walls)


def cli_args(spec: dict, seed: int, workdir: Path, tag: str) -> list:
    argv = ["verify", "--seed", str(seed), "--out", str(workdir / f"{tag}.json")]
    if spec["config"] is not None:
        cfg = workdir / "config.json"
        cfg.write_text(json.dumps(spec["config"]))
        argv += ["--config", str(cfg)]
    return argv


def sections_digest(report: dict) -> str:
    text = json.dumps({s: report.get(s) for s in SECTIONS}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def validate(code: int, report_path: Path, expected: dict) -> tuple[list, dict | None]:
    """Problems with one CLI run's exit code and report, and the report itself."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as e:
        return problems + [f"no readable report: {e}"], None
    summary = report.get("summary", {})
    if summary.get("failed") != 0:
        problems.append(f"summary.failed = {summary.get('failed')}")
    counts = {}
    for r in report.get("results", []):
        counts[r.get("check")] = counts.get(r.get("check"), 0) + 1
    if counts != expected:
        problems.append(f"per-check result counts {counts} != expected {expected}")
    if summary.get("total") != sum(expected.values()):
        problems.append(f"summary.total = {summary.get('total')}")
    return problems, report


def source_key(workload: str, seed: int, smoke: bool) -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    import numpy
    return (f"{h.hexdigest()[:16]}:py{platform.python_version()}:np{numpy.__version__}"
            f":{workload}:{seed}:{'smoke' if smoke else 'full'}")


class Store:
    """Report digests and exact counters of earlier runs in this checkout."""

    def __init__(self, key: str):
        self.path = OUT / "repeat_store.json"
        self.key = key
        try:
            self.data = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.data = {}

    def check(self, field: str, value) -> list:
        entry = self.data.setdefault(self.key, {})
        if field in entry and entry[field] != value:
            return [f"{field} differs from an earlier run at this seed: "
                    f"{entry[field]} != {value}"]
        entry[field] = value
        return []

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, sort_keys=True))
        os.replace(tmp, self.path)


class Tally:
    """Checks attempted and failed, and every problem seen."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = set()

    def add(self, label: str, problems: list, report: dict | None, store: Store) -> None:
        if report is not None:
            digest = sections_digest(report)
            if self.digests and digest not in self.digests:
                problems.append("report sections differ from another run in this set")
            self.digests.add(digest)
            problems += store.check("sections_sha256", digest)
        total = sum(self.expected.values())
        self.attempted += total
        if problems:
            self.failed += total
            self.problems += [f"{label}: {p}" for p in problems]


def provenance() -> dict:
    import numpy
    import scipy
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip() or rev
    return {"git_rev": rev, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "loadavg": list(os.getloadavg()),
            "note": "measures only its own child processes and itself; "
                    "no cache drops, no CPU pinning"}


def run_untraced(name, spec, seed, seconds, workdir, store, deadline):
    warm_up(workdir, deadline)
    setup_s = measure_setup(workdir, deadline)
    tally = Tally(spec["expected"])
    walls, rss = [], []
    argv_base = [sys.executable, "-m", "decoupling_lab.cli"]
    start = time.perf_counter()
    while True:
        tag = f"run{len(walls)}"
        res = spawn(argv_base + cli_args(spec, seed, workdir, tag), workdir, tag, deadline)
        problems, report = validate(res["code"], workdir / f"{tag}.json", spec["expected"])
        tally.add(tag, problems, report, store)
        walls.append(res["wall_s"])
        rss.append(res["peak_rss_mb"])
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(walls) > seconds:
            break
    metrics = {"wall_s": statistics.median(walls),
               "peak_rss_mb": statistics.median(rss), "setup_s": setup_s}
    info = {"cli_runs": len(walls), "wall_s_samples": walls}
    return tally, metrics, info


def in_process_pass(tracer, argv, workdir, tag):
    import decoupling_lab.cli as cli

    with open(workdir / f"{tag}.out", "w") as out, contextlib.redirect_stdout(out):
        with tracer:
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a crash is a failed run, counted by validate()
                traceback.print_exc()
                code = -1
            wall = time.perf_counter() - start
    return code, wall


def run_traced(name, spec, seed, workdir, store, deadline):
    from tracer import Tracer

    warm_up(workdir, deadline)
    setup_s = measure_setup(workdir, deadline)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    tally = Tally(spec["expected"])
    ref = spawn([sys.executable, "-m", "decoupling_lab.cli"]
                + cli_args(spec, seed, workdir, "ref"), workdir, "ref", deadline)
    problems, report = validate(ref["code"], workdir / "ref.json", spec["expected"])
    tally.add("reference", problems, report, store)

    passes = []
    for tag, track_alloc in (("timing", False), ("alloc", True)):
        tracer = Tracer(track_alloc=track_alloc)
        code, wall = in_process_pass(tracer, cli_args(spec, seed, workdir, tag),
                                     workdir, tag)
        problems, report = validate(code, workdir / f"{tag}.json", spec["expected"])
        tally.add(f"{tag} pass", problems, report, store)
        passes.append((tracer, wall, report))

    (timing, wall, report), (alloc, _, _) = passes
    if timing.missing:
        print(f"not traced (absent from the package): {timing.missing}", file=sys.stderr)
    counters = timing.exact_counts()
    problems = []
    if alloc.exact_counts() != counters:
        problems.append(f"exact counters differ between passes: {counters} != "
                        f"{alloc.exact_counts()}")
    problems += store.check("exact_counters", counters)
    if problems:
        tally.failed += sum(spec["expected"].values())
        tally.problems += problems

    metrics = timing.metrics(wall)
    metrics["prob_engine.exact_law.peak_alloc_mb"] = alloc.peak_alloc / 2 ** 20
    results = {c: 0 for c in CHECKS}
    for r in (report or {}).get("results", []):
        results[r["check"]] = results.get(r["check"], 0) + 1
    for check, count in results.items():
        metrics[f"verifier.results.{check}"] = count
    metrics["cli.report_bytes"] = sum(
        p.stat().st_size for p in (workdir / "timing.json", workdir / "timing.csv")
        if p.exists())
    metrics["cli.cpu_s"] = ref["cpu_s"]
    # The reference child also pays interpreter start-up and imports.
    metrics["trace.overhead_frac"] = (setup_s + wall) / ref["wall_s"] - 1.0
    timing.write_spans(OUT / f"spans-{name}-seed{seed}.jsonl")
    info = {"reference_wall_s": ref["wall_s"], "traced_wall_s": wall,
            "setup_s": setup_s, "spans": len(timing.spans)}
    return tally, metrics, info


def run_workload(name, seed, seconds, trace, smoke):
    spec = (SMOKE if smoke else WORKLOADS)[name]
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    store = Store(source_key(name, seed, smoke))
    try:
        if trace:
            tally, metrics, info = run_traced(name, spec, seed, workdir, store, deadline)
        else:
            tally, metrics, info = run_untraced(name, spec, seed, seconds, workdir,
                                                store, deadline)
        store.save()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in tally.problems:
        print(f"[{name}] FAILED {problem}", file=sys.stderr)
    print(json.dumps({"workload": name, "seed": seed, "trace": trace, **info}))
    for metric, value in metrics.items():
        print(f"[{name}] {metric} = {value:.6g} {unit_of(metric)}")
    print(f"[{name}] fail_frac = {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed}/{tally.attempted} checks failed)")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {m: {"value": v, "unit": unit_of(m)} for m, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configs for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "decoupling_lab" / "cli.py").is_file():
        print(f"no decoupling_lab package under {SRC}", file=sys.stderr)
        return 2
    print(json.dumps({"provenance": provenance()}))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace, args.smoke)
            print(json.dumps(result))
    except SetupError as e:
        print(f"setup failed: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
