#!/usr/bin/env python3
"""hashscope benchmark: run the CLI on one workload, check it, print metrics.

    python3 perfbench/run.py --workload demo-all --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout.  The program is run from ``src/``
exactly as the ``hashscope`` console script runs it, one process at a time.

``--trace 0`` runs the workload untraced until the next invocation would
overrun ``--seconds`` of invocation time (at least once).  Before each
invocation it makes the inputs afresh, ``setup_repeats`` times, so the set-ups
are spread over the run like the invocations.  It reports ``wall_s``,
``peak_rss_mb`` and ``setup_s`` (median over the run's set-ups).  ``--trace 1``
makes the same untraced invocations, then one traced invocation through
``tracer.py``, and reports the per-layer metrics.

Every run's outputs are checked (``workloads.py``); a failed check counts in
``failed``.  The last line of standard output is one JSON object; a results
file with the machine and versions goes to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from spans import layer_metrics, merge, self_times, wrap_cost
from workloads import WORKLOADS, CheckFailed, check_stderr, jsonl_to_csv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

IMPORT_REPEATS = 3
RUN_LIMIT_S = 170.0  # every run, build excluded, ends within 180 s
LAUNCH = "import sys; from hashscope.cli import main; sys.exit(main())"
IMPORT_TIMER = ("import time; t = time.perf_counter(); import hashscope.cli; "
                "print(repr(time.perf_counter() - t))")

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
TRACE_ONLY_UNITS = {
    "cli.import_s": "s",
    "process.cpu_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "social.profile_auc": "ratio",
    "drift.planted_top10": "count",
}


class Timeout(Exception):
    pass


class SetupFailed(Exception):
    pass


def _on_alarm(signum, frame):
    raise Timeout


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(argv: list[str], log_stem: Path, deadline: float) -> dict:
    """One child process: wall time from spawn to reap, and its own peak RSS
    and CPU time from ``wait4``, which reports on that child alone."""
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timed_out = False
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.01))
        try:
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Timeout:
            timed_out = True
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "argv": argv[3:] if argv[1] == "-c" else argv[1:],
        "exit": proc.returncode,
        "timed_out": timed_out,
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "stdout": Path(f"{log_stem}.out").read_text(errors="replace"),
        "stderr": Path(f"{log_stem}.err").read_text(errors="replace"),
    }


def _tail(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def set_up(workload, seed: int, work: Path, deadline: float) -> float:
    """Make the workload's inputs in a fresh directory; returns seconds."""
    inputs = work / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    start = time.perf_counter()
    for i, args in enumerate(workload.setup_commands(seed, inputs)):
        proc = run_process([sys.executable, "-c", LAUNCH, *args], work / f"setup{i}", deadline)
        if proc["exit"] != 0:
            raise SetupFailed(f"set-up command {args} exited {proc['exit']}: "
                              f"{_tail(proc['stderr'])}")
    if workload.csv_inputs:
        jsonl_to_csv(inputs / "corpus.jsonl", inputs / "corpus.csv")
    return time.perf_counter() - start


def invoke(workload, seed: int, work: Path, deadline: float, traced: bool) -> dict:
    """One run of the workload's commands, then its output checks."""
    out_root = work / "out"
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    procs, span_files, error, quality = [], [], None, {}
    for i, args in enumerate(workload.commands(seed, work / "inputs", out_root)):
        if traced:
            span_files.append(work / f"spans{i}.json")
            argv = [sys.executable, str(HERE / "tracer.py"), str(span_files[-1]), "--", *args]
        else:
            argv = [sys.executable, "-c", LAUNCH, *args]
        proc = run_process(argv, work / f"cmd{i}", deadline)
        procs.append(proc)
        if proc["timed_out"]:
            error = f"{args[0]}: timed out"
        elif proc["exit"] != 0:
            error = f"{args[0]}: exit {proc['exit']}: {_tail(proc['stderr'])}"
        else:
            try:
                check_stderr(proc["stderr"])
            except CheckFailed as exc:
                error = f"{args[0]}: {exc}"
        if error:
            break
    if error is None:
        try:
            workload.check(out_root, workload.spec, quality)
        except CheckFailed as exc:
            error = str(exc)
    spans = []
    if traced and error is None:
        spans = merge([json.loads(f.read_text()) for f in span_files])
    return {
        "wall_s": sum(p["wall_s"] for p in procs),
        "rss_mb": max(p["rss_mb"] for p in procs),
        "cpu_s": sum(p["cpu_s"] for p in procs),
        "timed_out": any(p["timed_out"] for p in procs),
        "error": error,
        "quality": quality,
        "processes": [{k: v for k, v in p.items() if k not in ("stdout", "stderr")}
                      for p in procs],
        "spans": spans,
    }


def measure(workload, seed: int, work: Path, seconds: float,
            deadline: float) -> tuple[list[dict], list[float]]:
    """Set-ups then one untraced invocation, repeated until the next
    invocation would overrun ``seconds`` of invocation time; at least once.
    Returns the invocations and the set-up times."""
    runs, setups = [], []
    while True:
        setups += [set_up(workload, seed, work, deadline)
                   for _ in range(workload.setup_repeats)]
        runs.append(invoke(workload, seed, work, deadline, traced=False))
        typical = statistics.median(r["wall_s"] for r in runs)
        next_round = typical + workload.setup_repeats * statistics.median(setups)
        if (runs[-1]["timed_out"]
                or sum(r["wall_s"] for r in runs) + typical > seconds
                or time.monotonic() + next_round > deadline):
            return runs, setups


def import_seconds(work: Path, deadline: float) -> float:
    """Median in-interpreter time of ``import hashscope.cli`` in fresh processes."""
    times = []
    for i in range(IMPORT_REPEATS):
        proc = run_process([sys.executable, "-c", IMPORT_TIMER], work / f"import{i}", deadline)
        if proc["exit"] != 0:
            raise SetupFailed(f"import hashscope.cli failed: {_tail(proc['stderr'])}")
        times.append(float(proc["stdout"].strip()))
    return statistics.median(times)


def trace_metrics(untraced: list[dict], traced: dict, import_s: float) -> dict:
    metrics = layer_metrics(traced["spans"])
    extra = {
        "cli.import_s": import_s,
        "process.cpu_s": statistics.median(r["cpu_s"] for r in untraced),
        "trace.untraced_wall_s": statistics.median(r["wall_s"] for r in untraced),
        "trace.traced_wall_s": traced["wall_s"],
        # the wall-time difference is below this machine's speed drift, so the
        # overhead is estimated: bookkeeping per span plus the counting spans
        "trace.overhead_s": len(traced["spans"]) * wrap_cost() + metrics["trace.count_s"][0],
        "social.profile_auc": traced["quality"].get("profile_auc", 0.0),
        "drift.planted_top10": traced["quality"].get("drift_planted_top10", 0),
    }
    metrics.update({name: (value, TRACE_ONLY_UNITS[name]) for name, value in extra.items()})
    return metrics


def layer_shape(spans: list[dict], metrics: dict) -> dict:
    """What the acceptance checks read: the largest self-time metrics and the
    longest single spans, with the span names present."""
    selfs = self_times(spans)
    by_self = sorted(((m, v) for m, (v, u) in metrics.items()
                      if u == "s" and not m.startswith(("trace.", "process.", "cli.import"))),
                     key=lambda row: -row[1])
    longest = sorted(((s["name"], s["end"] - s["start"]) for s in spans
                      if s["name"] != "cli.main"), key=lambda row: -row[1])
    return {
        "largest_self_time": by_self[:8],
        "longest_spans": longest[:8],
        "span_names": sorted({s["name"] for s in spans}),
        "self_time_total_s": sum(selfs.values()),
    }


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_every_workload(args) -> int:
    """Each workload in its own benchmark process; exit 0 only if all pass."""
    passed = True
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        done = subprocess.run([
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ], stdout=subprocess.PIPE, text=True)
        print(done.stdout, end="", flush=True)
        lines = done.stdout.strip().splitlines()
        passed &= done.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if passed else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_every_workload(args)
    if not (SRC / "hashscope" / "cli.py").is_file():
        print(f"no hashscope source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "hashscope")],
                           capture_output=True, text=True)
    if build.returncode != 0:
        print(f"build failed:\n{build.stdout}{build.stderr}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    try:
        runs, setups = measure(workload, args.seed, work, args.seconds, deadline)
        all_runs = runs
        if args.trace:
            traced = invoke(workload, args.seed, work, deadline, traced=True)
            import_s = import_seconds(work, deadline)
            all_runs = runs + [traced]
    except (SetupFailed, Timeout) as exc:
        shutil.rmtree(work, ignore_errors=True)
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)

    failed = sum(r["error"] is not None for r in all_runs)
    if args.trace:
        if traced["error"] is None:
            metrics = trace_metrics(runs, traced, import_s)
            record["shape"] = layer_shape(traced["spans"], metrics)
        else:
            metrics = {}
    else:
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in runs), "s"),
            "peak_rss_mb": (max(r["rss_mb"] for r in runs), "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    for run in all_runs:
        run.pop("spans")
    record.update(setup_s=setups, runs=all_runs,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    RESULTS.mkdir(exist_ok=True)
    results_file = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    results_file.write_text(json.dumps(record, indent=2) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    for run in all_runs:
        if run["error"]:
            print(f"FAILED: {run['error']}")
    print(f"fail_ratio = {failed / len(all_runs):.3f} ({failed} of {len(all_runs)} runs)")
    quality = all_runs[-1]["quality"]
    for key in ("profile_auc", "drift_planted_top10"):
        if key in quality:
            print(f"{key} = {quality[key]}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"results: {results_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(all_runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
