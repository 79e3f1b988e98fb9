"""The repository benchmark: four user paths, end-to-end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload corpus_cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, both runs

Each workload runs in fresh worker processes (``worker.py``) with a private
cache directory under ``perfbench/out/``.  ``--trace 0`` reports the
end-to-end metrics; set-up is repeated ``SETUPS`` times in fresh processes
and ``setup_s`` is their median.  ``--trace 1`` runs the traced replay,
writes its spans as Chrome trace-event JSON to
``perfbench/out/trace-<workload>-<seed>.json`` and reports the per-layer
metrics.  Metric names and units come from ``BENCHMARK.json``; times are
put at reference machine speed (see ``speed.py``) and also printed as
measured.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKLOADS = ("corpus_cold", "edit_loop", "served_sweep", "served_submit")
#: Fresh-process set-ups per untraced run; setup_s is their median.
SETUPS = 3
#: A run must end within this many seconds of starting.
DEADLINE_S = 170.0
SETUP_TIMEOUT_S = 60.0


class BenchError(Exception):
    pass


def _worker(args: list, timeout: float, workdir: str) -> tuple[dict, float]:
    """Run one worker; returns (its report, monotonic spawn time)."""
    os.makedirs(workdir)
    env = dict(os.environ, XDG_CACHE_HOME=os.path.join(workdir, "xdg"))
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args,
         "--workdir", workdir],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
        start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except BaseException:
        # Timeout or interrupt: stop the worker and anything it started.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with "
                         f"{proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1]), spawned


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds)]
    n = iter(range(1 << 30))

    def workdir() -> str:
        return os.path.join(OUT, f"work-{os.getpid()}-{next(n)}")

    def left() -> float:
        return deadline - time.monotonic()

    if trace:
        trace_out = os.path.join(OUT, f"trace-{workload}-{seed}.json")
        report, _ = _worker(common + ["--trace", "1", "--trace-out",
                                      trace_out], left(), workdir())
        report["trace_file"] = os.path.relpath(trace_out, ROOT)
        return report

    measured, scaled = [], []
    for _ in range(SETUPS - 1):
        first, spawned = _worker(common + ["--setup-only"],
                                 min(SETUP_TIMEOUT_S, left()), workdir())
        measured.append(first["first_op"] - spawned)
        scaled.append(measured[-1] * first["setup_factor"])
    report, spawned = _worker(common + ["--trace", "0"], left(), workdir())
    measured.append(report["first_op"] - spawned)
    scaled.append(measured[-1] * report["setup_factor"])
    report["metrics"]["setup_s"] = statistics.median(scaled)
    report["raw"]["setup_s"] = statistics.median(measured)
    report["setups"] = len(scaled)
    return report


def print_report(workload: str, seed: int, report: dict,
                 trace: bool) -> None:
    attempted, failed = report["attempted"], report["failed"]
    print(f"# {workload}  seed {seed}  {'traced' if trace else 'untraced'}"
          f"  inputs sha256 {report['inputs_sha256'][:16]}")
    for name, unit in spec.units(trace).items():
        value = report["metrics"][name]
        samples = (f"{report['setups']} set-ups" if name == "setup_s"
                   else f"{attempted} ops")
        print(f"  {name:34s} {value:14.6g} {unit:9s} (n={samples})")
    print(f"  {'error_rate':34s} {failed / attempted:14.6g} fraction  "
          f"({failed}/{attempted} ops)")
    probe = report["probe_ms"]
    print(f"  speed probe: {len(probe)} samples, median "
          f"{statistics.median(probe):.4g} ms, range {min(probe):.4g}-"
          f"{max(probe):.4g} ms; times above are at reference speed")
    print("  as measured: " + ", ".join(
        f"{k} {v:.6g}" for k, v in report["raw"].items()
        if v != report["metrics"][k]))
    if trace:
        print(f"  spans: {report['spans']}  trace: {report['trace_file']}")
    for err in report.get("errors", []):
        print(f"  ERROR {err}")


def result_line(report: dict, trace: bool) -> dict:
    units = spec.units(trace)
    return {
        "correct": report["failed"] == 0 and report["attempted"] > 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": report["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }


def _check_checkout() -> None:
    """The benchmark measures the program in this checkout's ``src/``."""
    for rel in ("src/repro/__init__.py", "src/repro/workloads/c/dgemm.c"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            raise BenchError(f"no {rel} in {ROOT}: nothing to benchmark")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all, untraced then traced)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.monotonic()
    try:
        _check_checkout()
        os.makedirs(OUT, exist_ok=True)
        if args.workload:
            trace = bool(args.trace)
            report = run_workload(args.workload, args.seed, args.seconds,
                                  trace, start + DEADLINE_S)
            print_report(args.workload, args.seed, report, trace)
            print(json.dumps(result_line(report, trace)))
            return 0
        return run_all(args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired, OSError,
            ValueError, KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced; prints the tracing overhead
    (traced vs untraced ops/s) and one summary JSON line."""
    summary = {}
    for workload in WORKLOADS:
        runs = {}
        for trace in (False, True):
            deadline = time.monotonic() + DEADLINE_S
            report = run_workload(workload, seed, seconds, trace, deadline)
            print_report(workload, seed, report, trace)
            runs["traced" if trace else "untraced"] = result_line(report,
                                                                  trace)
        untraced = runs["untraced"]["metrics"]["ops_per_s"]["value"]
        traced = runs["traced"]["metrics"]["trace.ops_per_s"]["value"]
        print(f"  tracing overhead: {traced:.6g} traced vs {untraced:.6g} "
              f"untraced ops/s ({untraced / traced:.3g}x)")
        summary[workload] = runs
    ok = all(r["correct"] for runs in summary.values()
             for r in runs.values())
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
