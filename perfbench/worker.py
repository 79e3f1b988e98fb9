"""One workload in a fresh process: set up, run the closed loop, report.

Started by ``run.py``; prints one JSON object as its last stdout line.
With ``--setup-only`` it stops right before the first timed op and only
reports when that op would have started (``time.monotonic`` is
system-wide, so the parent can measure set-up from its own clock) and the
machine speed just after set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import inputs  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe, at_reference_speed  # noqa: E402
from tracing import Tracer  # noqa: E402

#: Every run times at least this many ops, so that at least ten samples
#: lie beyond the p90; a run that cannot reach it fails.
MIN_OPS = 100
#: Throughput and latency percentiles are taken in up to MAX_WINDOWS equal
#: consecutive windows of at least WINDOW_OPS ops and reduced to their
#: median, so a burst of host jitter moves a few windows, not the value.
WINDOW_OPS = 400
MAX_WINDOWS = 20
#: Ops rendered into the inputs digest.
DIGEST_OPS = 50


def _loop(wl, seconds: float, step) -> dict:
    """Closed loop over ``step(op)`` until the timed total reaches
    ``seconds``; each op's output is checked outside the timed region.
    Returns the measured op times (s), the speed factor in force during
    each op (see :mod:`speed`) and the error tally."""
    latencies, factors, errors, digest_ops = [], [], [], []
    failed = 0
    timed = 0.0
    probe = SpeedProbe()
    wall_cap = time.monotonic() + 3 * seconds + 60
    while (timed < seconds or len(latencies) < MIN_OPS) \
            and time.monotonic() < wall_cap:
        op = wl.next_op()
        if len(digest_ops) < DIGEST_OPS:
            digest_ops.append(wl.describe_op(op))
        probe.poll()
        t0 = time.perf_counter()
        try:
            out = step(op)
        except Exception as exc:   # noqa: BLE001 - a failed op is counted
            out, problems = None, [f"{type(exc).__name__}: {exc}"]
        latencies.append(time.perf_counter() - t0)
        timed += latencies[-1]
        factors.append(probe.factor())
        if out is not None:
            try:
                problems = wl.check(op, out)
            except Exception as exc:   # noqa: BLE001
                problems = [f"check: {type(exc).__name__}: {exc}"]
        if problems:
            failed += 1
            if len(errors) < 5:
                errors.extend(problems[:2])
    if len(latencies) < MIN_OPS:
        raise RuntimeError(f"only {len(latencies)} ops in the time allowed; "
                           f"a run needs {MIN_OPS}")
    return {"latencies": latencies, "factors": factors,
            "attempted": len(latencies), "failed": failed, "errors": errors,
            "inputs_sha256": inputs.digest(digest_ops),
            "probe_ms": [x * 1e3 for x in probe.samples]}


def _time_metrics(latencies: list) -> dict:
    ms = [x * 1e3 for x in latencies]
    k = max(1, min(MAX_WINDOWS, len(ms) // WINDOW_OPS))
    cuts = [len(ms) * i // k for i in range(k + 1)]
    windows = [ms[a:b] for a, b in zip(cuts, cuts[1:])]
    return {"ops_per_s": statistics.median(
                len(w) / (sum(w) / 1e3) for w in windows),
            "latency_p50_ms": statistics.median(
                statistics.median(w) for w in windows),
            "latency_p90_ms": statistics.median(
                statistics.quantiles(w, n=10)[8] for w in windows)}


def untraced(wl, seconds: float) -> dict:
    res = _loop(wl, seconds, wl.run)
    lat, factors = res.pop("latencies"), res.pop("factors")
    res["metrics"] = _time_metrics([x * f for x, f in zip(lat, factors)])
    res["raw"] = _time_metrics(lat)
    res["metrics"]["peak_rss_mb"] = res["raw"]["peak_rss_mb"] = \
        wl.peak_rss_mb()
    return res


def traced(wl, seconds: float, trace_path: str) -> dict:
    tr = Tracer()
    counter = iter(range(1 << 62))

    def step(op):
        tr.begin_op(next(counter))
        with tr.span("op"):
            return wl.trace(op, tr)

    res = _loop(wl, seconds, step)
    lat, factors = res.pop("latencies"), res.pop("factors")
    self_times = tr.self_times()
    run_values = wl.run_values()
    run_values["trace.ops_per_s"] = len(lat) / sum(lat)
    metrics = {}
    for name, source in spec.layer_sources().items():
        if source == "span":
            metrics[name] = tr.median_self_ms(self_times,
                                              name.removesuffix("_ms"))
        elif source == "value":
            metrics[name] = tr.median_value(name)
        else:
            metrics[name] = run_values.get(name, 0.0)
    # Layer metrics have no bound: one factor, the run's median, will do.
    res["raw"] = metrics
    res["metrics"] = at_reference_speed(metrics, spec.units(trace=True),
                                        statistics.median(factors))
    res["spans"] = tr.span_count
    tr.write_chrome_trace(trace_path, f"perfbench {wl.__class__.__name__}")
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # One CPU for the ops, the server and the speed probe, so the probe
    # measures the CPU the ops run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir,
                                             bool(args.trace), ROOT)
    try:
        wl.setup()
        report = {"first_op": time.monotonic()}
        # Machine speed right after set-up, to scale the set-up time.
        probe = SpeedProbe()
        for _ in range(3):
            probe.measure()
        report["setup_factor"] = probe.factor()
        if args.trace:
            report.update(traced(wl, args.seconds, args.trace_out))
        elif not args.setup_only:
            report.update(untraced(wl, args.seconds))
    except Exception:   # noqa: BLE001 - reported to the parent as a failure
        traceback.print_exc()
        return 1
    finally:
        wl.close()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
