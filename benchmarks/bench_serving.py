"""Model-serving load benchmark: submissions, concurrency, served sweeps.

The serving subsystem's pitch is the paper's economics over HTTP: the
first submission of a source pays the full analysis pipeline, every
repeat is a fingerprint lookup against the warm registry.  This bench
boots an in-process :class:`MiraServer` on an ephemeral port, measures

* **cold** throughput — distinct sources, each a full pipeline run,
* **warm** throughput — repeat submissions of an already-registered
  source (the registry hit path; zero compiler invocations),
* **concurrent** warm throughput — several keep-alive clients on
  threads, exercising the threaded server + registry locking, and
* **served sweep** points/s end to end, per reply layout (v1 ``rows``,
  ``columns``, and ``MiraClient.sweep``),

and emits ``benchmarks/out/BENCH_serving.json``.  The acceptance floors:
warm req/s must be at least 5x cold req/s (in practice it is orders of
magnitude), and columnar sweeps at least 3x rows.
"""

import json
import os
import tempfile
import threading
import time

from _common import OUT_DIR, rows_to_text, save_table

from repro.core import AnalysisConfig
from repro.core.pipeline import STAGE_RUN_COUNTS, reset_stage_counters
from repro.serve import MiraClient, MiraServer
from repro.workloads import get_source

SRC = """\
double kernel(int n) {
    double s = %d.0;
    for (int i = 0; i < n; i++) s += i * %d.0;
    return s;
}
"""

N_COLD = 6          # distinct sources (each a full pipeline run)
N_WARM = 200        # repeat submissions of one registered source
N_THREADS = 4       # concurrent keep-alive clients
N_PER_THREAD = 50
SWEEP_POINTS = 20_000   # dgemm_kernel grid of one served sweep
SWEEP_REPEATS = 5


def _served_sweeps(client) -> dict:
    """End-to-end served sweep points/s, per reply layout.

    Each figure covers the whole exchange: request, grid evaluation,
    encoding, HTTP and client decoding.  ``rows`` is a bare POST read as
    the v1 ``points`` rows; ``columns`` asks for ``layout=columns`` and
    reads the columns; ``client`` is ``MiraClient.sweep``, which requests
    columns and expands the rows client-side.
    """
    handle = client.submit(get_source("dgemm"), filename="dgemm.c")
    path = f"/v1/analyses/{handle['id']}/sweep"
    values = list(range(1, SWEEP_POINTS + 1))
    request = {"function": "dgemm_kernel", "grid": {"n": values}}
    expected = [2 * n ** 3 + n ** 2 for n in values]

    def rows():
        doc = client.request("POST", path, request).raise_for_status().json()
        return [p["fp_ins"] for p in doc["points"]]

    def columns():
        doc = client.request("POST", path, {**request, "layout": "columns"}
                             ).raise_for_status().json()
        return doc["columns"]["fp_ins"]

    def typed_client():
        doc = client.sweep(handle["id"], "dgemm_kernel", request["grid"])
        return [p["fp_ins"] for p in doc["points"]]

    out = {}
    for name, fn in (("rows", rows), ("columns", columns),
                     ("client", typed_client)):
        assert fn() == expected, name     # also the warm-up
        t0 = time.perf_counter()
        for _ in range(SWEEP_REPEATS):
            fn()
        elapsed = time.perf_counter() - t0
        out[f"sweep_{name}_points_per_s"] = \
            SWEEP_REPEATS * SWEEP_POINTS / elapsed
    out["sweep_columns_vs_rows"] = (out["sweep_columns_points_per_s"]
                                    / out["sweep_rows_points_per_s"])
    return out


def run_load():
    out = {}
    with tempfile.TemporaryDirectory() as cache_dir:
        config = AnalysisConfig(cache_dir=cache_dir)
        with MiraServer(port=0, config=config) as server:
            client = MiraClient(server.url)

            t0 = time.perf_counter()
            handles = [client.submit(SRC % (i, i + 1),
                                     filename=f"kernel{i}.c")
                       for i in range(N_COLD)]
            cold_s = time.perf_counter() - t0
            assert all(h["origin"] == "cold" for h in handles)

            reset_stage_counters()
            t0 = time.perf_counter()
            for _ in range(N_WARM):
                h = client.submit(SRC % (0, 1), filename="kernel0.c")
                assert h["origin"] == "registry"
            warm_s = time.perf_counter() - t0
            # Warm throughput must come from the registry, not re-analysis.
            assert STAGE_RUN_COUNTS.get("compile", 0) == 0

            def hammer(errors):
                try:
                    with MiraClient(server.url) as c:
                        for _ in range(N_PER_THREAD):
                            doc = c.submit(SRC % (0, 1),
                                           filename="kernel0.c")
                            assert doc["origin"] == "registry"
                except Exception as exc:   # noqa: BLE001 - reported below
                    errors.append(exc)

            errors = []
            threads = [threading.Thread(target=hammer, args=(errors,))
                       for _ in range(N_THREADS)]
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            conc_s = time.perf_counter() - t0
            assert not errors, errors

            health = client.health()
            out.update(_served_sweeps(client))
            client.close()

    out["cold_rps"] = N_COLD / cold_s
    out["warm_rps"] = N_WARM / warm_s
    out["concurrent_rps"] = (N_THREADS * N_PER_THREAD) / conc_s
    out["warm_vs_cold"] = out["warm_rps"] / out["cold_rps"]
    out["registry_hits"] = health["registry"]["registry_hits"]
    out["analyses"] = health["registry"]["analyses"]
    return out


def test_serving_load(benchmark):
    s = benchmark.pedantic(run_load, iterations=1, rounds=1)

    rows = [["cold submissions", N_COLD],
            ["warm submissions", N_WARM],
            ["concurrent clients", f"{N_THREADS} x {N_PER_THREAD}"],
            ["cold req/s", f"{s['cold_rps']:.1f}"],
            ["warm req/s", f"{s['warm_rps']:.1f}"],
            ["concurrent warm req/s", f"{s['concurrent_rps']:.1f}"],
            ["warm / cold", f"{s['warm_vs_cold']:.1f}x"],
            [f"served sweep pts/s, rows ({SWEEP_POINTS} pts)",
             f"{s['sweep_rows_points_per_s']:,.0f}"],
            ["served sweep pts/s, columns",
             f"{s['sweep_columns_points_per_s']:,.0f}"],
            ["served sweep pts/s, MiraClient.sweep",
             f"{s['sweep_client_points_per_s']:,.0f}"],
            ["sweep columns / rows", f"{s['sweep_columns_vs_rows']:.1f}x"]]
    save_table("serving", rows_to_text(
        "Model serving — submissions and served sweeps",
        ["metric", "value"], rows,
        note="Cold = full pipeline per request; warm = registry hit "
             "(fingerprint lookup, zero compiles, counter-asserted). "
             "Concurrent = keep-alive clients on threads against the "
             "threaded server.  Served sweeps are end to end (request, "
             "evaluation, encoding, HTTP, decoding): rows = a bare POST "
             "read as v1 points, columns = layout=columns read as "
             "columns, MiraClient.sweep = columns expanded to rows "
             "client-side."))

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "BENCH_serving.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"kind": "ServingBench",
                   "cold_requests": N_COLD,
                   "warm_requests": N_WARM,
                   "concurrent_clients": N_THREADS,
                   "requests_per_client": N_PER_THREAD,
                   "cold_rps": round(s["cold_rps"], 2),
                   "warm_rps": round(s["warm_rps"], 2),
                   "concurrent_rps": round(s["concurrent_rps"], 2),
                   "warm_vs_cold": round(s["warm_vs_cold"], 2),
                   "registry_hits": s["registry_hits"],
                   "analyses": s["analyses"],
                   "sweep_points": SWEEP_POINTS,
                   "sweep_rows_points_per_s":
                       round(s["sweep_rows_points_per_s"], 1),
                   "sweep_columns_points_per_s":
                       round(s["sweep_columns_points_per_s"], 1),
                   "sweep_client_points_per_s":
                       round(s["sweep_client_points_per_s"], 1),
                   "sweep_columns_vs_rows":
                       round(s["sweep_columns_vs_rows"], 2)}, fh, indent=2)
        fh.write("\n")

    # The acceptance floors; real warm/cold ratios are in the hundreds.
    assert s["warm_vs_cold"] >= 5.0, (
        f"warm throughput only {s['warm_vs_cold']:.1f}x cold")
    assert s["sweep_columns_vs_rows"] >= 3.0, (
        f"columnar sweeps only {s['sweep_columns_vs_rows']:.1f}x rows")


if __name__ == "__main__":
    import sys

    import pytest

    raise SystemExit(pytest.main([__file__, "-q", "--benchmark-disable"]
                                 + sys.argv[1:]))
