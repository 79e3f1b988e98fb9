"""Compiled vs interpreted model evaluation, and the one-analysis sweep.

The perf-trajectory bench for the compiled-evaluation subsystem.  Measures,
on the dgemm and stream models:

* **per-point evaluation throughput** — interpreted ``Expr.evaluate``
  tree-walk vs closure-compiled models (``AnalysisResult.compiled``),
* **sweep throughput** — points/second through ``AnalysisResult.sweep``,
* **vector-engine throughput** — points/second through the columnar numpy
  engine (``engine="vector"``) on a large int64-safe grid, against the
  per-point scalar closures on the same model, with a sampled bit-exactness
  check against both the closures and the interpreted tree-walk,
* **end-to-end sweep throughput** — points/second through sweep →
  ``SweepResult.to_dict`` (the columnar wire document) → ``json.dumps``
  on the same grid, the in-process path behind every served sweep,
* **model-construction time** — the full pipeline with expression
  hash-consing on vs off (``interning_disabled``),
* **sweep economy** — a Fig. 7-style 5-point sweep must run the pipeline's
  "compile" stage at most once per workload (stage counters),
* **repeated sweeps** — calls of 2048 fresh seeded points each over one
  range, the shape of a served sweep: the first call's time, the median
  of the rest, and how many int64-precheck walks (``_cats_iv``) they took;
  later calls reuse the first call's range-bucket verdict.

Emits ``benchmarks/out/BENCH_eval_sweep.json`` with the machine-comparable
numbers next to the human-readable table.  CI asserts the JSON parses, that
compiled throughput beats interpreted, that the vector engine is >= 10x the
scalar closures with bit-identical results, that a repeated stream sweep
takes at most half the first one's time, and archives the artifact.
"""

import json
import os
import random
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

from _common import (OUT_DIR, analyze_workload, rows_to_text, save_table,
                     sweep_workload)

from repro.core import STAGE_RUN_COUNTS, Pipeline, AnalysisConfig
from repro.symbolic.expr import interning_disabled
from repro.symbolic.veccompile import VecCompiledResult
from repro.workloads import get_source

#: Minimum wall time per throughput measurement (adaptive batching).
MIN_MEASURE_SECONDS = 0.15

SWEEP_SIZES = [20_000, 100_000, 1_000_000, 10_000_000, 100_000_000]
DGEMM_POINTS = [16, 64, 256, 1024, 4096]

#: Vector-engine measurement: one columnar sweep over this many grid points
#: (kept int64-safe so the fast path is what gets measured), against a
#: scalar-closure sweep over a subset large enough to amortize setup.
VECTOR_GRID_POINTS = 200_000
SCALAR_BASELINE_POINTS = 2_000

#: Repeated-sweep measurement: REPEAT_CALLS sweeps of REPEAT_POINTS fresh
#: seeded values each, drawn from one range per model.
REPEAT_POINTS = 2048
REPEAT_CALLS = 25
REPEAT_RANGES = {"dgemm": (1, 4000), "stream": (1, 10 ** 6)}


def _throughput(fn) -> float:
    """Calls/second of ``fn``, batched until the timer is trustworthy."""
    fn()  # warm-up (compile caches, interning tables)
    batch = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= MIN_MEASURE_SECONDS:
            return batch / elapsed
        batch *= 4


def _eval_pair(model, function, envs):
    """(interpreted/s, compiled/s) for cycling evaluations over ``envs``."""
    state = {"i": 0}

    def interp():
        env = envs[state["i"] % len(envs)]
        state["i"] += 1
        return model.evaluate(function, env)

    def compiled():
        env = envs[state["i"] % len(envs)]
        state["i"] += 1
        return model.evaluate_compiled(function, env)

    # equivalence guard: the speedup must not come from different answers
    for env in envs:
        assert model.evaluate_compiled(function, env).counts == \
            model.evaluate(function, env).counts
    return _throughput(interp), _throughput(compiled)


def _exact(counts: dict) -> dict:
    return {k: Fraction(v) for k, v in counts.items() if v != 0}


def _vector_block(doc: dict, name: str, model, function: str, axis: str,
                  lo: int, step: int = 1) -> None:
    """Measure the columnar vector engine against the scalar closures."""
    import numpy as np

    values = np.arange(lo, lo + step * VECTOR_GRID_POINTS, step,
                       dtype=np.int64)
    n = len(values)
    scalar_values = [int(v) for v in values[:SCALAR_BASELINE_POINTS]]

    swept = model.sweep(function, {axis: values}, engine="vector")
    doc.setdefault("vector_stats", {})[name] = swept.vector_stats

    # bit-exactness: the speedup must not come from different answers.
    # Sampled vector points vs the scalar closures vs the interpreted
    # tree-walk (exact-zero categories dropped — the columnar materializer
    # never records a category that did not execute).
    exact = True
    for i in (0, n // 3, n // 2, n - 1):
        pt = swept.points[i]
        vec = _exact(pt.metrics.counts)
        if vec != _exact(model.evaluate_compiled(function, pt.env).counts):
            exact = False
        if vec != _exact(model.evaluate(function, pt.env).counts):
            exact = False
    doc.setdefault("vector_bit_exact", {})[name] = exact

    vec_pps = _throughput(
        lambda: model.sweep(function, {axis: values},
                            engine="vector").fp_series()) * n
    # The path a caller of the wire format runs: sweep, encode, serialize.
    e2e_pps = _throughput(
        lambda: json.dumps(model.sweep(function, {axis: values},
                                       engine="vector").to_dict(),
                           separators=(",", ":"))) * n
    doc.setdefault("end_to_end_points_per_sec", {})[name] = e2e_pps
    scal_pps = _throughput(
        lambda: model.sweep(function, {axis: scalar_values},
                            engine="scalar").fp_series()
    ) * len(scalar_values)
    doc.setdefault("vector_points_per_sec", {})[name] = vec_pps
    doc.setdefault("scalar_points_per_sec", {})[name] = scal_pps
    doc.setdefault("vector_speedup_vs_scalar", {})[name] = vec_pps / scal_pps


@contextmanager
def _counted_walks():
    """Count top-level int64-precheck walks (``_cats_iv`` minus its
    recursion into callees) while the block runs."""
    walk = VecCompiledResult._cats_iv
    count = [0]
    depth = [0]

    def counted(self, *args):
        if depth[0] == 0:
            count[0] += 1
        depth[0] += 1
        try:
            return walk(self, *args)
        finally:
            depth[0] -= 1

    VecCompiledResult._cats_iv = counted
    try:
        yield count
    finally:
        VecCompiledResult._cats_iv = walk


def _repeat_block(doc: dict, name: str, model, function: str,
                  axis: str) -> None:
    """Time repeated sweeps of fresh grids over one range, starting from
    an empty precheck memo."""
    lo, hi = REPEAT_RANGES[name]
    rng = random.Random(f"repeat:{name}")
    model.compiled(engine="vector")._safe_memo.clear()
    times = []
    with _counted_walks() as walks:
        for _ in range(REPEAT_CALLS):
            values = sorted(rng.sample(range(lo, hi + 1), REPEAT_POINTS))
            t0 = time.perf_counter()
            model.sweep(function, {axis: values})
            times.append(time.perf_counter() - t0)
    doc.setdefault("repeat_sweep_ms", {})[name] = {
        "first": times[0] * 1e3,
        "median_rest": statistics.median(times[1:]) * 1e3}
    doc.setdefault("repeat_sweep_walks", {})[name] = walks[0]


def _construction_seconds() -> dict:
    """Full-pipeline wall time with and without expression interning."""
    source = get_source("dgemm")

    def build():
        return Pipeline(AnalysisConfig()).run(source, filename="dgemm")

    def best_of(k, fn):
        times = []
        for _ in range(k):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    interned = best_of(3, build)
    with interning_disabled():
        uninterned = best_of(3, build)
    return {"interned": interned, "uninterned": uninterned}


def run_bench() -> dict:
    doc = {"interpreted_evals_per_sec": {}, "compiled_evals_per_sec": {},
           "speedup": {}, "sweep_points_per_sec": {},
           "sweep_compile_invocations": {}, "construction_seconds": {}}

    # ---- dgemm: the kernel is parametric out of the box -------------------
    dgemm = analyze_workload("dgemm", {"DGEMM_N": 16, "DGEMM_NREP": 1})
    envs = [{"n": p} for p in DGEMM_POINTS]
    interp, compiled = _eval_pair(dgemm, "dgemm_kernel", envs)
    doc["interpreted_evals_per_sec"]["dgemm"] = interp
    doc["compiled_evals_per_sec"]["dgemm"] = compiled
    doc["speedup"]["dgemm"] = compiled / interp

    before = STAGE_RUN_COUNTS["compile"]
    dgemm_sweep = dgemm.sweep("dgemm_kernel", {"n": DGEMM_POINTS})
    doc["sweep_compile_invocations"]["dgemm"] = \
        STAGE_RUN_COUNTS["compile"] - before
    doc["sweep_points_per_sec"]["dgemm"] = _throughput(
        lambda: dgemm.sweep("dgemm_kernel", {"n": DGEMM_POINTS})
    ) * len(DGEMM_POINTS)
    _vector_block(doc, "dgemm", dgemm, "dgemm_kernel", "n", lo=16)
    _repeat_block(doc, "dgemm", dgemm, "dgemm_kernel", "n")

    # ---- stream: the size macro is late-bound by the sweep engine ---------
    before = STAGE_RUN_COUNTS["compile"]
    swept = sweep_workload("stream", {"STREAM_ARRAY_SIZE": SWEEP_SIZES})
    doc["sweep_compile_invocations"]["stream"] = \
        STAGE_RUN_COUNTS["compile"] - before
    doc["sweep_mode_stream"] = swept.mode
    stream = swept.analysis
    envs = [{"STREAM_ARRAY_SIZE": n} for n in SWEEP_SIZES]
    interp, compiled = _eval_pair(stream, "main", envs)
    doc["interpreted_evals_per_sec"]["stream"] = interp
    doc["compiled_evals_per_sec"]["stream"] = compiled
    doc["speedup"]["stream"] = compiled / interp
    doc["sweep_points_per_sec"]["stream"] = _throughput(
        lambda: stream.sweep("main", {"STREAM_ARRAY_SIZE": SWEEP_SIZES})
    ) * len(SWEEP_SIZES)
    _vector_block(doc, "stream", stream, "main", "STREAM_ARRAY_SIZE",
                  lo=1000, step=5)
    _repeat_block(doc, "stream", stream, "main", "STREAM_ARRAY_SIZE")

    doc["construction_seconds"] = _construction_seconds()
    return doc


def test_eval_sweep_bench(benchmark):
    doc = benchmark.pedantic(run_bench, rounds=1, iterations=1)

    # acceptance: compiled evaluation is >= 10x interpreted on both models
    assert doc["speedup"]["dgemm"] >= 10, doc["speedup"]
    assert doc["speedup"]["stream"] >= 10, doc["speedup"]
    # a Fig. 7-style sweep costs at most one compile per workload
    assert doc["sweep_compile_invocations"]["dgemm"] == 0
    assert doc["sweep_compile_invocations"]["stream"] <= 1
    assert doc["sweep_mode_stream"] == "parametric"
    # the vector engine must beat the scalar closures by >= 10x with
    # bit-identical results, on the int64 fast path
    for model in ("dgemm", "stream"):
        assert doc["vector_bit_exact"][model], model
        assert doc["vector_speedup_vs_scalar"][model] >= 10, \
            (model, doc["vector_speedup_vs_scalar"])
        assert doc["vector_stats"][model]["int64_chunks"] >= 1, \
            (model, doc["vector_stats"])

    rows = [
        ["dgemm interpreted evals/s", f"{doc['interpreted_evals_per_sec']['dgemm']:,.0f}"],
        ["dgemm compiled evals/s", f"{doc['compiled_evals_per_sec']['dgemm']:,.0f}"],
        ["dgemm speedup", f"{doc['speedup']['dgemm']:.1f}x"],
        ["stream interpreted evals/s", f"{doc['interpreted_evals_per_sec']['stream']:,.0f}"],
        ["stream compiled evals/s", f"{doc['compiled_evals_per_sec']['stream']:,.0f}"],
        ["stream speedup", f"{doc['speedup']['stream']:.1f}x"],
        ["dgemm sweep points/s", f"{doc['sweep_points_per_sec']['dgemm']:,.0f}"],
        ["stream sweep points/s", f"{doc['sweep_points_per_sec']['stream']:,.0f}"],
        ["dgemm vector points/s", f"{doc['vector_points_per_sec']['dgemm']:,.0f}"],
        ["stream vector points/s", f"{doc['vector_points_per_sec']['stream']:,.0f}"],
        ["dgemm sweep+to_dict+json points/s", f"{doc['end_to_end_points_per_sec']['dgemm']:,.0f}"],
        ["stream sweep+to_dict+json points/s", f"{doc['end_to_end_points_per_sec']['stream']:,.0f}"],
        ["dgemm vector vs scalar", f"{doc['vector_speedup_vs_scalar']['dgemm']:.1f}x"],
        ["stream vector vs scalar", f"{doc['vector_speedup_vs_scalar']['stream']:.1f}x"],
        *[[f"{m} repeated {REPEAT_POINTS}-point sweep (first / median)",
           f"{doc['repeat_sweep_ms'][m]['first']:.2f} / "
           f"{doc['repeat_sweep_ms'][m]['median_rest']:.2f} ms, "
           f"{doc['repeat_sweep_walks'][m]} precheck walks in "
           f"{REPEAT_CALLS} calls"] for m in ("dgemm", "stream")],
        ["sweep compiles (dgemm/stream)",
         f"{doc['sweep_compile_invocations']['dgemm']}/"
         f"{doc['sweep_compile_invocations']['stream']}"],
        ["construction (interned)", f"{doc['construction_seconds']['interned']:.4f}s"],
        ["construction (no interning)", f"{doc['construction_seconds']['uninterned']:.4f}s"],
    ]
    save_table("eval_sweep", rows_to_text(
        "Compiled model evaluation — interpreted vs compiled vs sweep",
        ["metric", "value"], rows,
        note="Compiled = closure-compiled models (hash-consed expressions, "
             "closed-form summations, integer fast path).  Sweep = one "
             "analysis, compiled evaluation at every size.  Vector = "
             "columnar numpy evaluation of the whole grid at once "
             "(int64 fast path under the overflow precheck)."))
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "BENCH_eval_sweep.json"), "w",
              encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    import sys

    import pytest

    raise SystemExit(pytest.main([__file__, "-q", "--benchmark-disable"]
                                 + sys.argv[1:]))
