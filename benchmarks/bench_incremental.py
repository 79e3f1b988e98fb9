"""Incremental re-analysis vs cold full analysis: the edit-loop benchmark.

The workload an IDE/watch loop actually produces: a many-function file
where one small function changes and everything else is untouched.  The
file is 10 model-heavy functions (15-deep triangular loop nests, whose
polyhedral counting dominates the pipeline) plus one trivial leaf and
``main``.  Measures:

* **cold full analysis** — the file-granular ``Pipeline``, every stage on
  every function,
* **warm incremental re-analysis** — ``IncrementalAnalyzer`` after editing
  the trivial leaf: re-runs compile → model for that function and its sole
  caller (``main``), serving the 10 heavy functions from the analyzer's
  in-memory function tier over the per-function cache (the watch-loop
  steady state),
* **bit-identity** — the incremental result must equal the cold result on
  everything but ``stage_timings``,
* **selectivity** — the re-analyzed set must be exactly the edited
  function plus its transitive callers, and the front end must re-parse
  only the edited function (it is spliced into the previous TU; the
  ``parse`` stage's end event names it).

Emits ``benchmarks/out/BENCH_incremental.json``.  CI asserts the speedup
floor (>= 5x) and archives the artifact.
"""

import json
import os
import tempfile
import time

from _common import OUT_DIR, rows_to_text, save_table

from repro.core import AnalysisConfig, IncrementalAnalyzer, Pipeline
from repro.core.pipeline import reset_stage_counters

N_HEAVY = 10
DEPTH = 15
EDIT_TARGET = "tweak"
ROUNDS = 3   # best-of for wall-time stability


def heavy_fn(i: int, depth: int = DEPTH) -> str:
    """A triangular ``depth``-deep loop nest: cheap to parse, expensive to
    model (the Faulhaber closed forms reach degree ``depth``)."""
    loops = "\n".join(
        "  " * (d + 1)
        + f"for (int i{d + 1} = 0; i{d + 1} < "
          f"{'n' if d == 0 else f'i{d}'}; i{d + 1}++)"
        for d in range(depth))
    vars_ = " + ".join(f"i{d + 1}" for d in range(depth))
    pad = "  " * (depth + 1)
    stmts = "\n".join(pad + f"  s = s + {vars_} * {j + 2 + i};"
                      for j in range(2))
    return (f"int work{i}(int n) {{\n  int s = {i};\n{loops}\n"
            f"{pad}{{\n{stmts}\n{pad}}}\n  return s;\n}}")


def make_source(nheavy: int = N_HEAVY) -> str:
    parts = [heavy_fn(i) for i in range(nheavy)]
    parts.append("int tweak(int n) { int s = 0; "
                 "for (int i = 0; i < n; i++) s = s + i * 3; return s; }")
    calls = " + ".join(f"work{i}(40)" for i in range(nheavy))
    parts.append(f"int main() {{ return {calls} + tweak(40); }}")
    return "\n".join(parts) + "\n"


def edit_source(source: str) -> str:
    """A line-structure-preserving edit of the trivial leaf's body."""
    target = "s = s + i * 3;"
    assert source.count(target) == 1
    return source.replace(target, "s = s + i * 3 + 1;")


def best_of(fn, rounds: int = ROUNDS) -> tuple[float, object]:
    best, result = None, None
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best, result = dt, out
    return best, result


def strip_timings(result) -> dict:
    doc = result.to_dict()
    doc.pop("stage_timings", None)
    return doc


def run_bench() -> dict:
    source = make_source()
    edited = edit_source(source)
    cfg_base = AnalysisConfig()

    cold_full_s, _ = best_of(
        lambda: Pipeline(cfg_base).run(source, filename="bench.c"))
    cold_edited_s, cold_edited = best_of(
        lambda: Pipeline(cfg_base).run(edited, filename="bench.c"))

    # Each round primes its own analyzer with the pre-edit file, then
    # times the post-edit analysis — the watch-loop steady state (warm
    # in-process memo).  A shared analyzer across rounds would measure a
    # fully-warm no-op from round 2 on instead of the edit.
    incremental_s, inc = None, None
    for _ in range(ROUNDS):
        with tempfile.TemporaryDirectory(prefix="mira-bench-incr-") as tmp:
            analyzer = IncrementalAnalyzer(
                cfg_base.with_changes(cache_dir=tmp, use_cache=True))
            analyzer.analyze(source, filename="bench.c")  # prime the cache
            parses = []
            analyzer.add_observer(
                lambda e: parses.append(e.function)
                if e.stage == "parse" and e.phase == "end" else None)
            reset_stage_counters()
            t0 = time.perf_counter()
            out = analyzer.analyze(edited, filename="bench.c")
            dt = time.perf_counter() - t0
        if incremental_s is None or dt < incremental_s:
            incremental_s, inc = dt, out
            # None: the whole file was parsed.
            reparsed = sorted(q or "<file>" for q in parses)

    assert strip_timings(inc) == strip_timings(cold_edited), \
        "incremental result must be bit-identical to a cold analysis"
    reanalyzed = sorted(inc.fresh_functions())
    assert reanalyzed == sorted([EDIT_TARGET, "main"]), reanalyzed
    assert len(inc.restored_functions) == N_HEAVY
    assert reparsed == [EDIT_TARGET], reparsed

    return {
        "bench": "incremental",
        "functions": N_HEAVY + 2,
        "edit_target": EDIT_TARGET,
        "cold_full_seconds": round(cold_full_s, 6),
        "cold_edited_seconds": round(cold_edited_s, 6),
        "incremental_seconds": round(incremental_s, 6),
        "speedup_vs_cold": round(cold_edited_s / incremental_s, 2),
        "functions_reanalyzed": reanalyzed,
        "functions_restored": len(inc.restored_functions),
        "functions_reparsed": reparsed,
        "cold_parse_seconds": round(cold_edited.stage_timings["parse"], 6),
        "incremental_parse_seconds": round(inc.stage_timings["parse"], 6),
        "bit_identical": True,
    }


def test_incremental_bench(benchmark):
    doc = benchmark.pedantic(run_bench, rounds=1, iterations=1)

    # acceptance: editing 1 small function of 12 must be >= 5x cheaper
    # than a cold re-analysis (10 heavy models skipped; only parse and
    # the memo lookups remain on the warm path)
    assert doc["speedup_vs_cold"] >= 5, doc
    assert doc["bit_identical"]

    rows = [
        ["functions in file", str(doc["functions"])],
        ["cold full analysis", f"{doc['cold_full_seconds'] * 1000:.1f}ms"],
        ["cold re-analysis after edit",
         f"{doc['cold_edited_seconds'] * 1000:.1f}ms"],
        ["incremental re-analysis",
         f"{doc['incremental_seconds'] * 1000:.1f}ms"],
        ["speedup", f"{doc['speedup_vs_cold']:.1f}x"],
        ["functions re-analyzed", ", ".join(doc["functions_reanalyzed"])],
        ["functions restored", str(doc["functions_restored"])],
        ["functions re-parsed", ", ".join(doc["functions_reparsed"])],
        ["parse, cold / incremental",
         f"{doc['cold_parse_seconds'] * 1000:.2f}ms / "
         f"{doc['incremental_parse_seconds'] * 1000:.2f}ms"],
    ]
    save_table("incremental", rows_to_text(
        "Incremental re-analysis — one edited function of "
        f"{doc['functions']}",
        ["metric", "value"], rows,
        note="Incremental = per-function fingerprints over the shared "
             "model cache with an in-memory function tier; the edit "
             "re-parses only the edited function, invalidates exactly it "
             "plus its callers, and the assembled result is "
             "bit-identical to a cold run."))
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "BENCH_incremental.json"), "w",
              encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    import sys

    import pytest

    raise SystemExit(pytest.main([__file__, "-q", "--benchmark-disable"]
                                 + sys.argv[1:]))
