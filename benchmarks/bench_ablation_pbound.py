"""Ablation: source-only static analysis (PBound) vs source+binary (Mira).

The paper's central design argument (I, V): source-only estimates "ignore
the effects of compiler transformations, frequently resulting in bound
estimates that are not realistically achievable."  We quantify it: on the
optimized (-O2) binary, PBound's source-level operation estimate overcounts
what actually executes (index arithmetic folded into SIB addressing, hot
scalars promoted to registers), while Mira matches the dynamic measurement.
"""

from _common import error_pct, rows_to_text, save_table

from repro.baselines import PBoundAnalyzer
from repro.core import AnalysisConfig, Pipeline
from repro.dynamic import TauProfiler
from repro.workloads import get_source

N = 5000

SRC_DEFS = {"STREAM_ARRAY_SIZE": str(N)}


def build():
    src = get_source("stream")
    model = Pipeline(AnalysisConfig(opt_level=2)).run(src,
                                                      predefined=SRC_DEFS)
    rep = TauProfiler(model.processed).profile("main")
    pb = PBoundAnalyzer(model.processed.tu)
    return model, rep, pb


def test_ablation_pbound_vs_mira(benchmark):
    model, rep, pb = build()
    pb_counts = benchmark(
        lambda: pb.analyze_function("tuned_triad").evaluate({"n": N}))

    mira = model.evaluate("tuned_triad", {"n": N})
    dyn = rep.function("tuned_triad").categories

    # FP: everyone agrees (FP ops survive optimization untouched)
    mira_fp = mira.fp_instructions(model.arch.fp_arith_categories)
    dyn_fp = sum(v for k, v in dyn.items()
                 if k in model.arch.fp_arith_categories)
    assert pb_counts["flops"] == mira_fp == dyn_fp == 2 * N

    # data movement: PBound counts every source-level access; the binary
    # (and reality) keeps scalars in registers
    mira_mov = (mira.as_dict().get("Integer data transfer instruction", 0)
                + mira.as_dict().get("SSE2 data movement instruction", 0))
    dyn_mov = (dyn.get("Integer data transfer instruction", 0)
               + dyn.get("SSE2 data movement instruction", 0))
    pb_mov = pb_counts["loads"] + pb_counts["stores"]

    # integer ops: PBound charges the index arithmetic SIB folds away
    mira_int = mira.as_dict().get("Integer arithmetic instruction", 0)
    pb_int = pb_counts["int_ops"]

    rows = [
        ["FP instructions", pb_counts["flops"], mira_fp, dyn_fp],
        ["data movement", pb_mov, mira_mov, dyn_mov],
        ["integer ops", pb_int, mira_int,
         dyn.get("Integer arithmetic instruction", 0)],
    ]
    save_table("ablation_pbound", rows_to_text(
        f"Ablation — PBound (source-only) vs Mira (source+binary) vs "
        f"dynamic, STREAM triad N={N}, -O2",
        ["Metric", "PBound", "Mira", "Dynamic"], rows,
        note="Reproduced claim: Mira matches the dynamic measurement "
             "(same binary); PBound overestimates data movement and "
             "integer work the optimizer removed."))

    assert error_pct(dyn_mov, mira_mov) < 1.0
    assert pb_mov > dyn_mov * 1.3, "PBound should overcount data movement"
    assert pb_int > mira_int, "PBound should overcount integer ops"


def test_ablation_pbound_dgemm(benchmark):
    n = 64
    src = get_source("dgemm")
    model = Pipeline(AnalysisConfig(opt_level=2)).run(
        src, predefined={"DGEMM_N": str(n), "DGEMM_NREP": "1"})
    pb = PBoundAnalyzer(model.processed.tu)
    pb_counts = benchmark(
        lambda: pb.analyze_function("dgemm_kernel").evaluate({"n": n}))
    mira = model.evaluate("dgemm_kernel", {"n": n})
    mira_fp = mira.fp_instructions(model.arch.fp_arith_categories)
    assert pb_counts["flops"] == mira_fp == 2 * n ** 3 + n ** 2
    # PBound's i*n+k / k*n+j index arithmetic: ≥ 4 int ops per inner
    # iteration that the binary folds into addressing modes
    mira_int = mira.as_dict().get("Integer arithmetic instruction", 0)
    assert pb_counts["int_ops"] > mira_int


if __name__ == "__main__":
    import sys

    import pytest

    raise SystemExit(pytest.main([__file__, "-q", "--benchmark-disable"]
                                 + sys.argv[1:]))
