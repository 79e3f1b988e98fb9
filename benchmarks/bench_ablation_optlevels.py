"""Ablation: optimization level effects on the modeled instruction mix.

Mira reads the *post-optimization* binary, so its models track compiler
decisions: O0's explicit address arithmetic and memory-resident scalars,
O2's SIB folding + register promotion, O3's SSE2 vectorization (halved FP
instruction count at the same FP operation count).  A source-only model is
constant across all of these — the paper's accuracy argument, viewed from
the other side.
"""

import pytest

from _common import rows_to_text, save_table

from repro.core import AnalysisConfig, Pipeline, arithmetic_intensity
from repro.workloads import get_source

N = 10000
DEFS = {"STREAM_ARRAY_SIZE": str(N)}


def model_at(opt):
    return Pipeline(AnalysisConfig(opt_level=opt)).run(get_source("stream"),
                                                       predefined=DEFS)


@pytest.fixture(scope="module")
def models():
    return {opt: model_at(opt) for opt in (0, 1, 2, 3)}


def test_ablation_opt_levels(benchmark, models):
    def summarize():
        out = {}
        for opt, model in models.items():
            m = model.evaluate("tuned_triad", {"n": N})
            d = m.as_dict()
            out[opt] = {
                "total": m.total(),
                "fp": m.fp_instructions(model.arch.fp_arith_categories),
                "int_arith": d.get("Integer arithmetic instruction", 0),
                "mov": d.get("Integer data transfer instruction", 0)
                + d.get("SSE2 data movement instruction", 0),
                "ai": arithmetic_intensity(m, model.arch),
            }
        return out

    s = benchmark(summarize)
    rows = [[f"O{opt}", v["total"], v["fp"], v["int_arith"], v["mov"],
             f"{v['ai']:.3f}"] for opt, v in s.items()]
    save_table("ablation_optlevels", rows_to_text(
        f"Ablation — triad model vs optimization level (N={N})",
        ["Opt", "Total", "FP", "IntArith", "DataMov", "AI"], rows,
        note="O0: explicit address arithmetic + memory-resident scalars. "
             "O1: SIB addressing. O2: + scalar register promotion. "
             "O3: + 2-wide SSE2 vectorization (FP instruction count halves "
             "while FP *operations* stay constant)."))

    # O0 does more of everything
    assert s[0]["total"] > s[2]["total"]
    assert s[0]["int_arith"] > s[1]["int_arith"]  # address arithmetic
    assert s[1]["mov"] >= s[2]["mov"]             # promotion removes moves
    # scalar FP identical O0-O2
    assert s[0]["fp"] == s[1]["fp"] == s[2]["fp"] == 2 * N
    # vectorization halves FP instructions (packed ops cover 2 lanes)
    assert s[3]["fp"] == pytest.approx(N, rel=0.01)


def test_vectorization_detected_on_stream(benchmark, models):
    """All four STREAM kernels are vectorizable; O3 marks them."""
    from repro.compiler import mark_vectorizable_loops
    from repro.frontend import parse_source

    tu = parse_source(get_source("stream"), predefined=DEFS)

    def count_marked():
        return sum(mark_vectorizable_loops(f) for f in tu.all_functions())

    assert benchmark(count_marked) == 4


if __name__ == "__main__":
    import sys

    import pytest

    raise SystemExit(pytest.main([__file__, "-q", "--benchmark-disable"]
                                 + sys.argv[1:]))
