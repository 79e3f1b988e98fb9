"""Section IV-D.1 tradeoff: static model cost vs dynamic measurement cost.

"Our model only needs to be generated once, and then can be evaluated (at
low computational cost) for different user inputs ... performance analysis
by a parametric model can be used to achieve broad coverage without
incurring the costs of many application executions."

This bench measures exactly that: one model generation amortized over a
parameter sweep, vs. one dynamic run *per input size* whose cost grows with
the input.  It also demonstrates the Haswell case: FP counters do not exist
on `arya`, so the dynamic route cannot produce FPI there at all.
"""

import time

import pytest

from _common import fmt_sci, rows_to_text, save_table

from repro.compiler import default_arch
from repro.core import AnalysisConfig, Pipeline
from repro.dynamic import TauProfiler, preset_categories
from repro.errors import MiraError
from repro.workloads import get_source

SWEEP = [5_000, 10_000, 20_000, 40_000]


def test_static_sweep_vs_dynamic_runs(benchmark):
    # static: generate once (any size; the kernel models are parametric),
    # then evaluate the kernel across the sweep.
    t0 = time.perf_counter()
    model = Pipeline().run(get_source("stream"),
                           predefined={"STREAM_ARRAY_SIZE": str(SWEEP[0])})
    gen_time = time.perf_counter() - t0

    def static_sweep():
        return [model.fp_instructions("tuned_triad", {"n": n}) for n in SWEEP]

    series = benchmark(static_sweep)
    t0 = time.perf_counter()
    static_sweep()
    eval_time = time.perf_counter() - t0

    # dynamic: one full run per size
    dyn_times = []
    dyn_fp = []
    for n in SWEEP:
        m = Pipeline().run(get_source("stream"),
                           predefined={"STREAM_ARRAY_SIZE": str(n)})
        t0 = time.perf_counter()
        rep = TauProfiler(m.processed).profile("main")
        dyn_times.append(time.perf_counter() - t0)
        dyn_fp.append(rep.fp_ins("main"))

    rows = [[f"{n:,}", fmt_sci(fp), f"{dt * 1000:.0f} ms"]
            for n, fp, dt in zip(SWEEP, series, dyn_times)]
    rows.append(["(static: generate once)", f"{gen_time * 1000:.0f} ms", ""])
    rows.append(["(static: whole sweep eval)", f"{eval_time * 1000:.1f} ms", ""])
    save_table("static_vs_dynamic_cost", rows_to_text(
        "IV-D.1 — cost of static modeling vs dynamic measurement",
        ["Input size", "Triad FPI (static)", "Dynamic run time"], rows,
        note="Dynamic cost grows with input size; the static model is "
             "generated once and swept for free."))

    # dynamic cost grows with size; static sweep is (much) cheaper than
    # even the smallest dynamic run
    assert dyn_times[-1] > dyn_times[0]
    assert eval_time < min(dyn_times)
    # static triad counts: 2 FP per element
    assert series == [2 * n for n in SWEEP]


def test_haswell_fp_counters_missing(benchmark):
    """On arya (Haswell) PAPI has no FP_INS counter — static analysis is
    the only way to obtain FP metrics (paper IV-D.1)."""
    arya = default_arch("arya")

    def attempt():
        with pytest.raises(MiraError):
            preset_categories("PAPI_FP_INS", arya)
        return True

    assert benchmark(attempt)
    model = Pipeline(AnalysisConfig(arch=arya)).run(
        get_source("stream"), predefined={"STREAM_ARRAY_SIZE": "1000"})
    # ... while the static model still reports FPI on that machine model
    assert model.fp_instructions("tuned_triad", {"n": 1000}) == 2000


if __name__ == "__main__":
    import sys

    import pytest

    raise SystemExit(pytest.main([__file__, "-q", "--benchmark-disable"]
                                 + sys.argv[1:]))
