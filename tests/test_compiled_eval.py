"""Compiled model evaluation: hash-consing, closure compilation, sweeps.

The acceptance surface of the compiled-evaluation subsystem:

* hash-consing invariants — ``a + b is a + b``, interning survives the
  serialization round-trip, equality is identity;
* compiled-vs-interpreted equivalence — exact ``Fraction`` equality across
  every function of all 15 corpus programs at >= 3 parameter points each,
  plus targeted cases (branch ratios, lazy sums, fractional bounds);
* the Metrics/_mira_sum integer fast paths keep exact semantics;
* the sweep engine — parametric late binding (one compile per workload),
  the per-point fallback, and the ``mira sweep`` CLI.
"""

import json
from fractions import Fraction

import pytest

from repro.core import (AnalysisConfig, Pipeline, STAGE_RUN_COUNTS,
                        sweep_source)
from repro.core.model_runtime import (Metrics, _mira_ceil, _mira_exact,
                                      _mira_floor, _mira_sum)
from repro.core.sweep import expand_grid
from repro.cli import main as cli_main
from repro.errors import ModelError, SymbolicError
from repro.symbolic import (Int, Max, Min, Sum, Sym, compile_expr,
                            expr_from_json, expr_to_json)
from repro.symbolic.expr import interning_disabled
from repro.workloads import available, get_source, source_path

SCALE_SRC = """
void scale(double *a, double s, int n)
{
    for (int i = 0; i < n; i++)
        a[i] = s * a[i];
}
"""

RATIO_SRC = """
double f(double *a, int n)
{
    double acc = 0.0;
    for (int i = 0; i < n; i++) {
        #pragma @Annotation {ratio:0.25}
        if (a[i] > 0.5)
            acc = acc + a[i];
    }
    return acc;
}
"""


def exact_counts(metrics: Metrics) -> dict:
    return {k: Fraction(v) for k, v in metrics.counts.items()}


# ---------------------------------------------------------------------------
# hash-consing
# ---------------------------------------------------------------------------

class TestHashConsing:
    def test_identity_of_equal_trees(self):
        a, b = Sym("a"), Sym("b")
        assert (a + b) is (a + b)
        assert (2 * a ** 3 + b) is (2 * a ** 3 + b)
        assert Int(42) is Int(42)
        assert Int(Fraction(1, 3)) is Int(Fraction(1, 3))
        assert Sym("x") is Sym("x")

    def test_identity_across_construction_paths(self):
        n = Sym("n")
        via_ops = n * n + 3 * n
        via_make = (n ** 2) + (n * 3)
        assert via_ops is via_make

    def test_interning_survives_serialize_round_trip(self):
        n, k = Sym("n"), Sym("k")
        exprs = [
            2 * n ** 3 + n ** 2,
            Max.make((Int(0), n - 5)),
            Min.make((n, Int(7))) // 2,
            Sum(Max.make((Int(0), n - k)), "k", Int(0), n),
            Int(Fraction(5, 3)) * n,
        ]
        for e in exprs:
            assert expr_from_json(expr_to_json(e)) is e

    def test_interning_disabled_is_equal_but_distinct(self):
        a, b = Sym("a"), Sym("b")
        canonical = a + b
        with interning_disabled():
            fresh = Sym("a") + Sym("b")
        assert fresh == canonical
        assert fresh is not canonical
        # back on: identity restored
        assert (a + b) is canonical

    def test_free_symbols_cached_and_correct(self):
        e = Sum(Sym("n") * Sym("k"), "k", Int(0), Sym("m"))
        first = e.free_symbols()
        assert first == frozenset({"n", "m"})
        assert e.free_symbols() is first  # cached object


# ---------------------------------------------------------------------------
# compiled expressions
# ---------------------------------------------------------------------------

class TestCompileExpr:
    def test_polynomial_exact(self):
        n = Sym("n")
        e = 2 * n ** 3 + Int(Fraction(1, 2)) * n + 7
        ce = compile_expr(e)
        for v in (0, 1, 13, 10 ** 6, Fraction(5, 2)):
            assert Fraction(ce({"n": v})) == e.evaluate({"n": v})

    def test_integer_fast_path_returns_int(self):
        n = Sym("n")
        ce = compile_expr(2 * n ** 3 + n)
        assert type(ce({"n": 9})) is int

    def test_closed_form_sum_matches_lazy_sum(self):
        n, m = Sym("n"), Sym("m")
        s = Sum(n * Sym("k") + 1, "k", Int(0), m)
        ce = compile_expr(s)
        for env in ({"n": 3, "m": 5}, {"n": 3, "m": 0}, {"n": 3, "m": -1},
                    {"n": 3, "m": -10}, {"n": 2, "m": Fraction(7, 2)}):
            assert Fraction(ce(env)) == s.evaluate(env), env

    def test_fractional_lower_bound(self):
        m = Sym("m")
        s = Sum(Sym("k"), "k", Int(Fraction(3, 2)), m)
        ce = compile_expr(s)
        for mm in (5, 2, 1, 0, Fraction(9, 2)):
            assert Fraction(ce({"m": mm})) == s.evaluate({"m": mm}), mm

    def test_non_polynomial_body_loop_fallback(self):
        n, m = Sym("n"), Sym("m")
        s = Sum(Max.make((Int(0), n - Sym("k"))), "k", Int(0), m)
        ce = compile_expr(s)
        assert "_mira_sum" in ce.source
        for env in ({"n": 4, "m": 9}, {"n": 0, "m": -3}):
            assert Fraction(ce(env)) == s.evaluate(env)

    def test_unbound_symbol_raises(self):
        ce = compile_expr(Sym("n") + 1)
        with pytest.raises(SymbolicError):
            ce({})

    def test_float_binding_rejected(self):
        ce = compile_expr(Sym("n") + 1)
        with pytest.raises(SymbolicError):
            ce({"n": 1.5})

    def test_params_must_cover_free_symbols(self):
        with pytest.raises(SymbolicError):
            compile_expr(Sym("n") + Sym("m"), params=("n",))


# ---------------------------------------------------------------------------
# runtime fast paths
# ---------------------------------------------------------------------------

class TestRuntimeFastPaths:
    def test_metrics_int_accumulation_stays_int(self):
        m = Metrics()
        m.add({"ADD": 2}, 10)
        m.add({"ADD": 3}, 4)
        assert type(m.counts["ADD"]) is int
        assert m.counts["ADD"] == 32

    def test_metrics_rational_entry_switches_exactly(self):
        m = Metrics()
        m.add({"ADD": 2}, 10)
        m.add({"ADD": 1}, Fraction(1, 3))
        assert m.counts["ADD"] == Fraction(61, 3)
        assert m.get("ADD") == 20  # rounded on report only

    def test_metrics_float_times_becomes_exact(self):
        m = Metrics()
        m.add({"MUL": 4}, 0.25)
        assert m.counts["MUL"] == 1

    def test_mira_sum_integer_body_returns_int(self):
        total = _mira_sum(lambda k: 2 * k, 1, 10)
        assert type(total) is int and total == 110

    def test_mira_sum_empty_and_reversed_ranges_are_zero(self):
        # The documented empty-range convention: [ceil(lo), floor(hi)]
        # empty -> 0, exactly like loop execution and Sum.evaluate.
        assert _mira_sum(lambda k: k, 5, 4) == 0
        assert _mira_sum(lambda k: k, 5, -100) == 0

    def test_mira_sum_fractional_bounds_match_sum_evaluate(self):
        s = Sum(Sym("k"), "k", Sym("lo"), Sym("hi"))
        for lo, hi in ((Fraction(3, 2), 4), (Fraction(-3, 2), Fraction(5, 2)),
                       (0, Fraction(7, 2))):
            assert _mira_sum(lambda k: k, lo, hi) == \
                s.evaluate({"lo": lo, "hi": hi})

    def test_mira_helpers(self):
        assert _mira_ceil(Fraction(3, 2)) == 2
        assert _mira_ceil(-Fraction(3, 2)) == -1
        assert _mira_floor(Fraction(3, 2)) == 1
        assert _mira_floor(-Fraction(3, 2)) == -2
        assert _mira_ceil(7) == _mira_floor(7) == 7
        assert _mira_exact(Fraction(6, 2)) == 3 and \
            type(_mira_exact(Fraction(6, 2))) is int
        assert _mira_exact(Fraction(1, 2)) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# compiled models
# ---------------------------------------------------------------------------

class TestCompiledModels:
    def test_branch_ratio_model_exact(self):
        result = Pipeline().run(RATIO_SRC)
        for env in ({"n": 100}, {"n": 0}, {"n": 7}):
            assert exact_counts(result.evaluate_compiled("f", env)) == \
                exact_counts(result.evaluate("f", env))
        # the ratio puts genuine rationals in the counts
        assert any(Fraction(v).denominator > 1
                   for v in result.evaluate("f", {"n": 7}).counts.values())

    def test_missing_parameter_error_parity(self):
        result = Pipeline().run(SCALE_SRC)
        with pytest.raises(ModelError) as interp:
            result.evaluate("scale", {})
        with pytest.raises(ModelError) as comp:
            result.evaluate_compiled("scale", {})
        assert str(interp.value) == str(comp.value)

    def test_compiled_result_is_cached(self):
        result = Pipeline().run(SCALE_SRC)
        assert result.compiled() is result.compiled()

    def test_all_corpus_programs_bit_exact(self):
        """Acceptance: compiled == interpreted (Fraction-equal) for every
        function of all 15 corpus programs at 3 parameter points each."""
        pipeline = Pipeline()
        for name in available():
            result = pipeline.run_file(source_path(name))
            for qname in result.models:
                for binding in (3, 7, 13):
                    env = {p: binding for p in result.parameters(qname)}
                    assert exact_counts(
                        result.evaluate_compiled(qname, env)) == \
                        exact_counts(result.evaluate(qname, env)), \
                        (name, qname, binding)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

class TestSweep:
    def test_expand_grid_product_and_points(self):
        names, envs = expand_grid({"a": [1, 2], "b": [10]})
        assert names == ("a", "b")
        assert envs == [{"a": 1, "b": 10}, {"a": 2, "b": 10}]
        names, envs = expand_grid([{"a": 1}, {"a": 2, "b": 3}])
        assert names == ("a", "b") and len(envs) == 2
        with pytest.raises(ModelError):
            expand_grid({})

    def test_model_sweep_matches_pointwise_evaluation(self):
        result = Pipeline().run(SCALE_SRC)
        swept = result.sweep("scale", {"n": [1, 10, 100]})
        for point in swept:
            assert exact_counts(point.metrics) == exact_counts(
                result.evaluate("scale", point.env))

    def test_dgemm_param_sweep_is_parametric_single_compile(self):
        before = STAGE_RUN_COUNTS["compile"]
        swept = sweep_source(get_source("dgemm"), {"n": [16, 32, 64]},
                             function="dgemm_kernel",
                             config=AnalysisConfig(use_cache=False),
                             filename="dgemm")
        assert swept.mode == "parametric"
        assert STAGE_RUN_COUNTS["compile"] - before <= 1
        assert swept.fp_series() == [2 * n ** 3 + n ** 2
                                     for n in (16, 32, 64)]

    def test_stream_macro_sweep_late_binds_one_compile(self):
        sizes = [1000, 5000, 20000]
        before = STAGE_RUN_COUNTS["compile"]
        swept = sweep_source(get_source("stream"),
                             {"STREAM_ARRAY_SIZE": sizes},
                             config=AnalysisConfig(use_cache=False),
                             filename="stream")
        assert swept.mode == "parametric"
        assert STAGE_RUN_COUNTS["compile"] - before <= 1
        # FP counts agree exactly with concrete per-size analyses
        for n, fp in zip(sizes, swept.fp_series()):
            concrete = Pipeline(AnalysisConfig(
                predefined={"STREAM_ARRAY_SIZE": n})).run(
                    get_source("stream"), filename="stream")
            assert fp == concrete.fp_instructions("main") == 46 * n + 120

    def test_per_point_fallback_with_disk_cache(self, tmp_path):
        # COLS sizes an *inner* array dimension — it feeds the address
        # linearization stride, so the frontend cannot late-bind it and
        # the sweep must fall back to one cached analysis per point.
        src = """
        #ifndef COLS
        #define COLS 4
        #endif
        double m[8][COLS];
        double f(int r)
        {
            double acc = 0.0;
            for (int i = 0; i < r; i++)
                for (int j = 0; j < COLS; j++)
                    acc = acc + m[i][j];
            return acc;
        }
        """
        config = AnalysisConfig(use_cache=True, cache_dir=str(tmp_path))
        swept = sweep_source(src, {"COLS": [2, 4]}, function="f",
                             config=config, filename="cols.c",
                             base={"r": 8})
        assert swept.mode == "per-point"
        assert swept.analyses == 2
        assert swept.fp_series() == [8 * 2, 8 * 4]  # one fadd per element
        # warm re-run: every point served from the content-addressed disk
        # cache (the in-process memo is cleared to prove the disk path)
        from repro.core import sweep as sweep_mod
        sweep_mod.SWEEP_STORE.clear()
        swept2 = sweep_source(src, {"COLS": [2, 4]}, function="f",
                              config=config, filename="cols.c",
                              base={"r": 8})
        assert swept2.analyses == 0
        assert swept2.fp_series() == swept.fp_series()

    def test_sweep_result_json_document(self):
        result = Pipeline().run(SCALE_SRC)
        doc = result.sweep("scale", {"n": [2, 4]}).to_dict()
        assert doc["kind"] == "SweepResult"
        assert doc["schema_version"] == 1
        assert doc["layout"] == "columns"
        assert doc["columns"]["params"]["n"] == [2, 4]
        json.dumps(doc)  # JSON-able


class TestSweepCLI:
    def test_cli_sweep_json(self, capsys):
        rc = cli_main(["sweep", source_path("dgemm"), "-p", "n=16,32",
                       "--function", "dgemm_kernel", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "SweepResult"
        assert doc["columns"]["fp_ins"] == \
            [2 * 16 ** 3 + 16 ** 2, 2 * 32 ** 3 + 32 ** 2]

    def test_cli_sweep_range_table(self, capsys):
        rc = cli_main(["sweep", source_path("stream"),
                       "-p", "STREAM_ARRAY_SIZE=1e3..1e5", "--points", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "parametric" in out
        assert "FP_INS" in out

    def test_cli_sweep_bad_spec_exits(self):
        with pytest.raises(SystemExit):
            cli_main(["sweep", source_path("dgemm"), "-p", "nonsense"])
