"""Compiled model evaluation: hash-consing, scalar emission, sweeps.

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

import numpy as np
import pytest

from repro.core import (AnalysisConfig, AnalysisResult, Pipeline,
                        STAGE_RUN_COUNTS, evaluate_model, sweep_source)
from repro.core.model_runtime import (Metrics, _mira_ceil, _mira_exact,
                                      _mira_floor, _mira_scaled, _mira_sum,
                                      _mira_where)
from repro.core.sweep import _grid_columns
from repro.cli import main as cli_main
from repro.errors import ModelError, SymbolicError
from repro.symbolic import (FloorDiv, Int, Max, Min, Sum, Sym, expr_from_json,
                            expr_to_json, expr_to_python)
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
# scalar emission of single expressions
# ---------------------------------------------------------------------------

def run_emitted(e, env):
    """Evaluate ``e`` as the generated model module does: rendered by the
    scalar emitter and run with the runtime helpers the module imports.
    Returns ``(value, source)``."""
    source = expr_to_python(e, rename=lambda p: "v_" + p)
    ns = {"Fraction": Fraction, "_mira_sum": _mira_sum,
          "_mira_ceil": _mira_ceil, "_mira_floor": _mira_floor,
          "_mira_exact": _mira_exact, "_mira_scaled": _mira_scaled,
          "_mira_where": _mira_where}
    ns.update({"v_" + k: v for k, v in env.items()})
    return eval(source, ns), source


class TestCompileExpr:
    def test_polynomial_exact(self):
        n = Sym("n")
        e = 2 * n ** 3 + Int(Fraction(1, 2)) * n + 7
        for v in (0, 1, 13, 10 ** 6, Fraction(5, 2)):
            got, _ = run_emitted(e, {"n": v})
            assert Fraction(got) == e.evaluate({"n": v})

    def test_integer_fast_path_returns_int(self):
        n = Sym("n")
        got, _ = run_emitted(2 * n ** 3 + n, {"n": 9})
        assert type(got) is int

    def test_closed_form_sum_matches_lazy_sum(self):
        n, m = Sym("n"), Sym("m")
        s = Sum(n * Sym("k") + 1, "k", Int(0), m)
        for env in ({"n": 3, "m": 5}, {"n": 3, "m": 0}, {"n": 3, "m": -1},
                    {"n": 3, "m": -10}, {"n": 2, "m": Fraction(7, 2)}):
            got, source = run_emitted(s, env)
            assert "_mira_sum" not in source
            assert Fraction(got) == s.evaluate(env), env

    def test_fractional_lower_bound(self):
        m = Sym("m")
        s = Sum(Sym("k"), "k", Int(Fraction(3, 2)), m)
        for mm in (5, 2, 1, 0, Fraction(9, 2)):
            got, _ = run_emitted(s, {"m": mm})
            assert Fraction(got) == s.evaluate({"m": mm}), mm

    def test_non_polynomial_body_loop_fallback(self):
        n, m = Sym("n"), Sym("m")
        s = Sum(Max.make((Int(0), n - Sym("k"))), "k", Int(0), m)
        for env in ({"n": 4, "m": 9}, {"n": 0, "m": -3}):
            got, source = run_emitted(s, env)
            assert "_mira_sum" in source
            assert Fraction(got) == s.evaluate(env)

    def test_loop_fallback_binds_a_keyword_summation_variable(self):
        s = Sum(FloorDiv(Sym("in") * Sym("n"), Int(3)), "in", Int(0),
                Sym("n"))
        got, source = run_emitted(s, {"n": 10})
        assert "_mira_sum" in source
        assert Fraction(got) == s.evaluate({"n": 10})


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
        assert _mira_scaled(12, 4) == 3 and type(_mira_scaled(12, 4)) is int
        assert _mira_scaled(Fraction(3), 2) == Fraction(3, 2)
        assert type(_mira_scaled(Fraction(6), 2)) is int
        assert _mira_where(True, 5, 0) == 5 and _mira_where(False, 5, 0) == 0


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

    def test_tree_walk_matches_compiled_values_and_types(self):
        """On every corpus function and on a branch-ratio model the tree
        walk returns the compiled module's counts, value for value and type
        for type: integral counts as ``int``, rational ones as
        ``Fraction``."""
        def typed(metrics):
            return {k: (v, type(v)) for k, v in metrics.counts.items()}

        pipeline = Pipeline()
        results = [pipeline.run_file(source_path(name))
                   for name in available()]
        results.append(pipeline.run(RATIO_SRC))
        kinds = set()
        for result in results:
            for qname in result.models:
                for binding in (4, 7):
                    env = {p: binding for p in result.parameters(qname)}
                    walked = result.evaluate(qname, env)
                    assert typed(walked) == typed(
                        result.evaluate_compiled(qname, env)), (qname, env)
                    for v in walked.counts.values():
                        assert type(v) is (
                            int if Fraction(v).denominator == 1
                            else Fraction)
                        kinds.add(type(v))
        assert kinds == {int, Fraction}

    def test_missing_parameter_error_parity(self):
        result = Pipeline().run(SCALE_SRC)
        with pytest.raises(ModelError) as interp:
            result.evaluate("scale", {})
        with pytest.raises(ModelError) as comp:
            result.evaluate_compiled("scale", {})
        assert str(interp.value) == str(comp.value)

    @pytest.mark.parametrize("engine, env, error", [
        ("scalar", {"n": 8.0}, SymbolicError),
        ("scalar", {}, ModelError),
        ("vector", {"n": 8.0}, SymbolicError),
        ("vector", {"n": np.array([8.0, 9.0])}, SymbolicError),
        ("vector", {}, ModelError),
    ])
    def test_evaluator_rejects_bad_binding(self, engine, env, error):
        """Each engine's evaluator checks its own bindings: a float is never
        exact, and every model parameter must be bound."""
        compiled = Pipeline().run(SCALE_SRC).compiled(engine=engine)
        run = (compiled.evaluate if engine == "scalar"
               else compiled.evaluate_grid)
        run("scale", {"n": 8})
        with pytest.raises(error):
            run("scale", env)

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


# Loop-bound names that are keywords, builtins the generated module calls,
# or names it defines itself; the last case pairs a name with the
# ``v_<name>`` spelling a naive prefix mangling would map it onto.
UNSAFE_PARAM_NAMES = [["in"], ["is"], ["max"], ["min"], ["metrics"],
                      ["Metrics"], ["MODEL_FUNCTIONS"], ["Fraction"],
                      ["n", "v_n"]]


def _unsafe_names_src(names: list) -> str:
    """``f`` loops once per parameter, in strides of two (``max`` in the
    counts) and behind a non-analyzable branch (a rational 0.5 ratio);
    ``g`` calls it with its own parameters and with constants."""
    params = ", ".join(f"int {p}" for p in names)
    loops = "\n".join(
        f"    for (int i = 0; i < {p}; i += 2) if (x[i] > 0.0) x[i] = 2.0;"
        for p in names)
    args = ", ".join(names)
    consts = ", ".join(str(3 + k) for k in range(len(names)))
    return (f"void f(double *x, {params}) {{\n{loops}\n}}\n"
            f"void g(double *x, {params}) {{ f(x, {args}); "
            f"f(x, {consts}); }}\n")


@pytest.mark.parametrize("names", UNSAFE_PARAM_NAMES, ids="+".join)
def test_generated_module_handles_unsafe_parameter_names(names):
    result = Pipeline().run(_unsafe_names_src(names))
    source = result.python_source()
    assert "Fraction(1, 2)" in source and "max(" in source
    module = result.compiled_module()
    env = {p: 7 + 2 * k for k, p in enumerate(names)}
    for qname in ("f", "g"):
        assert module["PARAMETERS"][qname] == names
        fn = module["MODEL_FUNCTIONS"][qname]
        counts = exact_counts(fn(*[env[p] for p in names]))
        oracle = exact_counts(evaluate_model(result.models, qname, env))
        assert counts == oracle, qname
        assert exact_counts(result.evaluate_compiled(qname, env)) == oracle


def test_generated_module_escapes_file_names():
    result = Pipeline().run(SCALE_SRC, filename='C:\\new\\x"""\n.c')
    assert result.compiled().source == result.python_source()
    assert exact_counts(result.evaluate_compiled("scale", {"n": 5})) == \
        exact_counts(result.evaluate("scale", {"n": 5}))


def test_generated_module_keeps_colliding_model_names_apart():
    src = """
class A {
public:
    void b_c(double *x, int n) { for (int i = 0; i < n; i++) x[i] = 2.0; }
};
class A_b {
public:
    void c(double *x, int n) {
        for (int i = 0; i < n; i++) x[i] = x[i] * 3.0 + 1.0;
    }
};
void A_b_c(double *x, int n) { for (int i = 0; i < n; i++) x[i] += 1.0; }
"""
    result = Pipeline().run(src)
    assert {m.model_name for m in result.models.values()} == {"A_b_c_2"}
    module = result.compiled_module()
    for qname in result.models:
        assert exact_counts(module["MODEL_FUNCTIONS"][qname](5)) == \
            exact_counts(evaluate_model(result.models, qname, {"n": 5}))


def test_unmodeled_callee_raises_in_every_evaluator():
    src = """
double g(double *x, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) s = s + x[i];
    return s;
}
double f(double *x, int n) { return g(x, n); }
"""
    doc = Pipeline().run(src).to_dict()
    del doc["functions"]["g"]
    result = AnalysisResult.from_dict(doc)
    evaluators = {
        "tree-walk": lambda: result.evaluate("f", {"n": 5}),
        "compiled": lambda: result.compiled().evaluate("f", {"n": 5}),
        "module": lambda: result.compiled_module()["MODEL_FUNCTIONS"]["f"](
            n=5),
        "vector": lambda: result.compiled(engine="vector").evaluate_grid(
            "f", {"n": np.array([5, 6])}),
    }
    for name, run in evaluators.items():
        with pytest.raises(ModelError) as exc:
            run()
        assert str(exc.value) == "call to unmodeled function 'g'", name


#: ``k``'s loop bound is bound by no argument, so ``main`` carries the
#: call-site parameter ``n_3`` (the paper's ``y_16``).
CALL_SITE_SRC = """\
int k(int n) { int s = 0; for (int i = 0; i < n; i++) s = s + i; return s; }
int a[10];
int main() { return k(a[3]); }
"""


def test_unbound_call_site_parameter_raises_in_every_evaluator():
    # A hand-edited document that names main's call-site parameter like
    # the callee's own: no evaluator may bind k's ``n`` from it.
    doc = Pipeline().run(CALL_SITE_SRC).to_dict()
    assert doc["functions"]["main"]["params"] == ["n_3"]
    doc["functions"]["main"]["params"] = ["n"]
    result = AnalysisResult.from_dict(doc)
    evaluators = {
        "tree-walk": lambda: result.evaluate("main", {"n": 10}),
        "scalar": lambda: result.evaluate_compiled("main", {"n": 10}),
        "vector": lambda: result.sweep("main", {"n": [10]},
                                       engine="vector"),
    }
    for name, run in evaluators.items():
        with pytest.raises(ModelError) as exc:
            run()
        assert str(exc.value) == (
            "call at line 3: no binding for callee parameter 'n' "
            "(expected env key 'n_3')"), name


@pytest.mark.parametrize("name", available())
def test_call_bindings_name_only_caller_parameters(name):
    # What keeps generated models from needing any binding fallback:
    # every callee parameter's binding is over the caller's parameters.
    models = Pipeline().run_file(source_path(name)).models
    for q, m in models.items():
        for c in m.calls:
            for p in models[c.callee].params:
                assert c.binding(p).free_symbols() <= set(m.params), \
                    (q, c.line, p)
    if name == "minife":
        # bound through two call sites: main -> cg_solve -> operator()
        assert "nrows_110_131" in models["main"].params


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

class TestSweep:
    def test_grid_columns_product_and_points(self):
        names, cols, n = _grid_columns({"a": [1, 2], "b": [10]})
        assert names == ("a", "b") and n == 2
        assert {k: c.tolist() for k, c in cols.items()} == \
            {"a": [1, 2], "b": [10, 10]}
        names, cols, n = _grid_columns([{"a": 1}, {"a": 2, "b": 3}])
        assert names == ("a", "b") and n == 2
        assert list(cols["b"]) == [None, 3]
        with pytest.raises(ModelError):
            _grid_columns({})

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
