"""Vectorized grid evaluation: numpy array-compiled models, columnar sweeps.

The acceptance surface of the vector engine (``symbolic.veccompile`` +
the columnar path of ``core.sweep``):

* differential exactness — vector engine == scalar closures ==
  interpreted ``Expr.evaluate`` tree-walk, ``Fraction``-equal, across
  every function of all 15 corpus programs;
* the dtype discipline — int64 fast path only under the interval-proof
  precheck, object-dtype fallback near the int64 overflow boundary and
  for ``Fraction``-valued branch-ratio metrics, bit-exact either way;
* the scalar fallback ladder — non-vectorizable models (non-polynomial
  ``Sum`` bodies) fall back automatically under ``engine="auto"`` and
  error loudly under ``engine="vector"``;
* lazy ``SweepPoint`` materialization over columnar output;
* one text, two runtimes: the vector evaluator runs the generated Fig. 5
  module, and a result emits that module once whichever engines evaluate
  it (``CODEGEN_COUNTS``), warm-cache restores included;
* rational bindings of an integer-body ``Sum`` are exact in every
  engine;
* the ``mira sweep --engine`` CLI and the ``_parse_sweep_spec``
  log-range dedupe regression.
"""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from repro.cli import _parse_sweep_spec, main as cli_main
from repro.core import (AnalysisConfig, Pipeline, STAGE_RUN_COUNTS,
                        sweep_source)
from repro.bridge.metrics import CategoryVector
from repro.core.metric_generator import FunctionModel, MetricTerm
from repro.core.result import AnalysisResult
from repro.core.sweep import _axis_column, _ColumnarPoints, run_model_sweep
from repro.errors import ModelError, VectorizeError
from repro.symbolic import (CODEGEN_COUNTS, Int, Max, Min, Sum, Sym,
                            expr_to_python, reset_codegen_counters)
from repro.symbolic.pycodegen import sum_lowering
from repro.workloads import available, get_source, source_path

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

MULTI_SRC = """
double g(double *a, int n, int m)
{
    double acc = 0.0;
    for (int i = 0; i < n; i++)
        for (int j = 0; j < m; j++)
            acc = acc + a[i + j];
    return acc;
}
"""


def exact_counts(counts: dict) -> dict:
    """Exact-zero categories dropped on both sides of every comparison:
    the scalar engine records a category whose count happens to be 0 (an
    empty loop), the columnar materializer drops it — both mean 'nothing
    executed'."""
    return {k: Fraction(v) for k, v in counts.items() if v != 0}


def _cell(v):
    if isinstance(v, Fraction):
        return v
    if hasattr(v, "item"):
        return Fraction(v.item())
    return Fraction(v)


def assert_sweep_matches_interpreted(result, qname, swept):
    for point in swept:
        interp = result.evaluate(qname, point.env)
        assert exact_counts(point.metrics.counts) == \
            exact_counts(interp.counts), (qname, point.env)


# ---------------------------------------------------------------------------
# expression-level vector compilation
# ---------------------------------------------------------------------------

def one_term_result(count, params, weight=1):
    """An analysis of one function ``f(*params)`` whose model is one
    ``Logical instruction`` term of ``weight`` × ``count``."""
    vector = CategoryVector.from_dict({"Logical instruction": weight})
    return AnalysisResult(models={"f": FunctionModel.restored(
        "f", "f", terms=[MetricTerm(1, 1, vector, count)], params=params)})


def run_emitted_vector(e, env):
    """Evaluate ``e`` as the vector evaluator does: the count of a one-term
    model, rendered by ``expr_to_python`` into the generated module and run
    with the vector runtime bound over the scalar helpers.  Returns
    ``(value, uses_fraction)``."""
    result = one_term_result(e, sorted(e.free_symbols()))
    vec = result.compiled(engine="vector")
    assert vec.source == result.python_source()
    assert expr_to_python(e) in vec.source
    (value,) = vec.evaluate_grid("f", env).values()
    return value, not vec.int64_capable


class TestCompileExprVector:
    def test_polynomial_matches_evaluate_elementwise(self):
        n = Sym("n")
        e = 2 * n ** 3 + n ** 2 + 7
        xs = np.arange(0, 50, 7, dtype=np.int64)
        out, _ = run_emitted_vector(e, {"n": xs})
        for x, y in zip(xs, out):
            assert Fraction(int(y)) == e.evaluate({"n": int(x)})

    def test_closed_form_sum_matches_evaluate_incl_empty_range(self):
        m = Sym("m")
        s = Sum(Sym("k"), "k", Int(0), m)
        xs = np.array([-10, -1, 0, 1, 5, 100], dtype=np.int64)
        out, _ = run_emitted_vector(s, {"m": xs})
        for x, y in zip(xs, out):
            assert Fraction(int(y)) == s.evaluate({"m": int(x)}), int(x)

    def test_object_mode_exact_for_huge_values(self):
        n = Sym("n")
        e = n ** 3 + n
        col = np.empty(2, dtype=object)
        col[:] = [10 ** 8, 10 ** 10]
        out, _ = run_emitted_vector(e, {"n": col})
        for x, y in zip(col, out):
            assert type(y) is int
            assert y == x ** 3 + x

    def test_fraction_coefficients_flagged_and_exact(self):
        n = Sym("n")
        e = Int(Fraction(1, 3)) * n
        col = np.empty(2, dtype=object)
        col[:] = [1, 7]
        out, uses_fraction = run_emitted_vector(e, {"n": col})
        assert uses_fraction
        assert list(out) == [Fraction(1, 3), Fraction(7, 3)]

    def test_non_polynomial_sum_body_raises_vectorize_error(self):
        n, m = Sym("n"), Sym("m")
        s = Sum(Max.make((Int(0), n - Sym("k"))), "k", Int(0), m)
        with pytest.raises(VectorizeError):
            run_emitted_vector(s, {"n": 1, "m": 1})


# ---------------------------------------------------------------------------
# the differential acceptance sweep: vector == scalar == interpreted
# ---------------------------------------------------------------------------

class TestCorpusDifferential:
    def test_all_corpus_programs_bit_exact(self):
        """Acceptance: for every function of all 15 corpus programs, the
        vector engine's counts are Fraction-equal to both the scalar
        closures and the interpreted ``Expr.evaluate`` tree-walk.  A
        program whose models have no vector form (non-polynomial Sum body)
        must instead fall back to scalar under ``engine="auto"`` with the
        same exact results."""
        pipeline = Pipeline()
        vectorized, fell_back = [], []
        for name in available():
            result = pipeline.run_file(source_path(name))
            try:
                result.compiled(engine="vector")
            except VectorizeError:
                fell_back.append(name)
                for qname in result.models:
                    params = result.parameters(qname)
                    if not params:
                        continue
                    grid = [{p: b for p in params} for b in (3, 7, 13)]
                    swept = result.sweep(qname, grid)  # auto
                    assert swept.engine == "scalar"
                    assert_sweep_matches_interpreted(result, qname, swept)
                continue
            vectorized.append(name)
            vec = result.compiled(engine="vector")
            for qname in result.models:
                params = result.parameters(qname)
                if not params:
                    cats = vec.evaluate_grid(qname, {}, 1)
                    interp = result.evaluate(qname, {})
                    assert exact_counts({c: _cell(col[0])
                                         for c, col in cats.items()}) == \
                        exact_counts(interp.counts), (name, qname)
                    continue
                grid = [{p: b for p in params} for b in (3, 7, 13)]
                swept_v = result.sweep(qname, grid, engine="vector")
                swept_s = result.sweep(qname, grid, engine="scalar")
                assert swept_v.engine == "vector"
                assert len(swept_v) == len(swept_s) == 3
                for pv, ps in zip(swept_v, swept_s):
                    assert pv.env == ps.env
                    assert exact_counts(pv.metrics.counts) == \
                        exact_counts(ps.metrics.counts), (name, qname)
                assert_sweep_matches_interpreted(result, qname, swept_v)
        # the corpus must actually exercise both sides of the ladder
        assert len(vectorized) >= 10
        assert fell_back  # minife's non-polynomial reduction


# ---------------------------------------------------------------------------
# dtype discipline: int64 fast path, overflow precheck, object fallback
# ---------------------------------------------------------------------------

class TestDtypeDiscipline:
    @pytest.fixture(scope="class")
    def dgemm(self):
        return Pipeline(AnalysisConfig(use_cache=False)).run(
            get_source("dgemm"), filename="dgemm")

    def test_small_grid_runs_int64(self, dgemm):
        swept = dgemm.sweep("dgemm_kernel", {"n": [16, 64, 256]},
                            engine="vector")
        assert swept.vector_stats == \
            {"chunks": 1, "int64_chunks": 1, "object_chunks": 0}
        assert swept.fp_series() == [2 * n ** 3 + n ** 2
                                     for n in (16, 64, 256)]
        assert_sweep_matches_interpreted(dgemm, "dgemm_kernel", swept)

    def test_overflow_boundary_forces_object_mode(self, dgemm):
        # n >= 2**21 puts n**3 past 2**63-1: the interval precheck must
        # veto int64 and the object path must stay exact at ~1e24.
        big = [2 ** 21, 2 ** 22, 10 ** 8]
        swept = dgemm.sweep("dgemm_kernel", {"n": big}, engine="vector")
        assert swept.vector_stats["object_chunks"] == 1
        assert swept.vector_stats["int64_chunks"] == 0
        assert swept.fp_series() == [2 * n ** 3 + n ** 2 for n in big]
        assert_sweep_matches_interpreted(dgemm, "dgemm_kernel", swept)

    def test_mixed_chunks_pick_mode_per_chunk(self, dgemm):
        # chunk=2 splits [16, 32 | 2**22]: first chunk proves int64-safe,
        # second must go object; the concatenated columns stay exact.
        swept = run_model_sweep(dgemm, "dgemm_kernel",
                                {"n": [16, 32, 2 ** 22]},
                                engine="vector", chunk=2)
        assert swept.vector_stats == \
            {"chunks": 2, "int64_chunks": 1, "object_chunks": 1}
        assert swept.fp_series() == [2 * n ** 3 + n ** 2
                                     for n in (16, 32, 2 ** 22)]
        assert_sweep_matches_interpreted(dgemm, "dgemm_kernel", swept)

    def test_branch_ratio_fractions_need_object_mode(self):
        result = Pipeline().run(RATIO_SRC)
        vec = result.compiled(engine="vector")
        assert not vec.int64_capable
        swept = result.sweep("f", {"n": [0, 7, 100]}, engine="vector")
        assert swept.vector_stats["object_chunks"] == 1
        assert_sweep_matches_interpreted(result, "f", swept)
        # the ratio genuinely produces rational counts
        assert any(isinstance(v, Fraction) and v.denominator > 1
                   for v in swept.points[1].metrics.counts.values())

    def test_rational_binding_of_integer_body_sum_is_exact(self):
        """An integer-coefficient ``Sum`` bound to a ``Fraction``: its
        scaled closed form ``2*cf`` is 3 at this point, and flooring it by
        2 gave 1.  Every engine must give the exact 3/2."""
        s = Sum.make(Sym("k") * Sym("m"), "k", 0,
                     Min.make([Sym("n"), Sym("c")]))
        result = one_term_result(s, ["n", "c", "m"])
        point = {"n": 2, "c": 5, "m": Fraction(1, 2)}
        want = {"Logical instruction": Fraction(3, 2)}
        assert result.evaluate("f", point).counts == want
        assert result.compiled().evaluate("f", point).counts == want
        swept = result.sweep("f", [point])
        assert swept.engine == "vector"
        assert swept.vector_stats["object_chunks"] == 1
        assert swept.points[0].metrics.counts == want

        grid = {"n": [-1, 0, 2, 9], "c": [5],
                "m": [Fraction(1, 2), Fraction(-2, 3), 3]}
        swept = result.sweep("f", grid)
        assert swept.engine == "vector"
        assert swept.vector_stats["object_chunks"] == 1
        assert_sweep_matches_interpreted(result, "f", swept)
        assert any(isinstance(v, Fraction)
                   for p in swept for v in p.metrics.counts.values())

        grid = {"n": [-1, 0, 2, 9], "c": [5, 100], "m": [1, -3, 7]}
        swept = result.sweep("f", grid)
        assert swept.vector_stats == \
            {"chunks": 1, "int64_chunks": 1, "object_chunks": 0}
        assert_sweep_matches_interpreted(result, "f", swept)

    def test_int64_ndarray_axis_and_base_binding(self):
        result = Pipeline().run(MULTI_SRC)
        xs = np.arange(3, 40, 7, dtype=np.int64)
        swept_v = result.sweep("g", {"n": xs}, base={"m": 4},
                               engine="vector")
        swept_s = result.sweep("g", {"n": [int(x) for x in xs]},
                               base={"m": 4}, engine="scalar")
        for pv, ps in zip(swept_v, swept_s):
            assert pv.env == ps.env
            assert exact_counts(pv.metrics.counts) == \
                exact_counts(ps.metrics.counts)

    def test_cross_product_order_matches_scalar(self):
        result = Pipeline().run(MULTI_SRC)
        grid = {"n": [2, 3], "m": [5, 7, 9]}
        swept_v = result.sweep("g", grid, engine="vector")
        swept_s = result.sweep("g", grid, engine="scalar")
        assert [p.env for p in swept_v] == [p.env for p in swept_s]
        for pv, ps in zip(swept_v, swept_s):
            assert exact_counts(pv.metrics.counts) == \
                exact_counts(ps.metrics.counts)


    # -- the int64_safe range-bucket memo ---------------------------------

    def test_memoized_precheck_equals_exact_box_verdict(self):
        """Soundness: on seeded random boxes (many sharing a bucket, so
        most calls are memo hits), ``int64_safe`` agrees with a fresh
        ``_cats_iv`` walk of the exact box, for every function of every
        corpus program that vectorizes."""
        rng = random.Random(15)
        verdicts = set()
        pipeline = Pipeline()
        for name in available():
            result = pipeline.run_file(source_path(name))
            try:
                vec = result.compiled(engine="vector")
            except VectorizeError:
                continue
            for qname in result.models:
                params = result.parameters(qname)
                if not params:
                    continue
                for _ in range(40):
                    ivs = {}
                    for p in params:
                        scale = 2 ** rng.choice((3, 6, 10, 20, 21, 31, 40))
                        lo = rng.randint(-scale // 8, scale)
                        hi = lo + rng.randint(0, scale)
                        ivs[p] = (Fraction(lo), Fraction(hi))
                    exact = vec.int64_capable and \
                        vec._cats_iv(qname, dict(ivs)) is not None
                    assert vec.int64_safe(qname, ivs) is exact, \
                        (name, qname, ivs)
                    verdicts.add(exact)
        assert verdicts == {True, False}   # both sides were exercised

    def test_same_bucket_sweep_skips_the_precheck_walk(self, dgemm,
                                                        monkeypatch):
        from repro.symbolic.veccompile import VecCompiledResult

        calls = []
        walk = VecCompiledResult._cats_iv

        def counted(self, *args):
            calls.append(args[0])
            return walk(self, *args)

        monkeypatch.setattr(VecCompiledResult, "_cats_iv", counted)
        dgemm.compiled(engine="vector")._safe_memo.clear()
        rng = random.Random(7)
        # every value in [1100, 2000]: the bucket is n in [1024, 2048]
        grids = [[rng.randint(1100, 2000) for _ in range(2048)]
                 for _ in range(2)]
        first = dgemm.sweep("dgemm_kernel", {"n": grids[0]})
        assert calls                        # a cold bucket is walked
        calls.clear()
        second = dgemm.sweep("dgemm_kernel", {"n": grids[1]})
        assert calls == []                  # the same bucket is not
        for swept, grid in zip((first, second), grids):
            assert swept.vector_stats["int64_chunks"] == 1
            assert swept.fp_series() == [2 * n ** 3 + n ** 2 for n in grid]

    def test_unsafe_bucket_falls_back_to_the_exact_box(self, dgemm):
        # n <= 2**20 + 1 widens to n <= 2**21, where n**3 overflows; the
        # exact box is still provably safe, so the chunk stays int64.
        vec = dgemm.compiled(engine="vector")
        bucket = {"n": (Fraction(1), Fraction(2 ** 21))}
        assert vec._cats_iv("dgemm_kernel", bucket) is None
        grid = [1, 2 ** 10, 2 ** 20 + 1]
        swept = dgemm.sweep("dgemm_kernel", {"n": grid}, engine="vector")
        assert swept.vector_stats["int64_chunks"] == 1
        assert swept.fp_series() == [2 * n ** 3 + n ** 2 for n in grid]
        assert_sweep_matches_interpreted(dgemm, "dgemm_kernel", swept)

    def test_memo_shared_by_threads_keeps_exact_verdicts(self, dgemm,
                                                          monkeypatch):
        """Server threads share one compiled model.  With a 2-entry memo
        that keeps starting over, every verdict still equals the exact-box
        one and the memo stays bounded."""
        import sys
        import threading

        from repro.symbolic import veccompile

        monkeypatch.setattr(veccompile, "INT64_MEMO_SIZE", 2)
        vec = dgemm.compiled(engine="vector")
        rng = random.Random(3)
        boxes = []
        for _ in range(48):
            lo = rng.randint(1, 2 ** 20)
            ivs = {"n": (Fraction(lo), Fraction(lo + rng.randint(0, 2 ** 20)))}
            exact = vec._cats_iv("dgemm_kernel", dict(ivs)) is not None
            boxes.append((ivs, exact))
        assert {exact for _, exact in boxes} == {True, False}
        wrong = []

        def worker(k):
            for ivs, exact in (boxes[k:] + boxes[:k]) * 3:
                if vec.int64_safe("dgemm_kernel", ivs) is not exact:
                    wrong.append(ivs)

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert len(vec._safe_memo) <= 2 + len(threads)


class TestAxisColumn:
    """``_axis_column``'s all-int fast path keeps today's dtypes/values."""

    @staticmethod
    def column(values):
        return _axis_column("n", values)

    def test_plain_ints_become_int64(self):
        col = self.column([3, -7, 2 ** 62])
        assert col.dtype == np.int64
        assert col.tolist() == [3, -7, 2 ** 62]

    def test_beyond_int64_stays_an_exact_object_column(self):
        for values in ([2 ** 70], [1, 2 ** 70], [-(2 ** 63) - 1]):
            col = self.column(values)
            assert col.dtype == object
            assert list(col) == values
            assert all(type(v) is int for v in col)

    def test_bools_are_int64_ones_and_zeros(self):
        col = self.column([True, 2])
        assert col.dtype == np.int64
        assert col.tolist() == [1, 2]

    def test_numpy_ints_are_int64(self):
        for values in (np.array([4, 5], dtype=np.int32),
                       np.array([4, 5], dtype=np.uint8),
                       [np.int64(4), 5]):
            col = self.column(values)
            assert col.dtype == np.int64
            assert col.tolist() == [4, 5]
        col = self.column(np.array([2 ** 64 - 1], dtype=np.uint64))
        assert col.dtype == object and list(col) == [2 ** 64 - 1]

    def test_fraction_axes_are_object_columns(self):
        for values in ([Fraction(1, 2), 3], [Fraction(4)]):
            col = self.column(values)
            assert col.dtype == object
            assert list(col) == values
            assert [type(v) for v in col] == [type(v) for v in values]

    def test_floats_are_object_columns_and_empty_axes_are_refused(self):
        # the vector engine's "float-valued" refusal is decided later, from
        # the column (test_float_axis_errors_under_vector_engine)
        col = self.column([1, 2.0])
        assert col.dtype == object
        assert [type(v) for v in col] == [int, float]
        with pytest.raises(ModelError, match="no values"):
            self.column([])


# ---------------------------------------------------------------------------
# the scalar fallback ladder
# ---------------------------------------------------------------------------

class TestScalarFallback:
    @pytest.fixture(scope="class")
    def minife(self):
        return Pipeline().run_file(source_path("minife"))

    def _swept_function(self, result):
        for qname in result.models:
            if result.parameters(qname):
                return qname
        pytest.skip("no parameterized function")

    def test_non_vectorizable_model_raises_and_caches(self, minife):
        with pytest.raises(VectorizeError) as first:
            minife.compiled(engine="vector")
        with pytest.raises(VectorizeError) as second:
            minife.compiled(engine="vector")
        # the verdict is memoized, not re-derived
        assert first.value is second.value

    def test_auto_engine_falls_back_scalar_exact(self, minife):
        qname = self._swept_function(minife)
        grid = [{p: b for p in minife.parameters(qname)} for b in (2, 5)]
        swept = minife.sweep(qname, grid)
        assert swept.engine == "scalar"
        assert_sweep_matches_interpreted(minife, qname, swept)

    def test_explicit_vector_engine_surfaces_error(self, minife):
        qname = self._swept_function(minife)
        grid = [{p: 5 for p in minife.parameters(qname)}]
        with pytest.raises(ModelError,
                           match="vector engine cannot evaluate"):
            minife.sweep(qname, grid, engine="vector")

    def test_float_axis_errors_under_vector_engine(self):
        result = Pipeline().run(MULTI_SRC)
        with pytest.raises(ModelError, match="float-valued"):
            result.sweep("g", {"n": [1.5]}, base={"m": 2}, engine="vector")
        with pytest.raises(ModelError, match="float-valued"):
            result.sweep("g", {"n": np.array([1.5])}, base={"m": 2},
                         engine="vector")

    def test_heterogeneous_point_list_errors_under_vector_engine(self):
        result = Pipeline().run(MULTI_SRC)
        with pytest.raises(ModelError, match="heterogeneous"):
            result.sweep("g", [{"n": 2, "m": 3}, {"m": 3, "n": 2, "x": 1}],
                         engine="vector")

    def test_unknown_engine_rejected(self):
        result = Pipeline().run(MULTI_SRC)
        with pytest.raises(ModelError, match="unknown sweep engine"):
            result.sweep("g", {"n": [2], "m": [2]}, engine="bogus")


# ---------------------------------------------------------------------------
# lazy columnar points
# ---------------------------------------------------------------------------

class TestColumnarPoints:
    @pytest.fixture(scope="class")
    def swept(self):
        result = Pipeline(AnalysisConfig(use_cache=False)).run(
            get_source("dgemm"), filename="dgemm")
        return result.sweep("dgemm_kernel", {"n": [4, 8, 16, 32]},
                            engine="vector")

    def test_points_are_lazy_columnar(self, swept):
        assert isinstance(swept.points, _ColumnarPoints)
        assert len(swept) == len(swept.points) == 4

    def test_indexing_slicing_negative(self, swept):
        pts = swept.points
        assert pts[0].env == {"n": 4}
        assert pts[-1].env == {"n": 32}
        assert [p.env["n"] for p in pts[1:3]] == [8, 16]
        with pytest.raises(IndexError):
            pts[4]

    def test_materialized_values_are_exact_python_ints(self, swept):
        for p in swept:
            assert type(p.env["n"]) is int
            for v in p.metrics.counts.values():
                assert type(v) is int
                assert v != 0  # exact-zero categories are dropped

    def test_json_document_round_trips(self, swept):
        doc = swept.to_dict()
        assert doc["kind"] == "SweepResult"
        assert doc["engine"] == "vector"
        assert doc["columns"]["params"]["n"] == [4, 8, 16, 32]
        assert json.loads(json.dumps(doc)) == doc


# ---------------------------------------------------------------------------
# per-engine memoization + codegen on demand after a warm-cache restore
# ---------------------------------------------------------------------------

class TestCompiledMemoAndArtifacts:
    def test_compiled_memoized_per_engine(self):
        result = Pipeline().run(MULTI_SRC)
        assert result.compiled() is result.compiled()
        assert result.compiled(engine="vector") is \
            result.compiled(engine="vector")
        assert result.compiled() is not result.compiled(engine="vector")
        with pytest.raises(ModelError):
            result.compiled(engine="nope")

    def test_restore_emits_each_engine_once(self):
        from repro.core.batch import payload_from_result

        cfg = AnalysisConfig(use_cache=False)
        result = Pipeline(cfg).run(get_source("dgemm"), filename="dgemm")
        payload = payload_from_result(cfg, result, "dgemm", 0.0)
        assert "compiled" not in payload
        json.dumps(payload)  # the cache stores JSON

        live = result.compiled(engine="vector")
        live_scalar = result.compiled()
        restored = AnalysisResult.from_dict(payload["result"])
        reset_codegen_counters()
        comp = restored.compiled()
        vec = restored.compiled(engine="vector")
        assert restored.compiled() is comp
        assert restored.compiled(engine="vector") is vec
        restored.python_source()
        # one emission serves both engines: each execs the module text
        assert CODEGEN_COUNTS == {"module_emit": 1}
        assert comp.source == vec.source == restored.python_source()
        assert vec.source == live.source == live_scalar.source
        assert vec.int64_capable and live.int64_capable
        swept = restored.sweep("dgemm_kernel", {"n": [16, 64]},
                               engine="vector")
        assert swept.fp_series() == [2 * n ** 3 + n ** 2 for n in (16, 64)]
        assert swept.vector_stats["int64_chunks"] == 1
        assert CODEGEN_COUNTS == {"module_emit": 1}

    def test_emission_collects_the_sum_lowerings(self):
        """A count that keeps a ``Sum`` node: the module writes its closed
        form as the scaled lowering ``sum_lowering`` gives, with no
        ``Fraction``, and the precheck bounds that same lowering, so it can
        prove a small range int64-safe."""
        s = Sum(Sym("k"), "k", Int(0), Sym("m"))
        result = one_term_result(s, ["m"], weight=2)
        scaled, d = sum_lowering(s)
        assert d == 2
        vec = result.compiled(engine="vector")
        assert f"_mira_scaled({expr_to_python(scaled)}, 2)" in vec.source
        assert vec.int64_capable
        swept = result.sweep("f", {"m": [-3, 0, 5, 100]}, engine="vector")
        assert swept.vector_stats["int64_chunks"] == 1
        assert swept.totals() == [0, 0, 30, 10100]

    def test_warm_sweep_source_skips_pipeline_and_codegen(self, tmp_path):
        from repro.core import sweep as sweep_mod

        config = AnalysisConfig(use_cache=True, cache_dir=str(tmp_path))
        grid = {"n": [16, 32, 64]}
        sweep_mod.SWEEP_STORE.clear()
        reset_codegen_counters()
        cold = sweep_source(get_source("dgemm"), grid,
                            function="dgemm_kernel", config=config,
                            filename="dgemm")
        assert cold.mode == "parametric" and cold.analyses == 1
        assert cold.engine == "vector"
        # the cold analysis emits nothing; the sweep emits the module
        assert CODEGEN_COUNTS == {"module_emit": 1}

        # warm: in-process memo cleared, so the disk cache must serve the
        # analysis — no pipeline stage.  The entry stores no code, so the
        # sweep emits the module once from the restored models, and the
        # scalar evaluator, asked for later, execs that same text.
        sweep_mod.SWEEP_STORE.clear()
        reset_codegen_counters()
        before = dict(STAGE_RUN_COUNTS)
        warm = sweep_source(get_source("dgemm"), grid,
                            function="dgemm_kernel", config=config,
                            filename="dgemm")
        assert warm.analyses == 0
        assert warm.engine == "vector"
        assert STAGE_RUN_COUNTS["compile"] == before["compile"]
        assert CODEGEN_COUNTS == {"module_emit": 1}
        assert warm.fp_series() == cold.fp_series() == \
            [2 * n ** 3 + n ** 2 for n in (16, 32, 64)]
        assert warm.analysis.compiled().source == \
            warm.analysis.compiled(engine="vector").source
        assert CODEGEN_COUNTS == {"module_emit": 1}


# ---------------------------------------------------------------------------
# CLI: --engine and the log-range spec
# ---------------------------------------------------------------------------

class TestSweepCLI:
    def test_cli_engine_vector_json(self, capsys):
        rc = cli_main(["sweep", source_path("dgemm"), "-p", "n=16,32",
                       "--function", "dgemm_kernel", "--engine", "vector",
                       "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["engine"] == "vector"
        assert doc["columns"]["fp_ins"] == \
            [2 * 16 ** 3 + 16 ** 2, 2 * 32 ** 3 + 32 ** 2]

    def test_cli_engine_shown_in_table_header(self, capsys):
        rc = cli_main(["sweep", source_path("dgemm"), "-p", "n=16,32",
                       "--function", "dgemm_kernel", "--engine", "scalar"])
        assert rc == 0
        assert "scalar engine" in capsys.readouterr().out


class TestParseSweepSpec:
    def test_log_range_is_sorted_unique_with_pinned_endpoints(self):
        name, vals = _parse_sweep_spec("N=1e3..1e5", 5)
        assert name == "N"
        assert vals[0] == 1000 and vals[-1] == 100000
        assert vals == sorted(set(vals)) and len(vals) == 5

    def test_narrow_range_dedupes_instead_of_duplicating(self):
        _, vals = _parse_sweep_spec("N=10..12", 5)
        assert vals[0] == 10 and vals[-1] == 12
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(10 <= v <= 12 for v in vals)

    def test_float_precision_magnitudes_keep_both_endpoints(self):
        # regression: rounding through floats used to snap every candidate
        # to hi, losing lo entirely
        lo = 10 ** 17
        _, vals = _parse_sweep_spec(f"N={lo}..{lo + 10}", 5)
        assert vals[0] == lo and vals[-1] == lo + 10
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_degenerate_and_list_specs(self):
        assert _parse_sweep_spec("N=7..7", 5) == ("N", [7])
        assert _parse_sweep_spec("N=1,2,4", 5) == ("N", [1, 2, 4])
        assert _parse_sweep_spec("N=64", 5) == ("N", [64])
        with pytest.raises(SystemExit):
            _parse_sweep_spec("nonsense", 5)
