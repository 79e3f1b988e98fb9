"""End-to-end checks of the paper's headline properties at test-friendly
sizes — the same claims the benchmarks measure at full scale, kept fast so
they run in every test invocation.
"""

import pytest

from repro.core import AnalysisConfig, Pipeline, arithmetic_intensity
from repro.dynamic import TauProfiler
from repro.workloads import get_source


class TestFig5Artifact:
    """Paper Figure 5: the generated model's exact shape."""

    @pytest.fixture(scope="class")
    def model(self):
        return Pipeline().run(get_source("fig5"), filename="fig5")

    def test_function_naming(self, model):
        src = model.python_source()
        assert "def A_foo_2(y):" in src

    def test_call_site_parameter(self, model):
        (p,) = model.parameters("main")
        assert p.startswith("y_") and p[2:].isdigit()

    def test_handle_function_call_emitted(self, model):
        assert "handle_function_call(metrics, _callee_0, 1)" \
            in model.python_source()

    def test_metrics_dict_updates_in_statement_order(self, model):
        src = model.python_source()
        foo = src[src.index("def A_foo_2"):src.index("def main_0")]
        lines = [l for l in foo.splitlines() if "# line" in l]
        nums = [int(l.split("line ")[1].split(":")[0]) for l in lines]
        assert nums == sorted(nums)

    def test_annotation_variable_drives_result(self, model):
        fp10 = model.fp_instructions("A::foo", {"y": 9})
        fp100 = model.fp_instructions("A::foo", {"y": 99})
        assert fp100 == 10 * fp10

    def test_dynamic_matches_annotated_truth(self, model):
        # the real inner loop runs to 100; evaluate the model at the true
        # bound and compare with execution
        rep = TauProfiler(model.processed).profile("main")
        mira = model.fp_instructions("A::foo", {"y": 99})
        assert rep.fp_ins("foo") == mira


class TestErrorDirections:
    """Tables III-V: TAU >= Mira, with the documented mechanisms."""

    def test_stream_gap_is_library_fp(self):
        model = Pipeline().run(get_source("stream"),
                               predefined={"STREAM_ARRAY_SIZE": "1000"})
        rep = TauProfiler(model.processed).profile("main")
        gap = rep.fp_ins("main") - model.fp_instructions("main")
        # gap = mysecond (2 FP × 80 calls) + printf %f conversions: i.e.
        # exactly the library-internal FP instructions
        assert gap > 0
        counts = rep.counts
        fp_idx = [counts.category_names.index(c)
                  for c in model.arch.fp_arith_categories]
        lib_fp = sum(
            n * int(counts.lib_matrix[k][fp_idx].sum())
            for k, n in counts.lib_counts.items())
        assert gap == lib_fp

    def test_minife_error_sign_controlled_by_annotation(self):
        model = Pipeline().run(get_source("minife"),
                               predefined={"NX": "4", "CG_MAX_ITER": "3"})
        rep = TauProfiler(model.processed).profile("main")
        tau = rep.fp_ins("operator()")
        lo = model.fp_instructions("operator()",
                                   {"nrows": 64, "row_nnz": 10})
        hi = model.fp_instructions("operator()",
                                   {"nrows": 64, "row_nnz": 27})
        assert lo < tau < hi  # truth sits between under/over estimates


class TestOptimizationVisibility:
    """Paper I: source-only misses compiler transformations; Mira doesn't."""

    SRC = """
    double out[512];
    void k(double *x, int n) {
      for (int i = 0; i < n; i++)
        out[i] = x[i] * 8.0 + x[i] * 0.0 + 0.0;
    }
    double data[512];
    int main() { k(data, 512); return 0; }
    """

    def test_folded_fp_identity_not_in_model(self):
        # x*0.0 + 0.0: +0.0 folds away; x*0.0 cannot (x could be NaN in
        # real C, but our folder only removes *1.0/+0.0) — check the model
        # counts match the *binary*, not the source
        model = Pipeline().run(self.SRC)
        rep = TauProfiler(model.processed).profile("main")
        assert model.fp_instructions("k", {"n": 512}) == rep.fp_ins("k")

    def test_mix_changes_with_opt_level_dynamically_consistent(self):
        for opt in (0, 1, 2):
            model = Pipeline(AnalysisConfig(opt_level=opt)).run(self.SRC)
            rep = TauProfiler(model.processed).profile("main")
            static = model.evaluate("k", {"n": 512}).as_dict()
            dynamic = rep.function("k").categories
            assert static == dynamic, f"divergence at O{opt}"


class TestParametricSweep:
    """IV-D.1: one model, many inputs, no executions."""

    def test_model_generated_once_evaluates_everywhere(self):
        model = Pipeline().run(get_source("dgemm"),
                               predefined={"DGEMM_N": "8",
                                           "DGEMM_NREP": "1"})
        results = [model.fp_instructions("dgemm_kernel", {"n": n})
                   for n in (1, 10, 100, 1000, 10000)]
        assert results == [2 * n ** 3 + n ** 2
                           for n in (1, 10, 100, 1000, 10000)]

    def test_codegen_model_is_standalone(self, tmp_path):
        import subprocess
        import sys

        model = Pipeline().run(get_source("dgemm"),
                               predefined={"DGEMM_N": "8",
                                           "DGEMM_NREP": "1"})
        path = tmp_path / "dgemm_model.py"
        model.save(str(path))
        proc = subprocess.run(
            [sys.executable, str(path), "dgemm_kernel", "n=64"],
            capture_output=True, text=True, check=True)
        assert str(2 * 64 ** 3 + 64 ** 2) in proc.stdout

        # A model that keeps a guarded closed form of a lazy Sum needs the
        # runtime's guard and scaled-division helpers as a script too.
        from test_store import BOUNDED

        model = Pipeline().run(BOUNDED)
        path = tmp_path / "bounded_model.py"
        model.save(str(path))
        assert "_mira_where(" in path.read_text()
        assert "_mira_scaled(" in path.read_text()
        proc = subprocess.run(
            [sys.executable, str(path), "below", "n=50", "m=20"],
            capture_output=True, text=True, check=True)
        total = model.evaluate("below", {"n": 50, "m": 20}).total()
        assert f"{total:>16}  TOTAL" in proc.stdout.splitlines()


class TestVectorizationExtension:
    def test_o3_halves_fp_instructions(self):
        src = get_source("stream")
        defs = {"STREAM_ARRAY_SIZE": "64"}
        m2 = Pipeline(AnalysisConfig(opt_level=2)).run(src, predefined=defs)
        m3 = Pipeline(AnalysisConfig(opt_level=3)).run(src, predefined=defs)
        n = 10000
        fp2 = m2.fp_instructions("tuned_triad", {"n": n})
        fp3 = m3.fp_instructions("tuned_triad", {"n": n})
        assert fp2 == 2 * n
        assert fp3 == n  # packed ops cover two lanes

    def test_ai_constant_under_vectorization(self):
        src = get_source("stream")
        for opt in (2, 3):
            model = Pipeline(AnalysisConfig(opt_level=opt)).run(
                src, predefined={"STREAM_ARRAY_SIZE": "64"})
            m = model.evaluate("tuned_triad", {"n": 10000})
            ai = arithmetic_intensity(m, model.arch)
            assert ai == pytest.approx(2 / 3, rel=0.05)
