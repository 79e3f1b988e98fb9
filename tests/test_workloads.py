"""Integration tests over every bundled workload.

These are the strongest whole-system checks: each workload must parse,
compile, disassemble, bridge, model, and (at tiny sizes) execute — and the
static/dynamic sides must agree wherever the program is fully analyzable.
"""

import pytest

from repro.core import Pipeline, loop_coverage_source
from repro.dynamic import TauProfiler
from repro.workloads import (EVALUATION_APPS, PAPER_EXAMPLES, SURVEY_APPS,
                             available, get_source, source_path)
from repro.errors import MiraError

TINY_DEFS = {
    "stream": {"STREAM_ARRAY_SIZE": "500"},
    "dgemm": {"DGEMM_N": "6", "DGEMM_NREP": "1"},
    "minife": {"NX": "3", "CG_MAX_ITER": "3"},
}


def _analyze(name: str):
    return Pipeline().run(get_source(name), filename=name,
                          predefined=TINY_DEFS.get(name, {}))


class TestCatalog:
    def test_all_expected_workloads_present(self):
        names = set(available())
        assert set(SURVEY_APPS) <= names
        assert set(EVALUATION_APPS) <= names
        assert set(PAPER_EXAMPLES) <= names

    def test_source_path_exists(self):
        for name in available():
            assert source_path(name).endswith(f"{name}.c")

    def test_unknown_workload_raises(self):
        with pytest.raises(MiraError):
            get_source("definitely_not_a_workload")


@pytest.mark.parametrize("name", sorted(set(SURVEY_APPS + EVALUATION_APPS
                                            + PAPER_EXAMPLES)))
class TestEveryWorkload:
    def test_full_pipeline_and_run(self, name):
        model = _analyze(name)
        assert model.models, "at least one function modeled"
        rep = TauProfiler(model.processed).profile("main")
        prof = rep.function("main")
        assert prof.calls == 1
        assert sum(prof.categories.values()) > 0

    def test_model_codegen_executes(self, name):
        model = _analyze(name)
        ns = model.compiled_module()
        assert "MODEL_FUNCTIONS" in ns and ns["MODEL_FUNCTIONS"]

    def test_coverage_analyzer_handles(self, name):
        rep = loop_coverage_source(get_source(name), name)
        assert rep.statements > 0
        assert rep.loops >= 1


class TestStream:
    @pytest.fixture(scope="class")
    def model(self):
        return Pipeline().run(get_source("stream"),
                              predefined={"STREAM_ARRAY_SIZE": "2000"})

    def test_kernel_fp_per_element(self, model):
        n = 12345
        assert model.fp_instructions("tuned_copy", {"n": n}) == 0
        assert model.fp_instructions("tuned_scale", {"n": n}) == n
        assert model.fp_instructions("tuned_add", {"n": n}) == n
        assert model.fp_instructions("tuned_triad", {"n": n}) == 2 * n

    def test_main_totals(self, model):
        # 10 reps × 4N kernel FP + 6N validation + 120 scalar recurrence
        assert model.fp_instructions("main") == 46 * 2000 + 120

    def test_dynamic_agreement(self, model):
        rep = TauProfiler(model.processed).profile("main")
        tau = rep.fp_ins("main")
        mira = model.fp_instructions("main")
        assert 0 <= (tau - mira) / tau < 0.01  # TAU >= Mira, < 1%

    def test_ratio_zero_branches_annotated(self, model):
        assert model.warnings("check_results") == []


class TestDgemm:
    @pytest.fixture(scope="class")
    def model(self):
        return Pipeline().run(get_source("dgemm"),
                              predefined={"DGEMM_N": "8", "DGEMM_NREP": "2"})

    def test_kernel_closed_form(self, model):
        for n in (1, 8, 100):
            assert model.fp_instructions("dgemm_kernel", {"n": n}) \
                == 2 * n ** 3 + n ** 2

    def test_checksum_model(self, model):
        assert model.fp_instructions("checksum", {"n": 64}) == 64

    def test_dynamic_checksum_correct(self, model):
        rep = TauProfiler(model.processed).profile("main")
        assert rep.return_value == 0

    def test_reps_multiply(self, model):
        fp = model.fp_instructions("main")
        assert fp > 2 * (2 * 8 ** 3)  # two kernel reps plus init/validation


class TestMinife:
    NX = 4
    ITERS = 4

    @pytest.fixture(scope="class")
    def model(self):
        return Pipeline().run(get_source("minife"), predefined={
            "NX": str(self.NX), "CG_MAX_ITER": str(self.ITERS)})

    @pytest.fixture(scope="class")
    def report(self, model):
        return TauProfiler(model.processed).profile("main")

    def test_assemble_nnz_exact_statically(self, model, report):
        """The 6-deep guarded assembly nest is affine: static count of the
        nnz++ statement equals the true nonzero count."""
        n = self.NX
        true_nnz = sum(
            1
            for iz in range(n) for iy in range(n) for ix in range(n)
            for dz in (-1, 0, 1) for dy in (-1, 0, 1) for dx in (-1, 0, 1)
            if 0 <= ix + dx < n and 0 <= iy + dy < n and 0 <= iz + dz < n
        )
        fm = model.function_models()["assemble"]
        counts = [t.count.evaluate({"nx": n}) for t in fm.terms
                  if t.desc == "stmt"]
        assert true_nnz in counts

    def test_waxpby_exact(self, model, report):
        nrows = self.NX ** 3
        assert model.fp_instructions("waxpby", {"n": nrows}) \
            == report.fp_ins("waxpby")

    def test_dot_exact(self, model, report):
        nrows = self.NX ** 3
        assert model.fp_instructions("dot_prod", {"n": nrows}) \
            == report.fp_ins("dot_prod")

    def test_matvec_undercount_with_low_estimate(self, model, report):
        nrows = self.NX ** 3
        mira = model.fp_instructions(
            "operator()", {"nrows": nrows, "row_nnz": 10})
        assert mira < report.fp_ins("operator()")

    def test_annotation_parameter_bubbles_to_cg(self, model):
        params = model.parameters("cg_solve")
        assert any(p.startswith("row_nnz") for p in params)
        assert "max_iter" in params

    def test_cg_converges(self, report):
        assert report.return_value is not None

    def test_functor_profiled_under_qualified_name(self, report):
        assert report.function("matvec_std::operator()").calls == self.ITERS


class TestListings:
    @pytest.fixture(scope="class")
    def model(self):
        return Pipeline().run(get_source("listings"))

    def test_dynamic_acc_matches_lattice_counts(self, model):
        rep = TauProfiler(model.processed).profile("main")
        # listing1..5 accumulate 10 + 14 + 20 + 8 + 11 = 63
        assert rep.return_value == 63

    def test_listing2_static_term(self, model):
        fm = model.function_models()["listing2"]
        counts = [t.count.evaluate({}) for t in fm.terms if t.desc == "stmt"]
        assert 14 in counts

    def test_listing5_complement_term(self, model):
        fm = model.function_models()["listing5"]
        counts = [t.count.evaluate({}) for t in fm.terms if t.desc == "stmt"]
        assert 11 in counts

    def test_listing6_parameters(self, model):
        assert {"x", "y"} <= set(model.parameters("listing6"))
