"""Tests for the unified analysis API: AnalysisConfig, Pipeline, and the
versioned, serializable AnalysisResult."""

import json

import pytest

from repro.cli import main as cli_main
from repro.compiler.arch import ArchDescription, default_arch
from repro.core import (
    CONFIG_SCHEMA_VERSION, RESULT_SCHEMA_VERSION, AnalysisConfig,
    AnalysisResult, BatchAnalyzer, IncrementalAnalyzer, Pipeline,
    StageEvent,
)
from repro.core.pipeline import STAGES
from repro.errors import MiraError, PipelineError, SchemaError
from repro.symbolic import (Int, Max, Min, Sum, Sym, expr_from_json,
                            expr_to_json)
from repro.workloads import available, get_source, source_path

SCALE_SRC = """
double a[64];
double b[64];
void scale(double *x, double *y, double s, int n) {
  for (int i = 0; i < n; i++)
    x[i] = y[i] * s;
}
int main() { scale(a, b, 3.0, 64); return 0; }
"""

ANNOTATED_SRC = """
double s;
void f(double *x, int n) {
  for (int i = 0; i < n; i++) {
    #pragma @Annotation {ratio:0.25}
    if (x[i] > 0.5) {
      s = s + x[i];
    }
  }
}
double data[16];
int main() { f(data, 16); return 0; }
"""


# ---------------------------------------------------------------------------
# symbolic serialization
# ---------------------------------------------------------------------------

class TestExprSerialization:
    @pytest.mark.parametrize("expr", [
        Int(5),
        Int(-3) * Sym("n") + Int(7),
        Sym("n") * Sym("m") ** 2,
        Max.make([Sym("a"), Int(0)]),
        Min.make([Sym("b"), Int(100)]),
        (Sym("n") + 1) // 2,
        Sum(Sym("k") * Sym("k"), "k", Int(1), Sym("n")),
    ])
    def test_round_trip_structural(self, expr):
        rebuilt = expr_from_json(json.loads(json.dumps(expr_to_json(expr))))
        assert rebuilt == expr

    def test_fraction_constants_exact(self):
        e = Int(1) / 3 * Sym("n")
        rebuilt = expr_from_json(expr_to_json(e))
        from fractions import Fraction
        assert rebuilt.evaluate({"n": 9}) == Fraction(3)

    def test_malformed_rejected(self):
        from repro.errors import SymbolicError
        for bad in (["nope", 1], [], {"k": 1}, ["int"], ["pow", ["int", 2]]):
            with pytest.raises(SymbolicError):
                expr_from_json(bad)


# ---------------------------------------------------------------------------
# AnalysisConfig
# ---------------------------------------------------------------------------

class TestAnalysisConfig:
    def test_json_round_trip(self):
        cfg = AnalysisConfig(opt_level=3, default_branch_ratio=0.25,
                             predefined={"N": 9, "FLAG": "1"},
                             cache_dir="/tmp/mc", use_cache=False)
        back = AnalysisConfig.from_json(cfg.to_json())
        assert back == cfg
        assert back.fingerprint(SCALE_SRC) == cfg.fingerprint(SCALE_SRC)

    def test_frozen(self):
        cfg = AnalysisConfig()
        with pytest.raises(Exception):
            cfg.opt_level = 3

    def test_predefines_normalized(self):
        a = AnalysisConfig(predefined={"B": "2", "A": "1"})
        b = AnalysisConfig(predefined=[("A", 1), ("B", 2)])
        assert a == b
        assert a.predefines() == {"A": "1", "B": "2"}

    def test_fingerprint_sensitivity(self):
        base = AnalysisConfig()
        fp = base.fingerprint(SCALE_SRC)
        assert base.fingerprint(SCALE_SRC) == fp
        assert base.with_changes(opt_level=0).fingerprint(SCALE_SRC) != fp
        assert base.with_changes(
            default_branch_ratio=0.9).fingerprint(SCALE_SRC) != fp
        assert base.with_changes(
            predefined={"N": "1"}).fingerprint(SCALE_SRC) != fp
        assert base.fingerprint(SCALE_SRC + "\n") != fp
        # per-call predefines are part of the identity too
        assert base.fingerprint(SCALE_SRC, predefined={"N": "1"}) != fp

    def test_bad_values_rejected(self):
        with pytest.raises(MiraError):
            AnalysisConfig(opt_level=7)
        with pytest.raises(MiraError):
            AnalysisConfig(default_branch_ratio=1.5)

    def test_unknown_schema_version_rejected(self):
        doc = AnalysisConfig().to_dict()
        doc["schema_version"] = CONFIG_SCHEMA_VERSION + 1
        with pytest.raises(SchemaError):
            AnalysisConfig.from_dict(doc)

    def test_wrong_kind_rejected(self):
        doc = AnalysisConfig().to_dict()
        doc["kind"] = "AnalysisResult"
        with pytest.raises(SchemaError):
            AnalysisConfig.from_dict(doc)

    def test_not_json_rejected(self):
        with pytest.raises(SchemaError):
            AnalysisConfig.from_json("{not json")


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

class TestPipeline:
    def test_run_until_each_stage(self):
        p = Pipeline()
        st = p.run_until("parse", SCALE_SRC)
        assert st.tu is not None and st.obj is None
        st = p.run_until("compile", SCALE_SRC)
        assert st.obj is not None and st.program is None
        st = p.run_until("disassemble", SCALE_SRC)
        assert st.program is not None and st.bridges is None
        st = p.run_until("bridge", SCALE_SRC)
        assert st.bridges and st.models is None
        st = p.run_until("model", SCALE_SRC)
        assert st.models and isinstance(st.result, AnalysisResult)
        assert st.stage == "model"

    def test_run_until_equivalent_to_full_run(self):
        full = Pipeline().run(SCALE_SRC)
        partial = Pipeline().run_until("model", SCALE_SRC).result
        for fn in ("scale", "main"):
            env = {p: 7 for p in full.parameters(fn)}
            assert full.evaluate(fn, env).as_dict() == \
                partial.evaluate(fn, env).as_dict()
        assert full.python_source() == partial.python_source()

    def test_unknown_stage_rejected(self):
        with pytest.raises(PipelineError):
            Pipeline().run_until("link", SCALE_SRC)

    def test_timings_cover_executed_stages(self):
        st = Pipeline().run_until("disassemble", SCALE_SRC)
        assert list(st.timings) == ["parse", "compile", "disassemble"]
        assert all(v >= 0 for v in st.timings.values())
        result = Pipeline().run(SCALE_SRC)
        assert list(result.stage_timings) == list(STAGES)

    def test_observers_see_ordered_events(self):
        events: list[StageEvent] = []
        Pipeline(observers=[events.append]).run_until("bridge", SCALE_SRC)
        assert [(e.stage, e.phase) for e in events] == [
            (s, ph) for s in STAGES[:4] for ph in ("start", "end")]
        assert all(e.elapsed >= 0 for e in events if e.phase == "end")

    def test_partial_state_refuses_processed_view(self):
        st = Pipeline().run_until("compile", SCALE_SRC)
        with pytest.raises(PipelineError):
            st.processed()

    def test_result_carries_fingerprint(self):
        cfg = AnalysisConfig()
        result = Pipeline(cfg).run(SCALE_SRC)
        assert result.fingerprint == cfg.fingerprint(SCALE_SRC)

    def test_config_predefines_flow_into_parse(self):
        cfg = AnalysisConfig(predefined={"STREAM_ARRAY_SIZE": "50"})
        result = Pipeline(cfg).run(get_source("stream"), filename="stream")
        assert result.fp_instructions("tuned_triad", {"n": 50}) == 100

    def test_per_call_predefines_stringified_like_config_ones(self):
        # int values must behave identically whether they arrive via the
        # config or the per-call override
        via_config = Pipeline(AnalysisConfig(
            predefined={"STREAM_ARRAY_SIZE": 50})).run(get_source("stream"))
        via_call = Pipeline().run(get_source("stream"),
                                  predefined={"STREAM_ARRAY_SIZE": 50})
        assert via_call.fp_instructions("tuned_triad", {"n": 50}) == \
            via_config.fp_instructions("tuned_triad", {"n": 50})


# ---------------------------------------------------------------------------
# the incremental analyzer drives the Pipeline's stages
# ---------------------------------------------------------------------------

# main calls both leaves; editing g re-analyzes g and main, restores h.
LEAVES_SRC = """\
int g(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }
int h(int n) { int s = 1; for (int i = 0; i < n; i++) s += 2 * i; return s; }
int main() { return g(10) + h(20); }
"""


def _phases(events) -> list:
    return [(e.stage, e.phase) for e in events]


class TestIncrementalEvents:
    def test_cold_stream_matches_pipeline(self, tmp_path):
        cfg = AnalysisConfig(cache_dir=str(tmp_path))
        cold, inc = [], []
        result = Pipeline(cfg, observers=[cold.append]).run(LEAVES_SRC)
        inc_result = IncrementalAnalyzer(
            cfg, observers=[inc.append]).analyze(LEAVES_SRC)
        assert _phases(inc) == _phases(cold)
        assert list(inc_result.stage_timings) == list(result.stage_timings)

    def test_leaf_edit_stream(self, tmp_path):
        analyzer = IncrementalAnalyzer(AnalysisConfig(cache_dir=str(tmp_path)))
        analyzer.analyze(LEAVES_SRC)
        events: list[StageEvent] = []
        analyzer.add_observer(events.append)
        result = analyzer.analyze(LEAVES_SRC.replace("s += i;", "s += 3 * i;"))
        assert result.restored_functions == ("h",)
        assert _phases(events) == [
            ("parse", "start"), ("parse", "end"), ("model", "cache-hit"),
            *((s, ph) for s in STAGES[1:] for ph in ("start", "end"))]
        assert [e.function for e in events if e.phase == "cache-hit"] == ["h"]
        assert list(result.stage_timings) == ["parse", "cache-hit",
                                              *STAGES[1:]]


# ---------------------------------------------------------------------------
# stack exhaustion is a typed error
# ---------------------------------------------------------------------------

def _chain(terms: int) -> str:
    """``int b = a+a+...+a;`` with ``terms`` operands: ordinary C whose
    left-leaning expression tree is deeper than the Python stack."""
    return ("int f(int a) { int b = " + "+".join(["a"] * terms)
            + "; return b; }\n")


@pytest.mark.parametrize("terms", [600, 2000])
class TestStackExhaustion:
    def test_pipeline(self, terms):
        with pytest.raises(PipelineError, match="nests too deeply"):
            Pipeline(AnalysisConfig(use_cache=False)).run(_chain(terms))

    def test_incremental(self, terms, tmp_path):
        analyzer = IncrementalAnalyzer(AnalysisConfig(cache_dir=str(tmp_path)))
        with pytest.raises(PipelineError, match="nests too deeply"):
            analyzer.analyze(_chain(terms))

    @pytest.mark.parametrize("argv", [["analyze", "{f}"],
                                      ["diff", "--no-cache", "{f}", "{f}"]])
    def test_cli_exits_1(self, terms, argv, tmp_path, capsys):
        path = tmp_path / "chain.c"
        path.write_text(_chain(terms))
        assert cli_main([a.format(f=path) for a in argv]) == 1
        assert capsys.readouterr().err.startswith("mira: PipelineError: ")


# ---------------------------------------------------------------------------
# AnalysisResult serialization
# ---------------------------------------------------------------------------

def _assert_equivalent(a: AnalysisResult, b: AnalysisResult,
                       binding: int = 7) -> None:
    assert a.models.keys() == b.models.keys()
    for qname in a.models:
        assert a.parameters(qname) == b.parameters(qname)
        assert a.warnings(qname) == b.warnings(qname)
        env = {p: binding for p in a.parameters(qname)}
        ma, mb = a.evaluate(qname, env), b.evaluate(qname, env)
        assert ma.counts == mb.counts   # exact Fractions, not just rounded


def _scale(doc) -> dict:
    return doc["functions"]["scale"]


def _call_with_args_list(doc):
    _scale(doc)["calls"] = [{"callee": "scale", "line": 1, "args": [],
                             "count": _scale(doc)["terms"][0]["count"]}]


#: Documents whose members are not the objects the wire format requires.
NON_OBJECT_MEMBERS = {
    "arch-list": lambda doc: doc.update(arch=[]),
    "arch-string": lambda doc: doc.update(arch="generic"),
    "functions-list": lambda doc: doc.update(functions=[]),
    "functions-int": lambda doc: doc.update(functions=3),
    "stage-timings-list": lambda doc: doc.update(stage_timings=[]),
    "stage-timings-string": lambda doc: doc.update(stage_timings="x"),
    "term-vector-list": lambda doc: _scale(doc)["terms"][0].update(vector=[]),
    "call-args-list": _call_with_args_list,
}


class TestAnalysisResultSerialization:
    def test_round_trip_metrics_identical(self):
        result = Pipeline().run(SCALE_SRC)
        back = AnalysisResult.from_json(result.to_json())
        _assert_equivalent(result, back)

    def test_round_trip_fractional_counts(self):
        # ratio annotations put exact rationals in the counts
        result = Pipeline().run(ANNOTATED_SRC)
        back = AnalysisResult.from_json(result.to_json())
        _assert_equivalent(result, back, binding=100)
        assert back.fp_instructions("f", {"n": 100}) == 25

    def test_emitted_module_memo_is_not_state(self):
        text = Pipeline().run_file(source_path("dgemm")).to_json()
        a, b = AnalysisResult.from_json(text), AnalysisResult.from_json(text)
        assert a == b
        a.python_source()
        a.compiled()
        assert a == b
        assert repr(a) == repr(b)

    def test_round_trip_python_source_identical(self):
        result = Pipeline().run(SCALE_SRC, filename="scale.c")
        back = AnalysisResult.from_json(result.to_json())
        assert back.python_source() == result.python_source()

    def test_restored_result_compiles_and_runs(self):
        result = Pipeline().run(SCALE_SRC)
        back = AnalysisResult.from_json(result.to_json())
        ns = back.compiled_module()
        assert ns["MODEL_FUNCTIONS"]["scale"](n=123).as_dict() == \
            result.evaluate("scale", {"n": 123}).as_dict()

    def test_metadata_survives(self):
        cfg = AnalysisConfig(opt_level=3)
        result = Pipeline(cfg).run(SCALE_SRC, filename="scale.c")
        back = AnalysisResult.from_json(result.to_json())
        assert back.source_name == "scale.c"
        assert back.opt_level == 3
        assert back.fingerprint == result.fingerprint
        assert back.stage_timings.keys() == result.stage_timings.keys()
        assert back.arch.fingerprint() == result.arch.fingerprint()

    def test_unknown_schema_version_rejected(self):
        doc = Pipeline().run(SCALE_SRC).to_dict()
        doc["schema_version"] = RESULT_SCHEMA_VERSION + 1
        with pytest.raises(SchemaError):
            AnalysisResult.from_dict(doc)

    def test_wrong_kind_rejected(self):
        doc = Pipeline().run(SCALE_SRC).to_dict()
        doc["kind"] = "AnalysisConfig"
        with pytest.raises(SchemaError):
            AnalysisResult.from_dict(doc)

    def test_malformed_payload_rejected(self):
        doc = Pipeline().run(SCALE_SRC).to_dict()
        doc["functions"]["scale"]["terms"] = [{"bogus": True}]
        with pytest.raises(SchemaError):
            AnalysisResult.from_dict(doc)
        with pytest.raises(SchemaError):
            AnalysisResult.from_json("{oops")

    def test_malformed_expression_rejected_as_schema_error(self):
        doc = Pipeline().run(SCALE_SRC).to_dict()
        doc["functions"]["scale"]["terms"][0]["count"] = ["bogus", 1]
        with pytest.raises(SchemaError):
            AnalysisResult.from_dict(doc)

    @pytest.mark.parametrize("corrupt", sorted(NON_OBJECT_MEMBERS))
    def test_non_object_member_rejected(self, corrupt):
        doc = Pipeline().run(SCALE_SRC).to_dict()
        NON_OBJECT_MEMBERS[corrupt](doc)
        with pytest.raises(SchemaError):
            AnalysisResult.from_dict(doc)
        with pytest.raises(SchemaError):
            AnalysisResult.from_json(json.dumps(doc))

    def test_unknown_category_rejected(self):
        doc = Pipeline().run(SCALE_SRC).to_dict()
        for m in doc["functions"].values():
            for t in m["terms"]:
                t["vector"] = {"Imaginary instruction": 1}
        with pytest.raises(SchemaError):
            AnalysisResult.from_dict(doc)


class TestCorpusRoundTrip:
    """Acceptance: every function of all 15 corpus programs evaluates
    identically after a serialization round-trip."""

    def test_all_corpus_programs(self):
        pipeline = Pipeline()
        for name in available():
            result = pipeline.run_file(source_path(name))
            back = AnalysisResult.from_json(result.to_json())
            _assert_equivalent(result, back, binding=5)


class TestArchDocument:
    """The arch document is built as a dict, and is the same document the
    JSON text gave: fingerprints, documents and cache keys are unchanged."""

    #: sha256 of each bundled description's ``to_json`` text.
    FINGERPRINTS = {
        "generic":
            "83b909fc6b4772317cbd256fefb85a8d9700e3324c83367b0c22f0da2c9a5952",
        "arya":
            "0daef6797c271da8218297dfe5ddf4afd2705c49b29691f6ec1b1daba9a94a44",
        "frankenstein":
            "811a77a33f8d0bd3af2defe16081318f3183b13fda032158c0930503e22c10d5",
    }

    @pytest.mark.parametrize("name", sorted(FINGERPRINTS))
    def test_dict_is_the_json_document(self, name):
        arch = default_arch(name)
        assert arch.fingerprint() == self.FINGERPRINTS[name]
        assert arch.to_dict() == json.loads(arch.to_json())
        back = ArchDescription.from_dict(arch.to_dict())
        assert back.to_json() == arch.to_json()
        config = AnalysisConfig(arch=arch)
        assert config.to_dict()["arch"] == json.loads(arch.to_json())
        again = AnalysisConfig.from_dict(json.loads(config.to_json()))
        assert again.to_json() == config.to_json()
        assert again.identity_fingerprint() == config.identity_fingerprint()

    def test_documents_share_no_containers(self):
        doc = default_arch().to_dict()
        arch = ArchDescription.from_dict(doc)
        doc["categories"].clear()
        doc["fp_arith_categories"].append("Imaginary instruction")
        assert arch.to_json() == default_arch().to_json()
        out = arch.to_dict()
        out["fp_data_categories"].clear()
        assert arch.fp_data_categories == default_arch().fp_data_categories

    def test_corpus_documents_and_keys(self):
        pipeline = Pipeline()
        for name in available():
            source = get_source(name)
            result = pipeline.run(source, filename=f"{name}.c")
            doc = result.to_dict()
            assert json.dumps(doc["arch"]) == \
                json.dumps(json.loads(result.arch.to_json()))
            back = AnalysisResult.from_dict(json.loads(json.dumps(doc)))
            assert back.arch.to_json() == result.arch.to_json()
            assert json.dumps(back.to_dict()) == json.dumps(doc)
            config = AnalysisConfig.from_json(pipeline.config.to_json())
            assert config.fingerprint(source, filename=f"{name}.c") \
                == result.fingerprint


# ---------------------------------------------------------------------------
# batch integration: warm hits never touch the compiler
# ---------------------------------------------------------------------------

class TestBatchServesSerializedResults:
    def test_warm_hits_skip_compiler(self, tmp_path, monkeypatch):
        config = AnalysisConfig(cache_dir=str(tmp_path / "mc"))
        cold = BatchAnalyzer(config, jobs=1).analyze_corpus()
        assert not cold.failed()

        import repro.core.pipeline as pipeline_mod

        def boom(*a, **kw):
            raise AssertionError("compiler invoked on the warm path")

        monkeypatch.setattr(pipeline_mod, "compile_tu", boom)
        monkeypatch.setattr(pipeline_mod, "parse_source", boom)
        warm = BatchAnalyzer(config, jobs=1).analyze_corpus()
        assert warm.cache_hits() == 15
        for c, w in zip(cold, warm):
            assert w.analysis is not None
            _assert_equivalent(c.analysis, w.analysis, binding=5)

    def test_batch_takes_config(self, tmp_path):
        cfg = AnalysisConfig(opt_level=0,
                             cache_dir=str(tmp_path / "mc"))
        ba = BatchAnalyzer(cfg, jobs=1)
        assert ba.config.opt_level == 0
        report = ba.analyze_sources({"k": SCALE_SRC})
        assert report["k"].ok
        assert report["k"].cache_key == cfg.fingerprint(SCALE_SRC,
                                                        filename="k")

    def test_non_config_first_argument_rejected(self):
        from repro.compiler.arch import default_arch
        for bad in ("not-a-config", default_arch("frankenstein")):
            with pytest.raises(MiraError):
                BatchAnalyzer(bad)

    def test_corrupt_cached_result_is_a_miss(self, tmp_path):
        import os
        cache_dir = str(tmp_path / "mc")
        config = AnalysisConfig(cache_dir=cache_dir)
        ba = BatchAnalyzer(config, jobs=1)
        rep = ba.analyze_sources({"k": SCALE_SRC})
        key = rep["k"].cache_key
        path = os.path.join(cache_dir, key[:2], f"{key}.json")
        payload = json.load(open(path))
        payload["result"]["schema_version"] = RESULT_SCHEMA_VERSION + 1
        with open(path, "w") as fh:
            json.dump(payload, fh)
        rerun = BatchAnalyzer(config, jobs=1).analyze_sources(
            {"k": SCALE_SRC})
        assert rerun.cache_hits() == 0 and rerun["k"].ok


# ---------------------------------------------------------------------------
# CLI structured output
# ---------------------------------------------------------------------------

class TestCliJson:
    def _json(self, capsys, argv):
        rc = cli_main(argv)
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == RESULT_SCHEMA_VERSION
        return doc

    def test_analyze_json(self, capsys):
        doc = self._json(capsys, ["analyze", source_path("fig5"), "--json"])
        assert doc["kind"] == "AnalysisResult"
        # the CLI's --json output IS the loadable wire format
        result = AnalysisResult.from_dict(doc)
        assert result.parameters("A::foo") == ["y"]

    def test_analyze_json_respects_output_flag(self, capsys, tmp_path):
        out = tmp_path / "result.json"
        rc = cli_main(["analyze", source_path("fig5"), "--json",
                       "-o", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "AnalysisResult"

    def test_eval_json(self, capsys):
        doc = self._json(capsys, ["eval", source_path("fig5"), "A::foo",
                                  "y=99", "--json"])
        assert doc["kind"] == "Evaluation"
        assert doc["fp_ins"] == 3200

    def test_inspect_json(self, capsys):
        doc = self._json(capsys, ["inspect", source_path("fig5"),
                                  "--stage", "disassemble", "--json"])
        assert doc["kind"] == "PipelineInspection"
        assert list(doc["stage_timings"]) == ["parse", "compile",
                                              "disassemble"]
        assert "model" not in doc["artifacts"]
        assert doc["artifacts"]["disassemble"]["functions"]

    def test_inspect_text(self, capsys):
        rc = cli_main(["inspect", source_path("fig5"), "--stage", "parse"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "parse" in out and "(not run)" in out

    def test_batch_json(self, capsys, tmp_path):
        doc = self._json(capsys, ["batch", source_path("fig5"), "--jobs",
                                  "1", "--cache-dir",
                                  str(tmp_path / "mc"), "--json"])
        assert doc["kind"] == "BatchReport"
        assert doc["aggregate"]["succeeded"] == 1

    def test_coverage_json_and_defines(self, capsys):
        doc = self._json(capsys, ["coverage", source_path("stream"),
                                  "-D", "STREAM_ARRAY_SIZE=100", "--json"])
        assert doc["kind"] == "CoverageReport"
        assert doc["files"][0]["loops"] > 0

    def test_disasm_threads_arch(self, capsys, tmp_path):
        # a custom arch file with a distinctive name must reach the run
        arch_path = tmp_path / "arch.json"
        from repro.compiler.arch import default_arch
        text = default_arch().to_json().replace(
            '"generic-x86_64"', '"my-custom-arch"')
        arch_path.write_text(text)
        doc = self._json(capsys, ["disasm", source_path("fig5"),
                                  "--arch", str(arch_path), "--json"])
        assert doc["kind"] == "Disassembly"
        assert doc["arch"] == "my-custom-arch"
        assert "instructions" in doc["listing"]
