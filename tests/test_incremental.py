"""Tests for the per-function incremental engine (repro.core.incremental).

The contract under test: an :class:`IncrementalAnalyzer` result is
bit-identical to a cold :class:`Pipeline` run (everything except
``stage_timings``), and the set of functions it actually re-analyzes is
exactly the edited function plus its transitive callers — counter-asserted
through ``FUNC_STAGE_RUN_COUNTS``.
"""

import json
import subprocess
import sys
import time

import pytest

from repro.cli import main as cli_main
from repro.core import AnalysisConfig, IncrementalAnalyzer, Pipeline
from repro.core.batch import ModelCache
from repro.core.pipeline import (FUNC_STAGE_RUN_COUNTS, STAGE_RUN_COUNTS,
                                 reset_stage_counters)
from repro.core.units import build_units
from repro.frontend import parse_source
from repro.workloads import available, source_path

# A five-function program with a two-level call chain:
#   main → f1 → f0        main → f3 → f2
SRC = """\
int f0(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }
int f1(int n) { int s = 0; for (int i = 0; i < n; i++) s += f0(n); return s; }
int f2(int n) { int s = 1; for (int i = 0; i < n; i++) s += 2 * i; return s; }
int f3(int n) { int s = 0; for (int i = 0; i < n; i++) s += f2(i); return s; }
int main() { return f1(10) + f3(20); }
"""

ALL = {"f0", "f1", "f2", "f3", "main"}


def strip_timings(result) -> dict:
    doc = result.to_dict()
    doc.pop("stage_timings", None)
    return doc


def fresh_runs(stage: str = "model") -> set:
    """Functions the given stage actually executed for since the last
    counter reset."""
    prefix = f"{stage}:"
    return {k[len(prefix):] for k, n in FUNC_STAGE_RUN_COUNTS.items()
            if k.startswith(prefix) and n}


def _each_term(key, value):
    def corrupt(doc):
        for term in doc["model"]["terms"]:
            term[key] = value
    return corrupt


#: Ways to damage a function-tier entry; each must read as a miss.
CORRUPT_ENTRIES = {
    "vector-list": _each_term("vector", []),
    "vector-unknown-category": _each_term("vector", {"Imaginary": 1}),
    "count-list": _each_term("count", []),
    "model-list": lambda doc: doc.update(model=[]),
}


@pytest.fixture
def analyzer(tmp_path):
    cfg = AnalysisConfig(cache_dir=str(tmp_path / "cache"))
    return IncrementalAnalyzer(cfg)


class TestBitIdentity:
    def test_cold_incremental_equals_pipeline(self, analyzer):
        inc = analyzer.analyze(SRC, filename="t.c")
        cold = Pipeline(analyzer.config).run(SRC, filename="t.c")
        assert strip_timings(inc) == strip_timings(cold)
        assert inc.restored_functions == ()
        assert set(inc.fresh_functions()) == ALL

    def test_warm_run_restores_everything(self, analyzer):
        analyzer.analyze(SRC, filename="t.c")
        reset_stage_counters()
        warm = analyzer.analyze(SRC, filename="t.c")
        assert set(warm.restored_functions) == ALL
        assert warm.fresh_functions() == []
        assert fresh_runs("model") == set()
        assert fresh_runs("compile") == set()
        # only the parse stage ran
        assert STAGE_RUN_COUNTS["parse"] == 1
        assert STAGE_RUN_COUNTS["compile"] == 0
        cold = Pipeline(analyzer.config).run(SRC, filename="t.c")
        assert strip_timings(warm) == strip_timings(cold)

    def test_warm_result_evaluates(self, analyzer):
        analyzer.analyze(SRC, filename="t.c")
        warm = analyzer.analyze(SRC, filename="t.c")
        cold = Pipeline(analyzer.config).run(SRC, filename="t.c")
        env = {p: 7 for p in cold.parameters("main")}
        assert warm.evaluate("main", env).as_dict() == \
            cold.evaluate("main", env).as_dict()

    @pytest.mark.parametrize("name", available())
    def test_corpus_equivalence(self, name, tmp_path):
        cfg = AnalysisConfig(cache_dir=str(tmp_path / "c"))
        analyzer = IncrementalAnalyzer(cfg)
        path = source_path(name)
        inc = analyzer.analyze_file(path)
        cold = Pipeline(cfg).run_file(path)
        assert strip_timings(inc) == strip_timings(cold)
        warm = analyzer.analyze_file(path)
        assert strip_timings(warm) == strip_timings(cold)
        assert set(warm.restored_functions) == set(cold.models)


class TestSelectiveReanalysis:
    def test_leaf_edit_invalidates_transitive_callers(self, analyzer):
        analyzer.analyze(SRC, filename="t.c")
        edited = SRC.replace("s += i;", "s += 3 * i;")
        reset_stage_counters()
        res = analyzer.analyze(edited, filename="t.c")
        # f0 changed; f1 calls f0, main calls f1.  f2/f3 are untouched.
        assert set(res.fresh_functions()) == {"f0", "f1", "main"}
        assert set(res.restored_functions) == {"f2", "f3"}
        for stage in ("compile", "disassemble", "bridge", "model"):
            assert fresh_runs(stage) == {"f0", "f1", "main"}, stage
        cold = Pipeline(analyzer.config).run(edited, filename="t.c")
        assert strip_timings(res) == strip_timings(cold)

    def test_mid_chain_edit(self, analyzer):
        analyzer.analyze(SRC, filename="t.c")
        edited = SRC.replace("s += f2(i);", "s += 2 * f2(i);")
        reset_stage_counters()
        res = analyzer.analyze(edited, filename="t.c")
        assert set(res.fresh_functions()) == {"f3", "main"}
        assert fresh_runs("model") == {"f3", "main"}

    def test_comment_only_edit_is_free(self, analyzer):
        analyzer.analyze(SRC, filename="t.c")
        # Same line structure: a comment appended to an existing line.
        edited = SRC.replace(
            "int main() { return f1(10) + f3(20); }",
            "int main() { return f1(10) + f3(20); }  // entry")
        reset_stage_counters()
        res = analyzer.analyze(edited, filename="t.c")
        assert res.fresh_functions() == []
        assert set(res.restored_functions) == ALL
        assert fresh_runs("model") == set()
        assert STAGE_RUN_COUNTS["compile"] == 0

    def test_whitespace_only_edit_is_free(self, analyzer):
        # Trailing whitespace leaves every token coordinate alone.  (An
        # indentation change is NOT free: models embed column numbers, so
        # shifting tokens must re-analyze for bit-identity.)
        analyzer.analyze(SRC, filename="t.c")
        edited = "".join(line + "   \n" for line in SRC.splitlines())
        reset_stage_counters()
        res = analyzer.analyze(edited, filename="t.c")
        assert res.fresh_functions() == []
        assert fresh_runs("model") == set()

    def test_line_shift_invalidates(self, analyzer):
        # Models embed absolute line numbers, so inserting a line must
        # re-analyze every function at or below it for bit-identity.
        analyzer.analyze(SRC, filename="t.c")
        edited = "// header comment\n" + SRC
        res = analyzer.analyze(edited, filename="t.c")
        assert set(res.fresh_functions()) == ALL
        cold = Pipeline(analyzer.config).run(edited, filename="t.c")
        assert strip_timings(res) == strip_timings(cold)


class TestConfigInvalidation:
    def test_opt_level_change_invalidates_everything(self, tmp_path):
        cache = str(tmp_path / "cache")
        a2 = IncrementalAnalyzer(AnalysisConfig(cache_dir=cache))
        a2.analyze(SRC, filename="t.c")
        a0 = IncrementalAnalyzer(AnalysisConfig(cache_dir=cache,
                                                opt_level=0))
        res = a0.analyze(SRC, filename="t.c")
        assert set(res.fresh_functions()) == ALL
        assert res.restored_functions == ()

    def test_predefine_change_invalidates_everything(self, tmp_path):
        cache = str(tmp_path / "cache")
        analyzer = IncrementalAnalyzer(AnalysisConfig(cache_dir=cache))
        analyzer.analyze(SRC, filename="t.c", predefined={"X": "1"})
        res = analyzer.analyze(SRC, filename="t.c", predefined={"X": "2"})
        assert set(res.fresh_functions()) == ALL

    def test_filename_does_not_matter(self, analyzer):
        # Fingerprints are content-addressed: the same functions under a
        # different filename warm-start (what mira diff A.c B.c relies on).
        analyzer.analyze(SRC, filename="a.c")
        res = analyzer.analyze(SRC, filename="b.c")
        assert set(res.restored_functions) == ALL


class TestFallbackAndEvents:
    def test_recursion_falls_back_to_pipeline(self, analyzer):
        # Recursive call graphs are rejected by static modeling; the
        # incremental engine must surface the same error the cold
        # pipeline raises, not an incremental-specific one.
        from repro.errors import ModelError

        rec = "int f(int n) { if (n <= 1) return 1; return n * f(n - 1); }\n" \
              "int main() { return f(5); }\n"
        with pytest.raises(ModelError) as cold_err:
            Pipeline(analyzer.config).run(rec, filename="r.c")
        reset_stage_counters()
        with pytest.raises(ModelError) as inc_err:
            analyzer.analyze(rec, filename="r.c")
        assert str(inc_err.value) == str(cold_err.value)
        assert STAGE_RUN_COUNTS["parse"] == 1

    def test_no_cache_config_still_correct(self):
        analyzer = IncrementalAnalyzer(AnalysisConfig(use_cache=False))
        res = analyzer.analyze(SRC, filename="t.c")
        cold = Pipeline(AnalysisConfig(use_cache=False)).run(
            SRC, filename="t.c")
        assert strip_timings(res) == strip_timings(cold)
        assert res.restored_functions == ()

    def test_cache_hit_events_emitted(self, analyzer):
        analyzer.analyze(SRC, filename="t.c")
        events = []
        analyzer.add_observer(events.append)
        res = analyzer.analyze(SRC, filename="t.c")
        hits = [e for e in events if e.phase == "cache-hit"]
        assert {e.function for e in hits} == ALL
        assert all(e.stage == "model" for e in hits)
        assert "cache-hit" in res.stage_timings
        assert res.stage_timings["cache-hit"] >= 0

    @pytest.mark.parametrize("corrupt", sorted(CORRUPT_ENTRIES))
    def test_corrupt_function_entry_is_a_miss(self, tmp_path, corrupt):
        cfg = AnalysisConfig(cache_dir=str(tmp_path / "cache"))
        path = source_path("dgemm")
        IncrementalAnalyzer(cfg).analyze_file(path)
        fn_dir = tmp_path / "cache" / "fn"
        entries = sorted(fn_dir.rglob("*.json"))
        assert entries
        for entry in entries:
            doc = json.loads(entry.read_text())
            CORRUPT_ENTRIES[corrupt](doc)
            entry.write_text(json.dumps(doc))
        # A fresh analyzer reads the disk tier: every entry is a miss, so
        # every function is modeled again, as a cold run would.
        warm = IncrementalAnalyzer(cfg).analyze_file(path)
        assert warm.restored_functions == ()
        assert strip_timings(warm) == strip_timings(
            Pipeline(cfg).run_file(path))

    def test_units_topology(self):
        tu = parse_source(SRC, filename="t.c")
        units = build_units(tu, AnalysisConfig(), {})
        names = list(units)
        assert set(names) == ALL
        # callees come before callers
        assert names.index("f0") < names.index("f1")
        assert names.index("f2") < names.index("f3")
        assert names.index("f1") < names.index("main")
        fps = {q: u.fingerprint for q, u in units.items()}
        assert len(set(fps.values())) == len(fps)


class TestBatchCacheHitTimings:
    def test_warm_batch_stamps_cache_hit_timing(self, tmp_path):
        from repro.core.batch import BatchAnalyzer

        cfg_dir = str(tmp_path / "cache")
        analyzer = BatchAnalyzer(AnalysisConfig(cache_dir=cfg_dir), jobs=1)
        analyzer.analyze_sources({"k": SRC})
        warm = analyzer.analyze_sources({"k": SRC})
        r = warm["k"]
        assert r.from_cache
        assert r.elapsed == 0.0   # pinned: hit cost is not analysis cost
        assert list(r.analysis.stage_timings) == ["cache-hit"]
        assert r.analysis.stage_timings["cache-hit"] > 0


class TestCacheCLI:
    def test_cache_info_and_clear(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        cfg = AnalysisConfig(cache_dir=cache)
        IncrementalAnalyzer(cfg).analyze(SRC, filename="t.c")
        # a separate analyzer = a separate process's warm run (the
        # in-process memo doesn't apply, so the disk counters move)
        IncrementalAnalyzer(cfg).analyze(SRC, filename="t.c")

        assert cli_main(["cache", "info", "--cache-dir", cache,
                         "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "CacheReport"
        assert doc["entries"]["function_entries"] == len(ALL)
        assert doc["entries"]["bytes"] > 0
        assert doc["lifetime"]["stores"] == len(ALL)
        assert doc["lifetime"]["hits"] == len(ALL)     # the warm re-run
        assert doc["lifetime"]["misses"] == len(ALL)   # the cold run

        assert cli_main(["cache", "clear", "--cache-dir", cache,
                         "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cleared"] == len(ALL)
        assert cli_main(["cache", "info", "--cache-dir", cache,
                         "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"]["entries"] == 0

    def test_cache_info_text(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        IncrementalAnalyzer(AnalysisConfig(cache_dir=cache)).analyze(
            SRC, filename="t.c")
        assert cli_main(["cache", "info", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "per-function entries" in out
        assert "lifetime hits" in out


class TestDiffCLI:
    def test_diff_two_files(self, tmp_path, capsys):
        a = tmp_path / "a.c"
        b = tmp_path / "b.c"
        a.write_text(SRC)
        b.write_text(SRC.replace("s += i;", "s += 3 * i + 1;"))
        cache = str(tmp_path / "cache")
        rc = cli_main(["diff", str(a), str(b), "--cache-dir", cache,
                       "--json"])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "ModelDiff"
        assert not doc["identical"]
        changed = {d["function"] for d in doc["changed"]}
        assert "f0" in changed
        assert "f2" in doc["unchanged"] and "f3" in doc["unchanged"]
        # side B warm-started from side A's unchanged functions
        assert set(doc["incremental"]["b"]["restored"]) == {"f2", "f3"}
        assert set(doc["incremental"]["b"]["fresh"]) == {"f0", "f1", "main"}

    def test_diff_identical_files(self, tmp_path, capsys):
        a = tmp_path / "a.c"
        a.write_text(SRC)
        rc = cli_main(["diff", str(a), str(a),
                       "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_requires_second_file_or_watch(self, tmp_path):
        a = tmp_path / "a.c"
        a.write_text(SRC)
        with pytest.raises(SystemExit):
            cli_main(["diff", str(a)])

    def test_watch_reports_an_edit(self, tmp_path):
        a = tmp_path / "a.c"
        a.write_text(SRC)
        cache = str(tmp_path / "cache")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "diff", str(a), "--watch",
             "--interval", "0.1", "--count", "1", "--cache-dir", cache,
             "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        time.sleep(2.0)   # let the baseline analysis land
        # `+ 1` adds an instruction (a coefficient tweak alone wouldn't
        # change the instruction-count model)
        a.write_text(SRC.replace("s += 2 * i;", "s += 2 * i + 1;"))
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        doc = json.loads(out.splitlines()[-1])
        assert doc["kind"] == "ModelDiff"
        # f2's own model changed; its callers f3/main keep their exclusive
        # models but their inclusive counts changed through f2
        changed = {d["function"]: d for d in doc["changed"]}
        assert set(changed) == {"f2", "f3", "main"}
        assert changed["f3"]["detail"] == "via f2"
        assert changed["main"]["detail"] == "via f3"
        assert set(doc["incremental"]["fresh"]) == {"f2", "f3", "main"}
        assert set(doc["incremental"]["restored"]) == {"f0", "f1"}
