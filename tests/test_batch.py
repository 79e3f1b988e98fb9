"""Tests for the batch corpus-analysis engine (repro.core.batch)."""

import json
import os

import pytest

from repro.cli import main as cli_main
from repro.core import AnalysisConfig, Pipeline
from repro.core.batch import BatchAnalyzer, BatchItem, ModelCache
from repro.errors import BatchError
from repro.workloads import available, source_path

GOOD_SRC = """
double a[8];
void f(double *x, int n) {
  for (int i = 0; i < n; i++)
    x[i] = x[i] * 2.0;
}
int main() { f(a, 8); return 0; }
"""

BAD_SRC = "int main( {"


NO_CACHE = AnalysisConfig(use_cache=False)


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "model-cache")


@pytest.fixture
def config(cache_dir):
    return AnalysisConfig(cache_dir=cache_dir)


def corpus_paths():
    return [source_path(n) for n in available()]


class TestCorpusBatch:
    def test_all_fifteen_analyzed(self, config):
        report = BatchAnalyzer(config, jobs=1).analyze_corpus()
        assert len(report.results) == 15
        assert not report.failed()
        assert [r.name for r in report] == available()
        assert all(r.functions for r in report)

    def test_parallel_run_restores_environment(self):
        before = os.environ.get("PYTHONPATH")
        BatchAnalyzer(NO_CACHE, jobs=2).analyze_sources(
            {"k": GOOD_SRC})
        assert os.environ.get("PYTHONPATH") == before

    def test_parallel_matches_serial(self):
        serial = BatchAnalyzer(NO_CACHE, jobs=1).analyze_corpus()
        parallel = BatchAnalyzer(NO_CACHE, jobs=4).analyze_corpus()
        assert [r.name for r in serial] == [r.name for r in parallel]
        for s, p in zip(serial, parallel):
            assert s.ok and p.ok
            assert s.model_source == p.model_source
            assert s.coverage == p.coverage
            assert {q: f.params for q, f in s.functions.items()} == \
                   {q: f.params for q, f in p.functions.items()}

    def test_matches_per_file_mira_analyze(self):
        report = BatchAnalyzer(NO_CACHE, jobs=2).analyze_corpus()
        for name in ("dgemm", "stream", "fig5"):
            model = Pipeline().run_file(source_path(name))
            assert report[name].model_source == model.python_source()

    def test_aggregate_counts(self):
        report = BatchAnalyzer(NO_CACHE, jobs=1).analyze_corpus()
        agg = report.aggregate()
        assert agg["files"] == agg["succeeded"] == 15
        assert agg["failed"] == 0
        assert agg["functions"] == sum(len(r.functions) for r in report)
        assert 0 < agg["loop_coverage_pct"] <= 100


class TestModelCache:
    def test_second_run_hits_for_all(self, config):
        cold = BatchAnalyzer(config, jobs=1).analyze_corpus()
        assert cold.cache_hits() == 0
        warm = BatchAnalyzer(config, jobs=1).analyze_corpus()
        assert warm.cache_hits() == 15
        for c, w in zip(cold, warm):
            assert c.model_source == w.model_source
            assert c.functions.keys() == w.functions.keys()
            assert w.from_cache

    def test_cache_layout_is_sharded_json(self, cache_dir, config):
        report = BatchAnalyzer(config, jobs=1).analyze_sources(
            {"good": GOOD_SRC})
        key = report["good"].cache_key
        path = os.path.join(cache_dir, key[:2], f"{key}.json")
        assert os.path.exists(path)
        payload = json.load(open(path))
        assert payload["ok"] and "model_source" not in payload

    def test_source_change_invalidates(self, config):
        ba = BatchAnalyzer(config, jobs=1)
        ba.analyze_sources({"k": GOOD_SRC})
        changed = GOOD_SRC.replace("* 2.0", "* 3.0")
        rerun = BatchAnalyzer(config, jobs=1).analyze_sources(
            {"k": changed})
        assert rerun.cache_hits() == 0

    def test_arch_change_invalidates(self, config):
        from repro.compiler.arch import default_arch

        BatchAnalyzer(config, jobs=1).analyze_sources(
            {"k": GOOD_SRC})
        other = BatchAnalyzer(
            config.with_changes(arch=default_arch("frankenstein")),
            jobs=1).analyze_sources({"k": GOOD_SRC})
        assert other.cache_hits() == 0

    def test_branch_ratio_invalidates(self, config):
        BatchAnalyzer(config, jobs=1).analyze_sources(
            {"k": GOOD_SRC})
        other = BatchAnalyzer(
            config.with_changes(default_branch_ratio=0.9),
            jobs=1).analyze_sources({"k": GOOD_SRC})
        assert other.cache_hits() == 0

    def test_cache_hit_reports_near_zero_elapsed(self, config):
        BatchAnalyzer(config, jobs=1).analyze_sources(
            {"k": GOOD_SRC})
        warm = BatchAnalyzer(config, jobs=1).analyze_sources(
            {"k": GOOD_SRC})
        assert warm["k"].from_cache and warm["k"].elapsed == 0.0

    def test_opt_level_and_predefines_invalidate(self, config):
        BatchAnalyzer(config, jobs=1).analyze_sources(
            {"k": GOOD_SRC})
        o0 = BatchAnalyzer(config.with_changes(opt_level=0),
                           jobs=1).analyze_sources({"k": GOOD_SRC})
        assert o0.cache_hits() == 0
        defined = BatchAnalyzer(config, jobs=1).analyze_sources(
            {"k": GOOD_SRC}, predefined={"N": "9"})
        assert defined.cache_hits() == 0

    def test_no_cache_mode(self, cache_dir, config):
        ba = BatchAnalyzer(config.with_changes(use_cache=False), jobs=1)
        ba.analyze_sources({"k": GOOD_SRC})
        again = BatchAnalyzer(config.with_changes(use_cache=False),
                              jobs=1).analyze_sources({"k": GOOD_SRC})
        assert again.cache_hits() == 0
        assert not os.path.exists(cache_dir)

    def test_corrupt_entry_is_a_miss(self, cache_dir, config):
        ba = BatchAnalyzer(config, jobs=1)
        rep = ba.analyze_sources({"k": GOOD_SRC})
        key = rep["k"].cache_key
        path = os.path.join(cache_dir, key[:2], f"{key}.json")
        with open(path, "w") as fh:
            fh.write("{not json")
        rerun = BatchAnalyzer(config, jobs=1).analyze_sources(
            {"k": GOOD_SRC})
        assert rerun.cache_hits() == 0 and not rerun.failed()

    def test_clear(self, cache_dir, config):
        BatchAnalyzer(config, jobs=1).analyze_corpus()
        cache = ModelCache(cache_dir)
        assert cache.clear() == 15
        assert BatchAnalyzer(config, jobs=1).analyze_corpus().cache_hits() == 0


class TestErrorIsolation:
    def test_one_bad_file_does_not_abort(self):
        report = BatchAnalyzer(NO_CACHE, jobs=1).analyze_sources(
            {"good": GOOD_SRC, "bad": BAD_SRC, "good2": GOOD_SRC + "\n"})
        assert len(report.results) == 3
        assert report["good"].ok and report["good2"].ok
        bad = report["bad"]
        assert not bad.ok and bad.status == "FAIL"
        assert isinstance(bad.error, BatchError)
        assert bad.error.error_type == "ParseError"

    def test_bad_file_isolated_in_parallel(self):
        report = BatchAnalyzer(NO_CACHE, jobs=3).analyze_sources(
            {"good": GOOD_SRC, "bad": BAD_SRC})
        assert report["good"].ok and not report["bad"].ok

    def test_missing_path_is_isolated(self, tmp_path, config):
        good = tmp_path / "good.c"
        good.write_text(GOOD_SRC)
        report = BatchAnalyzer(config, jobs=1).analyze_paths(
            [str(tmp_path / "nope.c"), str(good)])
        assert report["good"].ok
        assert not report["nope"].ok
        assert report["nope"].error.error_type == "FileNotFoundError"
        # results stay at their input positions
        assert [r.name for r in report] == ["nope", "good"]

    def test_non_utf8_file_is_isolated(self, tmp_path, config):
        good = tmp_path / "good.c"
        good.write_text(GOOD_SRC)
        binary = tmp_path / "binary.c"
        binary.write_bytes(b"int main() { return 0; } \xe9\xff")
        report = BatchAnalyzer(config, jobs=1).analyze_paths(
            [str(binary), str(good)])
        assert report["good"].ok
        assert not report["binary"].ok
        assert report["binary"].error.error_type == "UnicodeDecodeError"

    def test_failures_are_not_cached(self, config):
        BatchAnalyzer(config, jobs=1).analyze_sources(
            {"bad": BAD_SRC})
        rerun = BatchAnalyzer(config, jobs=1).analyze_sources(
            {"bad": BAD_SRC})
        assert rerun.cache_hits() == 0 and not rerun["bad"].ok


class TestReport:
    def test_function_summaries(self):
        report = BatchAnalyzer(NO_CACHE, jobs=1).analyze_sources(
            {"k": GOOD_SRC})
        fns = report["k"].functions
        assert fns["f"].params == ["n"]
        assert fns["f"].counts is None          # parametric: no concrete counts
        assert fns["main"].params == []
        assert fns["main"].counts and fns["main"].total > 0
        assert fns["main"].fp_ins == 8          # one mulsd per element

    def test_json_round_trip(self):
        report = BatchAnalyzer(NO_CACHE, jobs=1).analyze_sources(
            {"good": GOOD_SRC, "bad": BAD_SRC})
        doc = json.loads(report.to_json())
        assert doc["aggregate"]["files"] == 2
        assert doc["aggregate"]["failed"] == 1
        statuses = {f["name"]: f["status"] for f in doc["files"]}
        assert statuses == {"good": "ok", "bad": "FAIL"}
        (bad,) = [f for f in doc["files"] if f["name"] == "bad"]
        assert bad["error"]["type"] == "ParseError"

    def test_format_table(self):
        report = BatchAnalyzer(NO_CACHE, jobs=1).analyze_sources(
            {"good": GOOD_SRC})
        text = report.format_table()
        assert "good" in text and "1/1 analyzed" in text

    def test_unknown_name_raises(self):
        report = BatchAnalyzer(NO_CACHE, jobs=1).analyze_sources(
            {"good": GOOD_SRC})
        with pytest.raises(BatchError):
            report["nope"]

    def test_duplicate_items_analyzed_once(self, tmp_path, config):
        p = tmp_path / "dup.c"
        p.write_text(GOOD_SRC)
        report = BatchAnalyzer(config, jobs=1).analyze_paths(
            [str(p), str(p)])
        assert len(report.results) == 2
        assert all(r.ok for r in report)
        assert report.results[0].model_source == report.results[1].model_source
        # one pipeline run, one store — the second slot reuses the payload
        assert report.cache_stats["stores"] == 1

    def test_cache_stats_are_per_run(self, config):
        ba = BatchAnalyzer(config, jobs=1)
        cold = ba.analyze_sources({"k": GOOD_SRC})
        assert cold.cache_stats["hits"] == 0 and cold.cache_stats["stores"] == 1
        warm = ba.analyze_sources({"k": GOOD_SRC})
        assert warm.cache_stats["hits"] == 1 and warm.cache_stats["stores"] == 0
        assert "cache_stats" in json.loads(warm.to_json())

    def test_batch_item_from_path(self, tmp_path):
        p = tmp_path / "thing.c"
        p.write_text(GOOD_SRC)
        item = BatchItem.from_path(str(p))
        assert item.name == "thing" and item.filename == str(p)


class TestBatchCLI:
    def test_batch_files(self, capsys, cache_dir):
        rc = cli_main(["batch", source_path("dgemm"), source_path("swim"),
                       "--jobs", "1", "--cache-dir", cache_dir])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dgemm" in out and "swim" in out and "2/2 analyzed" in out

    def test_batch_corpus_json(self, capsys, cache_dir):
        rc = cli_main(["batch", "--corpus", "--jobs", "2",
                       "--cache-dir", cache_dir, "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["aggregate"]["succeeded"] == 15

    def test_batch_warm_run_reports_hits(self, capsys, cache_dir):
        cli_main(["batch", "--corpus", "--jobs", "1",
                  "--cache-dir", cache_dir])
        capsys.readouterr()
        rc = cli_main(["batch", "--corpus", "--jobs", "1",
                       "--cache-dir", cache_dir])
        assert rc == 0
        assert "15 cache hit(s)" in capsys.readouterr().out

    def test_batch_failure_exit_code(self, capsys, tmp_path, cache_dir):
        bad = tmp_path / "bad.c"
        bad.write_text(BAD_SRC)
        rc = cli_main(["batch", str(bad), "--jobs", "1",
                       "--cache-dir", cache_dir])
        assert rc == 1
        err = capsys.readouterr().err
        assert "ParseError" in err

    def test_batch_no_cache(self, capsys, cache_dir):
        rc = cli_main(["batch", source_path("fig5"), "--jobs", "1",
                       "--no-cache", "--cache-dir", cache_dir])
        assert rc == 0
        assert not os.path.exists(cache_dir)
