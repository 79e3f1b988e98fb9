"""Unit tests for the serving substrate: ModelRegistry tiers and LRU,
route matching, the shared error payload, and the version envelope.

The registry contract: three tiers (warm LRU -> disk ModelCache -> cold
pipeline run), where any submission after the first never invokes the
compiler — counter-asserted through ``STAGE_RUN_COUNTS`` — and warm
entries evaluate bit-identically to a cold run.
"""

import json
import threading

import pytest

import repro
from repro._version import __version__
from repro.cli import main as cli_main
from repro.core import AnalysisConfig, IncrementalAnalyzer, Pipeline
from repro.core.batch import ModelCache
from repro.core.pipeline import (FUNC_STAGE_RUN_COUNTS, STAGE_RUN_COUNTS,
                                 reset_stage_counters)
from repro.core.store import DEFAULT_CAPACITY, payload_from_result
from repro.core.units import build_units
from repro.frontend import parse_source
from repro.errors import MiraError, ParseError, ServeError, error_payload
from repro.serve import ModelRegistry
from repro.serve.app import (HTTPError, Request, ServerContext, match_route,
                             route_table)
from repro.serve.registry import etag
from repro.serve.routes.analyses import (create_analysis, get_analysis,
                                         list_analyses, request_config)
from repro.serve.routes.corpora import create_corpus
from repro.workloads import available, get_source

SRC = """\
double kernel(int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) s += i * 2.0;
    return s;
}
"""


def variant(i: int) -> str:
    return SRC.replace("2.0", f"{i}.0")


def compiles() -> int:
    return STAGE_RUN_COUNTS.get("compile", 0)


@pytest.fixture
def registry(tmp_path):
    config = AnalysisConfig(cache_dir=str(tmp_path / "cache"))
    return ModelRegistry(config, capacity=4)


# -- tiers ------------------------------------------------------------------------

def test_cold_then_warm_then_disk(registry):
    reset_stage_counters()
    entry, origin = registry.submit(SRC)
    assert origin == "cold"
    assert compiles() == 1

    again, origin = registry.submit(SRC)
    assert origin == "registry"
    assert again is entry                  # the same warm object
    assert again.hits == 1
    assert compiles() == 1                 # no second compile

    registry.evict(entry.key)
    promoted, origin = registry.submit(SRC)
    assert origin == "cache"               # disk tier, still no compile
    assert compiles() == 1
    assert promoted.key == entry.key


def test_disk_promotion_across_registry_instances(registry):
    entry, _ = registry.submit(SRC)
    reset_stage_counters()
    # A fresh registry (fresh process, conceptually) over the same cache
    # directory serves the model from disk without re-analyzing.
    fresh = ModelRegistry(registry.config, capacity=4)
    promoted, origin = fresh.submit(SRC)
    assert origin == "cache"
    assert compiles() == 0
    assert promoted.key == entry.key
    assert promoted.result.to_dict() == entry.result.to_dict()


def test_warm_entry_evaluates_bit_identically(registry):
    entry, _ = registry.submit(SRC)
    direct = Pipeline(registry.config).run(SRC)
    qname = direct._resolve("kernel")
    for n in (1, 10, 1000):
        a = entry.result.compiled().evaluate(qname, {"n": n})
        b = direct.compiled().evaluate(qname, {"n": n})
        assert a.as_dict() == b.as_dict()


def test_fingerprint_is_the_etag_and_id(registry):
    entry, _ = registry.submit(SRC, filename="kernel.c")
    key = registry.fingerprint(SRC, registry.config, "kernel.c")
    assert entry.key == key
    assert etag(entry.key) == f'"{key}"'
    # The filename is part of the fingerprint: same bytes, different name,
    # different resource.
    assert registry.fingerprint(SRC, registry.config, "other.c") != key


# -- LRU --------------------------------------------------------------------------

def test_lru_eviction_is_bounded_and_disk_backed(registry):
    keys = [registry.submit(variant(i))[0].key for i in range(6)]
    assert len(registry.ids()) == 4        # capacity bound holds
    assert registry.evictions == 2
    # The two oldest fell out of the warm tier...
    assert keys[0] not in registry.ids()
    assert keys[1] not in registry.ids()
    # ...but the disk tier still serves them (and re-promotes).
    reset_stage_counters()
    entry, origin = registry.submit(variant(0))
    assert origin == "cache"
    assert compiles() == 0
    assert entry.key == keys[0]


def test_lru_order_refreshes_on_hit(registry):
    keys = [registry.submit(variant(i))[0].key for i in range(4)]
    registry.submit(variant(0))            # touch the oldest -> newest
    registry.submit(variant(9))            # evicts variant(1), not 0
    assert keys[0] in registry.ids()
    assert keys[1] not in registry.ids()


def test_capacity_must_be_positive():
    with pytest.raises(MiraError):
        ModelRegistry(AnalysisConfig(use_cache=False), capacity=0)


# -- concurrency ------------------------------------------------------------------

def test_concurrent_identical_submits_run_one_analysis(tmp_path):
    registry = ModelRegistry(
        AnalysisConfig(cache_dir=str(tmp_path / "cache")), capacity=4)
    reset_stage_counters()
    results = []
    barrier = threading.Barrier(8)

    def submit():
        barrier.wait()
        results.append(registry.submit(SRC))

    threads = [threading.Thread(target=submit) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert len(results) == 8
    assert compiles() == 1                 # the in-flight lock collapsed them
    origins = sorted(o for _, o in results)
    assert origins.count("cold") == 1
    keys = {e.key for e, _ in results}
    assert len(keys) == 1


# -- the function tier ------------------------------------------------------------

# Five functions, two call chains: main → f1 → f0 and main → f3 → f2.
CHAIN = """\
int f0(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }
int f1(int n) { int s = 0; for (int i = 0; i < n; i++) s += f0(n); return s; }
int f2(int n) { int s = 1; for (int i = 0; i < n; i++) s += 2 * i; return s; }
int f3(int n) { int s = 0; for (int i = 0; i < n; i++) s += f2(i); return s; }
int main() { return f1(10) + f3(20); }
"""


def strip_timings(result) -> dict:
    doc = result.to_dict()
    doc.pop("stage_timings")
    return doc


def compiled_functions() -> set:
    """Functions the compile stage ran for since the last counter reset."""
    return {k.split(":", 1)[1] for k, n in FUNC_STAGE_RUN_COUNTS.items()
            if k.startswith("compile:") and n}


def test_cold_submit_warms_the_watch_loop(tmp_path):
    config = AnalysisConfig(cache_dir=str(tmp_path / "cache"))
    ModelRegistry(config).submit(CHAIN, filename="t.c")
    reset_stage_counters()
    result = IncrementalAnalyzer(config).analyze(CHAIN, filename="t.c")
    assert compiles() == 0
    assert set(result.restored_functions) == set(result.models) \
        == {"f0", "f1", "f2", "f3", "main"}
    cold = Pipeline(config).run(CHAIN, filename="t.c")
    assert strip_timings(result) == strip_timings(cold)


def test_watch_session_warms_served_submits(tmp_path):
    config = AnalysisConfig(cache_dir=str(tmp_path / "cache"))
    IncrementalAnalyzer(config).analyze(CHAIN, filename="t.c")
    edited = CHAIN.replace("s += 2 * i;", "s += 3 * i;")      # f2's body
    reset_stage_counters()
    entry, origin = ModelRegistry(config).submit(edited, filename="t.c")
    assert origin == "cold"
    # f0 and f1 are unchanged and restored; f2 and its callers are not.
    assert compiled_functions() == {"f2", "f3", "main"}
    assert "cache-hit" in entry.result.stage_timings
    cold = Pipeline(config).run(edited, filename="t.c")
    assert strip_timings(entry.result) == strip_timings(cold)


def _body_edit(source: str):
    """``source`` with a declaration added at the start of the first free
    function's body (main only when it is the only one), and the names of
    that function and its transitive callers."""
    tu = parse_source(source)
    free = [f for f in tu.functions
            if not f.info.get("prototype_only") and f.class_name is None]
    fn = next((f for f in free if f.name != "main"), free[0])
    lines = source.split("\n")
    line, col = fn.body.line, fn.body.col
    lines[line - 1] = lines[line - 1][:col] + " int served_edit = 1;" \
        + lines[line - 1][col:]
    units = build_units(tu, AnalysisConfig())
    stale = {fn.qualified_name}
    for q, unit in units.items():          # callees come first
        if stale & set(unit.callees):
            stale.add(q)
    return "\n".join(lines), stale


@pytest.mark.parametrize("name", available())
def test_resubmits_restore_unchanged_functions(name, tmp_path):
    """A resubmission with a trailing comment restores every function and
    one with a body edit compiles only that function and its callers; both
    store what a cold ``Pipeline.run`` gives."""
    source, filename = get_source(name), f"{name}.c"
    config = AnalysisConfig(cache_dir=str(tmp_path / "cache"))
    registry = ModelRegistry(config)
    registry.submit(source, filename=filename)
    edited, stale = _body_edit(source)
    for variant, want in ((source + "\n/* resubmitted */\n", set()),
                          (edited, stale)):
        reset_stage_counters()
        entry, origin = registry.submit(variant, filename=filename)
        assert origin == "cold"
        assert compiled_functions() == want
        restored = set(entry.result.models) - want
        assert ("cache-hit" in entry.result.stage_timings) == bool(restored)
        cold = Pipeline(config).run(variant, filename=filename)
        assert strip_timings(entry.result) == strip_timings(cold)
        payload = payload_from_result(config, cold, filename, 0.0)
        assert entry.functions == payload["functions"]
        assert entry.coverage == payload["coverage"]


@pytest.mark.parametrize("name", available())
def test_corpus_handle_equals_the_submitted_handle(name):
    """``/v1/corpora`` registers the entry its batch's store made: the
    listed handle equals a ``POST /v1/analyses`` handle of the same source
    and name, and the entry keeps the full per-function summaries."""
    source, filename = get_source(name), f"{name}.c"
    config = AnalysisConfig(use_cache=False)
    batch_ctx = ServerContext(ModelRegistry(config))
    report = create_corpus(batch_ctx, Request(
        "POST", "/v1/corpora", body={"sources": {filename: source}})).doc
    key = report["ids"][filename]
    (listed,) = list_analyses(
        batch_ctx, Request("GET", "/v1/analyses")).doc["analyses"]
    submit_ctx = ServerContext(ModelRegistry(config))
    submitted = create_analysis(submit_ctx, Request(
        "POST", "/v1/analyses",
        body={"source": source, "filename": filename})).doc
    assert submitted["origin"] == "cold" and submitted["id"] == key
    for field in ("id", "etag", "source", "functions", "coverage"):
        assert listed[field] == submitted[field], field
    adopted = batch_ctx.registry.get(key)
    assert adopted.functions == submit_ctx.registry.get(key).functions
    concrete = Pipeline(config).run(source, filename=filename)
    for qname, summary in adopted.functions.items():
        assert set(summary) >= {"counts", "total", "fp_ins"}
        if not concrete.parameters(qname):
            assert summary["counts"] == \
                concrete.evaluate(qname).as_dict(), qname


def test_corpus_registers_every_file_beyond_the_store_default():
    """Every id a ``/v1/corpora`` reply lists is registered, also past the
    default store capacity and without a disk tier to fall back on."""
    count = DEFAULT_CAPACITY + 6
    sources = {f"k{i}.c": f"double k{i}(double x) {{ return x * {i}.0; }}\n"
               for i in range(count)}
    ctx = ServerContext(ModelRegistry(AnalysisConfig(use_cache=False),
                                      capacity=count + 10))
    ids = create_corpus(ctx, Request(
        "POST", "/v1/corpora", body={"sources": sources})).doc["ids"]
    assert len(ids) == count
    for name, key in ids.items():
        got = get_analysis(ctx, Request("GET", f"/v1/analyses/{key}",
                                        params={"id": key}))
        assert got.status == 200 and got.doc["id"] == key, name


# -- routing ----------------------------------------------------------------------

def test_match_route_resolves_params():
    table = route_table()
    handler, params = match_route(table, "GET", "/v1/analyses/" + "ab" * 16)
    assert params == {"id": "ab" * 16}


def test_match_route_unknown_path_is_404():
    with pytest.raises(HTTPError) as exc:
        match_route(route_table(), "GET", "/v1/nope")
    assert exc.value.status == 404
    assert exc.value.error_type == "NotFound"


def test_match_route_wrong_method_is_405_listing_allowed():
    with pytest.raises(HTTPError) as exc:
        match_route(route_table(), "DELETE", "/v1/analyses")
    assert exc.value.status == 405
    assert exc.value.error_type == "MethodNotAllowed"
    assert "GET" in str(exc.value) and "POST" in str(exc.value)


def test_request_require_names_the_missing_field():
    req = Request(method="POST", path="/v1/analyses", body={})
    with pytest.raises(HTTPError) as exc:
        req.require("source")
    assert exc.value.status == 400
    assert "source" in str(exc.value)


# -- request config ---------------------------------------------------------------

def _ctx(tmp_path) -> ServerContext:
    registry = ModelRegistry(
        AnalysisConfig(cache_dir=str(tmp_path / "cache")), capacity=4)
    return ServerContext(registry)


def test_request_config_overlays_model_knobs(tmp_path):
    ctx = _ctx(tmp_path)
    config = request_config(ctx, {"opt_level": 0,
                                  "predefined": {"N": "64"},
                                  "symbolic_params": ["n"]})
    assert config.opt_level == 0
    assert dict(config.predefined) == {"N": "64"}
    assert config.symbolic_params == ("n",)
    # The server's cache policy is untouched by request configs.
    assert config.cache_dir == ctx.config.cache_dir
    assert config.use_cache == ctx.config.use_cache


def test_request_config_rejects_cache_fields(tmp_path):
    ctx = _ctx(tmp_path)
    with pytest.raises(HTTPError) as exc:
        request_config(ctx, {"cache_dir": "/tmp/elsewhere"})
    assert exc.value.status == 400
    assert "cache_dir" in str(exc.value)


def test_request_config_rejects_unknown_arch(tmp_path):
    with pytest.raises(HTTPError) as exc:
        request_config(_ctx(tmp_path), {"arch": "m1"})
    assert exc.value.status == 400


# -- the shared error payload -----------------------------------------------------

def test_error_payload_carries_concrete_type():
    doc = error_payload(ParseError("unexpected token"))
    assert doc == {"error": {"type": "ParseError",
                             "message": "unexpected token"}}
    assert isinstance(ServeError("x"), MiraError)


def test_cli_json_failures_use_the_payload(tmp_path, capsys):
    bad = tmp_path / "bad.c"
    bad.write_text("int main( {")
    rc = cli_main(["analyze", str(bad), "--json"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "ParseError"
    assert doc["version"] == __version__


# -- the version envelope ---------------------------------------------------------

def test_single_sourced_version():
    assert repro.__version__ == __version__


def test_cli_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"mira {__version__}"


def test_json_documents_carry_the_version(tmp_path, capsys):
    src = tmp_path / "k.c"
    src.write_text(SRC)
    assert cli_main(["analyze", str(src), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == __version__
    assert doc["schema_version"] >= 1
