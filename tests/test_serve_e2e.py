"""End-to-end serving checklist: a live MiraServer driven over real HTTP.

Audit-notes style — each test is one line of the serving contract,
verified against a single module-scoped server so the suite also
exercises the warm registry's statefulness across requests:

- [x] /v1/health reports ok, the package version, and live counters
- [x] first submission is 201 + origin "cold"; the handle names functions
- [x] repeat submission is 200 + origin "registry" with ZERO compiler
      invocations (counter-asserted: the server shares this process)
- [x] If-None-Match revalidation answers 304 with no body, no analysis
- [x] a cold, a warm and an If-None-Match submission each hash the
      source once (``source_fingerprint`` counted)
- [x] GET /v1/analyses/{id} is the schema-versioned AnalysisResult wire
      format; restoring it client-side evaluates bit-identically
- [x] GET with the current ETag is 304
- [x] served evaluate == direct in-process evaluation (scalar and vector)
- [x] served sweep (auto|vector|scalar) == direct result.sweep
- [x] a bare sweep POST still returns the v1 document with per-point rows
- [x] sweep ``layout=columns`` == the direct columnar ``to_dict()``
- [x] an unknown sweep layout is 400 with error.type UnsupportedLayout
- [x] a non-integer grid value is 400 BadRequest naming its axis and
      index (it used to name a ``params['v']`` the request never had)
- [x] an object grid over ``MAX_SWEEP_POINTS`` points is 413 GridTooLarge
      in under 10 ms (nothing is expanded), and a 2048-point grid is still
      served
- [x] ``client.sweep(...)["points"]`` == the rows reply
- [x] ``mira client sweep`` prints the columnar document only, no
      ``points`` rows
- [x] bodies are compact JSON (no indentation, no separator spaces)
- [x] served diff of two stored models == direct result.diff
- [x] a served diff of a leaf edit names the leaf's caller, with
      ``"detail": "via <leaf>"``
- [x] POST /v1/corpora batch-analyzes and registers every model warm
- [x] DELETE evicts the warm tier; the disk tier re-serves (by design)
- [x] unknown ids are 404, unknown routes 404, wrong methods 405,
      malformed JSON 400, unparsable C 400 with error.type ParseError
- [x] 3000-deep parentheses are 400 ParseError; a loop bound beyond
      int64 is 400 CompileError (never a 500)
- [x] a 600- or 2000-term ``a+a+...+a`` chain is 400 PipelineError (it
      used to exhaust the Python stack and answer 500)
- [x] a string literal cut off after a backslash at EOF is 400 LexError
      (it used to escape the lexer as an IndexError and answer 500)
- [x] `mira serve` + `mira client` drive the same API from the shell
"""

import http.client
import json
import re
import subprocess
import sys
import time

import pytest

from repro._version import __version__
from repro.cli import main as cli_main
from repro.core import AnalysisConfig, Pipeline
from repro.core.pipeline import STAGE_RUN_COUNTS, reset_stage_counters
from repro.core.result import AnalysisResult
from repro.core.sweep import sweep_rows
from repro.serve import HTTPStatusError, MiraClient, MiraServer

SRC_A = """\
double kernel(int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) s += i * 2.0;
    return s;
}
"""

SRC_B = SRC_A.replace("i * 2.0", "i * i * 3.0")

HUGE_BOUND_SRC = """\
double a[10];
void f() {
    for (long i = 0; i < 99999999999999999999; i++) a[0] += 1.0;
}
"""


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    config = AnalysisConfig(
        cache_dir=str(tmp_path_factory.mktemp("serve-cache")))
    with MiraServer(port=0, config=config) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    with MiraClient(server.url) as c:
        yield c


@pytest.fixture(scope="module")
def handle(client):
    return client.submit(SRC_A, filename="kernel.c")


def compiles() -> int:
    return STAGE_RUN_COUNTS.get("compile", 0)


# -- health -----------------------------------------------------------------------

def test_health(client):
    doc = client.health()
    assert doc["status"] == "ok"
    assert doc["version"] == __version__
    assert doc["schema_version"] >= 1
    assert doc["requests"] >= 1
    assert doc["registry"]["capacity"] >= 1


# -- submission and the warm registry ---------------------------------------------

def test_cold_submission_is_created(client):
    resp = client.request("POST", "/v1/analyses",
                          {"source": SRC_B, "filename": "other.c"})
    resp.raise_for_status()
    assert resp.status == 201
    doc = resp.json()
    assert doc["created"] is True
    assert doc["origin"] == "cold"
    assert resp.etag == f'"{doc["id"]}"'
    assert resp.headers["location"] == f"/v1/analyses/{doc['id']}"
    assert any(q.endswith("kernel") for q in doc["functions"])


def test_repeat_submission_never_compiles(client, handle):
    reset_stage_counters()
    resp = client.request("POST", "/v1/analyses",
                          {"source": SRC_A, "filename": "kernel.c"})
    resp.raise_for_status()
    assert resp.status == 200              # not 201: the resource existed
    doc = resp.json()
    assert doc["created"] is False
    assert doc["origin"] in ("registry", "cache")
    assert doc["id"] == handle["id"]
    assert compiles() == 0                 # the whole point of the registry


def test_conditional_submission_is_304(client, handle):
    reset_stage_counters()
    resp = client.request("POST", "/v1/analyses",
                          {"source": SRC_A, "filename": "kernel.c"},
                          headers={"If-None-Match": handle["etag"]})
    assert resp.status == 304
    assert resp.body == b""                # bodyless, per RFC
    assert resp.etag == handle["etag"]
    assert compiles() == 0
    # The typed client folds this to None: "your handle is current".
    assert client.submit(SRC_A, filename="kernel.c",
                         etag=handle["etag"]) is None


def test_one_fingerprint_per_submission(client, monkeypatch):
    import repro.core.config as config_module

    real, calls = config_module.source_fingerprint, []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(config_module, "source_fingerprint", counting)
    body = {"source": SRC_A.replace("2.0", "5.0"), "filename": "fp.c"}
    etag = None
    for status, conditional in ((201, False), (200, False), (304, True)):
        calls.clear()
        resp = client.request(
            "POST", "/v1/analyses", body,
            headers={"If-None-Match": etag} if conditional else None)
        assert resp.status == status
        assert len(calls) == 1, status
        etag = resp.etag
    # the cold analysis's result carries the submission's key
    key = etag.strip('"')
    assert client.analysis(key)["fingerprint"] == key


# -- the stored model -------------------------------------------------------------

def test_get_analysis_is_the_wire_format(client, handle):
    doc = client.analysis(handle["id"])
    assert doc["kind"] == "AnalysisResult"
    assert doc["id"] == handle["id"]
    assert doc["schema_version"] >= 1
    # The served document IS the persistence format: restore and evaluate.
    restored = AnalysisResult.from_dict(doc)
    direct = _direct(client)
    qname = direct._resolve("kernel")
    for n in (1, 7, 1000):
        assert restored.evaluate(qname, {"n": n}).as_dict() == \
            direct.evaluate(qname, {"n": n}).as_dict()


def test_get_with_current_etag_is_304(client, handle):
    resp = client.request("GET", f"/v1/analyses/{handle['id']}",
                          headers={"If-None-Match": handle["etag"]})
    assert resp.status == 304


def test_list_shows_the_model(client, handle):
    doc = client.analyses()
    assert doc["kind"] == "AnalysisList"
    assert handle["id"] in [a["id"] for a in doc["analyses"]]


# -- served evaluation vs direct ---------------------------------------------------

def _direct(client, source: str = SRC_A,
            filename: str = "kernel.c") -> "AnalysisResult":
    config = AnalysisConfig(use_cache=False)
    return Pipeline(config).run(source, filename=filename)


def test_served_evaluate_matches_direct(client, handle):
    direct = _direct(client)
    qname = direct._resolve("kernel")
    for n in (1, 10, 4096):
        doc = client.evaluate(handle["id"], "kernel", {"n": n})
        metrics = direct.compiled().evaluate(qname, {"n": n})
        assert doc["counts"] == metrics.as_dict()
        assert doc["total"] == metrics.total()
        assert doc["function"] == qname


def test_served_evaluate_engines_agree(client, handle):
    scalar = client.evaluate(handle["id"], "kernel", {"n": 512},
                             engine="scalar")
    vector = client.evaluate(handle["id"], "kernel", {"n": 512},
                             engine="vector")
    assert scalar["counts"] == vector["counts"]
    assert scalar["engine"] == "scalar"
    assert vector["engine"] == "vector"


def test_served_sweep_matches_direct(client, handle):
    direct = _direct(client)
    grid = {"n": [10, 100, 1000, 10000]}
    for engine in ("auto", "vector", "scalar"):
        doc = client.sweep(handle["id"], "kernel", grid, engine=engine)
        expected = direct.sweep("kernel", grid, engine=engine).to_dict()
        for key in ("id", "version"):
            doc.pop(key, None)
        assert doc.pop("points") == sweep_rows(expected)
        assert doc == expected


SWEEP_GRID = {"n": [0, 1, 10, 4096]}


def _sweep_post(client, handle, **extra):
    return client.request("POST", f"/v1/analyses/{handle['id']}/sweep",
                          {"function": "kernel", "grid": SWEEP_GRID, **extra})


def test_bare_sweep_post_returns_v1_rows(client, handle):
    resp = _sweep_post(client, handle)
    resp.raise_for_status()
    doc = resp.json()
    assert "layout" not in doc and "columns" not in doc
    assert doc["kind"] == "SweepResult"
    assert doc["params"] == ["n"]
    direct = _direct(client)
    swept = direct.sweep("kernel", SWEEP_GRID)
    assert doc["points"] == [
        {"params": p.env, "counts": p.metrics.as_dict(),
         "total": p.metrics.total(),
         "fp_ins": p.metrics.fp_instructions(swept.fp_categories)}
        for p in swept.points]


def test_columns_layout_matches_direct_to_dict(client, handle):
    resp = _sweep_post(client, handle, layout="columns")
    resp.raise_for_status()
    doc = resp.json()
    assert doc.pop("id") == handle["id"]
    assert doc.pop("version") == __version__
    assert doc == _direct(client).sweep("kernel", SWEEP_GRID).to_dict()


def test_bad_sweep_layout_is_400(client, handle):
    resp = _sweep_post(client, handle, layout="diagonal")
    assert resp.status == 400
    assert resp.json()["error"]["type"] == "UnsupportedLayout"


def test_bad_grid_value_is_400_naming_the_axis(client, handle):
    for bad in (2.5, True, "8"):
        resp = client.request("POST", f"/v1/analyses/{handle['id']}/sweep",
                              {"function": "kernel", "grid": {"n": [1, bad]}})
        assert resp.status == 400
        error = resp.json()["error"]
        assert error["type"] == "BadRequest"
        assert error["message"] == \
            f"grid['n'][1] must be an integer, got {bad!r}"
    # an integral float is still accepted, as an int
    doc = client.sweep(handle["id"], "kernel", {"n": [1, 4.0]})
    assert doc["columns"]["params"]["n"] == [1, 4]


def test_oversized_grid_is_refused_before_expansion(client, handle):
    axis = list(range(2000))            # 2000**3 = 8e9 points
    grid = {"n": axis, "a": axis, "b": axis}
    path = f"/v1/analyses/{handle['id']}/sweep"
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        resp = client.request("POST", path,
                              {"function": "kernel", "grid": grid})
        elapsed.append(time.perf_counter() - start)
        assert resp.status == 413
        assert resp.json()["error"]["type"] == "GridTooLarge"
    assert min(elapsed) < 0.010
    assert client.health()["status"] == "ok"
    doc = client.sweep(handle["id"], "kernel", {"n": list(range(1, 2049))})
    assert len(doc["columns"]["total"]) == len(doc["points"]) == 2048


def test_client_sweep_points_equal_the_rows_reply(client, handle):
    rows = _sweep_post(client, handle).json()["points"]
    doc = client.sweep(handle["id"], "kernel", SWEEP_GRID)
    assert doc["layout"] == "columns"
    assert doc["points"] == rows


def test_cli_client_sweep_prints_only_columns(server, handle, capsys):
    assert cli_main(["client", "--url", server.url, "sweep", handle["id"],
                     "kernel", "-p", "n=1,4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["columns"]["params"]["n"] == [1, 4]
    assert "points" not in doc


def test_bodies_are_compact_json(client, handle):
    body = _sweep_post(client, handle, layout="columns").body
    assert b"\n" not in body and b", " not in body and b'": ' not in body


def test_served_diff_matches_direct(client, handle):
    other = client.submit(SRC_B, filename="other.c")
    doc = client.diff(handle["id"], other["id"])
    assert doc["kind"] == "ModelDiff"
    assert doc["a_id"] == handle["id"]
    assert doc["b_id"] == other["id"]
    expected = _direct(client).diff(
        _direct(client, SRC_B, "other.c")).to_dict()
    for key in ("a_id", "b_id", "version", "schema_version"):
        doc.pop(key, None)
    expected.pop("schema_version", None)
    assert doc == expected


CHAIN_SRC = SRC_A + """\
double outer(int m) {
    double t = 0.0;
    for (int j = 0; j < m; j++) t += kernel(m);
    return t;
}
"""


def test_served_diff_names_the_caller_via_its_callee(client):
    a = client.submit(CHAIN_SRC, filename="chain.c")
    b = client.submit(CHAIN_SRC.replace("i * 2.0", "i * i * 3.0"),
                      filename="chain.c")
    doc = client.diff(a["id"], b["id"])
    changed = {d["function"]: d for d in doc["changed"]}
    assert set(changed) == {"kernel", "outer"}
    assert "detail" not in changed["kernel"]
    assert changed["outer"]["detail"] == "via kernel"
    assert changed["outer"]["categories"]


# -- corpora ----------------------------------------------------------------------

def test_corpus_catalog(client):
    doc = client.workloads()
    assert doc["kind"] == "CorpusCatalog"
    assert len(doc["workloads"]) >= 10


def test_corpus_submission_registers_models(client):
    sources = {"va": SRC_A.replace("2.0", "5.0"),
               "vb": SRC_A.replace("2.0", "7.0")}
    doc = client.submit_corpus(sources, jobs=2)
    assert doc["kind"] == "CorpusReport"
    assert doc["aggregate"]["succeeded"] == 2
    assert set(doc["ids"]) == {"va", "vb"}
    # Every batch result is immediately warm: GETs hit the registry.
    reset_stage_counters()
    for model_id in doc["ids"].values():
        got = client.analysis(model_id)
        assert got["kind"] == "AnalysisResult"
    assert compiles() == 0


def test_corpus_by_bundled_name(client):
    names = client.workloads()["workloads"][:2]
    doc = client.submit_corpus(corpus=names)
    assert doc["aggregate"]["files"] == 2
    assert doc["aggregate"]["succeeded"] == 2


# -- lifecycle --------------------------------------------------------------------

def test_delete_evicts_warm_but_disk_reserves(client):
    doc = client.submit(SRC_A.replace("2.0", "11.0"))
    deleted = client.delete(doc["id"])
    assert deleted["deleted"] is True
    assert doc["id"] not in [a["id"]
                             for a in client.analyses()["analyses"]]
    # Content-addressed disk entries are immutable: a GET re-promotes
    # (this is the documented tiering, not a bug).
    reset_stage_counters()
    assert client.analysis(doc["id"])["id"] == doc["id"]
    assert compiles() == 0


# -- failure mapping --------------------------------------------------------------

def test_unknown_id_is_404(client):
    with pytest.raises(HTTPStatusError) as exc:
        client.analysis("0" * 40)
    assert exc.value.status == 404
    assert exc.value.error_type == "NotFound"


def test_unknown_route_is_404(client):
    resp = client.request("GET", "/v1/nope")
    assert resp.status == 404


def test_wrong_method_is_405(client):
    resp = client.request("DELETE", "/v1/analyses")
    assert resp.status == 405
    assert resp.json()["error"]["type"] == "MethodNotAllowed"


def test_malformed_json_is_400(server):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request("POST", "/v1/analyses", body=b"{not json",
                     headers={"Content-Type": "application/json",
                              "Content-Length": "9"})
        resp = conn.getresponse()
        body = json.loads(resp.read())
    finally:
        conn.close()
    assert resp.status == 400
    assert "not valid JSON" in body["error"]["message"]


def test_unparsable_source_is_400_parse_error(client):
    with pytest.raises(HTTPStatusError) as exc:
        client.submit("int main( {")
    assert exc.value.status == 400
    assert exc.value.error_type == "ParseError"


def test_too_deep_nesting_is_400_parse_error(client):
    src = "int f(int x) { return " + "(" * 3000 + "x" + ")" * 3000 + "; }"
    with pytest.raises(HTTPStatusError) as exc:
        client.submit(src)
    assert exc.value.status == 400
    assert exc.value.error_type == "ParseError"


@pytest.mark.parametrize("terms", [600, 2000])
def test_long_operator_chain_is_400_pipeline_error(client, terms):
    src = "int f(int a) { int b = " + "+".join(["a"] * terms) + "; return b; }"
    with pytest.raises(HTTPStatusError) as exc:
        client.submit(src)
    assert exc.value.status == 400
    assert exc.value.error_type == "PipelineError"


def test_loop_bound_beyond_int64_is_400_compile_error(client):
    with pytest.raises(HTTPStatusError) as exc:
        client.submit(HUGE_BOUND_SRC)
    assert exc.value.status == 400
    assert exc.value.error_type == "CompileError"


def test_string_ending_in_backslash_is_400_lex_error(client):
    with pytest.raises(HTTPStatusError) as exc:
        client.submit('char *s = "a\\')
    assert exc.value.status == 400
    assert exc.value.error_type == "LexError"


def test_missing_field_is_400(client):
    with pytest.raises(HTTPStatusError) as exc:
        client.request("POST", "/v1/analyses",
                       {"filename": "x.c"}).raise_for_status()
    assert exc.value.status == 400
    assert "source" in str(exc.value)


def test_bad_bindings_are_400(client, handle):
    with pytest.raises(HTTPStatusError) as exc:
        client.evaluate(handle["id"], "kernel", {"n": "many"})
    assert exc.value.status == 400


def test_every_response_carries_the_version(client, handle):
    for doc in (client.health(), client.analyses(),
                client.analysis(handle["id"])):
        assert doc["version"] == __version__
        assert doc["schema_version"] >= 1


# -- the CLI front door -----------------------------------------------------------

def test_mira_serve_and_client_from_the_shell(tmp_path):
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--cache-dir", str(tmp_path / "cache")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        banner = serve.stdout.readline()
        url = re.search(r"http://[\d.]+:\d+", banner).group(0)

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "repro.cli", "client",
                 "--url", url, *argv],
                capture_output=True, text=True, timeout=120)

        health = run("health")
        assert health.returncode == 0
        assert json.loads(health.stdout)["status"] == "ok"

        src = tmp_path / "k.c"
        src.write_text(SRC_A)
        submitted = json.loads(run("submit", str(src)).stdout)
        assert submitted["origin"] == "cold"

        ev = json.loads(run("evaluate", submitted["id"],
                            "kernel", "n=100").stdout)
        assert ev["total"] > 0

        missing = run("get", "deadbeefdeadbeef")
        assert missing.returncode == 1
        assert json.loads(missing.stdout)["error"]["type"] == "NotFound"
    finally:
        serve.terminate()
        serve.wait(timeout=10)
