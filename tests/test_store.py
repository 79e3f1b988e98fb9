"""Tests for the one model store (repro.core.store).

The contract under test: every consumer that reuses a built model —
``BatchAnalyzer``, ``ModelRegistry``, ``sweep_source`` and the incremental
analyzer — goes through one :class:`ModelStore` with memory → disk → cold
tiers; a cache entry that does not restore is a miss everywhere (never a
raw exception), and sweep traffic reaches ``stats.json`` like everyone
else's.  Payloads fill their summaries by the tree walk, emit no code and
store none: a cold or restored result emits each evaluator from its
models on first use.
"""

import json
import os
import sys
import threading
import time

import pytest

from repro.core import (AnalysisConfig, BatchAnalyzer, IncrementalAnalyzer,
                        Pipeline)
from repro.core import result as result_mod
from repro.core import store as store_mod
from repro.core.store import ModelCache, ModelStore, restore
from repro.core.sweep import SWEEP_STORE, sweep_source
from repro.errors import MiraError, ModelError, VectorizeError
from repro.serve import ModelRegistry
from repro.symbolic import CODEGEN_COUNTS, reset_codegen_counters
from repro.workloads import available, get_source, source_path

SRC = """\
double kernel(int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) s += i * 2.0;
    return s;
}
"""


def file_entries(cache_dir: str) -> list:
    """Whole-file entry paths (no per-function entries, no stats.json)."""
    return sorted(
        os.path.join(d, fn) for d, _, fns in os.walk(cache_dir)
        for fn in fns
        if fn.endswith(".json") and fn != ModelCache.STATS_FILE
        and os.path.relpath(d, cache_dir).split(os.sep)[0] != "fn")


# -- malformed entries are misses everywhere ---------------------------------

def _functions_as_list(p):
    p["result"]["functions"] = list(p["result"]["functions"].values())
    return p


def _compiled_as_string(p):
    # Entries once carried generated code in a ``compiled`` block; one that
    # still does is read as a hit and the block is ignored.
    p["compiled"] = "scalar"
    return p


def _call_cycle(p):
    kernel = p["result"]["functions"]["kernel"]
    kernel["calls"].append({"callee": "kernel", "line": 3, "args": {},
                            "count": kernel["terms"][0]["count"]})
    return p


SHAPES = {
    "ok-only": lambda p: {"ok": True},
    "call-cycle": _call_cycle,
    "functions-list": _functions_as_list,
    "compiled-string": _compiled_as_string,
    "top-level-list": lambda p: [p],
}


def _via_batch(config):
    report = BatchAnalyzer(config, jobs=1).analyze_sources({"k": SRC})
    (r,) = report.results
    assert r.ok
    return not r.from_cache


def _via_registry(config):
    _entry, origin = ModelRegistry(config).submit(SRC)
    return origin == "cold"


def _via_sweep(config):
    SWEEP_STORE.clear()
    swept = sweep_source(SRC, {"n": [1, 10]}, function="kernel",
                         config=config)
    assert swept.mode == "parametric"
    assert swept.fp_series()[1] > swept.fp_series()[0]
    return swept.analyses == 1


PATHS = {"batch": _via_batch, "registry": _via_registry, "sweep": _via_sweep}

#: Shapes that are not malformed but an older layout: still a hit.
COMPATIBLE = {"compiled-string"}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("path", sorted(PATHS))
def test_malformed_payload_is_a_miss(tmp_path, path, shape):
    cache_dir = str(tmp_path / "cache")
    config = AnalysisConfig(cache_dir=cache_dir)
    run = PATHS[path]
    assert run(config)                             # cold: fills the entry
    (entry_path,) = file_entries(cache_dir)
    with open(entry_path) as fh:
        good = json.load(fh)
    with open(entry_path, "w") as fh:
        json.dump(SHAPES[shape](json.loads(json.dumps(good))), fh)
    before = ModelCache(cache_dir).persisted_stats()

    hit = shape in COMPATIBLE
    assert run(config) is not hit                  # re-analyzed cold, or not

    after = ModelCache(cache_dir).persisted_stats()
    assert after["hits"] - before["hits"] == hit
    assert after["misses"] - before["misses"] == (not hit)
    assert after["stores"] - before["stores"] == (not hit)
    with open(entry_path) as fh:          # rewritten, or a compatible hit
        assert restore(json.load(fh)) is not None


def test_too_deeply_nested_entry_is_a_miss(tmp_path):
    """JSON nested past the parser's recursion limit, in either tier or
    inside ``decode``, is a miss like any other malformed entry."""
    cache = ModelCache(str(tmp_path / "cache"))
    store = ModelStore(cache)
    key = "ab" * 32
    for path in (cache._path(key), cache._fn_path(key)):
        os.makedirs(os.path.dirname(path))
        with open(path, "w") as fh:
            fh.write("[" * 100000 + "]" * 100000)
    assert store.lookup(key) is None
    assert store.lookup_function(key, "kernel") is None

    def too_deep(payload):
        raise RecursionError("maximum recursion depth exceeded")

    cache.put("cd" * 32, {"ok": True})
    assert cache.get("cd" * 32, too_deep) is None
    assert (cache.hits, cache.misses) == (0, 3)


def test_restore_rejects_failure_records_and_foreign_values():
    for payload in (None, 3, "x", [], {}, {"ok": False, "error": "boom"}):
        assert restore(payload) is None


# -- sweep traffic reaches stats.json ----------------------------------------

def test_sweep_cache_traffic_is_persisted(tmp_path):
    cache_dir = str(tmp_path / "cache")
    config = AnalysisConfig(cache_dir=cache_dir)
    SWEEP_STORE.clear()
    cold = sweep_source(SRC, {"n": [1, 2]}, function="kernel", config=config)
    # A fresh process, conceptually: only the disk tier remembers.
    SWEEP_STORE.clear()
    warm = sweep_source(SRC, {"n": [1, 2]}, function="kernel", config=config)
    assert (cold.analyses, warm.analyses) == (1, 0)
    stats = ModelCache(cache_dir).persisted_stats()
    assert stats["stores"] == 1
    assert stats["hits"] == 1


# -- the store's own surface -------------------------------------------------

def test_store_without_disk_tier_follows_the_call_config(tmp_path):
    store = ModelStore()
    on = AnalysisConfig(cache_dir=str(tmp_path / "cache"))
    store.get_or_analyze(SRC, on.with_changes(use_cache=False))
    assert file_entries(on.cache_dir) == []
    store.get_or_analyze(SRC.replace("2.0", "3.0"), on)
    assert len(file_entries(on.cache_dir)) == 1


def test_adopt_keeps_the_existing_entry_and_clear_empties(tmp_path):
    store = ModelStore()
    entry, _ = store.get_or_analyze(SRC, AnalysisConfig(use_cache=False))
    assert store.adopt(store_mod.ModelEntry(entry.key, entry.result)) is entry
    store.function_models["fp"] = object()
    store.clear()
    assert store.entries() == [] and not store.function_models


def test_concurrent_lookups_lose_no_count():
    store = ModelStore()
    config = AnalysisConfig(use_cache=False)
    sources = [SRC.replace("2.0", f"{i}.0") for i in range(3)]
    calls, threads_n = 20, 8

    def hammer():
        for i in range(calls):
            store.get_or_analyze(sources[i % len(sources)], config)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert store.analyses == len(sources)           # one pipeline run per key
    assert store.memory_hits == calls * threads_n - len(sources)
    assert sum(e.hits for e in store.entries()) == store.memory_hits


# -- the incremental function tier is bounded --------------------------------

INC_SRC = """\
int f0(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }
int f1(int n) { int s = 0; for (int i = 0; i < n; i++) s += f0(n); return s; }
int main() { return f1(10); }
"""


def test_incremental_function_tier_is_bounded(tmp_path, monkeypatch):
    monkeypatch.setattr(store_mod, "FUNCTION_CAPACITY", 4)
    analyzer = IncrementalAnalyzer(
        AnalysisConfig(cache_dir=str(tmp_path / "cache")))
    for k in range(6):
        # Each edit of f0 re-models f0 and its callers f1 and main.
        result = analyzer.analyze(INC_SRC.replace("s += i;", f"s += i + {k};"))
        assert len(analyzer._model_memo) <= 4
        assert sorted(result.fresh_functions()) == ["f0", "f1", "main"]
    assert len(analyzer._model_memo) == 4
    # An evicted model is still on disk: re-analyzing the first edit
    # restores every function without modeling anything.
    first = analyzer.analyze(INC_SRC.replace("s += i;", "s += i + 0;"))
    assert first.fresh_functions() == []


# -- payloads: summaries from the tree walk; no code emitted or stored

def _tree_walk_summaries(result, config, evaluate=None) -> dict:
    """The reference: concrete summaries from the tree-walk evaluator, or
    from ``evaluate`` when given."""
    out = {}
    for qname in result.models:
        if result.parameters(qname):
            continue
        try:
            metrics = (evaluate or result.evaluate)(qname)
        except (MiraError, RecursionError):
            out[qname] = (None, None, None)
            continue
        out[qname] = (metrics.as_dict(), metrics.total(),
                      metrics.fp_instructions(config.arch.fp_arith_categories))
    return out


def _payload_summaries(payload) -> dict:
    return {q: (f["counts"], f["total"], f["fp_ins"])
            for q, f in payload["functions"].items() if not f["params"]}


def _outcome(call):
    """``call()``'s value, or the type and message of the MiraError it
    raises (some corpus functions have no vector form)."""
    try:
        return call()
    except MiraError as exc:
        return type(exc).__name__, str(exc)


def _evaluations(result) -> dict:
    """Scalar evaluation and a two-point vector sweep of every function."""
    out = {}
    for qname in result.models:
        params = result.parameters(qname)
        out[qname] = (
            _outcome(lambda: result.evaluate_compiled(
                qname, {p: 5 for p in params}).as_dict()),
            _outcome(lambda: result.sweep(
                qname, [{p: b for p in params} for b in (3, 7)],
                engine="vector").to_dict()))
    return out


@pytest.fixture
def tree_walks(monkeypatch):
    """Counts calls of the tree-walk evaluator behind AnalysisResult."""
    calls = []
    real = result_mod.evaluate_model

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(result_mod, "evaluate_model", counting)
    return calls


@pytest.mark.parametrize("name", available())
def test_payload_summaries_equal_the_tree_walk(name):
    """The payload is the model: summaries from the tree walk, no codegen
    and no stored code on the cold path, summaries the scalar evaluator
    agrees with, and a restored result that emits, evaluates and sweeps
    exactly like the live one."""
    config = AnalysisConfig(use_cache=False)
    path = source_path(name)
    result = Pipeline(config).run(get_source(name), filename=path)
    reset_codegen_counters()
    payload = store_mod.payload_from_result(config, result, path, 0.0)
    assert not CODEGEN_COUNTS                # no evaluator was emitted
    assert "compiled" not in payload
    summaries = _payload_summaries(payload)
    assert summaries == _tree_walk_summaries(result, config)
    assert summaries == _tree_walk_summaries(
        result, config, result.compiled().evaluate)

    warm = restore(json.loads(json.dumps(payload)))
    assert warm.python_source() == result.python_source()
    assert _evaluations(warm) == _evaluations(result)


def test_payload_builds_without_codegen(monkeypatch, tree_walks):
    """The payload builds, with the tree walk's summaries, when the
    models cannot be emitted at all."""
    def no_compile(*args):
        raise ModelError("scalar codegen unavailable")

    monkeypatch.setattr(result_mod, "generate_model_source", no_compile)
    config = AnalysisConfig(use_cache=False)
    result = Pipeline(config).run(get_source("stream"))
    payload = store_mod.payload_from_result(config, result, "stream.c", 0.0)
    assert "compiled" not in payload
    summaries = _payload_summaries(payload)
    assert summaries["main"][2] > 0 and "main" in tree_walks
    assert summaries == _tree_walk_summaries(result, config)


def test_model_source_is_derived_for_cold_warm_and_old_layout_hits(tmp_path):
    config = AnalysisConfig(cache_dir=str(tmp_path / "cache"))
    source = get_source("dgemm")
    expected = Pipeline(config).run(source, filename="k").python_source()

    def batch():
        (r,) = BatchAnalyzer(config, jobs=1).analyze_sources(
            {"k": source}).results
        return r

    cold = batch()
    assert not cold.from_cache and cold.model_source == expected
    (entry_path,) = file_entries(config.cache_dir)
    with open(entry_path) as fh:
        payload = json.load(fh)
    assert "model_source" not in payload
    warm = batch()
    assert warm.from_cache and warm.model_source == expected

    # The layout before the model source was dropped still restores.
    payload["model_source"] = expected
    with open(entry_path, "w") as fh:
        json.dump(payload, fh)
    old = batch()
    assert old.from_cache and old.model_source == expected
    assert _payload_summaries(payload) == {
        q: (f.counts, f.total, f.fp_ins) for q, f in old.functions.items()
        if not f.params}


def test_restored_module_is_emitted_once():
    config = AnalysisConfig(use_cache=False)
    result = Pipeline(config).run(get_source("minife"), filename="minife.c")
    source = result.python_source()
    assert result.compiled().source == source
    payload = store_mod.payload_from_result(config, result, "minife.c", 0.0)

    # The restored models emit the module once; both evaluators exec that
    # same text, and no call emits it again.
    reset_codegen_counters()
    warm = restore(json.loads(json.dumps(payload)))
    assert warm.python_source() == source
    assert warm.compiled().source == source
    assert warm.python_source() == source
    assert CODEGEN_COUNTS == {"module_emit": 1}
    with pytest.raises(VectorizeError):      # minife has no vector form
        warm.compiled(engine="vector")
    assert CODEGEN_COUNTS == {"module_emit": 1}


# -- cold analyses emit no code ----------------------------------------------

def _triangular_nest(depth: int = 10, n: int = 17) -> str:
    """``main`` calls ``work(n)``, a depth-``depth`` triangular loop nest
    whose model is a lazy nested ``Sum``."""
    loops = "\n".join(
        "  " * (d + 1) + f"for (int i{d + 1} = 0; i{d + 1} < "
        f"{'n' if d == 0 else f'i{d}'}; i{d + 1}++)" for d in range(depth))
    terms = " + ".join(f"i{d + 1}" for d in range(depth))
    return (f"int work(int n)\n{{\n  int s = 0;\n{loops}\n"
            f"{'  ' * (depth + 1)}s = s + ({terms}) * 3;\n"
            f"  return s;\n}}\nint main()\n{{\n  return work({n});\n}}\n")


@pytest.mark.parametrize("source", [get_source("dgemm"), _triangular_nest()],
                         ids=["dgemm", "depth-10-nest"])
def test_cold_analysis_emits_no_code(tmp_path, source):
    """A cold batch op and a cold served submit emit no evaluator; the
    first evaluation of the registered entry emits the scalar module, once,
    and agrees with the summary the tree walk stored."""
    config = AnalysisConfig(cache_dir=str(tmp_path / "cache"))
    reset_codegen_counters()
    (batched,) = BatchAnalyzer(config, jobs=1).analyze_sources(
        {"k.c": source}).results
    registry = ModelRegistry(config.with_changes(use_cache=False))
    entry, origin = registry.submit(source)
    assert batched.ok and not batched.from_cache and origin == "cold"
    assert not CODEGEN_COUNTS

    summary = entry.functions["main"]
    assert batched.functions["main"].total == summary["total"] > 0
    assert summary["total"] == entry.result.evaluate("main").total()
    for _ in range(2):
        metrics = entry.result.compiled().evaluate("main")
        assert metrics.as_dict() == summary["counts"]
    assert CODEGEN_COUNTS == {"module_emit": 1}


BOUNDED = """\
int below(int n, int m)
{
  int s = 0;
  for (int j = 0; j < n; j++)
    if (j < m)
      for (int l = 0; l <= j; l++)
        s = s + l * 2;
  return s;
}
int above(int n, int m)
{
  int s = 0;
  for (int j = 0; j < n; j++)
    if (j >= m)
      for (int l = 0; l <= j; l++)
        s = s + l;
  return s;
}
int main()
{
  return below(1000000000, 999999999) + above(1000000000, 7);
}
"""


def test_cold_payload_sums_a_bounded_level_in_closed_form():
    """A level clamped by a guard (a ``Min``/``Max`` bound) keeps a lazy
    ``Sum`` with a polynomial body.  The tree walk sums it by the same
    guarded closed form the scalar module emits, so a ``main`` calling it
    with bounds near 1e9 builds its payload at once, not in 1e9 steps."""
    config = AnalysisConfig(use_cache=False)
    result = Pipeline(config).run(BOUNDED)
    for qname in ("below", "above"):
        assert any("Sum(" in repr(t.count)
                   for t in result.function_models()[qname].terms), qname
    start = time.perf_counter()
    payload = store_mod.payload_from_result(config, result, "k.c", 0.0)
    assert time.perf_counter() - start < 1.0
    summary = payload["functions"]["main"]
    assert summary["counts"] == result.compiled().evaluate("main").as_dict()
    assert summary["total"] > 10 ** 18
