"""Batch corpus analysis: many sources, parallel workers, model caching.

The paper's evaluation is corpus-scale (Table I surveys ten applications;
Tables II-V re-analyze stream/dgemm/miniFE under several architectures and
opt levels), but the :class:`~repro.core.pipeline.Pipeline` analyzes one
source per call
and recomputes everything each time.  This module makes corpus-scale runs
first-class:

* :class:`BatchAnalyzer` fans a set of sources — file paths, in-memory
  strings, or the whole bundled corpus — across a ``ProcessPoolExecutor``;
  all analysis knobs come from one :class:`~repro.core.config.AnalysisConfig`
  (serialized to worker processes as JSON),
* lookups and stores go through the analyzer's own
  :class:`~repro.core.store.ModelStore`, so repeat analyses are served
  from memory or the content-addressed disk cache **without invoking the
  compiler**; only the misses reach the workers, and an in-process miss
  is stored as the live result it built,
* one bad file never aborts the batch: per-file failures become
  :class:`BatchResult` entries carrying a :class:`~repro.errors.BatchError`,
* :class:`BatchReport` aggregates per-function metrics, corpus-wide loop
  coverage, and cache-hit statistics.

Typical use::

    from repro.core.batch import BatchAnalyzer

    report = BatchAnalyzer(jobs=4).analyze_corpus()
    print(report.format_table())
    assert not report.failed()
    report["dgemm"].analysis.evaluate("dgemm_kernel", {"n": 64})
"""

from __future__ import annotations

import copy
import json
import os
import time
from dataclasses import dataclass, field

from ..errors import BatchError, MiraError
from .config import AnalysisConfig
from .pipeline import STAGES, Pipeline
from .result import RESULT_SCHEMA_VERSION, AnalysisResult
from .store import ModelCache, ModelEntry, ModelStore, payload_from_result

__all__ = [
    "BatchAnalyzer", "BatchItem", "BatchReport", "BatchResult",
    "FunctionSummary", "ModelCache", "payload_from_result",
]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _name_from_path(path: str) -> str:
    return os.path.basename(path).rsplit(".", 1)[0]


@dataclass(frozen=True)
class BatchItem:
    """One unit of work: a named source, from disk or in-memory."""

    name: str
    source: str
    filename: str = "<input>"

    @staticmethod
    def from_path(path: str) -> "BatchItem":
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        return BatchItem(name=_name_from_path(path), source=source,
                         filename=path)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class FunctionSummary:
    """Per-function slice of a file's analysis.

    ``counts``/``total``/``fp_ins`` are filled only when the function's model
    is fully concrete (no free parameters left unbound); parametric models
    report their parameter names instead.
    """

    qualified_name: str
    model_name: str
    params: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    counts: dict | None = None
    total: int | None = None
    fp_ins: int | None = None


@dataclass
class BatchResult:
    """The outcome for one file — success or isolated failure.

    ``analysis`` is the full :class:`AnalysisResult`, without compiler
    state: the live one for a miss analyzed in-process, else decoded from
    the wire format (a cache hit, a pool worker's payload), so the model
    is evaluable without re-running the compiler.
    """

    name: str
    filename: str
    ok: bool
    cache_key: str = ""
    from_cache: bool = False
    elapsed: float = 0.0
    functions: dict = field(default_factory=dict)  # qname -> FunctionSummary
    coverage: dict = field(default_factory=dict)
    error: BatchError | None = None
    analysis: AnalysisResult | None = None

    @property
    def model_source(self) -> str:
        """The generated Python model module (paper Fig. 5), derived from
        ``analysis`` on access; empty for a failure."""
        return self.analysis.python_source() if self.analysis is not None \
            else ""

    @property
    def status(self) -> str:
        if not self.ok:
            return "FAIL"
        return "cached" if self.from_cache else "ok"


@dataclass
class BatchReport:
    """Corpus-wide view over all :class:`BatchResult` entries."""

    results: list = field(default_factory=list)
    elapsed: float = 0.0
    jobs: int = 1
    cache_stats: dict = field(default_factory=dict)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, name: str) -> BatchResult:
        for r in self.results:
            if r.name == name:
                return r
        raise BatchError(f"no batch result named {name!r}; "
                         f"have: {[r.name for r in self.results]}")

    def succeeded(self) -> list:
        return [r for r in self.results if r.ok]

    def failed(self) -> list:
        return [r for r in self.results if not r.ok]

    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.from_cache)

    def aggregate(self) -> dict:
        """Corpus-wide metrics: file/function tallies and loop coverage."""
        ok = self.succeeded()
        stmts = sum(r.coverage.get("statements", 0) for r in ok)
        in_loop = sum(r.coverage.get("in_loop_statements", 0) for r in ok)
        return {
            "files": len(self.results),
            "succeeded": len(ok),
            "failed": len(self.failed()),
            "cache_hits": self.cache_hits(),
            "functions": sum(len(r.functions) for r in ok),
            "loops": sum(r.coverage.get("loops", 0) for r in ok),
            "statements": stmts,
            "in_loop_statements": in_loop,
            "loop_coverage_pct": round(100.0 * in_loop / stmts, 1) if stmts else 0.0,
            "elapsed_seconds": round(self.elapsed, 4),
            "jobs": self.jobs,
        }

    # -- rendering ---------------------------------------------------------------
    def to_json(self, indent: int | None = 2) -> str:
        files = []
        for r in self.results:
            entry: dict = {
                "name": r.name,
                "filename": r.filename,
                "status": r.status,
                "cache_key": r.cache_key,
                "elapsed_seconds": round(r.elapsed, 4),
            }
            if r.ok:
                entry["coverage"] = r.coverage
                entry["functions"] = {
                    q: {
                        "model_name": f.model_name,
                        "params": f.params,
                        "warnings": f.warnings,
                        "counts": f.counts,
                        "total": f.total,
                        "fp_ins": f.fp_ins,
                    }
                    for q, f in r.functions.items()
                }
            else:
                entry["error"] = {"type": r.error.error_type,
                                  "message": str(r.error)}
            files.append(entry)
        doc = {"schema_version": RESULT_SCHEMA_VERSION,
               "kind": "BatchReport",
               "aggregate": self.aggregate(), "files": files}
        if self.cache_stats:
            doc["cache_stats"] = self.cache_stats
        return json.dumps(doc, indent=indent)

    def format_table(self) -> str:
        header = ["File", "Status", "Funcs", "Loops", "InLoop%", "Time"]
        rows = []
        for r in self.results:
            if r.ok:
                pct = r.coverage.get("percentage", 0.0)
                rows.append([r.name, r.status, len(r.functions),
                             r.coverage.get("loops", 0), f"{pct:.0f}%",
                             f"{r.elapsed * 1000:.0f}ms"])
            else:
                rows.append([r.name, r.status,
                             f"{r.error.error_type}: {r.error}", "", "", ""])
        widths = [max(len(str(h)), max((len(str(row[i])) for row in rows),
                                       default=0))
                  for i, h in enumerate(header)]
        lines = ["  ".join(str(h).ljust(w) for h, w in zip(header, widths)),
                 "  ".join("-" * w for w in widths)]
        for row in rows:
            lines.append("  ".join(str(c).ljust(w)
                                   for c, w in zip(row, widths)))
        agg = self.aggregate()
        lines.append("")
        lines.append(
            f"{agg['succeeded']}/{agg['files']} analyzed, "
            f"{agg['failed']} failed, {agg['cache_hits']} cache hit(s), "
            f"{agg['functions']} function model(s), corpus loop coverage "
            f"{agg['loop_coverage_pct']}% "
            f"({agg['elapsed_seconds']}s, jobs={agg['jobs']})")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the worker (runs in child processes; must stay module-level picklable)
# ---------------------------------------------------------------------------

def _analyze(spec: dict, config: AnalysisConfig) -> tuple:
    """Analyze one source: ``(payload, result)``, the JSON-able payload
    that is cached and the live result (None on failure).

    Never raises: failures are folded into the payload so one bad file
    cannot take down the pool or abort the batch.
    """
    t0 = time.perf_counter()
    try:
        pipeline = Pipeline(config)
        state = pipeline.new_state(spec["source"], filename=spec["filename"])
        state.fingerprint = spec["key"]     # the batch's key: hashed once
        result = pipeline.run_stages(state, STAGES).result
        return payload_from_result(config, result, spec["name"],
                                   time.perf_counter() - t0), result
    except MiraError as exc:
        return {"ok": False, "error_type": type(exc).__name__,
                "error": str(exc), "elapsed": time.perf_counter() - t0}, None
    except Exception as exc:  # a worker crash must not kill the batch
        return {"ok": False, "error_type": type(exc).__name__,
                "error": f"unexpected: {exc}",
                "elapsed": time.perf_counter() - t0}, None


def _analyze_one(spec: dict) -> dict:
    """The pool worker: the payload alone crosses the process boundary."""
    return _analyze(spec, AnalysisConfig.from_json(spec["config_json"]))[0]


def _failure(item: BatchItem, key: str, payload: dict) -> BatchResult:
    err = BatchError(payload.get("error", "unknown failure"),
                     error_type=payload.get("error_type", "MiraError"))
    return BatchResult(name=item.name, filename=item.filename, ok=False,
                       cache_key=key, elapsed=payload.get("elapsed", 0.0),
                       error=err)


def _success(item: BatchItem, entry: ModelEntry, analysis: AnalysisResult,
             from_cache: bool) -> BatchResult:
    # A hit costs ~nothing here, whatever the original analysis took.
    return BatchResult(
        name=item.name, filename=item.filename, ok=True,
        cache_key=entry.key, from_cache=from_cache,
        elapsed=0.0 if from_cache else entry.analysis_elapsed,
        functions={q: FunctionSummary(qualified_name=q, **f)
                   for q, f in entry.functions.items()},
        coverage=dict(entry.coverage),
        analysis=analysis)


class _child_importable:
    """Make spawned workers able to ``import repro``, without side effects.

    ``fork`` children inherit ``sys.path``; ``spawn`` children only inherit
    the environment, so the package root goes on ``PYTHONPATH`` while the
    pool is being populated — and is restored afterwards so the batch never
    permanently rewrites the host process's environment.
    """

    def __enter__(self):
        self._saved = os.environ.get("PYTHONPATH")
        pkg_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        existing = self._saved or ""
        if pkg_root not in existing.split(os.pathsep):
            os.environ["PYTHONPATH"] = (
                pkg_root + (os.pathsep + existing if existing else ""))
        return self

    def __exit__(self, *exc):
        if self._saved is None:
            os.environ.pop("PYTHONPATH", None)
        else:
            os.environ["PYTHONPATH"] = self._saved
        return False


# ---------------------------------------------------------------------------
# the analyzer
# ---------------------------------------------------------------------------

class BatchAnalyzer:
    """Corpus-scale front end over the :class:`Pipeline`.

    All analysis knobs live in one :class:`AnalysisConfig` — including the
    cache policy (``cache_dir``/``use_cache``).

    :param config: the analysis configuration (default:
        ``AnalysisConfig()``).
    :param jobs: worker processes (``None`` = ``os.cpu_count()``; ``1`` runs
        serially in-process, which is also the automatic fallback when the
        platform cannot spawn a process pool).
    """

    def __init__(self, config: AnalysisConfig | None = None, *,
                 jobs: int | None = None) -> None:
        if config is None:
            config = AnalysisConfig()
        elif not isinstance(config, AnalysisConfig):
            raise MiraError(f"BatchAnalyzer expects an AnalysisConfig, "
                            f"got {type(config).__name__}")
        self.config = config
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.cache = ModelCache(config.cache_dir) if config.use_cache else None
        self.store = ModelStore(self.cache)

    # -- entry points ------------------------------------------------------------
    def analyze_paths(self, paths, predefined: dict | None = None) -> BatchReport:
        # Unreadable/undecodable files are isolated like analysis failures,
        # and every result stays at its input position.
        entries: list = []
        for path in paths:
            try:
                entries.append(BatchItem.from_path(path))
            except (OSError, UnicodeDecodeError) as exc:
                entries.append(BatchResult(
                    name=_name_from_path(path), filename=path, ok=False,
                    error=BatchError(str(exc), error_type=type(exc).__name__)))
        report = self.analyze_items(
            [e for e in entries if isinstance(e, BatchItem)],
            predefined=predefined)
        analyzed = iter(report.results)
        report.results = [e if isinstance(e, BatchResult) else next(analyzed)
                          for e in entries]
        return report

    def analyze_sources(self, sources, predefined: dict | None = None) -> BatchReport:
        """``sources``: mapping of name -> C source text."""
        items = [BatchItem(name=n, source=s, filename=n)
                 for n, s in sources.items()]
        return self.analyze_items(items, predefined=predefined)

    def analyze_corpus(self, predefined: dict | None = None) -> BatchReport:
        """Analyze every program bundled under ``repro.workloads``."""
        from ..workloads import available, source_path

        return self.analyze_paths([source_path(n) for n in available()],
                                  predefined=predefined)

    # -- the engine --------------------------------------------------------------
    def analyze_items(self, items, predefined: dict | None = None) -> BatchReport:
        t0 = time.perf_counter()
        stats0 = self.cache.stats() if self.cache is not None else {}
        # Per-call predefines overlay the config's own; the merged config is
        # what fingerprints the work and ships to worker processes.
        run_config = self.config.with_changes(
            predefined=self.config.merged_predefines(predefined))
        items = list(items)
        results: dict[int, BatchResult] = {}

        # Identical work items (same fingerprint) are analyzed once and the
        # payload fanned out to every slot that asked for it.
        pending: list[tuple[int, BatchItem, str]] = []
        specs: dict[str, dict] = {}   # fingerprint -> spec, first-seen order
        for i, item in enumerate(items):
            key = run_config.fingerprint(item.source, filename=item.filename)
            if self.cache is not None and key not in specs:
                t_hit = time.perf_counter()
                entry = self.store.lookup(key)
                if entry is not None:
                    # The hit's own copy reports what happened here, a
                    # lookup, instead of the cold run's stage times.
                    analysis = copy.copy(entry.result)
                    analysis.stage_timings = {
                        "cache-hit": time.perf_counter() - t_hit}
                    results[i] = _success(item, entry, analysis,
                                          from_cache=True)
                    continue
            pending.append((i, item, key))
            if key not in specs:
                specs[key] = {
                    "key": key,
                    "name": item.name,
                    "source": item.source,
                    "filename": item.filename,
                }

        jobs = max(1, min(self.jobs, len(specs) or 1))
        payloads, entries = {}, {}
        for key, (payload, result) in zip(
                specs, self._run(jobs, list(specs.values()), run_config)):
            payloads[key] = payload
            entries[key] = self.store._keep(key, payload, result,
                                            self.cache)
        for i, item, key in pending:
            entry = entries.get(key)
            results[i] = (_success(item, entry, entry.result, from_cache=False)
                          if entry is not None
                          else _failure(item, key, payloads[key]))

        cache_stats = {}
        if self.cache is not None:
            # per-run deltas (the cache outlives batches); a hit from
            # either store tier is a hit
            s1 = self.cache.stats()
            cache_stats = {k: s1[k] - stats0[k]
                           for k in ("hits", "misses", "stores")}
            cache_stats["hits"] = sum(r.from_cache for r in results.values())
            cache_stats["dir"] = s1["dir"]
            self.cache.persist_stats()
        return BatchReport(
            results=[results[i] for i in sorted(results)],
            elapsed=time.perf_counter() - t0,
            jobs=jobs,
            cache_stats=cache_stats)

    def _run(self, jobs: int, specs: list, config: AnalysisConfig) -> list:
        """``(payload, result)`` per spec: in-process with the live result,
        from a pool with the payload alone (result None)."""
        if jobs > 1:
            config_json = config.to_json(indent=None)
            try:
                from concurrent.futures import ProcessPoolExecutor

                with _child_importable(), \
                        ProcessPoolExecutor(max_workers=jobs) as pool:
                    return [(p, None) for p in pool.map(
                        _analyze_one,
                        [dict(spec, config_json=config_json)
                         for spec in specs])]
            except Exception:
                pass   # no pool here (no /dev/shm, a sandbox): run serially
        return [_analyze(spec, config) for spec in specs]
