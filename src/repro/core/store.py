"""One model store: memory → disk cache → pipeline.

Mira builds a model once, statically, and reuses it for prediction without
re-running anything (paper §III-C, Fig. 7).  ``mira batch``, the ``mira
serve`` registry, ``mira sweep``, the incremental analyzer and the bench
helpers all reuse models through a :class:`ModelStore`.  Its tiers,
cheapest first: **memory** (a dict lookup), **disk** (a
:class:`ModelCache` payload, deserialized without the compiler and
promoted into memory), **cold** (a parse, then compile → model through the
per-function tier, so only functions the store has not seen are analyzed;
its :func:`payload_from_result` is stored).  :func:`make_entry` builds
every entry: a cold one keeps the live models it built, and only disk and
batch worker payloads are decoded, a malformed one being a miss, never an
error.  A payload stores the model and building one emits no code: a cold
or restored result emits its scalar or vector evaluator on first use.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from ..errors import MiraError
from .config import AnalysisConfig
from .coverage import loop_coverage
from .pipeline import Pipeline, PipelineState
from .result import AnalysisResult, function_payload, restore_function_model

__all__ = [
    "DEFAULT_CAPACITY", "FUNCTION_CAPACITY", "ModelCache", "ModelEntry",
    "ModelStore", "make_entry", "payload_from_result", "restore",
]

#: Default memory-tier bound: plenty for a corpus, small enough that a
#: misbehaving client cannot balloon server memory.
DEFAULT_CAPACITY = 64

#: Function-tier bound: a watch session's working set (the edited files'
#: functions plus a few hundred edits' fresh models) fits with room to spare.
FUNCTION_CAPACITY = 1024


# ---------------------------------------------------------------------------
# the on-disk tier
# ---------------------------------------------------------------------------

def _atomic_write_json(path: str, doc: dict) -> None:
    """Write ``doc`` as JSON to ``path`` by atomic write-rename.

    Serializing first (``json.dumps`` takes the C encoder) makes a
    non-JSON-able payload raise before any file exists; ``os.replace`` of a
    unique temp file means readers never see a torn document and concurrent
    writers of one key race safely.  A failed write removes its temp file.
    """
    text = json.dumps(doc)
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ModelCache:
    """Content-addressed JSON store of analysis payloads.

    Whole-file payloads live at ``<cache_dir>/<key[:2]>/<key>.json``
    (``key`` = :meth:`AnalysisConfig.fingerprint`), per-function
    ``FunctionModel`` payloads at ``<cache_dir>/fn/<key[:2]>/<key>.json``
    (``key`` = the unit fingerprint from :mod:`repro.core.units`).  A key
    names its payload forever; writes are atomic, so concurrent runs may
    share a directory.  Hit/miss/store counters accumulate in-process and
    :meth:`persist_stats` folds them into ``stats.json`` for ``mira cache
    info``.
    """

    STATS_FILE = "stats.json"

    def __init__(self, cache_dir: str | None = None) -> None:
        self.cache_dir = cache_dir or self.default_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self._persisted_mark = {"hits": 0, "misses": 0, "stores": 0}

    @staticmethod
    def default_dir() -> str:
        base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
            os.path.expanduser("~"), ".cache")
        return os.path.join(base, "mira", "models")

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, key[:2], f"{key}.json")

    def _fn_path(self, key: str) -> str:
        return os.path.join(self.cache_dir, "fn", key[:2], f"{key}.json")

    def _read(self, path: str, decode=None):
        """The JSON document at ``path``, passed through ``decode`` when
        given.  A missing or unreadable file, invalid or too deep JSON, and a
        document ``decode`` turns into None all count as one miss."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                value = json.load(fh)
            if decode is not None:
                value = decode(value)
        except (OSError, ValueError, RecursionError):
            value = None
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def _write(self, path: str, payload: dict) -> None:
        try:
            _atomic_write_json(path, payload)
            self.stores += 1
        except (OSError, TypeError, ValueError):
            # Unwritable directory or a non-JSON-able payload: the cache is
            # an accelerator, so a failed store degrades to a future miss.
            pass

    def get(self, key: str, decode=None):
        return self._read(self._path(key), decode)

    def put(self, key: str, payload: dict) -> None:
        self._write(self._path(key), payload)

    def get_function(self, key: str, decode=None):
        """A per-function payload (see ``repro.core.result
        .function_payload``), or None on a miss."""
        return self._read(self._fn_path(key), decode)

    def put_function(self, key: str, payload: dict) -> None:
        self._write(self._fn_path(key), payload)

    def _payload_paths(self) -> list:
        stats = os.path.join(self.cache_dir, self.STATS_FILE)
        return [path for dirpath, _, names in os.walk(self.cache_dir)
                for path in (os.path.join(dirpath, n) for n in names)
                if path.endswith(".json") and path != stats]

    def clear(self) -> int:
        """Delete every cached payload (file and function entries) and the
        persisted stats; returns the number of payloads removed."""
        removed = 0
        for path in self._payload_paths():
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        try:
            os.unlink(os.path.join(self.cache_dir, self.STATS_FILE))
        except OSError:
            pass
        return removed

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "dir": self.cache_dir}

    def entry_stats(self) -> dict:
        """On-disk census: entry counts and total bytes per family."""
        files = functions = total_bytes = 0
        fn_root = os.path.join(self.cache_dir, "fn")
        for path in self._payload_paths():
            try:
                total_bytes += os.path.getsize(path)
            except OSError:
                continue
            if os.path.commonpath([fn_root, path]) == fn_root:
                functions += 1
            else:
                files += 1
        return {"file_entries": files, "function_entries": functions,
                "entries": files + functions, "bytes": total_bytes}

    def persist_stats(self) -> dict:
        """Fold this object's counter deltas into ``stats.json`` (atomic
        read-modify-replace) and return the updated lifetime totals."""
        totals = self.persisted_stats()
        for k in ("hits", "misses", "stores"):
            delta = getattr(self, k) - self._persisted_mark[k]
            totals[k] = totals.get(k, 0) + delta
            self._persisted_mark[k] = getattr(self, k)
        try:
            _atomic_write_json(os.path.join(self.cache_dir, self.STATS_FILE),
                               totals)
        except OSError:
            pass
        return totals

    def persisted_stats(self) -> dict:
        """Lifetime hit/miss/store counters from ``stats.json`` (zeros when
        absent or unreadable)."""
        path = os.path.join(self.cache_dir, self.STATS_FILE)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            return {k: int(doc.get(k, 0))
                    for k in ("hits", "misses", "stores")}
        except (OSError, ValueError, TypeError):
            return {"hits": 0, "misses": 0, "stores": 0}


# ---------------------------------------------------------------------------
# payloads
# ---------------------------------------------------------------------------

def payload_from_result(config: AnalysisConfig, result: AnalysisResult,
                        name: str, elapsed: float, tu=None) -> dict:
    """The JSON-able success payload the :class:`ModelCache` stores: the
    versioned :class:`AnalysisResult` wire format, per-function summaries
    and loop coverage of ``tu``, the parsed translation unit (by default
    the result's own, which a result with restored functions lacks).

    Concrete summaries are evaluated by the tree walk
    (:meth:`AnalysisResult.evaluate`), so building a payload emits no
    code and none is stored: the result builds an evaluator on its first
    ``evaluate_compiled`` or ``sweep``.
    """
    functions = {}
    for qname, fm in result.function_models().items():
        params = result.parameters(qname)
        counts = total = fp = None
        if not params:
            try:
                metrics = result.evaluate(qname)
                counts = metrics.as_dict()
                total = metrics.total()
                fp = metrics.fp_instructions(
                    config.arch.fp_arith_categories)
            except (MiraError, RecursionError):
                pass  # stays parametric-only in the summary
        functions[qname] = {
            "model_name": fm.model_name,
            "params": list(params),
            "warnings": list(fm.warnings),
            "counts": counts,
            "total": total,
            "fp_ins": fp,
        }
    cov = loop_coverage(tu if tu is not None else result.processed.tu, name)
    return {
        "ok": True,
        "functions": functions,
        "coverage": {
            "loops": cov.loops,
            "statements": cov.statements,
            "in_loop_statements": cov.in_loop_statements,
            "percentage": round(cov.percentage, 2),
        },
        "result": result.to_dict(),
        "elapsed": elapsed,
    }


_SUMMARY = ("model_name", "params", "warnings", "counts", "total", "fp_ins")


@dataclass
class ModelEntry:
    """One stored model: its result, live or restored, plus its payload
    summary."""

    key: str                       # the analysis fingerprint
    result: AnalysisResult
    functions: dict = field(default_factory=dict)  # qname -> summary dict
    coverage: dict = field(default_factory=dict)
    analysis_elapsed: float = 0.0  # the original cold analysis wall time
    hits: int = 0                  # memory-tier hits


def make_entry(key: str, payload,
               result: AnalysisResult | None = None) -> ModelEntry | None:
    """The one :class:`ModelEntry` constructor.  ``result`` is the live
    analysis that built ``payload`` in this process; the entry keeps it
    minus its compiler state (``processed``), which is what a restored
    result holds.  Without it, ``payload`` came from outside (a disk hit,
    a pool worker) and is decoded.  None for a failure record or any
    malformed payload; keys it does not read (an older layout's
    ``compiled`` block) are ignored."""
    try:
        if not payload["ok"]:
            return None
        if result is None:
            result = AnalysisResult.from_dict(payload["result"])
        else:
            result.processed = None
        return ModelEntry(
            key=key, result=result,
            functions={q: {k: f[k] for k in _SUMMARY}
                       for q, f in payload["functions"].items()},
            coverage=dict(payload["coverage"]),
            analysis_elapsed=float(payload.get("elapsed", 0.0)))
    except (MiraError, KeyError, TypeError, ValueError, AttributeError):
        return None


def restore(payload) -> AnalysisResult | None:
    """A payload's result; None if malformed."""
    entry = make_entry("", payload)
    return entry.result if entry is not None else None


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------

class ModelStore:
    """Thread-safe LRU of restored models over a :class:`ModelCache`, then
    the :class:`Pipeline`; counts ``memory_hits``, ``disk_hits``,
    ``analyses`` and ``evictions``.  :attr:`function_models` is the function
    tier (unit fingerprint → ``FunctionModel``, at most
    :data:`FUNCTION_CAPACITY`) over the disk tier's per-function entries.

    :param cache: the disk tier; without one (the sweep engine's store),
        each :meth:`get_or_analyze` call takes its config's for whole-file
        entries, and the function tier stays in memory.
    :param capacity: memory-tier bound (least recently used entries beyond
        it are evicted; the disk tier still holds them).
    """

    def __init__(self, cache: ModelCache | None = None, *,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise MiraError(f"store capacity must be >= 1, got {capacity}")
        self.cache = cache
        self.capacity = capacity
        self.function_models: OrderedDict = OrderedDict()
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.RLock()
        self._key_locks: dict[str, threading.Lock] = {}
        self.memory_hits = self.disk_hits = self.analyses = self.evictions = 0

    # -- whole-file entries ------------------------------------------------------
    def lookup(self, key: str) -> ModelEntry | None:
        """The entry for ``key`` from memory or disk (promoted), or None."""
        found = self._lookup(key, self.cache)
        return found[0] if found is not None else None

    def get_or_analyze(self, source: str, config: AnalysisConfig,
                       filename: str = "<input>",
                       key: str | None = None) -> tuple[ModelEntry, str]:
        """``(entry, origin)`` for ``source`` under ``config``, origin
        ``"memory"``, ``"disk"`` or ``"cold"``.  A cold analysis restores
        every function the function tier holds (see
        :func:`~repro.core.incremental.analyze_functions`).  Identical
        concurrent calls share one analysis (per-key locks; the store lock
        is never held across an analysis); pipeline errors propagate.  Disk
        traffic is persisted to ``stats.json``.  ``key`` is the caller's
        ``config.fingerprint(source, filename=filename)``, when it has
        already computed it; the source is then not hashed again."""
        if key is None:
            key = config.fingerprint(source, filename=filename)
        cache = self._disk(config)
        found = self._lookup(key, cache)
        if found is None:
            with self._lock:
                key_lock = self._key_locks.setdefault(key, threading.Lock())
            try:
                with key_lock:
                    # A racing identical call registers its entry before
                    # releasing the key lock, so memory is enough here.
                    found = self._lookup(key, None)
                    if found is None:
                        t0 = time.perf_counter()
                        state = self._analyze(source, config, filename,
                                              key)
                        payload = payload_from_result(
                            config, state.result, filename,
                            time.perf_counter() - t0, tu=state.tu)
                        entry = self._keep(key, payload, state.result,
                                           cache)
                        with self._lock:
                            self.analyses += 1
                        found = entry, "cold"
            finally:
                # Keep the lock table bounded by live concurrency: a late
                # waiter on the dropped lock re-checks memory and hits.
                with self._lock:
                    self._key_locks.pop(key, None)
        if cache is not None and found[1] != "memory":
            cache.persist_stats()
        return found

    def adopt(self, entry: ModelEntry) -> ModelEntry:
        """Register an entry built elsewhere (a batch's, or a bench's live
        result); an existing entry for its key is kept instead."""
        with self._lock:
            return self._insert(entry)

    def evict(self, key: str) -> bool:
        """Drop ``key`` from memory (the disk tier is untouched: its
        entries are content-addressed and immutable)."""
        with self._lock:
            return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        """Empty both memory tiers; the disk tier is untouched."""
        with self._lock:
            self._entries.clear()
            self.function_models.clear()

    def entries(self) -> list:
        """Memory-tier entries, most recently used last."""
        with self._lock:
            return list(self._entries.values())

    # -- per-function entries ----------------------------------------------------
    def lookup_function(self, fingerprint: str, qname: str):
        """The ``FunctionModel`` of one function unit from memory, else
        restored from the disk tier and promoted; None on a miss."""
        with self._lock:
            model = self.function_models.get(fingerprint)
        if model is None and self.cache is not None:
            model = self.cache.get_function(
                fingerprint, lambda p: restore_function_model(qname, p))
        if model is not None:
            self._insert_function(fingerprint, model)   # refresh LRU order
        return model

    def put_function(self, fingerprint: str, model) -> None:
        """Store a freshly generated ``FunctionModel`` on disk and in
        memory."""
        if self.cache is not None:
            self.cache.put_function(fingerprint, function_payload(model))
        self._insert_function(fingerprint, model)

    # -- internals ---------------------------------------------------------------
    def _analyze(self, source: str, config: AnalysisConfig, filename: str,
                 key: str) -> PipelineState:
        """A plain parse, then compile → model through the function tier:
        only the functions this store has not seen are re-analyzed."""
        from .incremental import analyze_functions   # imports this module

        pipeline = Pipeline(config)
        state = pipeline.new_state(source, filename=filename)
        state.fingerprint = key
        pipeline.run_stages(state, ("parse",))
        analyze_functions(pipeline, state, self)
        return state

    def _disk(self, config: AnalysisConfig) -> ModelCache | None:
        if self.cache is not None or not config.use_cache:
            return self.cache
        return ModelCache(config.cache_dir)

    def _lookup(self, key: str,
                cache: ModelCache | None) -> tuple[ModelEntry, str] | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                entry.hits += 1
                self.memory_hits += 1
                return entry, "memory"
        if cache is None:
            return None
        entry = cache.get(key, lambda p: make_entry(key, p))
        if entry is None:
            return None
        with self._lock:
            self.disk_hits += 1
            return self._insert(entry), "disk"

    def _keep(self, key: str, payload: dict, result: AnalysisResult | None,
              cache: ModelCache | None) -> ModelEntry | None:
        """Store a fresh analysis: ``payload`` on disk (with a ``cache``)
        and its :func:`make_entry` entry in memory.  None, and nothing
        stored, for a failure record."""
        entry = make_entry(key, payload, result)
        if entry is None:
            return None
        if cache is not None:
            cache.put(key, payload)
        with self._lock:
            return self._insert(entry)

    def _insert(self, entry: ModelEntry) -> ModelEntry:
        """Register ``entry`` (or refresh the one already there) and evict
        beyond capacity.  Callers hold the lock."""
        kept = self._entries.setdefault(entry.key, entry)
        self._entries.move_to_end(entry.key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return kept

    def _insert_function(self, fingerprint: str, model) -> None:
        with self._lock:
            self.function_models[fingerprint] = model
            self.function_models.move_to_end(fingerprint)
            while len(self.function_models) > FUNCTION_CAPACITY:
                self.function_models.popitem(last=False)
