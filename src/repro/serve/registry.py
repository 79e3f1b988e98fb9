"""ModelRegistry: the serving view of a :class:`~repro.core.store.ModelStore`.

An entry's fingerprint (:meth:`AnalysisConfig.fingerprint`) doubles as the
HTTP resource id and, quoted, its ETag (:func:`etag`); :func:`describe` is
the handle document of a plain :class:`ModelEntry`.  Tiering
(memory → disk cache → pipeline) and the collapse of racing identical
submissions are the store's: a cold submission's entry keeps the live
models its analysis built, and only disk payloads are decoded.  The
registry adds serving metadata and reports the store's counters.
"""

from __future__ import annotations

from ..core.config import AnalysisConfig
from ..core.store import (DEFAULT_CAPACITY, ModelCache, ModelEntry,
                          ModelStore)

__all__ = ["DEFAULT_CAPACITY", "ModelRegistry", "describe", "etag"]

#: Store origin -> the ``origin`` a submission reports over HTTP.
_ORIGINS = {"memory": "registry", "disk": "cache", "cold": "cold"}


def etag(key: str) -> str:
    """The strong validator served with the entry for ``key`` (quoted,
    per RFC)."""
    return f'"{key}"'


def describe(entry: ModelEntry) -> dict:
    """``entry``'s JSON-able handle document (everything but the full
    model)."""
    return {
        "id": entry.key,
        "etag": etag(entry.key),
        "source": entry.result.source_name,
        "functions": {
            q: {"params": list(f.get("params", ())),
                "warnings": list(f.get("warnings", ()))}
            for q, f in entry.functions.items()
        },
        "coverage": dict(entry.coverage),
        "analysis_elapsed_seconds": round(entry.analysis_elapsed, 6),
        "hits": entry.hits,
    }


class ModelRegistry:
    """Fingerprint-keyed warm models over a :class:`ModelStore`.

    :param config: the server's base :class:`AnalysisConfig`; its
        ``cache_dir``/``use_cache`` fields decide the disk tier (requests
        cannot redirect the server's cache — their configs only contribute
        model-affecting knobs to the fingerprint).
    :param capacity: maximum warm entries; least recently used beyond that
        are evicted (the disk tier still holds them).
    """

    def __init__(self, config: AnalysisConfig | None = None, *,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        self.config = config or AnalysisConfig()
        self.cache = (ModelCache(self.config.cache_dir)
                      if self.config.use_cache else None)
        self.store = ModelStore(self.cache, capacity=capacity)

    @property
    def evictions(self) -> int:
        return self.store.evictions

    # -- lookups -----------------------------------------------------------------
    def get(self, key: str) -> ModelEntry | None:
        """The entry for ``key`` from the warm tier, falling back to (and
        promoting from) the disk cache; None when unknown to both."""
        return self.store.lookup(key)

    # -- submission --------------------------------------------------------------
    def fingerprint(self, source: str, config: AnalysisConfig | None = None,
                    filename: str = "<input>") -> str:
        """The id this submission will be (or already is) stored under."""
        return (config or self.config).fingerprint(source, filename=filename)

    def submit(self, source: str, config: AnalysisConfig | None = None,
               filename: str = "<input>",
               key: str | None = None) -> tuple[ModelEntry, str]:
        """Analyze-or-serve one source; returns ``(entry, origin)``.

        ``origin`` is ``"registry"`` (warm hit), ``"cache"`` (disk hit,
        promoted) or ``"cold"`` (pipeline ran, at most once per
        fingerprint however many identical submissions race).  ``key`` is
        this submission's :meth:`fingerprint`, when the caller has it.
        """
        entry, origin = self.store.get_or_analyze(
            source, config or self.config, filename, key)
        return entry, _ORIGINS[origin]

    # -- maintenance -------------------------------------------------------------
    def evict(self, key: str) -> bool:
        """Drop ``key`` from the warm tier (the disk tier is untouched:
        cache entries are content-addressed and immutable)."""
        return self.store.evict(key)

    def ids(self) -> list[str]:
        """Warm entry ids, most recently used last."""
        return [e.key for e in self.store.entries()]

    def entries(self) -> list[ModelEntry]:
        return self.store.entries()

    def stats(self) -> dict:
        store = self.store
        return {
            "size": len(store.entries()),
            "capacity": store.capacity,
            "registry_hits": store.memory_hits,
            "disk_hits": store.disk_hits,
            "analyses": store.analyses,
            "evictions": store.evictions,
            "cache_dir": (self.cache.cache_dir
                          if self.cache is not None else None),
        }
