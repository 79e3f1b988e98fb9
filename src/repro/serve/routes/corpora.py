"""``/v1/corpora``: batch submission over :class:`BatchAnalyzer`.

One request analyzes many sources — explicit ``sources`` or (a subset of)
the bundled workload corpus — through the same batch engine as ``mira
batch``, sharing the server's on-disk model cache.  The registry adopts
the entries the batch's store made, full summaries included, so
follow-up ``/v1/analyses/{id}`` calls are registry hits.
"""

from __future__ import annotations

import os

from ...core.batch import BatchAnalyzer
from ..app import HTTPError, Request, Response, ServerContext
from .analyses import request_config

__all__ = ["ROUTES", "create_corpus", "list_corpora"]

#: Upper bound on in-server batch workers; batches beyond this still run,
#: they just queue on the pool.
_MAX_JOBS = 8


def list_corpora(ctx: ServerContext, req: Request) -> Response:
    """The bundled workload catalog a client may submit by name."""
    from ...workloads import available

    return Response(200, {"kind": "CorpusCatalog",
                          "workloads": available()})


def _requested_sources(req: Request) -> dict:
    """Resolve the request to ``name -> source`` (explicit or bundled)."""
    sources = req.get("sources")
    corpus = req.get("corpus")
    if (sources is None) == (corpus is None):
        raise HTTPError(400, "request exactly one of 'sources' (an object "
                             "of name -> C source) or 'corpus' (true, or "
                             "a list of bundled workload names)")
    if sources is not None:
        if not isinstance(sources, dict) or not sources:
            raise HTTPError(400, "sources must be a non-empty object of "
                                 "name -> C source")
        bad = [n for n, s in sources.items() if not isinstance(s, str)]
        if bad:
            raise HTTPError(400, f"sources[{bad[0]!r}] must be a string")
        return {str(n): s for n, s in sources.items()}
    from ...workloads import available, get_source

    names = available() if corpus is True else corpus
    if not isinstance(names, list) or not names:
        raise HTTPError(400, "corpus must be true or a non-empty list of "
                             "bundled workload names")
    unknown = sorted(set(names) - set(available()))
    if unknown:
        raise HTTPError(400, f"unknown workload(s) {', '.join(unknown)} "
                             f"(see GET /v1/corpora)")
    return {name: get_source(name) for name in names}


def create_corpus(ctx: ServerContext, req: Request) -> Response:
    """Batch-analyze many sources; returns per-file handles + aggregate."""
    sources = _requested_sources(req)
    jobs = req.get("jobs", 1)
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        raise HTTPError(400, f"jobs must be a positive integer, "
                             f"got {jobs!r}")
    # Request config for the model knobs; the server's cache policy wins.
    config = request_config(ctx, req.get("config")).with_changes(
        cache_dir=ctx.config.cache_dir, use_cache=ctx.config.use_cache)
    analyzer = BatchAnalyzer(config,
                             jobs=min(jobs, _MAX_JOBS, os.cpu_count() or 1))
    # Room for every file, so that the registry adopts each one's entry.
    analyzer.store.capacity = max(analyzer.store.capacity, len(sources))
    report = analyzer.analyze_sources(sources)
    for entry in analyzer.store.entries():   # as the batch's store made them
        ctx.registry.store.adopt(entry)
    files = []
    ids = {}
    for r in report:
        entry_doc = {"name": r.name, "status": r.status,
                     "id": r.cache_key or None}
        if r.ok:
            ids[r.name] = r.cache_key
        else:
            entry_doc["error"] = {"type": r.error.error_type,
                                  "message": str(r.error)}
        files.append(entry_doc)
    return Response(200, {
        "kind": "CorpusReport",
        "aggregate": report.aggregate(),
        "cache_stats": report.cache_stats,
        "files": files,
        "ids": ids,
    })


ROUTES = [
    ("GET", r"/v1/corpora", list_corpora),
    ("POST", r"/v1/corpora", create_corpus),
]
