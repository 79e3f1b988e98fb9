"""``/v1/analyses``: CRUD + evaluate/sweep/diff over stored models.

The resource id is the submission's content-addressed fingerprint
(:meth:`AnalysisConfig.fingerprint` over source bytes, filename, and every
model-affecting config knob), so identical submissions are the *same*
resource: a repeat ``POST`` is a warm registry hit (no compiler), and the
fingerprint doubles as a strong ETag for ``If-None-Match`` revalidation.
"""

from __future__ import annotations

from math import prod

from ...compiler.arch import default_arch
from ...core.config import AnalysisConfig
from ...core.store import ModelEntry
from ...core.sweep import MAX_SWEEP_POINTS, sweep_rows
from ..app import HTTPError, Request, Response, ServerContext
from ..registry import describe, etag

__all__ = ["ROUTES", "request_config"]

_ID = r"(?P<id>[0-9a-f]{8,64})"

#: Config fields a submission may override.  The cache policy
#: (``cache_dir``/``use_cache``) is deliberately absent: where models live
#: is the server's decision, not the client's.
_CONFIG_FIELDS = ("arch", "opt_level", "default_branch_ratio", "predefined",
                  "symbolic_params")

_ENGINES = ("auto", "vector", "scalar")

_LAYOUTS = ("rows", "columns")

def request_config(ctx: ServerContext, doc) -> AnalysisConfig:
    """The request's effective config: server defaults + body overrides."""
    if doc is None:
        return ctx.config
    if not isinstance(doc, dict):
        raise HTTPError(400, "config must be an object")
    unknown = sorted(set(doc) - set(_CONFIG_FIELDS))
    if unknown:
        raise HTTPError(400, f"unknown config field(s) "
                             f"{', '.join(unknown)} "
                             f"(accepted: {', '.join(_CONFIG_FIELDS)})")
    changes = {k: doc[k] for k in _CONFIG_FIELDS
               if k in doc and k != "arch"}
    if "symbolic_params" in changes:
        changes["symbolic_params"] = tuple(changes["symbolic_params"])
    if "arch" in doc:
        name = doc["arch"]
        if name not in ("arya", "frankenstein", "generic"):
            raise HTTPError(400, f"unknown arch preset {name!r} "
                                 f"(arya | frankenstein | generic)")
        changes["arch"] = default_arch(name)
    return ctx.config.with_changes(**changes)


def _etag_matches(header: str | None, tag: str) -> bool:
    if not header:
        return False
    candidates = [t.strip() for t in header.split(",")]
    return "*" in candidates or tag in candidates \
        or tag.strip('"') in candidates


def _entry(ctx: ServerContext, req: Request) -> ModelEntry:
    key = req.params["id"]
    entry = ctx.registry.get(key)
    if entry is None:
        raise HTTPError.not_found(f"no analysis {key!r} in the registry "
                                  f"or model cache")
    return entry


def _int_params(doc, what: str = "params") -> dict:
    """Parameter bindings as exact ints (JSON numbers arrive as int or
    float; integral floats are accepted, anything else is a 400)."""
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise HTTPError(400, f"{what} must be an object of name -> integer")
    return {str(name): _int_value(value, f"{what}[{name!r}]")
            for name, value in doc.items()}


def _int_value(value, where: str) -> int:
    """One binding as an exact int; ``where`` names it in the 400."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise HTTPError(400, f"{where} must be an integer, got {value!r}")
    return value


def _int_axis(name: str, values: list) -> list:
    """One grid axis as exact ints.  An axis of plain ints (what JSON
    decoding gives) passes through in one pass; anything else is checked
    value by value."""
    if set(map(type, values)) <= {int}:
        return values
    return [_int_value(x, f"grid[{name!r}][{i}]")
            for i, x in enumerate(values)]


def _engine(req: Request) -> str:
    engine = req.get("engine", "auto")
    if engine not in _ENGINES:
        raise HTTPError(400, f"unknown engine {engine!r} "
                             f"(auto | vector | scalar)")
    return engine


# -- CRUD -----------------------------------------------------------------------

def create_analysis(ctx: ServerContext, req: Request) -> Response:
    """Submit C source; returns the model handle (201 cold, 200 warm).

    ``If-None-Match`` with the submission's ETag short-circuits to 304
    when the model is already registered or cached — the revalidation
    path costs one fingerprint hash, zero analysis.
    """
    source = req.require("source")
    if not isinstance(source, str) or not source.strip():
        raise HTTPError(400, "source must be a non-empty string of C code")
    filename = req.get("filename", "<input>")
    if not isinstance(filename, str) or not filename:
        raise HTTPError(400, "filename must be a non-empty string")
    config = request_config(ctx, req.get("config"))
    key = ctx.registry.fingerprint(source, config, filename)
    tag = etag(key)
    if _etag_matches(req.if_none_match(), tag) \
            and ctx.registry.get(key) is not None:
        return Response.not_modified(tag)
    entry, origin = ctx.registry.submit(source, config, filename, key)
    doc = {"kind": "AnalysisHandle", "created": origin == "cold",
           "origin": origin, **describe(entry)}
    return Response(201 if origin == "cold" else 200, doc,
                    {"ETag": tag, "Location": f"/v1/analyses/{key}"})


def list_analyses(ctx: ServerContext, req: Request) -> Response:
    return Response(200, {
        "kind": "AnalysisList",
        "analyses": [describe(e) for e in ctx.registry.entries()],
        "registry": ctx.registry.stats(),
    })


def get_analysis(ctx: ServerContext, req: Request) -> Response:
    """The stored model: the versioned AnalysisResult wire format itself."""
    entry = _entry(ctx, req)
    tag = etag(entry.key)
    if _etag_matches(req.if_none_match(), tag):
        return Response.not_modified(tag)
    doc = entry.result.to_dict()    # kind: AnalysisResult, schema-versioned
    doc["id"] = entry.key
    return Response(200, doc, {"ETag": tag})


def delete_analysis(ctx: ServerContext, req: Request) -> Response:
    key = req.params["id"]
    if not ctx.registry.evict(key):
        raise HTTPError.not_found(f"no analysis {key!r} in the registry")
    return Response(200, {"kind": "AnalysisDeleted", "id": key,
                          "deleted": True})


# -- model actions --------------------------------------------------------------

def evaluate_analysis(ctx: ServerContext, req: Request) -> Response:
    """One-point evaluation of a stored model (compiled path)."""
    entry = _entry(ctx, req)
    result = entry.result
    function = req.require("function")
    params = _int_params(req.get("params"))
    engine = _engine(req)
    qname = result._resolve(function)
    if engine == "vector":
        # A one-point sweep through the columnar engine: same counts,
        # useful to pin the engine from the API for verification.
        sweep = result.sweep(qname, [params], engine="vector")
        metrics = sweep.points[0].metrics
    else:
        metrics = result.compiled().evaluate(qname, params)
        engine = "scalar"
    return Response(200, {
        "kind": "Evaluation",
        "id": entry.key,
        "function": qname,
        "params": params,
        "engine": engine,
        "counts": metrics.as_dict(),
        "total": metrics.total(),
        "fp_ins": metrics.fp_instructions(result.arch.fp_arith_categories),
    })


def _layout(req: Request) -> str:
    layout = req.get("layout", "rows")
    if layout not in _LAYOUTS:
        raise HTTPError(400, f"unknown sweep layout {layout!r} "
                             f"(rows | columns)", "UnsupportedLayout")
    return layout


def sweep_analysis(ctx: ServerContext, req: Request) -> Response:
    """Grid evaluation of a stored model (``engine=auto|vector|scalar``).

    ``layout=columns`` replies with the columnar ``SweepResult`` document
    itself.  The default, ``rows``, is the v1 document whose ``points``
    list carries one row per grid point, for consumers that read
    ``points[i]`` straight from the body.  An object grid whose axis
    lengths multiply past :data:`~repro.core.sweep.MAX_SWEEP_POINTS` is a
    413 ``GridTooLarge`` before any axis is converted.
    """
    entry = _entry(ctx, req)
    layout = _layout(req)
    function = req.require("function")
    grid = req.require("grid")
    if isinstance(grid, dict):
        grid = {str(k): (v if isinstance(v, list) else [v])
                for k, v in grid.items()}
        points = prod(map(len, grid.values()))
        if points > MAX_SWEEP_POINTS:
            raise HTTPError(413, f"grid of {points} points exceeds the "
                                 f"{MAX_SWEEP_POINTS}-point limit",
                            "GridTooLarge")
        grid = {k: _int_axis(k, v) for k, v in grid.items()}
    elif isinstance(grid, list):
        grid = [_int_params(p, f"grid[{i}]") for i, p in enumerate(grid)]
    else:
        raise HTTPError(400, "grid must be an object of name -> values "
                             "or a list of point objects")
    base = _int_params(req.get("base"), "base")
    sweep = entry.result.sweep(function, grid, base=base or None,
                               engine=_engine(req))
    doc = sweep.to_dict()           # kind: SweepResult, schema-versioned
    if layout == "rows":
        rows = sweep_rows(doc)
        doc = {k: v for k, v in doc.items() if k not in ("layout", "columns")}
        doc["points"] = rows
    doc["id"] = entry.key
    return Response(200, doc)


def diff_analysis(ctx: ServerContext, req: Request) -> Response:
    """Symbolic model diff of this analysis against another stored one."""
    entry = _entry(ctx, req)
    other_key = req.require("other")
    other = ctx.registry.get(str(other_key))
    if other is None:
        raise HTTPError.not_found(f"no analysis {other_key!r} to diff "
                                  f"against")
    diff = entry.result.diff(other.result)
    doc = diff.to_dict()            # kind: ModelDiff
    doc["a_id"] = entry.key
    doc["b_id"] = other.key
    return Response(200, doc)


ROUTES = [
    ("POST", r"/v1/analyses", create_analysis),
    ("GET", r"/v1/analyses", list_analyses),
    ("GET", rf"/v1/analyses/{_ID}", get_analysis),
    ("DELETE", rf"/v1/analyses/{_ID}", delete_analysis),
    ("POST", rf"/v1/analyses/{_ID}/evaluate", evaluate_analysis),
    ("POST", rf"/v1/analyses/{_ID}/sweep", sweep_analysis),
    ("POST", rf"/v1/analyses/{_ID}/diff", diff_analysis),
]
