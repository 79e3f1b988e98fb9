"""One-analysis parametric sweeps (paper Fig. 7, Tables III-V).

The paper's core value proposition is that a Mira model is *parametric*:
analyze once, then evaluate instruction counts across arbitrary input sizes
"for free".  Historically our benches contradicted that — sizes arrived as
preprocessor predefines, so every sweep point re-ran the whole
parse→compile→disassemble→bridge→model pipeline.  This module restores the
paper's promise:

* :func:`run_model_sweep` — evaluate an existing
  :class:`~repro.core.result.AnalysisResult` at every point of a parameter
  grid; this is what ``AnalysisResult.sweep`` calls.  Three engines:

  - ``engine="vector"`` — columnar evaluation through the numpy
    array-compiled models of :mod:`repro.symbolic.veccompile`, in chunks
    on the int64 fast path when the overflow precheck allows (object dtype
    otherwise — always bit-exact).
  - ``engine="scalar"`` — one call of the generated Fig. 5 module per grid
    point.
  - ``engine="auto"`` (default) — vector when the models and grid allow,
    scalar otherwise.

* :func:`sweep_source` — the **late-binding engine**.  It first attempts a
  *symbolic* analysis in which each swept name is predefined to itself (the
  preprocessor's blue-paint rule leaves it as a plain identifier) and
  declared as a synthetic global via ``AnalysisConfig.symbolic_params``, so
  a size macro like ``STREAM_ARRAY_SIZE`` becomes a free model symbol: one
  pipeline run, then the whole grid is compiled evaluation.  Where the
  frontend cannot go symbolic (e.g. the name feeds an inner array
  dimension), it falls back to one analysis per point.  Every analysis
  either path needs comes from :data:`SWEEP_STORE`, a
  :class:`~repro.core.store.ModelStore`: a warm hit restores the model and
  its generated evaluator source, skipping pipeline *and* codegen.

Every sweep has one shape.  :func:`_grid_columns`, the only grid
normaliser, turns the grid into one parameter column per swept name, and
every route — vector, scalar, per-point — ends in the same
:class:`_ColumnarPoints` of parameter and count columns, which
``SweepResult`` encodes into one wire document whatever the engine.

The late-bound symbolic model is guaranteed to agree with per-point concrete
analyses on *counting* (trip counts, FP instruction counts): a constant that
becomes a symbol only changes how the bound reaches the comparison (an
immediate operand versus a global load), never how often anything executes.
Integer move/compare categories at loop-condition cost centers can therefore
differ slightly between the two modes; ``SweepResult.mode`` records which
one produced the data, and ``SweepResult.engine`` which evaluation engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat

import numpy as np

from ..errors import MiraError, ModelError, VectorizeError
from .config import AnalysisConfig
from .result import RESULT_SCHEMA_VERSION, AnalysisResult
from .store import ModelStore

__all__ = ["SweepPoint", "SweepResult", "run_model_sweep", "sweep_rows",
           "sweep_source", "DEFAULT_SWEEP_CHUNK", "SWEEP_STORE"]

#: Vector-engine chunk size (points per evaluation batch).  Chunking keeps
#: peak memory bounded and lets the int64-vs-object decision adapt to each
#: chunk's actual value ranges.
DEFAULT_SWEEP_CHUNK = 1 << 18


def _pyint(x):
    """Normalize numpy integer scalars to Python ints (exact)."""
    if isinstance(x, (int, Fraction)):
        return x
    if hasattr(x, "item"):
        return x.item()
    return x


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def _axis_column(name: str, values):
    """One grid axis as an ndarray, exactly.

    Ints (Python, numpy or bool) that fit become an int64 column; anything
    else (ints beyond int64, Fractions, floats, non-numeric values, ``None``
    for an unbound name) stays a Python value in an object column, for
    :func:`_vector_refusal` and the scalar engine to judge."""
    if isinstance(values, list) and set(map(type, values)) == {int}:
        # the common case, plain ints (a JSON grid): one conversion
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise ModelError(f"sweep axis {name!r} is not one-dimensional")
        if np.can_cast(values.dtype, np.int64) and len(values):
            return values.astype(np.int64, copy=False)
        values = values.tolist()
    vals = [_pyint(x) for x in values]
    if not vals:
        raise ModelError(f"sweep axis {name!r} has no values")
    if all(isinstance(x, int) for x in vals):
        try:
            return np.array(vals, dtype=np.int64)
        except OverflowError:
            pass
    col = np.empty(len(vals), dtype=object)
    col[:] = vals
    return col


def _grid_columns(grid) -> tuple[tuple, dict, int]:
    """Normalize a sweep grid into ``(names, {name: column}, npoints)``.

    ``grid`` is either a mapping ``name -> value(s)`` (a scalar is a
    one-element axis; several axes expand to their cartesian product in
    row-major order, realized with ``np.repeat``/``np.tile`` on whole axis
    arrays) or an explicit sequence of point dicts, whose names are taken
    in order of first appearance; a point that leaves a name unbound holds
    ``None`` in that name's column.  No Python dict is built per point.
    """
    if isinstance(grid, (list, tuple)):
        if not grid:
            raise ModelError("sweep grid has no points")
        names = tuple(dict.fromkeys(k for g in grid for k in g))
        cols = {n: _axis_column(n, [g.get(n) for g in grid]) for n in names}
        return names, cols, len(grid)
    if not isinstance(grid, dict) or not grid:
        raise ModelError(
            "sweep grid must be a non-empty mapping of parameter values "
            "or a sequence of point dicts")
    names = tuple(grid.keys())
    arrays = [_axis_column(n, [v] if isinstance(v, (int, Fraction)) else v)
              for n, v in grid.items()]
    npoints = 1
    for a in arrays:
        npoints *= len(a)
    cols = {}
    inner = npoints
    outer = 1
    for n, a in zip(names, arrays):
        inner //= len(a)
        col = np.repeat(a, inner)
        if outer > 1:
            col = np.tile(col, outer)
        cols[n] = col
        outer *= len(a)
    return names, cols, npoints


def _vector_refusal(cols: dict, base_env: dict) -> str | None:
    """Why the vector engine cannot evaluate these grid columns with these
    base bindings, or None when it can."""
    for name, col in cols.items():
        if col.dtype != object:
            continue
        for x in col:
            if x is None:
                return "explicit point list has heterogeneous keys"
            if isinstance(x, float):
                return (f"axis {name!r} is float-valued; exact engines "
                        "need int/Fraction")
            if not isinstance(x, (int, Fraction)):
                return f"axis {name!r} has non-numeric value {x!r}"
    for k, v in base_env.items():
        if isinstance(v, float):
            # the scalar engine decides float semantics (SymbolicError when
            # the binding is actually a model parameter, ignored otherwise)
            return f"base binding {k!r} is float-valued"
    return None


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    """One evaluated grid point: the swept bindings and the exact metrics."""

    env: dict
    metrics: object  # Metrics


def _exact_value(v):
    """Columnar cell -> exact Python number (int64 scalar, int, Fraction)."""
    if type(v) is int:
        return v
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    if hasattr(v, "item"):
        return v.item()
    return v


def _env(param_cols: dict, i: int) -> dict:
    """Grid point ``i``'s bindings, exact; names it leaves unbound are
    left out."""
    env = {}
    for name, col in param_cols.items():
        v = _exact_value(col[i])
        if v is not None:
            env[name] = v
    return env


def _metric_columns(metrics: list) -> dict:
    """Per-point ``Metrics`` as category -> exact count columns."""
    cats = dict.fromkeys(c for m in metrics for c in m.counts)
    return {cat: [m.counts.get(cat, 0) for m in metrics] for cat in cats}


class _ColumnarPoints:
    """Lazy ``SweepPoint`` sequence over a sweep's columns.

    ``param_cols`` are :func:`_grid_columns` output; ``cat_cols`` map each
    count category to an exact per-point column (int64 or object ndarray,
    or a list).  Nothing is materialized until accessed; iterating builds
    one ``SweepPoint`` + ``Metrics`` per step, with exact ints/Fractions
    (exact-zero categories are dropped, matching ``Metrics.add``'s
    ``times == 0`` skip)."""

    __slots__ = ("names", "param_cols", "cat_cols", "n")

    def __init__(self, names: tuple, param_cols: dict, cat_cols: dict,
                 n: int) -> None:
        self.names = names
        self.param_cols = param_cols
        self.cat_cols = cat_cols
        self.n = n

    def __len__(self) -> int:
        return self.n

    def _point(self, i: int) -> SweepPoint:
        from .model_runtime import Metrics

        m = Metrics()
        counts = m.counts
        for cat, col in self.cat_cols.items():
            v = _exact_value(col[i])
            if v:
                counts[cat] = v
        return SweepPoint(env=_env(self.param_cols, i), metrics=m)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._point(j) for j in range(*i.indices(self.n))]
        if i < 0:
            i += self.n
        if not 0 <= i < self.n:
            raise IndexError("sweep point index out of range")
        return self._point(i)

    def __iter__(self):
        for i in range(self.n):
            yield self._point(i)


def _jsonable(v):
    """A swept value on the wire: ints (and ``None`` for an unbound name)
    stay as they are, Fractions become str."""
    return v if v is None or isinstance(v, int) else str(v)


def _rounded(v) -> int:
    """A count cell rounded exactly as ``Metrics.as_dict`` rounds it."""
    v = _exact_value(v)
    return v if type(v) is int else int(round(v))


def _is_int64(col) -> bool:
    return not isinstance(col, list) and col.dtype != object


def _sum_columns(cols: list, n: int) -> list[int]:
    """Per-point sums of rounded count columns (int64 arrays or int lists).

    All-int64 columns are summed in numpy when their ranges leave headroom
    for the cross-category accumulation; anything else sums in exact
    Python ints."""
    if not cols:
        return [0] * n
    if all(_is_int64(c) for c in cols):
        limit = (2 ** 63 - 1) // len(cols)
        if all(-limit <= int(c.min()) and int(c.max()) <= limit
               for c in cols):
            acc = cols[0].copy()
            for c in cols[1:]:
                acc += c
            return acc.tolist()
    lists = [c if isinstance(c, list) else c.tolist() for c in cols]
    return [sum(t) for t in zip(*lists)]


def sweep_rows(doc: dict) -> list[dict]:
    """Expand a columnar ``SweepResult`` document into per-point rows.

    Each row is ``{"params", "counts", "total", "fp_ins"}``, one entry of
    the ``rows`` layout's ``points``.  Zero-count categories are dropped
    per row (as ``Metrics.as_dict`` drops them), and so is a parameter a
    point leaves unbound (``None`` in its column).  Stdlib only, so an HTTP
    client can expand a reply; in process, ``SweepResult.points`` is the
    lazy view.
    """
    cols = doc["columns"]
    n = len(cols["total"])
    names, cats = list(cols["params"]), list(cols["counts"])
    param_rows = zip(*cols["params"].values()) if names else repeat((), n)
    count_rows = zip(*cols["counts"].values()) if cats else repeat((), n)
    rows = []
    for pv, cv, total, fp_ins in zip(param_rows, count_rows, cols["total"],
                                     cols["fp_ins"]):
        # Filtering only the rows that need it keeps the common case (no
        # zero count, every name bound) at one C-level dict(zip(...)).
        params = dict(zip(names, pv))
        if None in pv:
            params = {k: v for k, v in params.items() if v is not None}
        counts = dict(zip(cats, cv))
        if 0 in cv:
            counts = {c: v for c, v in counts.items() if v}
        rows.append({"params": params, "counts": counts, "total": total,
                     "fp_ins": fp_ins})
    return rows


@dataclass
class SweepResult:
    """The product of a sweep: per-point metrics plus provenance.

    ``mode`` is ``"parametric"`` (one analysis, compiled evaluation across
    the grid — the paper's promise) or ``"per-point"`` (one cached analysis
    per grid point — the fallback).  ``analyses`` counts how many pipeline
    runs the sweep actually consumed; a warm parametric sweep reports 0.
    ``engine`` records the evaluation engine (``"vector"`` or
    ``"scalar"``), with ``vector_stats`` counting how many vector chunks
    ran in int64 versus object dtype.  ``points`` is a
    :class:`_ColumnarPoints` whatever the engine: it keeps the parameter
    and count columns and materializes ``SweepPoint`` objects lazily.
    """

    function: str                 # resolved qualified name
    param_names: tuple
    points: _ColumnarPoints
    mode: str = "parametric"
    analyses: int = 0
    fp_categories: tuple = ()
    analysis: AnalysisResult | None = None   # the parametric result, if any
    engine: str = "scalar"
    vector_stats: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def _count_columns(self) -> dict:
        """Category -> rounded per-point counts (int64 columns stay
        ndarrays); a category that rounds to zero at every point is left
        out."""
        out = {}
        for cat, col in self.points.cat_cols.items():
            if _is_int64(col):
                nonzero = col.any()
            else:
                col = [_rounded(v) for v in col]
                nonzero = any(col)
            if nonzero:
                out[cat] = col
        return out

    def _param_columns(self) -> dict:
        """Swept name -> per-point wire values (``None`` where an explicit
        point list leaves the name unbound)."""
        return {name: col.tolist() if _is_int64(col)
                else [_jsonable(_exact_value(v)) for v in col]
                for name, col in self.points.param_cols.items()}

    def _fp_column(self, counts: dict) -> list[int]:
        return _sum_columns([counts[c] for c in self.fp_categories
                             if c in counts], len(self))

    def fp_series(self) -> list[int]:
        """FP instruction count at every grid point, in grid order."""
        return self._fp_column(self._count_columns())

    def totals(self) -> list[int]:
        return _sum_columns(list(self._count_columns().values()), len(self))

    def to_dict(self) -> dict:
        """The columnar wire document (``"layout": "columns"``).

        ``columns`` holds one list per swept parameter, one per count
        category that is nonzero at some point (rounded as
        ``Metrics.as_dict`` rounds), and ``total`` and ``fp_ins``.  It is
        encoded straight from the sweep's columns, with no per-point
        object, so every engine gives the same document;
        :func:`sweep_rows` expands it into per-point rows.
        """
        counts = self._count_columns()
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "kind": "SweepResult",
            "layout": "columns",
            "function": self.function,
            "mode": self.mode,
            "engine": self.engine,
            "analyses": self.analyses,
            "params": list(self.param_names),
            "columns": {
                "params": self._param_columns(),
                "counts": {cat: col if isinstance(col, list) else col.tolist()
                           for cat, col in counts.items()},
                "total": _sum_columns(list(counts.values()), len(self)),
                "fp_ins": self._fp_column(counts),
            },
        }


# ---------------------------------------------------------------------------
# model-level sweep (AnalysisResult.sweep)
# ---------------------------------------------------------------------------

def _vector_columns(vec, qname: str, cols: dict, npoints: int,
                    base_env: dict, chunk: int) -> tuple[dict, dict]:
    """Columnar evaluation in chunks: ``(category columns, stats)``."""
    stats = {"chunks": 0, "int64_chunks": 0, "object_chunks": 0}
    parts: list[dict] = []
    base_is_int = all(isinstance(v, int) for v in base_env.values())
    for start in range(0, npoints, chunk):
        sub = {n: c[start:start + chunk] for n, c in cols.items()}
        n_sub = min(chunk, npoints - start)
        use_int64 = (vec.int64_capable and base_is_int and
                     all(c.dtype != object for c in sub.values()))
        if use_int64:
            ivs = {n: (Fraction(int(c.min())), Fraction(int(c.max())))
                   for n, c in sub.items()}
            for k, v in base_env.items():
                ivs[k] = (Fraction(v), Fraction(v))
            use_int64 = vec.int64_safe(qname, ivs)
        cats = None
        if use_int64:
            try:
                cats = vec.evaluate_grid(qname, {**base_env, **sub}, n_sub,
                                         guard_divide=True)
            except FloatingPointError:
                pass  # int64 division by zero: redo exactly
        if cats is None:
            env = {**base_env, **{n: c.astype(object, copy=False)
                                  for n, c in sub.items()}}
            cats = vec.evaluate_grid(qname, env, n_sub)
            stats["object_chunks"] += 1
        else:
            stats["int64_chunks"] += 1
        stats["chunks"] += 1
        parts.append(cats)
    if len(parts) == 1:
        return parts[0], stats
    return ({cat: np.concatenate([p[cat] for p in parts])
             for cat in parts[0]}, stats)


def _model_sweep(result: AnalysisResult, qname: str, names: tuple,
                 cols: dict, npoints: int, base: dict | None, *, mode: str,
                 analyses: int, engine: str, chunk: int) -> SweepResult:
    """:func:`run_model_sweep` over an already normalised grid."""
    if engine not in ("auto", "vector", "scalar"):
        raise ModelError(f"unknown sweep engine {engine!r}; "
                         "expected auto, vector, or scalar")
    base_env = {k: _pyint(v) for k, v in (base or {}).items()}
    cat_cols, stats = None, {}
    if engine != "scalar":
        try:
            vec = result.compiled(engine="vector")
        except VectorizeError as exc:
            reason = str(exc)
        else:
            reason = _vector_refusal(cols, base_env)
        if reason is None:
            cat_cols, stats = _vector_columns(vec, qname, cols, npoints,
                                              base_env, chunk)
        elif engine == "vector":
            raise ModelError(
                f"vector engine cannot evaluate this sweep: {reason}")
    if cat_cols is None:
        compiled = result.compiled()
        cat_cols = _metric_columns(
            [compiled.evaluate(qname, {**base_env, **_env(cols, i)})
             for i in range(npoints)])
    return SweepResult(function=qname, param_names=names,
                       points=_ColumnarPoints(names, cols, cat_cols, npoints),
                       mode=mode, analyses=analyses,
                       fp_categories=tuple(result.arch.fp_arith_categories),
                       analysis=result,
                       engine="vector" if stats else "scalar",
                       vector_stats=stats)


def run_model_sweep(result: AnalysisResult, function: str, grid,
                    base: dict | None = None, *, mode: str = "parametric",
                    analyses: int = 0, engine: str = "auto",
                    chunk: int = DEFAULT_SWEEP_CHUNK) -> SweepResult:
    """Evaluate ``result``'s model of ``function`` at every grid point.

    ``engine="vector"`` evaluates the grid columnar through the numpy
    array-compiled models (errors out when that is impossible);
    ``engine="scalar"`` calls the generated Fig. 5 module once per point;
    ``engine="auto"`` picks vector when available.  All engines produce
    ``Fraction``-identical metrics and the same :meth:`SweepResult.to_dict`
    document, ``engine`` aside.  ``base`` supplies bindings for model
    parameters that are not being swept.
    """
    qname = result._resolve(function)
    names, cols, npoints = _grid_columns(grid)
    return _model_sweep(result, qname, names, cols, npoints, base,
                        mode=mode, analyses=analyses, engine=engine,
                        chunk=chunk)


# ---------------------------------------------------------------------------
# source-level sweep with late binding
# ---------------------------------------------------------------------------

#: The process-wide store behind both sweep paths.  It has no disk tier of
#: its own: each call's config decides whether (and where) to cache on disk.
SWEEP_STORE = ModelStore(capacity=32)


def _resolve_function(result: AnalysisResult, function: str | None):
    """Resolve the sweep target, or None if this result cannot serve it."""
    try:
        return result._resolve(function or "main")
    except ModelError:
        if function is None and result.models:
            return next(iter(result.models))
        return None


def sweep_source(source: str, grid, *, function: str | None = None,
                 config: AnalysisConfig | None = None,
                 filename: str = "<input>",
                 base: dict | None = None,
                 engine: str = "auto") -> SweepResult:
    """Sweep a source file across a parameter grid with one analysis if the
    frontend allows, one *cached* analysis per point otherwise.

    Swept names may be genuine model parameters (dgemm's ``n``), size
    macros (``STREAM_ARRAY_SIZE``), or a mix; the late-binding attempt
    handles the first two uniformly (a self-referential predefine is a
    no-op for a non-macro name) and the fallback covers the rest.
    ``engine`` selects the grid evaluation engine for the parametric path
    (see :func:`run_model_sweep`); the per-point fallback is scalar by
    construction (each point is its own analysis).
    """
    config = config or AnalysisConfig()
    names, cols, npoints = _grid_columns(grid)

    keep = tuple((k, v) for k, v in config.predefined if k not in names)

    # ---- late binding: one symbolic analysis, compiled grid evaluation ----
    sym_cfg = config.with_changes(
        predefined=keep + tuple((n, n) for n in names),
        symbolic_params=tuple(names))
    try:
        entry, origin = SWEEP_STORE.get_or_analyze(source, sym_cfg, filename)
    except MiraError:
        entry = None    # the frontend cannot late-bind these names
    if entry is not None:
        qname = _resolve_function(entry.result, function)
        if qname is not None and \
                set(names) <= set(entry.result.parameters(qname)):
            return _model_sweep(entry.result, qname, names, cols, npoints,
                                base, mode="parametric",
                                analyses=int(origin == "cold"),
                                engine=engine, chunk=DEFAULT_SWEEP_CHUNK)

    # ---- fallback: one stored analysis per point ----
    metrics = []
    analyses = 0
    qname = None
    for i in range(npoints):
        env = _env(cols, i)
        pcfg = config.with_changes(
            predefined=keep + tuple((n, str(v)) for n, v in env.items()))
        entry, origin = SWEEP_STORE.get_or_analyze(source, pcfg, filename)
        analyses += origin == "cold"
        res = entry.result
        qname = _resolve_function(res, function)
        if qname is None:  # raise the detailed ModelError
            res._resolve(function or "main")
        full = {**(base or {}), **env}
        metrics.append(res.evaluate(qname, {
            k: v for k, v in full.items() if k in res.parameters(qname)}))
    points = _ColumnarPoints(names, cols, _metric_columns(metrics), npoints)
    return SweepResult(function=qname, param_names=names, points=points,
                       mode="per-point", analyses=analyses,
                       fp_categories=tuple(config.arch.fp_arith_categories),
                       analysis=None, engine="scalar")
