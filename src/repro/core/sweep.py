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
    array-compiled models of :mod:`repro.symbolic.veccompile`: the grid is
    expanded into parameter *columns* (never a Python dict per point),
    evaluated in chunks on the int64 fast path when the overflow precheck
    allows (object dtype otherwise — always bit-exact), and
    ``SweepPoint``/``Metrics`` objects are materialized lazily on access.
  - ``engine="scalar"`` — one closure call per grid point (PR 4 behavior).
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
  its generated evaluator source, skipping pipeline *and* closure
  compilation.

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
from itertools import product, repeat

from ..errors import MiraError, ModelError, VectorizeError
from .config import AnalysisConfig
from .result import RESULT_SCHEMA_VERSION, AnalysisResult
from .store import ModelStore

__all__ = ["SweepPoint", "SweepResult", "expand_grid", "run_model_sweep",
           "sweep_rows", "sweep_source", "DEFAULT_SWEEP_CHUNK", "SWEEP_STORE"]

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

def expand_grid(grid) -> tuple[tuple, list]:
    """Normalize a sweep grid into ``(param_names, point_envs)``.

    ``grid`` is either a mapping ``name -> value(s)`` (scalars are treated
    as one-element axes; multiple axes expand to their cartesian product in
    row-major order) or an explicit sequence of point dicts.  Numpy integer
    scalars are converted to Python ints so closure evaluation stays exact.
    """
    if isinstance(grid, (list, tuple)):
        envs = [{k: _pyint(v) for k, v in g.items()} for g in grid]
        if not envs:
            raise ModelError("sweep grid has no points")
        names: list = []
        for g in envs:
            for k in g:
                if k not in names:
                    names.append(k)
        return tuple(names), envs
    if not isinstance(grid, dict) or not grid:
        raise ModelError(
            "sweep grid must be a non-empty mapping of parameter values "
            "or a sequence of point dicts")
    names = tuple(grid.keys())
    axes = []
    for n in names:
        v = grid[n]
        if isinstance(v, (int, Fraction)):
            v = [v]
        axis = [_pyint(x) for x in v]
        if not axis:
            raise ModelError(f"sweep axis {n!r} has no values")
        axes.append(axis)
    return names, [dict(zip(names, combo)) for combo in product(*axes)]


class _VectorFallback(Exception):
    """Internal: this sweep cannot use the vector engine (reason attached).

    Under ``engine="auto"`` the caller silently switches to the scalar
    engine; under ``engine="vector"`` the reason surfaces as a ModelError.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _axis_column(name: str, values, np):
    """One grid axis as an int64 or object ndarray, exactly."""
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise _VectorFallback(f"axis {name!r} is not one-dimensional")
        if values.dtype.kind == "f":
            raise _VectorFallback(
                f"axis {name!r} is float-valued; exact engines need "
                "int/Fraction")
        if values.dtype == object:
            vals = list(values)
        elif values.dtype.kind in "iu":
            try:
                return values.astype(np.int64, casting="safe", copy=False)
            except TypeError:
                vals = [int(x) for x in values]
        else:
            raise _VectorFallback(
                f"axis {name!r} has unsupported dtype {values.dtype}")
    else:
        vals = list(values)
    out_vals = []
    for x in vals:
        x = _pyint(x)
        if isinstance(x, float):
            raise _VectorFallback(
                f"axis {name!r} is float-valued; exact engines need "
                "int/Fraction")
        if not isinstance(x, (int, Fraction)):
            raise _VectorFallback(
                f"axis {name!r} has non-numeric value {x!r}")
        out_vals.append(x)
    if not out_vals:
        raise ModelError(f"sweep axis {name!r} has no values")
    if all(isinstance(x, int) for x in out_vals):
        try:
            return np.array(out_vals, dtype=np.int64)
        except OverflowError:
            pass
    col = np.empty(len(out_vals), dtype=object)
    col[:] = out_vals
    return col


def _grid_columns(grid, np) -> tuple[tuple, dict, int]:
    """Expand a grid into ``(names, {name: column}, npoints)`` without
    building a Python dict per point.  Cartesian products are realized with
    ``np.repeat``/``np.tile`` on whole axis arrays."""
    if isinstance(grid, (list, tuple)):
        if not grid:
            raise ModelError("sweep grid has no points")
        envs = [dict(g) for g in grid]
        names = tuple(envs[0].keys())
        for g in envs:
            if tuple(g.keys()) != names:
                raise _VectorFallback(
                    "explicit point list has heterogeneous keys")
        cols = {n: _axis_column(n, [g[n] for g in envs], np) for n in names}
        return names, cols, len(envs)
    if not isinstance(grid, dict) or not grid:
        raise ModelError(
            "sweep grid must be a non-empty mapping of parameter values "
            "or a sequence of point dicts")
    names = tuple(grid.keys())
    arrays = []
    for n in names:
        v = grid[n]
        if isinstance(v, (int, Fraction)):
            v = [v]
        arrays.append(_axis_column(n, v, np))
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


class _ColumnarPoints:
    """Lazy ``SweepPoint`` sequence over columnar sweep output.

    Nothing is materialized until accessed; iterating the whole sequence
    builds one ``SweepPoint`` + ``Metrics`` per step, with values identical
    to what the scalar engine would have produced (exact ints/Fractions;
    exact-zero categories are dropped, matching ``Metrics.add``'s
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

        env = {name: _exact_value(col[i])
               for name, col in self.param_cols.items()}
        m = Metrics()
        counts = m.counts
        for cat, col in self.cat_cols.items():
            v = _exact_value(col[i])
            if v:
                counts[cat] = v
        return SweepPoint(env=env, metrics=m)

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
    """A swept value on the wire: ints stay ints, Fractions become str."""
    return v if isinstance(v, int) else str(v)


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
    ``"scalar"``); vector sweeps keep their per-category count columns and
    materialize ``points`` lazily, with ``vector_stats`` counting how many
    chunks ran in int64 versus object dtype.
    """

    function: str                 # resolved qualified name
    param_names: tuple
    points: object = field(default_factory=list)
    mode: str = "parametric"
    analyses: int = 0
    fp_categories: tuple = ()
    analysis: AnalysisResult | None = None   # the parametric result, if any
    engine: str = "scalar"
    vector_stats: dict = field(default_factory=dict)
    _columns: dict | None = None             # category -> count column

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def _count_columns(self) -> dict:
        """Category -> rounded per-point counts; vector sweeps read their
        columns directly (int64 columns stay ndarrays)."""
        if self._columns is not None:
            return {cat: col if _is_int64(col) else [_rounded(v) for v in col]
                    for cat, col in self._columns.items()}
        rows = [p.metrics.as_dict() for p in self.points]
        cats = dict.fromkeys(c for r in rows for c in r)
        return {cat: [r.get(cat, 0) for r in rows] for cat in cats}

    def _param_columns(self) -> dict:
        """Swept name -> per-point wire values (``None`` where an explicit
        point list leaves the name unbound)."""
        if self._columns is not None:
            return {name: col.tolist() if _is_int64(col)
                    else [_jsonable(_exact_value(v)) for v in col]
                    for name, col in self.points.param_cols.items()}
        return {name: [_jsonable(p.env[name]) if name in p.env else None
                       for p in self.points]
                for name in self.param_names}

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
        category (rounded as ``Metrics.as_dict`` rounds, zeros kept), and
        ``total`` and ``fp_ins``.  A vector sweep is encoded straight from
        its count columns, with no per-point object; :func:`sweep_rows`
        expands the document into per-point rows.
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

def _to_object_col(col, np):
    if isinstance(col, np.ndarray) and col.dtype == object:
        return col
    return col.astype(object)


def _run_vector_sweep(result: AnalysisResult, qname: str, grid,
                      base: dict | None, mode: str, analyses: int,
                      chunk: int) -> SweepResult:
    """Columnar evaluation; raises _VectorFallback when unavailable."""
    try:
        from ..symbolic.veccompile import HAVE_NUMPY, np
    except Exception as exc:  # pragma: no cover - defensive
        raise _VectorFallback(f"vector runtime unavailable: {exc}") from exc
    if not HAVE_NUMPY:
        raise _VectorFallback("numpy is not available")
    try:
        vec = result.compiled(engine="vector")
    except VectorizeError as exc:
        raise _VectorFallback(str(exc)) from exc

    names, cols, npoints = _grid_columns(grid, np)
    base_env = {k: _pyint(v) for k, v in (base or {}).items()}
    for k, v in base_env.items():
        if isinstance(v, float):
            # the scalar engine decides float semantics (SymbolicError when
            # the binding is actually a model parameter, ignored otherwise)
            raise _VectorFallback(f"base binding {k!r} is float-valued")

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
            env = dict(base_env)
            env.update(sub)
            try:
                cats = vec.evaluate_grid(qname, env, n_sub,
                                         guard_divide=True)
            except FloatingPointError:
                cats = None  # int64 division by zero: redo exactly
        if cats is None:
            env = dict(base_env)
            for n, c in sub.items():
                env[n] = _to_object_col(c, np)
            cats = vec.evaluate_grid(qname, env, n_sub)
            stats["object_chunks"] += 1
        else:
            stats["int64_chunks"] += 1
        stats["chunks"] += 1
        parts.append(cats)

    if len(parts) == 1:
        cat_cols = parts[0]
    else:
        cat_cols = {cat: np.concatenate([p[cat] for p in parts])
                    for cat in parts[0]}
    points = _ColumnarPoints(names, cols, cat_cols, npoints)
    return SweepResult(function=qname, param_names=names, points=points,
                       mode=mode, analyses=analyses,
                       fp_categories=tuple(result.arch.fp_arith_categories),
                       analysis=result, engine="vector",
                       vector_stats=stats, _columns=cat_cols)


def run_model_sweep(result: AnalysisResult, function: str, grid,
                    base: dict | None = None, *, mode: str = "parametric",
                    analyses: int = 0, engine: str = "auto",
                    chunk: int = DEFAULT_SWEEP_CHUNK) -> SweepResult:
    """Evaluate ``result``'s model of ``function`` at every grid point.

    ``engine="vector"`` evaluates the grid columnar through the numpy
    array-compiled models (errors out when that is impossible);
    ``engine="scalar"`` calls the closure-compiled model once per point;
    ``engine="auto"`` picks vector when available.  All engines produce
    ``Fraction``-identical metrics.  ``base`` supplies bindings for model
    parameters that are not being swept.
    """
    if engine not in ("auto", "vector", "scalar"):
        raise ModelError(f"unknown sweep engine {engine!r}; "
                         "expected auto, vector, or scalar")
    qname = result._resolve(function)
    if engine != "scalar":
        try:
            return _run_vector_sweep(result, qname, grid, base, mode,
                                     analyses, chunk)
        except _VectorFallback as exc:
            if engine == "vector":
                raise ModelError(
                    f"vector engine cannot evaluate this sweep: "
                    f"{exc.reason}") from exc
    names, envs = expand_grid(grid)
    compiled = result.compiled()
    points = []
    for env in envs:
        full = dict(base or {})
        full.update(env)
        points.append(SweepPoint(env=dict(env),
                                 metrics=compiled.evaluate(qname, full)))
    return SweepResult(function=qname, param_names=names, points=points,
                       mode=mode, analyses=analyses,
                       fp_categories=tuple(result.arch.fp_arith_categories),
                       analysis=result, engine="scalar")


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
    names, envs = expand_grid(grid)

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
            return run_model_sweep(entry.result, qname, grid, base=base,
                                   mode="parametric",
                                   analyses=int(origin == "cold"),
                                   engine=engine)

    # ---- fallback: one stored analysis per point ----
    points = []
    analyses = 0
    qname_out = None
    fp_categories = tuple(config.arch.fp_arith_categories)
    for env in envs:
        pcfg = config.with_changes(
            predefined=keep + tuple((n, str(env[n])) for n in names
                                    if n in env))
        entry, origin = SWEEP_STORE.get_or_analyze(source, pcfg, filename)
        analyses += origin == "cold"
        res = entry.result
        qname = _resolve_function(res, function)
        if qname is None:  # raise the detailed ModelError
            res._resolve(function or "main")
        qname_out = qname
        full = dict(base or {})
        full.update(env)
        eval_env = {k: v for k, v in full.items()
                    if k in res.parameters(qname)}
        points.append(SweepPoint(env=dict(env),
                                 metrics=res.evaluate(qname, eval_env)))
    return SweepResult(function=qname_out, param_names=names, points=points,
                       mode="per-point", analyses=analyses,
                       fp_categories=fp_categories, analysis=None,
                       engine="scalar")
