"""AnalysisResult: the versioned, serializable product of an analysis.

What a ``Pipeline`` run returns.  It carries the
per-function parametric models, their warnings, per-stage wall times, and —
crucially — a **versioned JSON wire format**: ``to_json``/``from_json``
round-trip everything evaluation needs (symbolic counts included, exact),
so models can be cached, diffed, and served without re-running the
compiler.  A restored result evaluates to bit-identical metrics and
regenerates byte-identical Python model source.  The model source (paper
Fig. 5) is one text with two runtimes: :meth:`AnalysisResult.compiled`
execs exactly the text :meth:`AnalysisResult.python_source` returns, as it
is for the scalar engine and with numpy helpers bound over its runtime
names for the vector engine.  The wire format carries no generated code:
a restored result emits the module from its models the first time it is
used, once for both engines.

``processed`` (both ASTs + the bridge) is a live-run extra for tools that
need the AST — the dynamic profiler, PBound — and is deliberately *not*
serialized: the wire format is the model, not the compiler state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..compiler.arch import ArchDescription, default_arch
from ..errors import ModelError, SchemaError, SymbolicError, VectorizeError
from ..bridge.metrics import CategoryVector
from ..symbolic import expr_from_json, expr_to_json
from .input_processor import ProcessedInput
from .metric_generator import (CallTerm, FunctionModel, MetricTerm,
                               call_graph, topo_order)
from .model_generator import (CompiledResult, compile_model, evaluate_model,
                              generate_model_source)
from .model_runtime import Metrics

__all__ = ["AnalysisResult", "RESULT_SCHEMA_VERSION", "function_payload",
           "restore_function_model"]

RESULT_SCHEMA_VERSION = 1


def _term_to_dict(t: MetricTerm) -> dict:
    return {"line": t.line, "col": t.col, "desc": t.desc,
            "vector": t.vector.as_dict(),
            "count": expr_to_json(t.count)}


def _term_from_dict(d: dict) -> MetricTerm:
    return MetricTerm(line=int(d["line"]), col=int(d["col"]),
                      vector=CategoryVector.from_dict(d["vector"]),
                      count=expr_from_json(d["count"]),
                      desc=d.get("desc", ""))


def _call_to_dict(c: CallTerm) -> dict:
    return {"callee": c.callee, "line": c.line,
            "count": expr_to_json(c.count),
            "args": {p: (expr_to_json(e) if e is not None else None)
                     for p, e in c.arg_exprs.items()}}


def _call_from_dict(d: dict) -> CallTerm:
    return CallTerm(callee=d["callee"], count=expr_from_json(d["count"]),
                    line=int(d["line"]),
                    arg_exprs={p: (expr_from_json(e) if e is not None
                                   else None)
                               for p, e in d.get("args", {}).items()})


def _model_to_dict(m: FunctionModel) -> dict:
    out = {"model_name": m.model_name,
           "params": list(m.params),
           "warnings": list(m.warnings),
           "terms": [_term_to_dict(t) for t in m.terms],
           "calls": [_call_to_dict(c) for c in m.calls]}
    if m.assumptions:
        out["assumptions"] = [expr_to_json(a) for a in m.assumptions]
    return out


def _model_from_dict(qname: str, d: dict) -> FunctionModel:
    return FunctionModel.restored(
        qname, d["model_name"],
        terms=[_term_from_dict(t) for t in d.get("terms", [])],
        calls=[_call_from_dict(c) for c in d.get("calls", [])],
        warnings=list(d.get("warnings", [])),
        params=list(d.get("params", [])),
        assumptions=[expr_from_json(a)
                     for a in d.get("assumptions", [])])


def _object(key: str, value) -> dict:
    """``value``, the document's ``key`` member, which must be an object."""
    if not isinstance(value, dict):
        raise SchemaError(f"AnalysisResult {key!r} must be an object, "
                          f"got {type(value).__name__}")
    return value


def function_payload(m: FunctionModel) -> dict:
    """The JSON-able per-function cache entry (the incremental engine's
    unit payload; see :mod:`repro.core.incremental`)."""
    return {"schema_version": RESULT_SCHEMA_VERSION,
            "kind": "FunctionModel",
            "qname": m.qualified_name,
            "model": _model_to_dict(m)}


def restore_function_model(qname: str, payload) -> FunctionModel | None:
    """Rebuild one cached :class:`FunctionModel`, or None when the payload
    is missing, stale, or does not name ``qname`` (treated as a miss)."""
    if not isinstance(payload, dict) \
            or payload.get("kind") != "FunctionModel" \
            or payload.get("schema_version") != RESULT_SCHEMA_VERSION \
            or payload.get("qname") != qname:
        return None
    try:
        return _model_from_dict(qname, payload["model"])
    except (KeyError, TypeError, ValueError, AttributeError, SchemaError,
            SymbolicError):
        return None


@dataclass
class AnalysisResult:
    """Parametric models for every function, plus run metadata."""

    models: dict = field(default_factory=dict)   # qualified name -> FunctionModel
    arch: ArchDescription = field(default_factory=default_arch)
    processed: ProcessedInput | None = None      # live runs only; not serialized
    source_name: str = "<input>"
    opt_level: int = 2
    fingerprint: str = ""
    stage_timings: dict = field(default_factory=dict)  # stage -> seconds
    #: Functions restored from the per-function cache by an incremental run
    #: (run metadata, like stage_timings: not part of the wire format).
    restored_functions: tuple = ()
    # Memos of the module emitted from ``models``; derived, so not compared.
    _source_cache: tuple | None = field(default=None, compare=False,
                                        repr=False)    # (text, uses)
    _compiled_cache: dict | None = field(default=None, compare=False,
                                         repr=False)   # engine -> compiled

    # -- evaluation ---------------------------------------------------------------
    def evaluate(self, function: str, params: dict | None = None) -> Metrics:
        """Evaluate the model of ``function`` with parameter bindings.

        This is the interpreted reference path (a symbolic tree-walk).  For
        repeated evaluation — parameter sweeps, serving — use
        :meth:`evaluate_compiled` / :meth:`sweep`, which are
        ``Fraction``-equal but orders of magnitude faster per call.
        """
        qname = self._resolve(function)
        return evaluate_model(self.models, qname, params)

    def compiled(self, *, engine: str = "scalar"):
        """The compiled models, memoized per codegen engine.

        ``engine="scalar"`` returns a
        :class:`repro.core.model_generator.CompiledResult`, the exec'd
        :meth:`python_source` module; ``engine="vector"`` a
        :class:`repro.symbolic.veccompile.VecCompiledResult`, the same
        module run over numpy columns, or raises
        :class:`~repro.errors.VectorizeError` when the models have no
        vector form.  Either way the build happens at most
        once per result — repeated ``.sweep()``/``mira sweep`` calls reuse
        the cached object (a non-vectorizable verdict is cached too).
        """
        if engine not in ("scalar", "vector"):
            raise ModelError(f"unknown codegen engine {engine!r}")
        cache = self._compiled_memo()
        hit = cache.get(engine)
        if hit is not None:
            if isinstance(hit, Exception):
                raise hit
            return hit
        try:
            compiled = self._build_compiled(engine)
        except VectorizeError as exc:
            cache[engine] = exc
            raise
        cache[engine] = compiled
        return compiled

    def _compiled_memo(self) -> dict:
        cache = self._compiled_cache
        if cache is None:
            cache = {}
            object.__setattr__(self, "_compiled_cache", cache)
        return cache

    def _build_compiled(self, engine: str):
        text, uses = self._module()
        if engine == "vector":
            from ..symbolic.veccompile import VecCompiledResult

            return VecCompiledResult(self.models, text, uses)
        return CompiledResult(self.models, text)

    def evaluate_compiled(self, function: str,
                          params: dict | None = None) -> Metrics:
        """Compiled evaluation: identical metrics to :meth:`evaluate`, at a
        fraction of the per-call cost."""
        return self.compiled().evaluate(self._resolve(function), params)

    def sweep(self, function: str, grid, base: dict | None = None, *,
              engine: str = "auto"):
        """Evaluate ``function`` at every point of a parameter grid.

        One compile, then microseconds per point — the paper's "analyze
        once, evaluate anywhere" promise (Fig. 7).  ``grid`` maps parameter
        names to value lists (multiple axes form their cartesian product)
        or is an explicit list of point dicts; ``base`` binds the
        non-swept parameters.  ``engine`` selects the evaluation strategy:
        ``"vector"`` (columnar numpy evaluation), ``"scalar"`` (one call of
        the generated model per point), or ``"auto"`` (vector when possible, scalar otherwise).
        Returns a :class:`repro.core.sweep.SweepResult`.
        """
        from .sweep import run_model_sweep

        return run_model_sweep(self, function, grid, base=base,
                               engine=engine)

    def parameters(self, function: str) -> list[str]:
        return self.models[self._resolve(function)].params

    def assumptions(self, function: str) -> list:
        """Validity-domain expressions for ``function``: the model's counts
        are exact only where every returned expression is >= 0 (unproven
        well-formed-loop extents, own and inherited from callees)."""
        return list(self.models[self._resolve(function)].assumptions)

    def warnings(self, function: str | None = None) -> list[str]:
        if function is not None:
            return list(self.models[self._resolve(function)].warnings)
        out: list[str] = []
        for q, m in self.models.items():
            out.extend(f"{q}: {w}" for w in m.warnings)
        return out

    def fp_instructions(self, function: str, params: dict | None = None) -> int:
        """Floating-point instruction count (PAPI_FP_INS analog, Tables
        III-V)."""
        return self.evaluate(function, params).fp_instructions(
            self.arch.fp_arith_categories)

    def categorized_counts(self, function: str,
                           params: dict | None = None) -> dict[str, int]:
        """Per-category instruction counts (paper Table II)."""
        return self.evaluate(function, params).as_dict()

    # -- code generation ------------------------------------------------------------
    def python_source(self) -> str:
        """The generated model module (paper Fig. 5), which is also both
        evaluators' source; emitted once from the models."""
        return self._module()[0]

    def _module(self) -> tuple:
        """``(text, uses)``: the module and what its functions need (see
        :func:`~repro.symbolic.expr_to_python`)."""
        if self._source_cache is None:
            name = (self.processed.tu.filename
                    if self.processed is not None else self.source_name)
            uses: set = set()
            text = generate_model_source(self.models, self.arch, name,
                                         uses=uses)
            self._source_cache = (text, frozenset(uses))
        return self._source_cache

    def compiled_module(self) -> dict:
        return compile_model(self.python_source())

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.python_source())

    # -- serialization ------------------------------------------------------------
    def to_dict(self) -> dict:
        """The versioned wire format (see :data:`RESULT_SCHEMA_VERSION`)."""
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "kind": "AnalysisResult",
            "source": (self.processed.tu.filename
                       if self.processed is not None else self.source_name),
            "opt_level": self.opt_level,
            "fingerprint": self.fingerprint,
            "arch": json.loads(self.arch.to_json()),
            "stage_timings": {k: round(v, 6)
                              for k, v in self.stage_timings.items()},
            "functions": {q: _model_to_dict(m)
                          for q, m in self.models.items()},
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @staticmethod
    def from_dict(d: dict) -> "AnalysisResult":
        if not isinstance(d, dict):
            raise SchemaError("AnalysisResult document must be an object")
        kind = d.get("kind", "AnalysisResult")
        if kind != "AnalysisResult":
            raise SchemaError(f"expected an AnalysisResult document, "
                              f"got kind {kind!r}")
        version = d.get("schema_version")
        if version != RESULT_SCHEMA_VERSION:
            raise SchemaError(
                f"unsupported AnalysisResult schema version {version!r} "
                f"(this build reads version {RESULT_SCHEMA_VERSION})")
        arch_doc = d.get("arch")
        arch = (default_arch() if arch_doc is None else
                ArchDescription.from_json(json.dumps(_object("arch",
                                                             arch_doc))))
        functions = _object("functions", d.get("functions", {}))
        timings = _object("stage_timings", d.get("stage_timings", {}))
        try:
            models = {q: _model_from_dict(q, m) for q, m in functions.items()}
        except (KeyError, TypeError, ValueError, AttributeError,
                SymbolicError) as exc:
            raise SchemaError(
                f"malformed AnalysisResult functions payload: {exc}") \
                from None
        try:
            topo_order(call_graph(models))
        except ModelError as exc:
            raise SchemaError(
                f"malformed AnalysisResult call graph: {exc}") from None
        return AnalysisResult(
            models=models, arch=arch,
            source_name=d.get("source", "<input>"),
            opt_level=d.get("opt_level", 2),
            fingerprint=d.get("fingerprint", ""),
            stage_timings=dict(timings))

    @staticmethod
    def from_json(text: str) -> "AnalysisResult":
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise SchemaError(f"AnalysisResult is not valid JSON: {exc}") \
                from None
        return AnalysisResult.from_dict(doc)

    # -- helpers ------------------------------------------------------------------
    def _resolve(self, function: str) -> str:
        if function in self.models:
            return function
        matches = [q for q in self.models
                   if q == function or q.endswith(f"::{function}")
                   or self.models[q].model_name == function]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise ModelError(f"no model for function {function!r}; "
                             f"available: {sorted(self.models)}")
        raise ModelError(f"ambiguous function {function!r}: {matches}")

    def function_models(self) -> dict[str, FunctionModel]:
        return dict(self.models)

    def fresh_functions(self) -> list[str]:
        """Functions actually (re-)analyzed by the run that produced this
        result (everything not served from the per-function cache)."""
        return sorted(set(self.models) - set(self.restored_functions))

    # -- diffing ------------------------------------------------------------------
    def diff(self, other: "AnalysisResult"):
        """Symbolic model diff against another result.

        Per-function deltas (added/removed/changed) with per-category
        symbolic before→after expressions and a polynomial-degree /
        leading-coefficient classification; returns a
        :class:`repro.symbolic.diff.ResultDiff`."""
        from ..symbolic.diff import diff_results

        return diff_results(self, other)
