"""Model Generator (paper Fig. 1 third stage, Fig. 5 output format).

Consumes the metric generator's :class:`FunctionModel` objects and produces
the **executable Python model**: one Python function per source function
(named ``<Class>_<name>_<nargs>``), each returning a ``Metrics`` object; call
sites are combined with ``handle_function_call``; unknown quantities are
function parameters, with call-site-specific parameters named ``<var>_<line>``
exactly as the paper's ``y_16``.

The module :func:`generate_model_source` writes is the one text both
evaluators run: :class:`CompiledResult` execs it as it is (the scalar
evaluator), and :class:`~repro.symbolic.veccompile.VecCompiledResult`
execs it with numpy helpers bound over its runtime names (the vector
evaluator).  It is emitted on first use, once per result: the cache stores
the models.  :func:`evaluate_model`, a walk of the symbolic terms with no
codegen, fills a cold analysis's summaries and is the oracle the module is
tested against; all three return equal counts of equal types.

Three emission rules make the module fit to evaluate with:

* sums are rendered as exact Faulhaber closed forms, with the
  ``_mira_sum`` loop only for non-polynomial bodies;
* each distinct category vector is written once, as a module constant;
* names never collide.  A parameter keeps its source name when that is a
  plain identifier the module does not use itself; otherwise it is
  emitted as ``_p_<name>`` (``_q_<hex>`` when it is no identifier at all),
  and every name the module makes up starts with ``_``.  Model functions
  take and pass arguments by position, in ``PARAMETERS`` order.
"""

from __future__ import annotations

import io
import keyword
import re

from ..compiler.arch import ArchDescription
from ..errors import ModelError, SymbolicError
from ..symbolic import Expr, expr_to_python
from ..symbolic.compile import CODEGEN_COUNTS
from .metric_generator import CallTerm, FunctionModel, call_graph, topo_order
from .model_runtime import Metrics, _mira_exact, handle_function_call

__all__ = ["CompiledResult", "bound_model", "call_args", "compile_model",
           "evaluate_model", "generate_model_source"]


def bound_model(models: dict[str, FunctionModel], qname: str,
                env) -> FunctionModel:
    """The model of ``qname``, checked to have every parameter bound in
    ``env``: the binding check all three evaluators share."""
    m = models.get(qname)
    if m is None:
        raise ModelError(f"no model for function {qname!r}")
    missing = [p for p in m.params if p not in env]
    if missing:
        raise ModelError(
            f"model {m.model_name} missing parameter(s) {missing}; "
            f"required: {m.params}")
    return m


# ---------------------------------------------------------------------------
# Direct evaluation
# ---------------------------------------------------------------------------

def evaluate_model(models: dict[str, FunctionModel], qname: str,
                   env: dict | None = None) -> Metrics:
    """Evaluate a function model with parameter bindings ``env``.

    Each callee is evaluated at its :func:`call_args`, which read
    call-site parameters (``y_16``) from the same ``env``.
    """
    env = dict(env or {})
    m = bound_model(models, qname, env)
    out = Metrics()
    for t in m.terms:
        out.add(t.vector.as_dict(), _mira_exact(t.count.evaluate(env)))
    for c in m.calls:
        args = call_args(models, m, c)
        sub_env = {p: a.evaluate(env)
                   for p, a in zip(models[c.callee].params, args)}
        callee_metrics = evaluate_model(models, c.callee, sub_env)
        handle_function_call(out, callee_metrics,
                             _mira_exact(c.count.evaluate(env)))
    return out


def call_args(models: dict[str, FunctionModel], caller: FunctionModel,
              c: CallTerm) -> list[Expr]:
    """The caller-side expressions call ``c`` binds to its callee's
    parameters, in the callee's ``params`` order (:meth:`CallTerm.binding`).

    Raises :class:`ModelError` when a binding names a symbol that is not
    a ``caller`` parameter (only a hand-edited document gets here: the
    closure pass makes every binding's symbols caller parameters).  All
    three evaluators raise it at this call: the tree walk directly, the
    emitter as code that raises when the call is evaluated, and the
    vector engine's int64 precheck skips the call for that reason.
    """
    callee = models.get(c.callee)
    if callee is None:
        raise ModelError(f"call to unmodeled function {c.callee!r}")
    have = set(caller.params)
    args = []
    for p in callee.params:
        bound = c.binding(p)
        missing = bound.free_symbols() - have
        if missing:
            raise ModelError(
                f"call at line {c.line}: no binding for callee "
                f"parameter {p!r} (expected env key {min(missing)!r})")
        args.append(bound)
    return args


# ---------------------------------------------------------------------------
# Python code generation
# ---------------------------------------------------------------------------

_PLAIN = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_WORD = re.compile(r"\w+\Z", re.ASCII)

#: Names a model function's body uses besides its own parameters: the
#: builtins it calls and the module's globals.
_MODULE_NAMES = frozenset({
    "Fraction", "Metrics", "handle_function_call", "metrics", "max", "min",
    "MODEL_FUNCTIONS", "PARAMETERS", "MIRA_FP_CATEGORIES",
    "MIRA_FP_DATA_CATEGORIES"})


def _plain(name: str, taken) -> bool:
    """``name`` can be emitted as it is: an identifier starting with a
    letter, not a keyword, and not a name the module already uses."""
    return (_PLAIN.match(name) is not None and not keyword.iskeyword(name)
            and name not in _MODULE_NAMES and name not in taken)


def _function_names(models: dict, order: list) -> dict:
    """qname -> emitted function name: the model name, or ``_mira_fn_<i>``
    when that name is not plain or already taken."""
    names: dict = {}
    for i, q in enumerate(order):
        name = models[q].model_name
        if not _plain(name, names.values()):
            name = f"_mira_fn_{i}"
        names[q] = name
    return names


def _param_namer(function_names: set):
    """An injective map from parameter names to Python identifiers.

    Plain names map to themselves; all others get a prefix starting with
    ``_``, which no plain name has, and distinct names keep distinct
    suffixes."""
    cache: dict = {}

    def py(name: str) -> str:
        out = cache.get(name)
        if out is None:
            if _plain(name, function_names):
                out = name
            elif _WORD.match(name):
                out = "_p_" + name
            else:
                out = "_q_" + name.encode().hex()
            cache[name] = out
        return out

    return py


def _text(s: str) -> str:
    """``s`` escaped to sit on one line of a comment or a triple-quoted
    string: names and file names come from outside the program."""
    return s.encode("unicode_escape").decode("ascii").replace('"', '\\"')


def generate_model_source(models: dict[str, FunctionModel],
                          arch: ArchDescription,
                          source_name: str = "<input>", *,
                          uses: set | None = None) -> str:
    """Render the full Python model module (paper Fig. 5).

    ``uses``, when a set, collects what the model functions need beyond
    plain arithmetic (see :func:`~repro.symbolic.expr_to_python`)."""
    order = topo_order(call_graph(models))
    fn_names = _function_names(models, order)
    py = _param_namer(set(fn_names.values()))
    vectors: dict = {}                   # vector items -> constant name
    body = io.StringIO()
    for qname in order:
        _emit_function(body.write, models, qname, fn_names, py, vectors,
                       uses)

    out = io.StringIO()
    w = out.write
    w('"""Performance model generated statically by Mira.\n\n')
    w(f"source: {_text(source_name)}\n")
    w(f"architecture: {_text(arch.name)}\n")
    w('Evaluate by calling the per-function model functions; parameters\n')
    w('are loop bounds / annotation variables the static analysis preserved\n')
    w('(paper III-C: "the parametric expression exists in the model").\n')
    w('"""\n\n')
    w("from fractions import Fraction\n")
    w("from repro.core.model_runtime import (Metrics, handle_function_call,\n"
      "    _mira_ceil, _mira_error, _mira_exact, _mira_floor, _mira_scaled,\n"
      "    _mira_sum, _mira_where)\n\n")
    w(f"MIRA_FP_CATEGORIES = {arch.fp_arith_categories!r}\n")
    w(f"MIRA_FP_DATA_CATEGORIES = {arch.fp_data_categories!r}\n\n")
    for items, cname in vectors.items():
        w(f"{cname} = {dict(items)!r}\n")
    w("\n\n")
    w(body.getvalue())

    w("\nMODEL_FUNCTIONS = {\n")
    for qname in order:
        w(f"    {qname!r}: {fn_names[qname]},\n")
    w("}\n\n")
    w("PARAMETERS = {\n")
    for qname in order:
        w(f"    {qname!r}: {models[qname].params!r},\n")
    w("}\n\n")
    w(_MAIN_STUB)
    CODEGEN_COUNTS["module_emit"] += 1
    return out.getvalue()


def _emit_function(w, models: dict, qname: str, fn_names: dict, py,
                   vectors: dict, uses) -> None:
    m = models[qname]

    def count(e: Expr) -> str:
        return expr_to_python(e, rename=py, uses=uses)

    w(f"def {fn_names[qname]}({', '.join(map(py, m.params))}):\n")
    doc = f"Model of {qname!r}"
    if m.warnings:
        doc += " (warnings: " + "; ".join(m.warnings) + ")"
    w(f"    {doc + '.'!r}\n")
    w("    metrics = Metrics()\n")
    for t in m.terms:
        vec = t.vector.as_dict()
        if not vec:
            continue
        key = tuple(vec.items())
        cname = vectors.get(key)
        if cname is None:
            cname = vectors[key] = f"_VEC{len(vectors)}"
        w(f"    # line {t.line}:{t.col} [{_text(t.desc)}]\n")
        w(f"    metrics.add({cname}, {count(t.count)})\n")
    for i, c in enumerate(m.calls):
        w(f"    # call {_text(c.callee)} at line {c.line}\n")
        try:
            args = call_args(models, m, c)
        except ModelError as exc:
            w(f"    _mira_error({str(exc)!r})\n")
            continue
        w(f"    _callee_{i} = {fn_names[c.callee]}"
          f"({', '.join(map(count, args))})\n")
        w(f"    handle_function_call(metrics, _callee_{i}, "
          f"{count(c.count)})\n")
    w("    return metrics\n\n")


_MAIN_STUB = '''\
if __name__ == "__main__":
    from repro.core.model_runtime import run_model_script

    run_model_script(MODEL_FUNCTIONS, PARAMETERS, MIRA_FP_CATEGORIES)
'''


def compile_model(source: str) -> dict:
    """Exec a generated model module and return its namespace."""
    ns: dict = {}
    exec(compile(source, "<mira-model>", "exec"), ns)
    return ns


# ---------------------------------------------------------------------------
# The scalar evaluator
# ---------------------------------------------------------------------------

class CompiledResult:
    """A generated model module, exec'd: the scalar evaluator.

    ``evaluate(qualified_name, params)`` is a drop-in replacement for
    :func:`evaluate_model`: same parameter checking, same errors,
    ``Fraction``-equal metrics, at a fraction of the cost per call.  Build
    once (see ``AnalysisResult.compiled``), evaluate at thousands of
    parameter points.  ``source`` is the module
    :func:`generate_model_source` rendered from ``models``.
    """

    __slots__ = ("models", "source", "_fns")

    def __init__(self, models: dict, source: str) -> None:
        self.models = models
        self.source = source
        self._fns = compile_model(source)["MODEL_FUNCTIONS"]

    def evaluate(self, qname: str, params=None) -> Metrics:
        """Evaluate one function's model; returns ``Metrics``."""
        env = params or {}
        m = bound_model(self.models, qname, env)
        args = [env[p] for p in m.params]
        for p, v in zip(m.params, args):
            if isinstance(v, float):
                raise SymbolicError(
                    f"float binding for {p!r}; use int/Fraction")
        return self._fns[qname](*args)

    def __repr__(self) -> str:
        return f"CompiledResult({len(self.models)} function(s))"
