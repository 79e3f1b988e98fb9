"""Closure-compilation of symbolic expressions.

``Expr.evaluate`` is a recursive tree-walk that allocates a ``Fraction`` per
node: fine for one evaluation, far too slow for the paper's core promise
(Fig. 7: analyze once, evaluate at arbitrary input sizes "for free").  This
module compiles a single expression into a plain Python closure via
``compile()`` on the :mod:`.pycodegen` rendering:

* **integer fast path** — the emitted code uses Python int arithmetic
  (exact) and touches ``Fraction`` only where rational coefficients or
  branch ratios actually appear;
* **closed-form summations** — polynomial-body ``Sum`` nodes are lowered to
  guarded Faulhaber closed forms, turning O(n) summation loops into O(1)
  arithmetic; non-polynomial bodies keep the (fast-path) ``_mira_sum``
  loop;
* **bit-exactness** — compiled evaluation is ``Fraction``-equal to
  ``Expr.evaluate`` on every input, including fractional summation bounds,
  empty ranges, and rational branch-ratio counts.

Whole analyses are not compiled here: their scalar evaluator is the
generated Fig. 5 module itself
(:class:`repro.core.model_generator.CompiledResult`), rendered by the same
:func:`~.pycodegen.expr_to_python`.  :data:`CODEGEN_COUNTS` counts codegen
work for both engines.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from ..errors import SymbolicError
from .expr import Expr
from .pycodegen import expr_to_python

__all__ = ["CODEGEN_COUNTS", "CompiledExpr", "compile_expr",
           "reset_codegen_counters"]

#: Observability counters for codegen work, keyed ``"<engine>_emit"``: one
#: per evaluator source generated from the symbolic models (and exec'd).  The
#: model cache stores no code, so a restored result emits each engine it
#: uses once; tests assert on exactly that.
CODEGEN_COUNTS: Counter = Counter()


def reset_codegen_counters() -> None:
    """Zero :data:`CODEGEN_COUNTS` (test/benchmark isolation)."""
    CODEGEN_COUNTS.clear()


def _mangle(name: str) -> str:
    """Map a model parameter to a collision-free Python local name."""
    return "v_" + name


def _runtime_namespace() -> dict:
    """The helpers a compiled expression may reference.

    Imported lazily: :mod:`repro.core.model_runtime` lives above this
    package in the import graph, and by the time anything is compiled the
    core package is necessarily loaded.
    """
    from ..core.model_runtime import (_mira_ceil, _mira_exact, _mira_floor,
                                      _mira_sum)

    return {
        "Fraction": Fraction,
        "_mira_sum": _mira_sum,
        "_mira_ceil": _mira_ceil,
        "_mira_floor": _mira_floor,
        "_mira_exact": _mira_exact,
    }


# ---------------------------------------------------------------------------
# single-expression compilation
# ---------------------------------------------------------------------------

class CompiledExpr:
    """A compiled :class:`~.expr.Expr`: call with an env mapping, or use
    ``fn`` directly with positional arguments in ``params`` order."""

    __slots__ = ("params", "source", "fn")

    def __init__(self, params: tuple, source: str, fn) -> None:
        self.params = params
        self.source = source
        self.fn = fn

    def __call__(self, env=None):
        env = env or {}
        args = []
        for p in self.params:
            try:
                v = env[p]
            except KeyError:
                raise SymbolicError(f"unbound symbol {p!r}") from None
            if isinstance(v, float):
                raise SymbolicError(
                    f"float binding for {p!r}; use int/Fraction")
            args.append(v)
        return self.fn(*args)

    def __repr__(self) -> str:
        return f"CompiledExpr(params={list(self.params)})"


def compile_expr(e: Expr, params=None, *, name: str = "_mira_expr") -> CompiledExpr:
    """Compile an expression into a Python closure.

    ``params`` fixes the positional argument order of ``.fn`` (defaults to
    the sorted free symbols).  The closure returns an ``int`` on the integer
    fast path and an exact ``Fraction`` otherwise; either way the value is
    ``Fraction``-equal to ``e.evaluate(env)``.
    """
    if params is None:
        params = tuple(sorted(e.free_symbols()))
    else:
        params = tuple(params)
        missing = e.free_symbols() - set(params)
        if missing:
            raise SymbolicError(
                f"compile_expr: free symbols {sorted(missing)} not in params")
    body = expr_to_python(e, rename=_mangle)
    args = ", ".join(_mangle(p) for p in params)
    source = f"def {name}({args}):\n    return {body}\n"
    ns = _runtime_namespace()
    exec(compile(source, f"<mira-compiled:{name}>", "exec"), ns)
    return CompiledExpr(params, source, ns[name])
