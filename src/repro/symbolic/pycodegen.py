"""Emit Python source code for symbolic expressions.

Mira's output is an executable Python model (paper Fig. 5), and that one
text serves two runtimes: exec'd as it is, it is the scalar evaluator;
with numpy helpers bound over its runtime names, it is the vector evaluator
(:mod:`.veccompile`).  Parametric iteration-count expressions are rendered
as Python code that evaluates exactly.  Rational coefficients are emitted
as ``Fraction`` calls (the generated model imports ``Fraction`` from the
standard library), and the lazy ``Sum`` fallback is rendered as a call to
the ``_mira_sum`` helper from :mod:`repro.core.model_runtime`.

A ``Sum`` with a polynomial body is lowered to an exact Faulhaber closed
form guarded by a runtime empty-range check (``ceil(lo) > floor(hi)`` → 0),
which equals ``Sum.evaluate`` for *every* input, including reversed and
fractional bounds.  The guard is the call ``_mira_where(lo <= hi, cf, 0)``,
not a conditional expression, so that it also runs on arrays.  When the
body has integer coefficients the closed form is written scaled,
``_mira_scaled(D * cf, D)`` (:func:`sum_lowering`), so that it needs no
``Fraction`` and stays on the vector engine's int64 fast path.
Non-polynomial bodies keep the loop, which only the scalar runtime runs.
"""

from __future__ import annotations

from math import lcm

from .expr import (SUM_HI as _CF_HI, SUM_LO as _CF_LO, Add, Expr, FloorDiv,
                   Int, Max, Min, Mul, Pow, Sum, Sym, as_expr)
from .poly import expr_to_poly

__all__ = ["expr_to_python", "sum_lowering"]


def expr_to_python(e: Expr, *, rename=None, uses=None) -> str:
    """Render an Expr as a Python expression string.

    The string assumes ``from fractions import Fraction`` and the
    ``_mira_sum``/``_mira_ceil``/``_mira_floor``/``_mira_exact``/
    ``_mira_scaled``/``_mira_where`` helpers are in scope (the model
    generator emits them in the model preamble; all are exported by
    :mod:`repro.core.model_runtime`).

    ``rename`` optionally maps symbol names to emitted identifiers (the
    model generator uses it to turn model parameters into collision-free
    Python names); it must be injective.  Summation
    variables are renamed too, and bound by the emitted lambda itself,
    mirroring how ``Sum.evaluate`` shadows the environment.

    ``uses``, when a set, collects what the text needs that the vector
    runtime cares about: ``"Fraction"`` when it writes a ``Fraction``
    literal (no int64 fast path) and ``"_mira_sum"`` when it writes a
    summation loop (no vector form at all).
    """
    return _emit(e, rename, uses if uses is not None else set())


def sum_lowering(e: Sum) -> tuple[Expr, int] | None:
    """How the closed form of ``e`` is emitted: ``(scaled, d)``, the value
    being ``scaled / d`` over the snapped bounds ``SUM_LO..SUM_HI``; None
    when ``e`` has no closed form (the loop is emitted instead).

    For a body with integer coefficients, ``d`` is the lcm of the closed
    form's coefficient denominators and ``scaled = d * cf`` has integer
    coefficients, so at integer bindings every value computed is an
    integer.  Otherwise ``d`` is 1 and ``scaled`` is the closed form.  The
    emitter writes this, and the vector engine's int64 precheck bounds it.
    """
    cf = e.closed_form()
    if cf is None:
        return None
    body_p = expr_to_poly(e.body)
    if any(c.denominator != 1 for c in body_p.terms.values()):
        return cf, 1
    d = lcm(*(c.denominator for c in expr_to_poly(cf).terms.values()))
    return (as_expr(d) * cf, d) if d > 1 else (cf, 1)


def _shadowed(rename, var: str):
    """A rename that leaves a closed form's lambda-bound name alone."""
    if rename is None:
        return None

    def shadow(name: str) -> str:
        return name if name == var else rename(name)

    return shadow


def _emit(e: Expr, rename, uses: set) -> str:
    if isinstance(e, Int):
        if e.value.denominator == 1:
            v = e.value.numerator
            return str(v) if v >= 0 else f"({v})"
        uses.add("Fraction")
        return f"Fraction({e.value.numerator}, {e.value.denominator})"
    if isinstance(e, Sym):
        return rename(e.name) if rename is not None else e.name
    if isinstance(e, Add):
        return "(" + " + ".join(_emit(a, rename, uses) for a in e.args) + ")"
    if isinstance(e, Mul):
        return "(" + " * ".join(_emit(a, rename, uses) for a in e.args) + ")"
    if isinstance(e, Pow):
        return f"({_emit(e.base, rename, uses)} ** {e.exp})"
    if isinstance(e, FloorDiv):
        return (f"(({_emit(e.num, rename, uses)}) // "
                f"({_emit(e.den, rename, uses)}))")
    if isinstance(e, Max):
        return "max(" + ", ".join(_emit(a, rename, uses)
                                  for a in e.args) + ")"
    if isinstance(e, Min):
        return "min(" + ", ".join(_emit(a, rename, uses)
                                  for a in e.args) + ")"
    if isinstance(e, Sum):
        lo = _emit(e.lo, rename, uses)
        hi = _emit(e.hi, rename, uses)
        lowering = sum_lowering(e)
        if lowering is not None:
            return _emit_sum_closed(lowering, lo, hi, rename, uses)
        # the lambda binds the renamed variable, so the body's renamed
        # references see it, shadowing the environment like Sum.evaluate
        uses.add("_mira_sum")
        var = rename(e.var) if rename is not None else e.var
        body = _emit(e.body, rename, uses)
        return f"_mira_sum(lambda {var}: {body}, {lo}, {hi})"
    raise TypeError(f"cannot emit Python for {type(e).__name__}")


def _emit_sum_closed(lowering: tuple, lo: str, hi: str, rename,
                     uses: set) -> str:
    """Exact closed form of a Sum with a runtime empty-range guard.

    ``Sum.evaluate`` sums ``k`` over ``ceil(lo)..floor(hi)`` and an empty
    range contributes 0.  The emitted expression snaps the bounds to that
    integer lattice first and takes the closed form (``lowering``, see
    :func:`sum_lowering`) where the range is not empty, where it is exact,
    and 0 elsewhere — as ``Sum.evaluate`` does, so the two agree on every
    input.
    """
    scaled, d = lowering
    cf = _emit(scaled, _shadowed(_shadowed(rename, _CF_LO), _CF_HI), uses)
    value = f"_mira_scaled({cf}, {d})" if d > 1 else f"_mira_exact({cf})"
    return (f"(lambda {_CF_LO}, {_CF_HI}: "
            f"_mira_where({_CF_LO} <= {_CF_HI}, {value}, 0))"
            f"(_mira_ceil({lo}), _mira_floor({hi}))")
