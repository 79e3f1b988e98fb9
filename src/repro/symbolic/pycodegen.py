"""Emit Python source code for symbolic expressions.

Mira's output is an executable Python model (paper Fig. 5).  Parametric
iteration-count expressions must therefore be rendered as Python code that
evaluates exactly.  Rational coefficients are emitted as ``Fraction`` calls
(the generated model imports ``Fraction`` from the standard library), and the
lazy ``Sum`` fallback is rendered as a call to the ``_mira_sum`` helper from
:mod:`repro.core.model_runtime`.

A ``Sum`` with a polynomial body is lowered to an exact Faulhaber closed
form guarded by a runtime empty-range check (``ceil(lo) > floor(hi)`` → 0),
which is bit-identical to ``Sum.evaluate`` for *every* input, including
reversed and fractional bounds.  Non-polynomial bodies keep the loop.
"""

from __future__ import annotations

from math import lcm

from .expr import (SUM_HI as _CF_HI, SUM_LO as _CF_LO, Add, Expr, FloorDiv,
                   Int, Max, Min, Mul, Pow, Sum, Sym)

__all__ = ["expr_to_python", "expr_to_numpy"]


def expr_to_python(e: Expr, *, rename=None) -> str:
    """Render an Expr as a Python expression string.

    The string assumes ``from fractions import Fraction`` and the
    ``_mira_sum``/``_mira_ceil``/``_mira_floor``/``_mira_exact`` helpers
    are in scope (the model generator emits them in the model preamble;
    all are exported by :mod:`repro.core.model_runtime`).

    ``rename`` optionally maps symbol names to emitted identifiers (the
    model generator uses it to turn model parameters into collision-free
    Python names); it must be injective.  Summation
    variables are renamed too, and bound by the emitted lambda itself,
    mirroring how ``Sum.evaluate`` shadows the environment.
    """
    return _emit(e, rename)


def _shadowed(rename, var: str):
    """A rename that leaves a closed form's lambda-bound name alone."""
    if rename is None:
        return None

    def shadow(name: str) -> str:
        return name if name == var else rename(name)

    return shadow


def _emit(e: Expr, rename) -> str:
    if isinstance(e, Int):
        if e.value.denominator == 1:
            v = e.value.numerator
            return str(v) if v >= 0 else f"({v})"
        return f"Fraction({e.value.numerator}, {e.value.denominator})"
    if isinstance(e, Sym):
        return rename(e.name) if rename is not None else e.name
    if isinstance(e, Add):
        return "(" + " + ".join(_emit(a, rename) for a in e.args) + ")"
    if isinstance(e, Mul):
        return "(" + " * ".join(_emit(a, rename) for a in e.args) + ")"
    if isinstance(e, Pow):
        return f"({_emit(e.base, rename)} ** {e.exp})"
    if isinstance(e, FloorDiv):
        return (f"(({_emit(e.num, rename)}) // "
                f"({_emit(e.den, rename)}))")
    if isinstance(e, Max):
        return "max(" + ", ".join(_emit(a, rename)
                                  for a in e.args) + ")"
    if isinstance(e, Min):
        return "min(" + ", ".join(_emit(a, rename)
                                  for a in e.args) + ")"
    if isinstance(e, Sum):
        closed = _emit_sum_closed(e, rename)
        if closed is not None:
            return closed
        # the lambda binds the renamed variable, so the body's renamed
        # references see it, shadowing the environment like Sum.evaluate
        var = rename(e.var) if rename is not None else e.var
        body = _emit(e.body, rename)
        lo = _emit(e.lo, rename)
        hi = _emit(e.hi, rename)
        return f"_mira_sum(lambda {var}: {body}, {lo}, {hi})"
    raise TypeError(f"cannot emit Python for {type(e).__name__}")


def _emit_sum_closed(e: Sum, rename) -> str | None:
    """Exact closed form of a Sum with a runtime empty-range guard, or None.

    ``Sum.evaluate`` sums ``k`` over ``ceil(lo)..floor(hi)`` and an empty
    range contributes 0.  The emitted expression snaps the bounds to that
    integer lattice first, applies :meth:`~repro.symbolic.expr.Sum.closed_form`
    only on non-empty ranges (where it is exact), and returns 0 otherwise —
    as ``Sum.evaluate`` does, so the two agree on every input.
    """
    cf = e.closed_form()
    if cf is None:
        return None
    inner = _shadowed(_shadowed(rename, _CF_LO), _CF_HI)
    cf_src = _emit(cf, inner)
    lo_src = _emit(e.lo, rename)
    hi_src = _emit(e.hi, rename)
    return (f"(lambda {_CF_LO}, {_CF_HI}: "
            f"(_mira_exact({cf_src}) if {_CF_LO} <= {_CF_HI} else 0))"
            f"(_mira_ceil({lo_src}), _mira_floor({hi_src}))")


# ---------------------------------------------------------------------------
# vector (numpy) emission — shared by symbolic.veccompile
# ---------------------------------------------------------------------------
#
# The vector renderer mirrors _emit node for node, but targets elementwise
# numpy semantics: ``max``/``min`` become ``_vmax``/``_vmin`` (reductions of
# ``np.maximum``/``np.minimum``), the closed-form Sum guard becomes a
# ``_vwhere`` mask instead of a conditional, and ``Sum`` nodes *must* lower
# to a Faulhaber closed form — there is no per-element loop fallback, so a
# non-polynomial body raises :class:`~repro.errors.VectorizeError`.
#
# int64 discipline: when the body of a Sum has integer coefficients, its
# closed form is emitted as ``((D * cf) // D)`` where ``D`` is the lcm of
# the closed form's coefficient denominators.  The true sum of an integer
# polynomial over an integer range is an integer, and Faulhaber polynomials
# are integer-valued at every integer point (including the masked lo > hi
# region), so the scaled numerator is divisible by ``D`` and the floor-div
# is exact — no Fraction ever appears, keeping the whole model on the int64
# fast path.  Emission tracks whether any ``Fraction`` literal was needed;
# if so the model set is only evaluable in object dtype.

def expr_to_numpy(e: Expr, *, rename=None, sum_lower=None) -> tuple:
    """Render ``e`` as a numpy-elementwise Python expression string.

    Returns ``(source, uses_fraction)``.  The source assumes the
    ``_vmax``/``_vmin``/``_vwhere``/``_vceil``/``_vfloor`` helpers from
    :mod:`repro.symbolic.veccompile` plus ``Fraction`` are in scope; free
    symbols (after ``rename``) are expected to be bound to numpy arrays or
    scalars of identical length.

    ``sum_lower``, when a dict, is populated with one entry per ``Sum``
    node encountered: ``sum_lower[sum_node]`` is an :class:`Expr` over the
    Sum's free symbols whose magnitude bounds every intermediate value the
    emitted closed form computes (the scaled ``D * cf`` numerator with the
    actual bounds substituted in).  The overflow prechecker walks these in
    interval arithmetic instead of re-deriving the lowering.

    Raises :class:`~repro.errors.VectorizeError` when a ``Sum`` body is not
    polynomial in its loop variable or uses reserved bound names.
    """
    ctx = {"frac": False, "sum_lower": sum_lower}
    src = _emit_np(e, rename, ctx)
    return src, ctx["frac"]


def _emit_np(e: Expr, rename, ctx: dict) -> str:
    from ..errors import VectorizeError

    if isinstance(e, Int):
        if e.value.denominator == 1:
            v = e.value.numerator
            return str(v) if v >= 0 else f"({v})"
        ctx["frac"] = True
        return f"Fraction({e.value.numerator}, {e.value.denominator})"
    if isinstance(e, Sym):
        return rename(e.name) if rename is not None else e.name
    if isinstance(e, Add):
        return "(" + " + ".join(_emit_np(a, rename, ctx) for a in e.args) + ")"
    if isinstance(e, Mul):
        return "(" + " * ".join(_emit_np(a, rename, ctx) for a in e.args) + ")"
    if isinstance(e, Pow):
        return f"({_emit_np(e.base, rename, ctx)} ** {e.exp})"
    if isinstance(e, FloorDiv):
        return (f"(({_emit_np(e.num, rename, ctx)}) // "
                f"({_emit_np(e.den, rename, ctx)}))")
    if isinstance(e, Max):
        return "_vmax(" + ", ".join(_emit_np(a, rename, ctx)
                                    for a in e.args) + ")"
    if isinstance(e, Min):
        return "_vmin(" + ", ".join(_emit_np(a, rename, ctx)
                                    for a in e.args) + ")"
    if isinstance(e, Sum):
        return _emit_np_sum(e, rename, ctx)
    raise VectorizeError(f"cannot vectorize {type(e).__name__} node")


def _emit_np_sum(e: Sum, rename, ctx: dict) -> str:
    from ..errors import VectorizeError
    from .expr import as_expr
    from .poly import expr_to_poly

    cf = e.closed_form()
    if cf is None:
        raise VectorizeError(
            f"Sum over {e.var!r} has no closed form (a non-polynomial body, "
            f"or one using {_CF_LO!r}/{_CF_HI!r}); use the scalar engine")
    body_p = expr_to_poly(e.body)
    int_body = all(c.denominator == 1 for c in body_p.terms.values())
    inner = _shadowed(_shadowed(rename, _CF_LO), _CF_HI)
    if int_body:
        cf_p = expr_to_poly(cf)
        denoms = ([c.denominator for c in cf_p.terms.values()]
                  if cf_p is not None else [1])
        d = lcm(*denoms) if denoms else 1
        if d == 1:
            check_expr = cf
            cf_src = _emit_np(cf, inner, ctx)
        else:
            scaled = as_expr(d) * cf
            check_expr = scaled
            cf_src = f"(({_emit_np(scaled, inner, ctx)}) // {d})"
    else:
        check_expr = cf
        cf_src = _emit_np(cf, inner, ctx)
    if ctx["sum_lower"] is not None:
        ctx["sum_lower"][e] = check_expr.subs({_CF_LO: e.lo, _CF_HI: e.hi})
    lo_src = _emit_np(e.lo, rename, ctx)
    hi_src = _emit_np(e.hi, rename, ctx)
    return (f"(lambda {_CF_LO}, {_CF_HI}: "
            f"_vwhere({_CF_LO} <= {_CF_HI}, {cf_src}, 0))"
            f"(_vceil({lo_src}), _vfloor({hi_src}))")
