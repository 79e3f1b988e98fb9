"""SCoP (static control part) extraction from loop ASTs.

The paper (§III-C.2) models a loop from its SCoP: initialization, termination
condition, and step.  This module normalizes a ``for`` statement into a
:class:`~repro.polyhedral.polyhedron.NestLevel` with symbolic affine bounds,
and translates ``if`` conditions into polyhedral :class:`Constraint` rows.

Supported shapes (everything in the paper's listings):

* ``for (i = L; i <  U; i++)``  / ``<=`` / ``>`` / ``>=``
* ``for (i = L; ...; i += c)`` and ``i -= c`` (downward loops normalized to
  the mirrored upward loop, anchored in the start's residue class)
* bounds that are affine in outer indices and parameters, possibly via
  ``min(...)``/``max(...)`` calls (flagged non-convex where appropriate)
* conditions ``aff <op> aff`` with op in < <= > >= == and
  ``aff % m == r`` / ``aff % m != r``, conjunctions via ``&&``

Anything else raises :class:`ScopError` (a ``PolyhedralError``), which the
metric generator turns into an annotation requirement or a model parameter —
exactly the paper's fallback behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PolyhedralError
from ..frontend import ast_nodes as A
from ..symbolic import Expr, FloorDiv, Int, Max, Min, Sym, as_expr
from .affine import Constraint, affine_from_symbolic
from .polyhedron import NestLevel

__all__ = ["ScopError", "extract_level", "expr_to_symbolic", "condition_to_constraints"]


class ScopError(PolyhedralError):
    """A loop/branch is outside the statically analyzable SCoP fragment."""


def expr_to_symbolic(e: A.Expr, *, bindings: dict | None = None) -> Expr:
    """Convert a source-AST expression into a symbolic Expr.

    ``bindings`` maps identifier names to symbolic expressions (used to
    substitute annotation variables and propagated constants).  Identifiers
    without bindings become free symbols (model parameters / loop indices).

    Raises :class:`ScopError` for constructs with no affine meaning (array
    loads, function calls other than min/max, floats...).
    """
    bindings = bindings or {}
    if isinstance(e, A.IntLit):
        return Int(e.value)
    if isinstance(e, A.Ident):
        if e.name in bindings:
            return as_expr(bindings[e.name])
        return Sym(e.name)
    if isinstance(e, A.UnOp):
        if e.op == "-":
            return Int(0) - expr_to_symbolic(e.operand, bindings=bindings)
        if e.op == "+":
            return expr_to_symbolic(e.operand, bindings=bindings)
        raise ScopError(f"non-affine unary operator {e.op!r} in SCoP")
    if isinstance(e, A.BinOp):
        if e.op in ("+", "-", "*", "/", "%"):
            lhs = expr_to_symbolic(e.lhs, bindings=bindings)
            rhs = expr_to_symbolic(e.rhs, bindings=bindings)
            if e.op == "+":
                return lhs + rhs
            if e.op == "-":
                return lhs - rhs
            if e.op == "*":
                return lhs * rhs
            if e.op == "/":
                if isinstance(rhs, Int):
                    from ..symbolic import FloorDiv

                    return FloorDiv.make(lhs, rhs)
                raise ScopError("division by a non-constant in SCoP")
            raise ScopError("modulo appears outside a comparison in SCoP")
        raise ScopError(f"non-affine binary operator {e.op!r} in SCoP")
    if isinstance(e, A.Call) and isinstance(e.callee, A.Ident):
        name = e.callee.name
        if name in ("min", "fmin") and len(e.args) == 2:
            return Min.make([expr_to_symbolic(a, bindings=bindings) for a in e.args])
        if name in ("max", "fmax") and len(e.args) == 2:
            return Max.make([expr_to_symbolic(a, bindings=bindings) for a in e.args])
        raise ScopError(f"function call {name!r} in SCoP bound "
                        "(paper Listing 3/6: requires annotation)")
    if isinstance(e, A.Index):
        raise ScopError("array reference in SCoP bound (requires annotation)")
    if isinstance(e, A.Cast):
        return expr_to_symbolic(e.expr, bindings=bindings)
    raise ScopError(f"unsupported SCoP expression: {type(e).__name__}")


@dataclass
class _Step:
    amount: int  # signed


def _extract_step(incr: A.Expr, var: str) -> _Step:
    if isinstance(incr, A.UnOp) and incr.op in ("++", "--"):
        if not (isinstance(incr.operand, A.Ident) and incr.operand.name == var):
            raise ScopError("loop increment must update the loop variable")
        return _Step(1 if incr.op == "++" else -1)
    if isinstance(incr, A.Assign) and isinstance(incr.target, A.Ident) \
            and incr.target.name == var:
        if incr.op in ("+=", "-="):
            if not isinstance(incr.value, A.IntLit):
                raise ScopError("loop step must be a constant integer")
            amt = incr.value.value
            return _Step(amt if incr.op == "+=" else -amt)
        if incr.op == "=":
            # i = i + c  /  i = i - c
            v = incr.value
            if isinstance(v, A.BinOp) and v.op in ("+", "-") \
                    and isinstance(v.lhs, A.Ident) and v.lhs.name == var \
                    and isinstance(v.rhs, A.IntLit):
                amt = v.rhs.value
                return _Step(amt if v.op == "+" else -amt)
    raise ScopError("unrecognized loop increment form")


def extract_level(loop: A.ForStmt, *, bindings: dict | None = None) -> NestLevel:
    """Normalize a ``for`` statement into a NestLevel.

    Annotation overrides (paper §III-C.4) are applied by the caller through
    ``bindings`` — e.g. ``{lp_init: x}`` binds the unparseable initial value
    to the parameter symbol ``x`` *before* extraction.
    """
    # --- induction variable and initial value --------------------------------
    if loop.init is None or loop.cond is None or loop.incr is None:
        raise ScopError("for-loop with missing SCoP component")
    if isinstance(loop.init, A.DeclStmt):
        if len(loop.init.decls) != 1:
            raise ScopError("multiple declarations in loop init")
        d = loop.init.decls[0]
        var = d.name
        if d.init is None:
            raise ScopError("loop variable declared without initial value")
        init_expr = d.init
    elif isinstance(loop.init, A.ExprStmt) and isinstance(loop.init.expr, A.Assign) \
            and loop.init.expr.op == "=" and isinstance(loop.init.expr.target, A.Ident):
        var = loop.init.expr.target.name
        init_expr = loop.init.expr.value
    else:
        raise ScopError("unrecognized loop initialization form")

    start = expr_to_symbolic(init_expr, bindings=bindings)
    step = _extract_step(loop.incr, var)

    # --- condition -------------------------------------------------------------
    cond = loop.cond
    if not isinstance(cond, A.BinOp) or cond.op not in ("<", "<=", ">", ">="):
        raise ScopError("loop condition must be a single relational comparison")
    # Require the loop variable alone on one side.
    if isinstance(cond.lhs, A.Ident) and cond.lhs.name == var:
        op = cond.op
        bound = expr_to_symbolic(cond.rhs, bindings=bindings)
    elif isinstance(cond.rhs, A.Ident) and cond.rhs.name == var:
        flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        op = flip[cond.op]
        bound = expr_to_symbolic(cond.lhs, bindings=bindings)
    else:
        raise ScopError("loop condition must compare the loop variable to a bound")

    # --- normalize direction ------------------------------------------------------
    if step.amount > 0:
        if op == "<":
            lb, ub = start, bound - 1
        elif op == "<=":
            lb, ub = start, bound
        else:
            raise ScopError(f"upward loop with condition {op!r}")
        return NestLevel(var, lb, ub, step.amount)
    else:
        if op == ">":
            lb, ub = bound + 1, start
        elif op == ">=":
            lb, ub = bound, start
        else:
            raise ScopError(f"downward loop with condition {op!r}")
        # Downward loop visits start, start-s, ...: the mirrored upward loop
        # matches those lattice points only when anchored in the *start's*
        # residue class, so raise lb to the lowest visited point
        # (identity when (ub - lb) % s == 0, and always for s == 1).
        step_abs = -step.amount
        if step_abs != 1:
            lb = ub - Int(step_abs) * FloorDiv.make(ub - lb, Int(step_abs))
        return NestLevel(var, lb, ub, step_abs)


def condition_to_constraints(cond: A.Expr, *, bindings: dict | None = None) -> list[Constraint]:
    """Translate an ``if`` condition into polyhedral constraints.

    Conjunctions (``&&``) produce multiple rows.  Comparisons become ``ge``
    rows; ``expr % m == r`` / ``!= r`` become modular rows.  Anything else
    (``||``, float compares, calls) raises :class:`ScopError` so the caller
    can fall back to annotations/heuristics (paper §III-C.4).
    """
    if isinstance(cond, A.BinOp) and cond.op == "&&":
        return (condition_to_constraints(cond.lhs, bindings=bindings)
                + condition_to_constraints(cond.rhs, bindings=bindings))
    if isinstance(cond, A.BinOp) and cond.op in ("<", "<=", ">", ">=", "==", "!="):
        # Modular form?  (aff % m) op r
        lhs, rhs, op = cond.lhs, cond.rhs, cond.op
        if isinstance(rhs, A.BinOp) and rhs.op == "%":
            lhs, rhs = rhs, lhs
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}[op]
        if isinstance(lhs, A.BinOp) and lhs.op == "%":
            if op not in ("==", "!="):
                raise ScopError("modular expression must be compared with == or !=")
            inner = expr_to_symbolic(lhs.lhs, bindings=bindings)
            aff = affine_from_symbolic(inner)
            if aff is None:
                raise ScopError("non-affine modulus base")
            if not isinstance(lhs.rhs, A.IntLit):
                raise ScopError("modulus must be a constant")
            if not isinstance(rhs, A.IntLit):
                raise ScopError("modular comparison target must be a constant")
            m = lhs.rhs.value
            r = rhs.value % m
            kind = "mod_eq" if op == "==" else "mod_ne"
            return [Constraint(kind, aff, m, r)]
        l = expr_to_symbolic(lhs, bindings=bindings)
        r = expr_to_symbolic(rhs, bindings=bindings)
        if op == "==":
            diff = affine_from_symbolic(l - r)
            if diff is None:
                raise ScopError("non-affine equality condition")
            return [Constraint("eq", diff)]
        if op == "!=":
            raise ScopError("affine disequality is non-convex; use annotation")
        # Strict vs non-strict over integers:
        #   a <  b  →  b - a - 1 >= 0
        #   a <= b  →  b - a     >= 0
        if op == "<":
            diff = affine_from_symbolic(r - l - 1)
        elif op == "<=":
            diff = affine_from_symbolic(r - l)
        elif op == ">":
            diff = affine_from_symbolic(l - r - 1)
        else:  # >=
            diff = affine_from_symbolic(l - r)
        if diff is None:
            raise ScopError("non-affine comparison in branch condition")
        return [Constraint("ge", diff)]
    raise ScopError(
        f"branch condition not statically analyzable: {type(cond).__name__}"
    )
