"""Compiler optimizations.

Mira's core claim is that models must be derived from *post-optimization*
binaries because "code transformations performed by optimizing compilers
cause non-negligible effects on the analysis accuracy" (paper §I).  This
module implements the transformations that make our synthetic binaries look
like optimized x86:

* **AST constant folding / algebraic simplification** (all levels ≥ O1) —
  removes source-level operations entirely, the classic PBound blind spot;
* **peephole optimization** over lowered instructions (≥ O1) — redundant
  load elimination within a statement, ``mov r, r`` removal, strength
  reduction is applied during lowering;
* **SSE2 vectorization** (O3) — marks eligible innermost loops so lowering
  emits packed (``addpd``/``movupd``) instructions covering two iterations,
  halving dynamic FP instruction counts (ablation bench).

Optimization levels: O0 (naive address arithmetic, all scalars in memory),
O1 (folding + peephole + SIB addressing), O2 (O1 + scalar register
promotion — see :mod:`repro.compiler.regalloc`), O3 (O2 + vectorization).
"""

from __future__ import annotations

from ..frontend import ast_nodes as A
from .isa import Instruction, Mem, Reg, Xmm

__all__ = ["fold_constants", "peephole", "mark_vectorizable_loops"]


# ---------------------------------------------------------------------------
# AST constant folding
# ---------------------------------------------------------------------------

_INT_FOLD = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: int(a / b) if b else None,  # C truncating division
    "%": lambda a, b: a - b * int(a / b) if b else None,
    "<<": lambda a, b: a << b if 0 <= b < 64 else None,
    ">>": lambda a, b: a >> b if 0 <= b < 64 else None,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
}

_FLOAT_FOLD = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b if b else None,
}


def fold_constants(node: A.Node) -> A.Node:
    """Recursively fold constant subexpressions in place; returns the
    (possibly replaced) node.  Containers have children rewritten; a
    function definition already folded is skipped (``info["folded"]``)."""
    # Rewrite expression children by attribute since AST nodes are typed.
    if isinstance(node, A.BinOp):
        node.lhs = fold_constants(node.lhs)
        node.rhs = fold_constants(node.rhs)
        l, r = node.lhs, node.rhs
        if isinstance(l, A.IntLit) and isinstance(r, A.IntLit):
            fn = _INT_FOLD.get(node.op)
            if fn is not None:
                v = fn(l.value, r.value)
                if v is not None:
                    return A.IntLit(v, node.line, node.col)
        if isinstance(l, A.FloatLit) and isinstance(r, A.FloatLit):
            fn = _FLOAT_FOLD.get(node.op)
            if fn is not None:
                v = fn(l.value, r.value)
                if v is not None:
                    return A.FloatLit(v, "", node.line, node.col)
        # algebraic identities on the integer domain
        if node.op == "+" and isinstance(r, A.IntLit) and r.value == 0:
            return l
        if node.op == "+" and isinstance(l, A.IntLit) and l.value == 0:
            return r
        if node.op == "-" and isinstance(r, A.IntLit) and r.value == 0:
            return l
        if node.op == "*" and isinstance(r, A.IntLit) and r.value == 1:
            return l
        if node.op == "*" and isinstance(l, A.IntLit) and l.value == 1:
            return r
        if node.op == "*" and isinstance(r, A.IntLit) and r.value == 0 \
                and isinstance(l, (A.Ident, A.IntLit)):
            return A.IntLit(0, node.line, node.col)
        # float identities: x*1.0, x+0.0 (safe under paper semantics)
        if node.op == "*" and isinstance(r, A.FloatLit) and r.value == 1.0:
            return l
        if node.op == "+" and isinstance(r, A.FloatLit) and r.value == 0.0:
            return l
        return node
    if isinstance(node, A.UnOp):
        node.operand = fold_constants(node.operand)
        o = node.operand
        if node.op == "-" and isinstance(o, A.IntLit):
            return A.IntLit(-o.value, node.line, node.col)
        if node.op == "-" and isinstance(o, A.FloatLit):
            return A.FloatLit(-o.value, "", node.line, node.col)
        if node.op == "!" and isinstance(o, A.IntLit):
            return A.IntLit(int(not o.value), node.line, node.col)
        return node
    if isinstance(node, A.Assign):
        node.target = fold_constants(node.target)
        node.value = fold_constants(node.value)
        return node
    if isinstance(node, A.Ternary):
        node.cond = fold_constants(node.cond)
        node.then = fold_constants(node.then)
        node.els = fold_constants(node.els)
        if isinstance(node.cond, A.IntLit):
            return node.then if node.cond.value else node.els
        return node
    if isinstance(node, A.Call):
        node.args = [fold_constants(a) for a in node.args]
        return node
    if isinstance(node, A.Index):
        node.base = fold_constants(node.base)
        node.index = fold_constants(node.index)
        return node
    if isinstance(node, A.Member):
        node.obj = fold_constants(node.obj)
        return node
    if isinstance(node, A.Cast):
        node.expr = fold_constants(node.expr)
        return node
    # statements & declarations: rewrite children in place
    if isinstance(node, A.ExprStmt):
        node.expr = fold_constants(node.expr)
        return node
    if isinstance(node, A.DeclStmt):
        for d in node.decls:
            if d.init is not None:
                d.init = fold_constants(d.init)
            d.array_dims = [fold_constants(x) for x in d.array_dims]
        return node
    if isinstance(node, A.CompoundStmt):
        node.stmts = [fold_constants(s) for s in node.stmts]
        return node
    if isinstance(node, A.IfStmt):
        node.cond = fold_constants(node.cond)
        node.then = fold_constants(node.then)
        if node.els is not None:
            node.els = fold_constants(node.els)
        return node
    if isinstance(node, A.ForStmt):
        if node.init is not None:
            node.init = fold_constants(node.init)
        if node.cond is not None:
            node.cond = fold_constants(node.cond)
        if node.incr is not None:
            node.incr = fold_constants(node.incr)
        node.body = fold_constants(node.body)
        return node
    if isinstance(node, A.WhileStmt):
        node.cond = fold_constants(node.cond)
        node.body = fold_constants(node.body)
        return node
    if isinstance(node, A.DoWhileStmt):
        node.cond = fold_constants(node.cond)
        node.body = fold_constants(node.body)
        return node
    if isinstance(node, A.ReturnStmt):
        if node.expr is not None:
            node.expr = fold_constants(node.expr)
        return node
    if isinstance(node, A.FunctionDef):
        # A definition is folded once: the mark lets a TU that keeps the
        # definitions of an earlier, compiled one (the incremental front
        # end's splice) refold only the re-parsed definition.
        if not node.info.get("folded"):
            node.body = fold_constants(node.body)
            node.info["folded"] = True
        return node
    if isinstance(node, A.ClassDef):
        node.methods = [fold_constants(m) for m in node.methods]
        return node
    if isinstance(node, A.TranslationUnit):
        node.functions = [fold_constants(f) for f in node.functions]
        node.classes = [fold_constants(c) for c in node.classes]
        node.globals = [fold_constants(g) for g in node.globals]
        return node
    return node


# ---------------------------------------------------------------------------
# Peephole over lowered instructions
# ---------------------------------------------------------------------------

_LOAD_MNEMONICS = {"mov", "movsd"}
_BARRIERS = {"call", "jmp", "je", "jne", "jl", "jle", "jg", "jge",
             "jb", "jbe", "ja", "jae", "ret", "leave"}


def _writes_memory(ins: Instruction) -> bool:
    if ins.mnemonic in ("mov", "movsd", "movapd", "movupd", "inc", "dec",
                        "add", "sub") and ins.operands:
        return isinstance(ins.operands[0], Mem)
    return ins.mnemonic in ("push", "pop", "call")


def _dest_reg(ins: Instruction):
    if ins.operands and isinstance(ins.operands[0], (Reg, Xmm)):
        return ins.operands[0]
    return None


def peephole(instrs: list[Instruction]) -> list[Instruction]:
    """Local cleanups within straight-line runs (between control transfers):

    * drop ``mov r, r`` self-moves,
    * redundant-load elimination: a second identical load (``mov``/``movsd``
      from the same memory operand into the same register) with no
      intervening store or register clobber is dropped.
    """
    out: list[Instruction] = []
    # map (reg, mem) of live loads in the current straight-line run
    live_loads: dict = {}
    for ins in instrs:
        if ins.mnemonic in _BARRIERS:
            live_loads.clear()
            out.append(ins)
            continue
        # self move
        if ins.mnemonic in ("mov", "movsd") and len(ins.operands) == 2 \
                and ins.operands[0] == ins.operands[1]:
            continue
        if ins.mnemonic in _LOAD_MNEMONICS and len(ins.operands) == 2 \
                and isinstance(ins.operands[0], (Reg, Xmm)) \
                and isinstance(ins.operands[1], Mem):
            key = (ins.operands[0], ins.operands[1])
            if live_loads.get(key) == "live":
                continue  # redundant reload
            # register now holds this memory slot; clobber old facts for reg
            live_loads = {k: v for k, v in live_loads.items()
                          if k[0] != ins.operands[0]}
            live_loads[key] = "live"
            out.append(ins)
            continue
        if _writes_memory(ins):
            live_loads.clear()
        else:
            dst = _dest_reg(ins)
            if dst is not None:
                live_loads = {k: v for k, v in live_loads.items() if k[0] != dst}
        out.append(ins)
    return out


# ---------------------------------------------------------------------------
# Vectorization eligibility (O3)
# ---------------------------------------------------------------------------

def _is_stride1_ref(e: A.Expr, loopvar: str) -> bool:
    return (isinstance(e, A.Index)
            and isinstance(e.base, A.Ident)
            and isinstance(e.index, A.Ident)
            and e.index.name == loopvar)


def _vectorizable_rhs(e: A.Expr, loopvar: str) -> bool:
    if isinstance(e, (A.FloatLit, A.IntLit)):
        return True
    if isinstance(e, A.Ident):
        return e.name != loopvar  # scalar broadcast ok, index use not
    if _is_stride1_ref(e, loopvar):
        return True
    if isinstance(e, A.BinOp) and e.op in ("+", "-", "*", "/"):
        return _vectorizable_rhs(e.lhs, loopvar) and _vectorizable_rhs(e.rhs, loopvar)
    return False


def mark_vectorizable_loops(fn: A.FunctionDef) -> int:
    """Mark innermost stride-1 elementwise FP loops with
    ``info['vectorized'] = 2`` (SSE2 two-wide).  Returns how many were marked.

    Eligible shape (STREAM's kernels):  ``for (i = a; i < b; i++)
    x[i] = <elementwise expr over y[i]/scalars>;`` with unit step.
    """
    count = 0

    def visit(node: A.Node) -> None:
        nonlocal count
        for c in node.children():
            visit(c)
        if not isinstance(node, A.ForStmt):
            return
        # innermost only
        for sub in A.walk(node.body):
            if isinstance(sub, (A.ForStmt, A.WhileStmt, A.DoWhileStmt, A.Call)):
                return
        body = node.body
        if isinstance(body, A.CompoundStmt):
            if len(body.stmts) != 1:
                return
            body = body.stmts[0]
        if not isinstance(body, A.ExprStmt):
            return
        e = body.expr
        if not isinstance(e, A.Assign) or e.op not in ("=", "+="):
            return
        # unit-step upward loop on a simple var
        if not (isinstance(node.incr, A.UnOp) and node.incr.op == "++"):
            return
        loopvar = None
        if isinstance(node.incr.operand, A.Ident):
            loopvar = node.incr.operand.name
        if loopvar is None:
            return
        if not _is_stride1_ref(e.target, loopvar):
            return
        if not _vectorizable_rhs(e.value, loopvar):
            return
        node.info["vectorized"] = 2
        count += 1

    visit(fn)
    return count
