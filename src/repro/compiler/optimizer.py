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
    function definition already folded is skipped (``info["folded"]``).

    Dispatches on the node's exact type through ``_FOLDERS``; a node kind
    without an entry (a literal, an identifier) folds to itself."""
    fold = _FOLDERS.get(type(node))
    return node if fold is None else fold(node)


def _fold_binop(node: A.BinOp) -> A.Node:
    node.lhs = l = fold_constants(node.lhs)
    node.rhs = r = fold_constants(node.rhs)
    op, lt, rt = node.op, type(l), type(r)
    if lt is A.IntLit and rt is A.IntLit:
        fn = _INT_FOLD.get(op)
        if fn is not None:
            v = fn(l.value, r.value)
            if v is not None:
                return A.IntLit(v, node.line, node.col)
    if lt is A.FloatLit and rt is A.FloatLit:
        fn = _FLOAT_FOLD.get(op)
        if fn is not None:
            v = fn(l.value, r.value)
            if v is not None:
                return A.FloatLit(v, "", node.line, node.col)
    # algebraic identities on the integer domain
    if rt is A.IntLit:
        if (op == "+" or op == "-") and r.value == 0:
            return l
        if op == "*" and r.value == 1:
            return l
        if op == "*" and r.value == 0 and (lt is A.Ident or lt is A.IntLit):
            return A.IntLit(0, node.line, node.col)
    if lt is A.IntLit:
        if op == "+" and l.value == 0:
            return r
        if op == "*" and l.value == 1:
            return r
    # float identities: x*1.0, x+0.0 (safe under paper semantics)
    if rt is A.FloatLit and (op == "*" and r.value == 1.0
                             or op == "+" and r.value == 0.0):
        return l
    return node


def _fold_unop(node: A.UnOp) -> A.Node:
    node.operand = o = fold_constants(node.operand)
    ot = type(o)
    if node.op == "-" and ot is A.IntLit:
        return A.IntLit(-o.value, node.line, node.col)
    if node.op == "-" and ot is A.FloatLit:
        return A.FloatLit(-o.value, "", node.line, node.col)
    if node.op == "!" and ot is A.IntLit:
        return A.IntLit(int(not o.value), node.line, node.col)
    return node


def _fold_assign(node: A.Assign) -> A.Node:
    node.target = fold_constants(node.target)
    node.value = fold_constants(node.value)
    return node


def _fold_ternary(node: A.Ternary) -> A.Node:
    node.cond = fold_constants(node.cond)
    node.then = fold_constants(node.then)
    node.els = fold_constants(node.els)
    if type(node.cond) is A.IntLit:
        return node.then if node.cond.value else node.els
    return node


def _fold_call(node: A.Call) -> A.Node:
    node.args = [fold_constants(a) for a in node.args]
    return node


def _fold_index(node: A.Index) -> A.Node:
    node.base = fold_constants(node.base)
    node.index = fold_constants(node.index)
    return node


def _fold_member(node: A.Member) -> A.Node:
    node.obj = fold_constants(node.obj)
    return node


def _fold_expr_child(node: A.Cast | A.ExprStmt) -> A.Node:
    node.expr = fold_constants(node.expr)
    return node


def _fold_decl(node: A.DeclStmt) -> A.Node:
    for d in node.decls:
        if d.init is not None:
            d.init = fold_constants(d.init)
        d.array_dims = [fold_constants(x) for x in d.array_dims]
    return node


def _fold_compound(node: A.CompoundStmt) -> A.Node:
    node.stmts = [fold_constants(s) for s in node.stmts]
    return node


def _fold_if(node: A.IfStmt) -> A.Node:
    node.cond = fold_constants(node.cond)
    node.then = fold_constants(node.then)
    if node.els is not None:
        node.els = fold_constants(node.els)
    return node


def _fold_for(node: A.ForStmt) -> A.Node:
    if node.init is not None:
        node.init = fold_constants(node.init)
    if node.cond is not None:
        node.cond = fold_constants(node.cond)
    if node.incr is not None:
        node.incr = fold_constants(node.incr)
    node.body = fold_constants(node.body)
    return node


def _fold_loop(node: A.WhileStmt | A.DoWhileStmt) -> A.Node:
    node.cond = fold_constants(node.cond)
    node.body = fold_constants(node.body)
    return node


def _fold_return(node: A.ReturnStmt) -> A.Node:
    if node.expr is not None:
        node.expr = fold_constants(node.expr)
    return node


def _fold_function(node: A.FunctionDef) -> A.Node:
    # A definition is folded once: the mark lets a TU that keeps the
    # definitions of an earlier, compiled one (the incremental front
    # end's splice) refold only the re-parsed definition.
    if not node.info.get("folded"):
        node.body = fold_constants(node.body)
        node.info["folded"] = True
    return node


def _fold_class(node: A.ClassDef) -> A.Node:
    node.methods = [fold_constants(m) for m in node.methods]
    return node


def _fold_unit(node: A.TranslationUnit) -> A.Node:
    node.functions = [fold_constants(f) for f in node.functions]
    node.classes = [fold_constants(c) for c in node.classes]
    node.globals = [fold_constants(g) for g in node.globals]
    return node


_FOLDERS = {
    A.BinOp: _fold_binop, A.UnOp: _fold_unop, A.Assign: _fold_assign,
    A.Ternary: _fold_ternary, A.Call: _fold_call, A.Index: _fold_index,
    A.Member: _fold_member, A.Cast: _fold_expr_child,
    A.ExprStmt: _fold_expr_child, A.DeclStmt: _fold_decl,
    A.CompoundStmt: _fold_compound, A.IfStmt: _fold_if,
    A.ForStmt: _fold_for, A.WhileStmt: _fold_loop,
    A.DoWhileStmt: _fold_loop, A.ReturnStmt: _fold_return,
    A.FunctionDef: _fold_function, A.ClassDef: _fold_class,
    A.TranslationUnit: _fold_unit,
}


# ---------------------------------------------------------------------------
# Peephole over lowered instructions
# ---------------------------------------------------------------------------

_LOAD_MNEMONICS = frozenset({"mov", "movsd"})
_BARRIERS = frozenset({"call", "jmp", "je", "jne", "jl", "jle", "jg", "jge",
                       "jb", "jbe", "ja", "jae", "ret", "leave"})
# Mnemonics that store to memory when their first operand is a Mem, and
# the stack operations, which always do (``call`` is a barrier).
_STORES_TO_MEM = frozenset({"mov", "movsd", "movapd", "movupd", "inc", "dec",
                            "add", "sub"})
_STACK_OPS = frozenset({"push", "pop"})
_REGISTERS = frozenset({Reg, Xmm})


def peephole(instrs: list[Instruction]) -> list[Instruction]:
    """Local cleanups within straight-line runs (between control transfers):

    * drop ``mov r, r`` self-moves,
    * redundant-load elimination: a second identical load (``mov``/``movsd``
      from the same memory operand into the same register) with no
      intervening store or register clobber is dropped.
    """
    out: list[Instruction] = []
    # (reg, mem) pairs of live loads in the current straight-line run
    live_loads: set = set()
    for ins in instrs:
        mn, ops = ins.mnemonic, ins.operands
        if mn in _BARRIERS:
            live_loads.clear()
            out.append(ins)
            continue
        dst = ops[0] if ops else None
        dst_type = type(dst)
        if mn in _LOAD_MNEMONICS and len(ops) == 2:
            if dst == ops[1]:
                continue        # self move
            if dst_type in _REGISTERS and type(ops[1]) is Mem:
                key = (dst, ops[1])
                if key in live_loads:
                    continue    # redundant reload
                # register now holds this memory slot; clobber old facts
                live_loads = {k for k in live_loads if k[0] != dst}
                live_loads.add(key)
                out.append(ins)
                continue
        if (dst_type is Mem and mn in _STORES_TO_MEM) or mn in _STACK_OPS:
            live_loads.clear()
        elif dst_type in _REGISTERS:
            live_loads = {k for k in live_loads if k[0] != dst}
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
