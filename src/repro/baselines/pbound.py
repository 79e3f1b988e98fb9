"""PBound-style source-only static analysis (baseline, paper §V).

PBound [Narayanan, Norris, Hovland 2010] estimates operation counts purely
from the *source* AST: every source-level FP operation, memory access, and
integer operation is counted and multiplied by polyhedral iteration counts.
"Because it relies purely on source code analysis, it ignores the effects of
compiler transformations, frequently resulting in bound estimates that are
not realistically achievable" — the claim Mira exists to fix.

This baseline deliberately reproduces those blind spots:

* array index arithmetic is counted as explicit multiplies/adds (the binary
  folds it into SIB addressing),
* every scalar variable reference is a memory access (the binary promotes
  hot scalars to registers at O2),
* compiler-folded constants and strength-reduced operations are counted at
  face value.

The ablation bench compares PBound / Mira / dynamic measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..core.metric_generator import GeneratorOptions
from ..errors import ModelError
from ..frontend import ast_nodes as A
from ..frontend import parse_source
from ..frontend.types import BUILTIN_FUNCTIONS
from ..polyhedral import LoopNest, ScopError, condition_to_constraints, extract_level
from ..polyhedral.counting import count_nest
from ..symbolic import Expr, Int, Sym

__all__ = ["PBoundCounts", "PBoundAnalyzer"]


@dataclass
class PBoundCounts:
    """Source-level operation counts (symbolic)."""

    flops: Expr = Int(0)
    loads: Expr = Int(0)
    stores: Expr = Int(0)
    int_ops: Expr = Int(0)
    branches: Expr = Int(0)

    def add(self, other: "PBoundCounts") -> "PBoundCounts":
        return PBoundCounts(
            self.flops + other.flops,
            self.loads + other.loads,
            self.stores + other.stores,
            self.int_ops + other.int_ops,
            self.branches + other.branches,
        )

    def scaled(self, k: Expr) -> "PBoundCounts":
        return PBoundCounts(self.flops * k, self.loads * k, self.stores * k,
                            self.int_ops * k, self.branches * k)

    def evaluate(self, env: dict | None = None) -> dict[str, int]:
        env = env or {}
        return {
            "flops": int(self.flops.evaluate(env)),
            "loads": int(self.loads.evaluate(env)),
            "stores": int(self.stores.evaluate(env)),
            "int_ops": int(self.int_ops.evaluate(env)),
            "branches": int(self.branches.evaluate(env)),
        }


@dataclass
class _ExprCount:
    """Operation counts of evaluating one expression once."""

    flops: int = 0
    loads: int = 0
    stores: int = 0
    int_ops: int = 0

    def __iadd__(self, o: "_ExprCount") -> "_ExprCount":
        self.flops += o.flops
        self.loads += o.loads
        self.stores += o.stores
        self.int_ops += o.int_ops
        return self


class PBoundAnalyzer:
    """Counts source-level operations per function, scaled by loop domains."""

    def __init__(self, tu_or_source) -> None:
        if isinstance(tu_or_source, str):
            self.tu = parse_source(tu_or_source)
        else:
            self.tu = tu_or_source
        self._fp_vars: dict[str, bool] = {}
        self.opts = GeneratorOptions()

    # ----------------------------------------------------------------- public
    def analyze_function(self, name: str, class_name: str | None = None
                         ) -> PBoundCounts:
        fn = self.tu.find_function(name, class_name)
        if fn is None:
            raise ModelError(f"no function {name!r}")
        self._fp_vars = {}
        for p in fn.params:
            # pointers to FP data index into FP arrays: record pointee kind
            self._fp_vars[p.name] = p.type.name in ("float", "double")
        return self._stmt(fn.body, LoopNest(), Fraction(1))

    def analyze_all(self) -> dict[str, PBoundCounts]:
        return {f.qualified_name: self.analyze_function(f.name, f.class_name)
                for f in self.tu.all_functions()
                if not f.info.get("prototype_only")}

    # ------------------------------------------------------------- statements
    def _stmt(self, s: A.Stmt, nest: LoopNest, ratio: Fraction) -> PBoundCounts:
        count = count_nest(nest, Int(1))
        if ratio != 1:
            count = Int(ratio) * count
        if isinstance(s, A.CompoundStmt):
            out = PBoundCounts()
            for sub in s.stmts:
                out = out.add(self._stmt(sub, nest, ratio))
            return out
        if isinstance(s, A.NullStmt):
            return PBoundCounts()
        if isinstance(s, A.DeclStmt):
            ec = _ExprCount()
            for d in s.decls:
                self._fp_vars[d.name] = d.type.name in ("float", "double")
                if d.init is not None:
                    ec += self._expr(d.init)
                    ec.stores += 1
            return self._from_expr_count(ec).scaled(count)
        if isinstance(s, A.ExprStmt):
            return self._from_expr_count(self._expr(s.expr)).scaled(count)
        if isinstance(s, A.ReturnStmt):
            ec = self._expr(s.expr) if s.expr is not None else _ExprCount()
            return self._from_expr_count(ec).scaled(count)
        if isinstance(s, A.IfStmt):
            cond_ec = self._expr(s.cond)
            out = self._from_expr_count(cond_ec).scaled(count)
            out = PBoundCounts(out.flops, out.loads, out.stores,
                               out.int_ops, out.branches + count)
            try:
                cs = condition_to_constraints(s.cond)
                then_nest = nest
                for c in cs:
                    then_nest = then_nest.with_constraint(c)
                out = out.add(self._stmt(s.then, then_nest, ratio))
                if s.els is not None:
                    # complement: evaluate both and subtract is awkward at
                    # the source level; PBound uses the 1/2 heuristic here.
                    out = out.add(self._stmt(s.els, nest, ratio / 2))
            except ScopError:
                r = Fraction(1, 2)
                out = out.add(self._stmt(s.then, nest, ratio * r))
                if s.els is not None:
                    out = out.add(self._stmt(s.els, nest, ratio * r))
            return out
        if isinstance(s, A.ForStmt):
            return self._for(s, nest, ratio)
        if isinstance(s, (A.WhileStmt, A.DoWhileStmt)):
            trip = Sym(f"iters_{s.line}")
            for ann in s.annotations:
                if ann.iters is not None:
                    trip = (Sym(ann.iters) if isinstance(ann.iters, str)
                            else Int(int(ann.iters)))
            from ..polyhedral import NestLevel

            inner = nest.nested(NestLevel(f"_w{s.line}", Int(1), trip))
            body = self._stmt(s.body, inner, ratio)
            cond = self._from_expr_count(self._expr(s.cond)).scaled(
                count_nest(inner, Int(1)))
            return body.add(cond)
        if isinstance(s, (A.BreakStmt, A.ContinueStmt)):
            return PBoundCounts(branches=count)
        raise ModelError(f"pbound: unhandled {type(s).__name__}")

    def _for(self, s: A.ForStmt, nest: LoopNest, ratio: Fraction) -> PBoundCounts:
        out = PBoundCounts()
        if s.init is not None:
            out = out.add(self._stmt(s.init, nest, ratio))
        level = None
        try:
            level = extract_level(s)
        except ScopError:
            pass
        for ann in s.annotations:
            if ann.iters is not None:
                from ..polyhedral import NestLevel

                trip = (Sym(ann.iters) if isinstance(ann.iters, str)
                        else Int(int(ann.iters)))
                level = NestLevel(f"_f{s.line}", Int(1), trip)
        if level is None:
            from ..polyhedral import NestLevel

            level = NestLevel(f"_f{s.line}", Int(1), Sym(f"iters_{s.line}"))
        inner = nest.nested(level)
        iters = count_nest(inner, Int(1))
        if s.cond is not None:
            ec = self._expr(s.cond)
            out = out.add(self._from_expr_count(ec).scaled(iters))
            out = PBoundCounts(out.flops, out.loads, out.stores, out.int_ops,
                               out.branches + iters)
        if s.incr is not None:
            out = out.add(self._from_expr_count(self._expr(s.incr)).scaled(iters))
        out = out.add(self._stmt(s.body, inner, ratio))
        return out

    # ------------------------------------------------------------ expressions
    def _is_fp(self, e: A.Expr) -> bool:
        if isinstance(e, A.FloatLit):
            return True
        if isinstance(e, A.Ident):
            return self._fp_vars.get(e.name, self._global_fp(e.name))
        if isinstance(e, A.Index):
            base = e
            while isinstance(base, A.Index):
                base = base.base
            return self._is_fp(base)
        if isinstance(e, A.BinOp):
            return self._is_fp(e.lhs) or self._is_fp(e.rhs)
        if isinstance(e, A.UnOp):
            return self._is_fp(e.operand)
        if isinstance(e, A.Call) and isinstance(e.callee, A.Ident):
            b = BUILTIN_FUNCTIONS.get(e.callee.name)
            if b is not None:
                return b.is_float
            fn = self.tu.find_function(e.callee.name)
            return fn is not None and fn.return_type.is_float
        if isinstance(e, A.Cast):
            return e.type.is_float
        if isinstance(e, A.Member):
            return True  # fields in our workloads are predominantly FP
        return False

    def _global_fp(self, name: str) -> bool:
        for g in self.tu.globals:
            for d in g.decls:
                if d.name == name:
                    return d.type.name in ("float", "double")
        return False

    def _expr(self, e: A.Expr) -> _ExprCount:
        ec = _ExprCount()
        if isinstance(e, (A.IntLit, A.FloatLit, A.CharLit, A.StringLit)):
            return ec
        if isinstance(e, A.Ident):
            ec.loads += 1  # source-level view: every variable read is a load
            return ec
        if isinstance(e, A.Index):
            ec += self._expr(e.index)
            # index arithmetic the compiler folds into addressing:
            ec.int_ops += 2  # scale multiply + base add
            base = e.base
            if isinstance(base, A.Index):
                ec += self._expr(base)
            ec.loads += 1
            return ec
        if isinstance(e, A.Member):
            ec.loads += 1
            return ec
        if isinstance(e, A.BinOp):
            ec += self._expr(e.lhs)
            ec += self._expr(e.rhs)
            if e.op in ("+", "-", "*", "/", "%", "<", "<=", ">", ">=",
                        "==", "!=", "&", "|", "^", "<<", ">>"):
                if self._is_fp(e):
                    ec.flops += 1
                else:
                    ec.int_ops += 1
            return ec
        if isinstance(e, A.UnOp):
            ec += self._expr(e.operand)
            if e.op in ("-", "~", "!", "++", "--"):
                if self._is_fp(e.operand):
                    ec.flops += 1
                else:
                    ec.int_ops += 1
            if e.op in ("++", "--"):
                ec.loads += 1
                ec.stores += 1
            return ec
        if isinstance(e, A.Assign):
            ec += self._expr(e.value)
            if isinstance(e.target, A.Index):
                ec += self._expr(e.target.index)
                ec.int_ops += 2
            if e.op != "=":
                ec.loads += 1
                if self._is_fp(e.target):
                    ec.flops += 1
                else:
                    ec.int_ops += 1
            ec.stores += 1
            return ec
        if isinstance(e, A.Call):
            for a in e.args:
                ec += self._expr(a)
            return ec
        if isinstance(e, A.Ternary):
            ec += self._expr(e.cond)
            ec += self._expr(e.then)
            ec += self._expr(e.els)
            return ec
        if isinstance(e, A.Cast):
            return self._expr(e.expr)
        if isinstance(e, A.SizeOf):
            return ec
        raise ModelError(f"pbound: unhandled expression {type(e).__name__}")

    @staticmethod
    def _from_expr_count(ec: _ExprCount) -> PBoundCounts:
        return PBoundCounts(Int(ec.flops), Int(ec.loads), Int(ec.stores),
                            Int(ec.int_ops), Int(0))
