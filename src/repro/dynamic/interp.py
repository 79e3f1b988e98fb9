"""Closure-compiling interpreter — the dynamic-execution substrate.

Stands in for *running the program on real hardware with TAU/PAPI attached*
(DESIGN.md §2).  The source AST is compiled once into a tree of Python
closures (≈10× faster than naive tree-walking; the guides' advice to hoist
work out of hot loops applied to an interpreter), then executed with real
control flow and data.

Instruction accounting mirrors the static model's cost centers exactly:

* executing a statement bumps its ``(function, line, col)`` center,
* loop conditions are bumped per evaluation (trip + 1), increments per
  iteration, function frames per call,
* **library calls additionally charge their internal cost vectors**
  (:mod:`repro.dynamic.libruntime`) — the instructions the static model
  cannot see, reproducing the paper's error mechanism.

Center hits are converted to per-category counts by multiplying with the
bridge's per-center category vectors (a single integer matrix product at
report time — vectorized, per the performance guides).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..bridge import NCAT, vector_for_center
from ..core.input_processor import ProcessedInput
from ..errors import InterpError
from ..frontend import ast_nodes as A
from ..frontend.types import BUILTIN_FUNCTIONS, Type
from .libruntime import LIBRARY
from .values import Obj, Ptr, alloc_array, c_div, c_mod, zero_value

__all__ = ["Interpreter", "ExecutionCounts"]


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value) -> None:
        self.value = value


_BIN_INT = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": c_div,
    "%": c_mod,
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: a << b,
    ">>": lambda a, b: a >> b,
}

_BIN_FP = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
}


@dataclass
class FunctionRecord:
    """Inclusive per-function accumulation."""

    calls: int = 0
    center_delta: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64))
    lib_delta: dict = field(default_factory=dict)


@dataclass
class ExecutionCounts:
    """Post-run counters: global + per-function inclusive."""

    center_hits: np.ndarray
    lib_counts: dict
    records: dict            # qname -> FunctionRecord
    center_matrix: np.ndarray  # (ncenters, NCAT)
    lib_matrix: dict           # libname -> np.ndarray(NCAT)
    category_names: list

    def _vec_to_dict(self, vec: np.ndarray) -> dict[str, int]:
        return {self.category_names[i]: int(vec[i])
                for i in np.nonzero(vec)[0]}

    def total_categories(self) -> dict[str, int]:
        vec = self.center_hits @ self.center_matrix
        for name, n in self.lib_counts.items():
            vec = vec + n * self.lib_matrix[name]
        return self._vec_to_dict(vec)

    def function_categories(self, qname: str, *,
                            per_call: bool = True) -> dict[str, int]:
        """Inclusive category counts of a function (mean per call)."""
        rec = self.records.get(qname)
        if rec is None or rec.calls == 0:
            raise InterpError(f"function {qname!r} was never executed")
        vec = rec.center_delta @ self.center_matrix
        for name, n in rec.lib_delta.items():
            vec = vec + n * self.lib_matrix[name]
        if per_call:
            vec = vec // rec.calls
        return self._vec_to_dict(vec)


class _CompiledFunction:
    __slots__ = ("qname", "nslots", "body", "frame_cid", "param_slots",
                 "interp")

    def __init__(self, qname: str, interp: "Interpreter") -> None:
        self.qname = qname
        self.interp = interp
        self.nslots = 0
        self.body = None
        self.frame_cid = 0
        self.param_slots: list[int] = []

    def call(self, args: list):
        interp = self.interp
        interp._enter(self.qname)
        interp.hits[self.frame_cid] += 1
        frame = [None] * self.nslots
        for slot, val in zip(self.param_slots, args):
            frame[slot] = val
        ret = None
        try:
            self.body(frame)
        except _Return as r:
            ret = r.value
        interp._leave(self.qname)
        return ret


class Interpreter:
    """Compile + run a processed program with instruction accounting."""

    def __init__(self, processed: ProcessedInput) -> None:
        self.processed = processed
        self.tu = processed.tu
        self.arch = processed.arch
        self.classes = {c.name: c for c in self.tu.classes}

        # ---- cost-center registry from the bridge -------------------------
        self._center_ids: dict[tuple, int] = {}
        vectors: list[np.ndarray] = []
        for qname, bridge in processed.bridges.items():
            for (line, col), center in bridge.centers.items():
                key = (qname, line, col)
                self._center_ids[key] = len(vectors)
                vectors.append(
                    vector_for_center(center, self.arch).counts.copy())
        self._extra_center_start = len(vectors)
        self.center_matrix = (np.vstack(vectors) if vectors
                              else np.zeros((0, NCAT), dtype=np.int64))
        self.hits = [0] * len(vectors)

        from ..bridge.metrics import vector_for_mnemonics  # noqa: F401
        from ..compiler.arch import CATEGORY_NAMES

        self.category_names = list(CATEGORY_NAMES)
        self.lib_matrix = {}
        for name, lf in LIBRARY.items():
            vec = np.zeros(NCAT, dtype=np.int64)
            for cat, n in lf.cost.items():
                vec[self.category_names.index(cat)] += n
            self.lib_matrix[name] = vec
        self.lib_counts: dict[str, int] = {}
        self._lib_extra: dict[str, np.ndarray] = {}

        # ---- profiling state ------------------------------------------------
        self.records: dict[str, FunctionRecord] = {}
        self._stack: list[tuple] = []

        # ---- program state -----------------------------------------------------
        self.gstore: dict[str, object] = {}
        self._alloc_globals()
        self.functions: dict[str, _CompiledFunction] = {}
        for fn in self.tu.all_functions():
            if fn.info.get("prototype_only"):
                continue
            self.functions[fn.qualified_name] = self._compile_function(fn)

    # ------------------------------------------------------------------ run
    def run(self, entry: str = "main", args: list | None = None):
        cf = self.functions.get(entry)
        if cf is None:
            matches = [q for q in self.functions if q.endswith(f"::{entry}")]
            if len(matches) == 1:
                cf = self.functions[matches[0]]
            else:
                raise InterpError(f"no function {entry!r} to run")
        return cf.call(list(args or []))

    def counts(self) -> ExecutionCounts:
        return ExecutionCounts(
            center_hits=np.array(self.hits, dtype=np.int64),
            lib_counts=dict(self.lib_counts),
            records=self.records,
            center_matrix=self.center_matrix,
            lib_matrix=dict(self.lib_matrix),
            category_names=self.category_names,
        )

    # ------------------------------------------------------------ profiling
    def _enter(self, qname: str) -> None:
        self._stack.append((qname, list(self.hits), dict(self.lib_counts)))

    def _leave(self, qname: str) -> None:
        name, hits0, lib0 = self._stack.pop()
        rec = self.records.get(name)
        if rec is None:
            rec = FunctionRecord(
                center_delta=np.zeros(len(self.hits), dtype=np.int64))
            self.records[name] = rec
        if rec.center_delta.shape[0] != len(self.hits):
            grown = np.zeros(len(self.hits), dtype=np.int64)
            grown[: rec.center_delta.shape[0]] = rec.center_delta
            rec.center_delta = grown
        rec.calls += 1
        now = np.array(self.hits, dtype=np.int64)
        before = np.zeros(len(self.hits), dtype=np.int64)
        before[: len(hits0)] = hits0
        rec.center_delta += now - before
        for k, v in self.lib_counts.items():
            d = v - lib0.get(k, 0)
            if d:
                rec.lib_delta[k] = rec.lib_delta.get(k, 0) + d

    # ----------------------------------------------------------- center ids
    def _cid(self, qname: str, line: int, col: int) -> int:
        key = (qname, line, col)
        cid = self._center_ids.get(key)
        if cid is None:
            # a statement with no binary footprint (optimized away): zero row
            cid = len(self.hits)
            self._center_ids[key] = cid
            self.hits.append(0)
            self.center_matrix = np.vstack(
                [self.center_matrix, np.zeros(NCAT, dtype=np.int64)])
        return cid

    # ---------------------------------------------------------------- globals
    def _alloc_globals(self) -> None:
        for g in self.tu.globals:
            for d in g.decls:
                if d.array_dims:
                    dims = tuple(x.value for x in d.array_dims
                                 if isinstance(x, A.IntLit))
                    if len(dims) != len(d.array_dims):
                        raise InterpError(
                            f"global array {d.name!r} has non-constant dims")
                    self.gstore[d.name] = alloc_array(d.type, dims)
                    d.info["dims"] = dims
                elif d.type.is_class and d.type.pointer == 0:
                    self.gstore[d.name] = Obj(self.classes[d.type.name])
                else:
                    init = zero_value(d.type)
                    if isinstance(d.init, A.IntLit):
                        init = d.init.value
                    elif isinstance(d.init, A.FloatLit):
                        init = d.init.value
                    self.gstore[d.name] = [init]  # boxed scalar cell

    # ========================================================== compilation
    def _compile_function(self, fn: A.FunctionDef) -> _CompiledFunction:
        cf = _CompiledFunction(fn.qualified_name, self)
        comp = _FnCompiler(self, fn)
        body = comp.compile_body()
        cf.body = body
        cf.nslots = comp.nslots
        cf.frame_cid = self._cid(fn.qualified_name, fn.line, fn.col)
        cf.param_slots = comp.param_slots
        return cf


class _FnCompiler:
    """Compiles one function's AST into closures over a frame list."""

    def __init__(self, interp: Interpreter, fn: A.FunctionDef) -> None:
        self.I = interp
        self.fn = fn
        self.qname = fn.qualified_name
        self.scopes: list[dict] = [{}]
        self.types: dict[int, Type] = {}
        self.dims: dict[int, tuple] = {}
        self.nslots = 0
        self.param_slots: list[int] = []

    # ---------------------------------------------------------------- scopes
    def _new_slot(self, name: str, ty: Type, dims: tuple = ()) -> int:
        slot = self.nslots
        self.nslots += 1
        self.scopes[-1][name] = slot
        self.types[slot] = ty
        self.dims[slot] = dims
        return slot

    def _lookup(self, name: str) -> int | None:
        for s in reversed(self.scopes):
            if name in s:
                return s[name]
        return None

    def _cid(self, node: A.Node) -> int:
        return self.I._cid(self.qname, node.line, node.col)

    def err(self, msg: str, node: A.Node) -> InterpError:
        return InterpError(f"{self.qname} at {node.line}:{node.col}: {msg}")

    # ------------------------------------------------------------------ body
    def compile_body(self):
        if self.fn.class_name is not None:
            slot = self._new_slot("this", Type(self.fn.class_name, 1))
            self.param_slots.append(slot)
        for p in self.fn.params:
            slot = self._new_slot(p.name, p.type)
            self.param_slots.append(slot)
        return self.stmt(self.fn.body)

    # ------------------------------------------------------------- statements
    def stmt(self, s: A.Stmt):
        if any(a.skip for a in getattr(s, "annotations", [])):
            return lambda fr: None
        if isinstance(s, A.CompoundStmt):
            self.scopes.append({})
            subs = [self.stmt(x) for x in s.stmts]
            self.scopes.pop()

            def run_block(fr, _subs=tuple(subs)):
                for sub in _subs:
                    sub(fr)
            return run_block
        if isinstance(s, A.NullStmt):
            return lambda fr: None
        if isinstance(s, A.DeclStmt):
            return self._compile_decl(s)
        if isinstance(s, A.ExprStmt):
            cid = self._cid(s)
            eff = self.expr(s.expr)
            hits = self.I.hits

            def run_expr(fr, _eff=eff, _cid=cid, _hits=hits):
                _hits[_cid] += 1
                _eff(fr)
            return run_expr
        if isinstance(s, A.ReturnStmt):
            cid = self._cid(s)
            hits = self.I.hits
            if s.expr is None:
                def run_ret0(fr, _cid=cid, _hits=hits):
                    _hits[_cid] += 1
                    raise _Return(None)
                return run_ret0
            val = self.expr(s.expr)

            def run_ret(fr, _val=val, _cid=cid, _hits=hits):
                _hits[_cid] += 1
                raise _Return(_val(fr))
            return run_ret
        if isinstance(s, A.IfStmt):
            return self._compile_if(s)
        if isinstance(s, A.ForStmt):
            return self._compile_for(s)
        if isinstance(s, A.WhileStmt):
            return self._compile_while(s)
        if isinstance(s, A.DoWhileStmt):
            return self._compile_do_while(s)
        if isinstance(s, A.BreakStmt):
            cid = self._cid(s)
            hits = self.I.hits

            def run_break(fr, _cid=cid, _hits=hits):
                _hits[_cid] += 1
                raise _Break()
            return run_break
        if isinstance(s, A.ContinueStmt):
            cid = self._cid(s)
            hits = self.I.hits

            def run_cont(fr, _cid=cid, _hits=hits):
                _hits[_cid] += 1
                raise _Continue()
            return run_cont
        raise self.err(f"cannot execute {type(s).__name__}", s)

    def _compile_decl(self, s: A.DeclStmt):
        cid = self._cid(s)
        hits = self.I.hits
        actions = []
        for d in s.decls:
            if d.array_dims:
                dims = tuple(x.value for x in d.array_dims
                             if isinstance(x, A.IntLit))
                if len(dims) != len(d.array_dims):
                    raise self.err("non-constant local array dims", s)
                slot = self._new_slot(d.name, d.type, dims)
                ty = d.type
                actions.append(lambda fr, _s=slot, _t=ty, _d=dims:
                               fr.__setitem__(_s, alloc_array(_t, _d)))
            elif d.type.is_class and d.type.pointer == 0:
                slot = self._new_slot(d.name, d.type)
                cls = self.I.classes[d.type.name]
                actions.append(lambda fr, _s=slot, _c=cls:
                               fr.__setitem__(_s, Obj(_c)))
            else:
                slot = self._new_slot(d.name, d.type)
                if d.init is not None:
                    val = self.expr(d.init)
                    val = self._coerce_closure(val, d.type)
                    actions.append(lambda fr, _s=slot, _v=val:
                                   fr.__setitem__(_s, _v(fr)))
                else:
                    z = zero_value(d.type)
                    actions.append(lambda fr, _s=slot, _z=z:
                                   fr.__setitem__(_s, _z))

        def run_decl(fr, _acts=tuple(actions), _cid=cid, _hits=hits):
            _hits[_cid] += 1
            for a in _acts:
                a(fr)
        return run_decl

    def _compile_if(self, s: A.IfStmt):
        ccid = self.I._cid(self.qname, s.cond.line, s.cond.col)
        cond = self.expr(s.cond)
        then = self.stmt(s.then)
        els = self.stmt(s.els) if s.els is not None else None
        hits = self.I.hits

        if els is None:
            def run_if(fr, _c=cond, _t=then, _cid=ccid, _hits=hits):
                _hits[_cid] += 1
                if _c(fr):
                    _t(fr)
            return run_if

        def run_ifelse(fr, _c=cond, _t=then, _e=els, _cid=ccid, _hits=hits):
            _hits[_cid] += 1
            if _c(fr):
                _t(fr)
            else:
                _e(fr)
        return run_ifelse

    def _compile_for(self, s: A.ForStmt):
        self.scopes.append({})
        init = self.stmt(s.init) if s.init is not None else None
        cond = self.expr(s.cond) if s.cond is not None else None
        ccid = (self.I._cid(self.qname, s.cond.line, s.cond.col)
                if s.cond is not None else None)
        incr = self.expr(s.incr) if s.incr is not None else None
        icid = (self.I._cid(self.qname, s.incr.line, s.incr.col)
                if s.incr is not None else None)
        body = self.stmt(s.body)
        self.scopes.pop()
        hits = self.I.hits

        def run_for(fr, _i=init, _c=cond, _n=incr, _b=body,
                    _cc=ccid, _ic=icid, _hits=hits):
            if _i is not None:
                _i(fr)
            try:
                while True:
                    if _c is not None:
                        _hits[_cc] += 1
                        if not _c(fr):
                            break
                    try:
                        _b(fr)
                    except _Continue:
                        pass
                    if _n is not None:
                        _hits[_ic] += 1
                        _n(fr)
            except _Break:
                pass
        return run_for

    def _compile_while(self, s: A.WhileStmt):
        cond = self.expr(s.cond)
        ccid = self.I._cid(self.qname, s.cond.line, s.cond.col)
        body = self.stmt(s.body)
        hits = self.I.hits

        def run_while(fr, _c=cond, _b=body, _cc=ccid, _hits=hits):
            try:
                while True:
                    _hits[_cc] += 1
                    if not _c(fr):
                        break
                    try:
                        _b(fr)
                    except _Continue:
                        pass
            except _Break:
                pass
        return run_while

    def _compile_do_while(self, s: A.DoWhileStmt):
        cond = self.expr(s.cond)
        ccid = self.I._cid(self.qname, s.cond.line, s.cond.col)
        body = self.stmt(s.body)
        hits = self.I.hits

        def run_do(fr, _c=cond, _b=body, _cc=ccid, _hits=hits):
            try:
                while True:
                    try:
                        _b(fr)
                    except _Continue:
                        pass
                    _hits[_cc] += 1
                    if not _c(fr):
                        break
            except _Break:
                pass
        return run_do

    # ------------------------------------------------------------ expressions
    def expr(self, e: A.Expr):
        if isinstance(e, A.IntLit):
            v = e.value
            return lambda fr, _v=v: _v
        if isinstance(e, A.FloatLit):
            v = float(e.value)
            return lambda fr, _v=v: _v
        if isinstance(e, A.CharLit):
            v = ord(e.value[0]) if e.value else 0
            return lambda fr, _v=v: _v
        if isinstance(e, A.StringLit):
            v = e.value
            return lambda fr, _v=v: _v
        if isinstance(e, A.Ident):
            return self._compile_ident(e)
        if isinstance(e, A.Index):
            load, _ = self._compile_index(e)
            return load
        if isinstance(e, A.Member):
            load, _ = self._compile_member(e)
            return load
        if isinstance(e, A.Assign):
            return self._compile_assign(e)
        if isinstance(e, A.UnOp):
            return self._compile_unop(e)
        if isinstance(e, A.BinOp):
            return self._compile_binop(e)
        if isinstance(e, A.Call):
            return self._compile_call(e)
        if isinstance(e, A.Ternary):
            c = self.expr(e.cond)
            t = self.expr(e.then)
            f = self.expr(e.els)
            return lambda fr, _c=c, _t=t, _f=f: _t(fr) if _c(fr) else _f(fr)
        if isinstance(e, A.Cast):
            v = self.expr(e.expr)
            return self._coerce_closure(v, e.type)
        if isinstance(e, A.SizeOf):
            from ..compiler.lowering import elem_size

            size = elem_size(e.arg) if isinstance(e.arg, Type) else 8
            return lambda fr, _v=size: _v
        raise self.err(f"cannot evaluate {type(e).__name__}", e)

    def _coerce_closure(self, val, ty: Type):
        if ty.is_float and ty.pointer == 0:
            return lambda fr, _v=val: float(_v(fr))
        if ty.is_integer:
            return lambda fr, _v=val: int(_v(fr))
        return val

    # -- identifiers ------------------------------------------------------------
    def _compile_ident(self, e: A.Ident):
        slot = self._lookup(e.name)
        if slot is not None:
            if self.dims.get(slot):
                # array decays to a pointer view
                return lambda fr, _s=slot: Ptr(fr[_s], 0)
            return lambda fr, _s=slot: fr[_s]
        g = self.I.gstore.get(e.name)
        if g is not None:
            if isinstance(g, list) and self._global_is_array(e.name):
                return lambda fr, _g=g: Ptr(_g, 0)
            if isinstance(g, Obj):
                return lambda fr, _g=g: _g
            return lambda fr, _g=g: _g[0]
        # implicit this-field in methods
        if self.fn.class_name is not None:
            cls = self.I.classes.get(self.fn.class_name)
            if cls is not None and any(f.name == e.name for f in cls.fields):
                tslot = self._lookup("this")
                name = e.name
                return lambda fr, _s=tslot, _n=name: fr[_s].get(_n)
        raise self.err(f"unknown identifier {e.name!r}", e)

    def _global_is_array(self, name: str) -> bool:
        for g in self.tu_globals():
            for d in g.decls:
                if d.name == name:
                    return bool(d.array_dims)
        return False

    def tu_globals(self):
        return self.I.tu.globals

    # -- array indexing -----------------------------------------------------------
    def _compile_index(self, e: A.Index):
        """Returns (load closure, store closure factory)."""
        chain: list[A.Expr] = []
        base = e
        while isinstance(base, A.Index):
            chain.append(base.index)
            base = base.base
        chain.reverse()
        idx = self._compile_linear_index(base, chain, e)
        buf_get = self._compile_buffer(base, e)

        def load(fr, _b=buf_get, _i=idx):
            buf, off = _b(fr)
            return buf[off + _i(fr)]

        def store(val):
            def do(fr, _b=buf_get, _i=idx, _v=val):
                buf, off = _b(fr)
                v = _v(fr)
                buf[off + _i(fr)] = v
                return v
            return do
        return load, store

    def _compile_linear_index(self, base: A.Expr, chain: list, e: A.Index):
        if len(chain) == 1:
            iv = self.expr(chain[0])
            return lambda fr, _i=iv: _i(fr)
        dims = self._base_dims(base, e)
        if len(dims) < len(chain):
            raise self.err("too many subscripts", e)
        parts = [self.expr(c) for c in chain]
        muls = []
        acc = 1
        for d in reversed(dims[1:len(chain)]):
            muls.append(acc * d)
            acc *= d
        muls.reverse()
        muls.append(1)

        def lin(fr, _p=tuple(parts), _m=tuple(muls)):
            total = 0
            for pi, mi in zip(_p, _m):
                total += pi(fr) * mi
            return total
        return lin

    def _base_dims(self, base: A.Expr, e: A.Index) -> list:
        if isinstance(base, A.Ident):
            slot = self._lookup(base.name)
            if slot is not None and self.dims.get(slot):
                return list(self.dims[slot])
            for g in self.tu_globals():
                for d in g.decls:
                    if d.name == base.name and d.array_dims:
                        return [x.value for x in d.array_dims]
        raise self.err("multi-dim subscript on non-array", e)

    def _compile_buffer(self, base: A.Expr, e: A.Index):
        """Closure returning (buffer, offset) for the index base."""
        if isinstance(base, A.Ident):
            slot = self._lookup(base.name)
            if slot is not None:
                if self.dims.get(slot):       # local array
                    return lambda fr, _s=slot: (fr[_s], 0)
                # pointer variable
                return lambda fr, _s=slot: _ptr_view(fr[_s])
            g = self.I.gstore.get(base.name)
            if g is not None and self._global_is_array(base.name):
                return lambda fr, _g=g: (_g, 0)
            if g is not None:
                return lambda fr, _g=g: _ptr_view(_g[0])
            if self.fn.class_name is not None:
                cls = self.I.classes.get(self.fn.class_name)
                if cls is not None and any(f.name == base.name
                                           for f in cls.fields):
                    tslot = self._lookup("this")
                    nm = base.name
                    return lambda fr, _s=tslot, _n=nm: _ptr_view(fr[_s].get(_n))
            raise self.err(f"unknown identifier {base.name!r}", e)
        if isinstance(base, A.Member):
            load, _ = self._compile_member(base)
            return lambda fr, _l=load: _ptr_view(_l(fr))
        raise self.err("unsupported index base", e)

    # -- members --------------------------------------------------------------------
    def _compile_member(self, e: A.Member):
        obj = self.expr(e.obj)
        name = e.name

        def load(fr, _o=obj, _n=name):
            return _o(fr).get(_n)

        def store(val):
            def do(fr, _o=obj, _n=name, _v=val):
                v = _v(fr)
                _o(fr).set(_n, v)
                return v
            return do
        return load, store

    # -- assignment ------------------------------------------------------------------
    def _compile_assign(self, e: A.Assign):
        target = e.target
        if e.op == "=":
            val = self.expr(e.value)
        else:
            op = e.op[:-1]
            cur = self.expr(target)
            rhs = self.expr(e.value)
            fp = self._is_fp_expr(target)
            fn = (_BIN_FP if fp else _BIN_INT).get(op)
            if fn is None:
                raise self.err(f"unsupported compound op {e.op}", e)
            val = lambda fr, _c=cur, _r=rhs, _f=fn: _f(_c(fr), _r(fr))

        if isinstance(target, A.Ident):
            slot = self._lookup(target.name)
            if slot is not None and not self.dims.get(slot):
                ty = self.types[slot]
                val2 = self._coerce_closure(val, ty)

                def do_local(fr, _s=slot, _v=val2):
                    v = _v(fr)
                    fr[_s] = v
                    return v
                return do_local
            g = self.I.gstore.get(target.name)
            if g is not None and not self._global_is_array(target.name) \
                    and not isinstance(g, Obj):
                def do_global(fr, _g=g, _v=val):
                    v = _v(fr)
                    _g[0] = v
                    return v
                return do_global
            if slot is None and self.fn.class_name is not None:
                cls = self.I.classes.get(self.fn.class_name)
                if cls is not None and any(f.name == target.name
                                           for f in cls.fields):
                    tslot = self._lookup("this")
                    nm = target.name

                    def do_field(fr, _s=tslot, _n=nm, _v=val):
                        v = _v(fr)
                        fr[_s].set(_n, v)
                        return v
                    return do_field
            raise self.err(f"cannot assign to {target.name!r}", e)
        if isinstance(target, A.Index):
            _, store = self._compile_index(target)
            return store(val)
        if isinstance(target, A.Member):
            _, store = self._compile_member(target)
            return store(val)
        if isinstance(target, A.UnOp) and target.op == "*":
            p = self.expr(target.operand)

            def do_deref(fr, _p=p, _v=val):
                v = _v(fr)
                ptr = _p(fr)
                ptr.store(0, v)
                return v
            return do_deref
        raise self.err("unsupported assignment target", e)

    def _is_fp_expr(self, e: A.Expr) -> bool:
        if isinstance(e, A.Ident):
            slot = self._lookup(e.name)
            if slot is not None:
                t = self.types[slot]
                return t.is_float and t.pointer == 0
            for g in self.tu_globals():
                for d in g.decls:
                    if d.name == e.name:
                        return d.type.is_float
            if self.fn.class_name is not None:
                cls = self.I.classes.get(self.fn.class_name)
                if cls is not None:
                    for f in cls.fields:
                        if f.name == e.name:
                            return f.type.is_float
        if isinstance(e, A.Index):
            base = e
            while isinstance(base, A.Index):
                base = base.base
            if isinstance(base, A.Ident):
                slot = self._lookup(base.name)
                if slot is not None:
                    return self.types[slot].is_float
                for g in self.tu_globals():
                    for d in g.decls:
                        if d.name == base.name:
                            return d.type.is_float
                if self.fn.class_name is not None:
                    cls = self.I.classes.get(self.fn.class_name)
                    if cls is not None:
                        for f in cls.fields:
                            if f.name == base.name:
                                return f.type.is_float
        if isinstance(e, A.Member):
            cls = self._member_class(e)
            if cls is not None:
                for f in cls.fields:
                    if f.name == e.name:
                        return f.type.is_float
        return False

    def _member_class(self, e: A.Member):
        if isinstance(e.obj, A.Ident):
            slot = self._lookup(e.obj.name)
            if slot is not None:
                return self.I.classes.get(self.types[slot].name)
            for g in self.tu_globals():
                for d in g.decls:
                    if d.name == e.obj.name:
                        return self.I.classes.get(d.type.name)
        return None

    # -- unary / binary ---------------------------------------------------------------
    def _compile_unop(self, e: A.UnOp):
        if e.op in ("++", "--"):
            delta = 1 if e.op == "++" else -1
            if isinstance(e.operand, A.Ident):
                slot = self._lookup(e.operand.name)
                if slot is not None:
                    if e.prefix:
                        def pre(fr, _s=slot, _d=delta):
                            v = fr[_s] + _d
                            fr[_s] = v
                            return v
                        return pre

                    def post(fr, _s=slot, _d=delta):
                        v = fr[_s]
                        fr[_s] = v + _d
                        return v
                    return post
                g = self.I.gstore.get(e.operand.name)
                if g is not None:
                    def gpost(fr, _g=g, _d=delta, _pre=e.prefix):
                        v = _g[0]
                        _g[0] = v + _d
                        return _g[0] if _pre else v
                    return gpost
            if isinstance(e.operand, A.Index):
                load, store = self._compile_index(e.operand)
                d = delta
                inc = store(lambda fr, _l=load, _d=d: _l(fr) + _d)
                if e.prefix:
                    return inc

                def post_idx(fr, _l=load, _inc=inc, _d=d):
                    v = _l(fr)
                    _inc(fr)
                    return v
                return post_idx
            raise self.err("unsupported ++/-- target", e)
        v = self.expr(e.operand)
        if e.op == "-":
            return lambda fr, _v=v: -_v(fr)
        if e.op == "+":
            return v
        if e.op == "!":
            return lambda fr, _v=v: 0 if _v(fr) else 1
        if e.op == "~":
            return lambda fr, _v=v: ~int(_v(fr))
        if e.op == "*":
            return lambda fr, _v=v: _v(fr).load(0)
        if e.op == "&":
            raise self.err("address-of is not supported by the dynamic "
                           "substrate", e)
        raise self.err(f"unsupported unary {e.op}", e)

    def _compile_binop(self, e: A.BinOp):
        if e.op == "&&":
            l = self.expr(e.lhs)
            r = self.expr(e.rhs)
            return lambda fr, _l=l, _r=r: 1 if (_l(fr) and _r(fr)) else 0
        if e.op == "||":
            l = self.expr(e.lhs)
            r = self.expr(e.rhs)
            return lambda fr, _l=l, _r=r: 1 if (_l(fr) or _r(fr)) else 0
        if e.op == ",":
            l = self.expr(e.lhs)
            r = self.expr(e.rhs)
            return lambda fr, _l=l, _r=r: (_l(fr), _r(fr))[1]
        l = self.expr(e.lhs)
        r = self.expr(e.rhs)
        fp = self._expr_is_fp_operand(e.lhs) or self._expr_is_fp_operand(e.rhs)
        table = _BIN_FP if fp else _BIN_INT
        fn = table.get(e.op)
        if fn is None:
            # integer-only op applied in fp context or unknown
            fn = _BIN_INT.get(e.op)
            if fn is None:
                raise self.err(f"unsupported operator {e.op}", e)
        return lambda fr, _l=l, _r=r, _f=fn: _f(_l(fr), _r(fr))

    def _expr_is_fp_operand(self, e: A.Expr) -> bool:
        if isinstance(e, A.FloatLit):
            return True
        if isinstance(e, (A.Ident, A.Index, A.Member)):
            return self._is_fp_expr(e)
        if isinstance(e, A.BinOp):
            return self._expr_is_fp_operand(e.lhs) or \
                self._expr_is_fp_operand(e.rhs)
        if isinstance(e, A.UnOp):
            return self._expr_is_fp_operand(e.operand)
        if isinstance(e, A.Call):
            name = e.callee.name if isinstance(e.callee, A.Ident) else None
            if name and name in BUILTIN_FUNCTIONS:
                return BUILTIN_FUNCTIONS[name].is_float
            fn = self._resolve_user_fn(e)
            if fn is not None:
                return fn.return_type.is_float
        if isinstance(e, A.Cast):
            return e.type.is_float and e.type.pointer == 0
        if isinstance(e, A.Assign):
            return self._is_fp_expr(e.target)
        return False

    # -- calls -------------------------------------------------------------------------
    def _resolve_user_fn(self, e: A.Call):
        if isinstance(e.callee, A.Ident):
            return self.I.tu.find_function(e.callee.name, None)
        return None

    def _compile_call(self, e: A.Call):
        argfns = [self.expr(a) for a in e.args]

        # method call obj.m(...)
        if isinstance(e.callee, A.Member):
            objfn = self.expr(e.callee.obj)
            cls = self._callee_class(e.callee.obj, e)
            qname = f"{cls}::{e.callee.name}"
            return self._make_user_call(qname, argfns, objfn, e)

        if not isinstance(e.callee, A.Ident):
            raise self.err("unsupported call target", e)
        name = e.callee.name

        # functor f(...)
        slot = self._lookup(name)
        ty = None
        if slot is not None:
            ty = self.types[slot]
        else:
            for g in self.tu_globals():
                for d in g.decls:
                    if d.name == name:
                        ty = d.type
        if ty is not None and ty.name in self.I.classes and ty.pointer == 0:
            objfn = self._compile_ident(e.callee)
            qname = f"{ty.name}::operator()"
            return self._make_user_call(qname, argfns, objfn, e)

        fn = self.I.tu.find_function(name, None)
        if fn is not None and not fn.info.get("prototype_only"):
            return self._make_user_call(name, argfns, None, e)

        lf = LIBRARY.get(name)
        if lf is None:
            raise self.err(f"call to unknown function {name!r}", e)
        I = self.I

        if lf.dynamic_cost is None:
            def run_lib(fr, _a=tuple(argfns), _lf=lf, _I=I):
                args = [f(fr) for f in _a]
                _I.lib_counts[_lf.name] = _I.lib_counts.get(_lf.name, 0) + 1
                return _lf.impl(*args)
            return run_lib

        def run_lib_dyn(fr, _a=tuple(argfns), _lf=lf, _I=I):
            args = [f(fr) for f in _a]
            _I.lib_counts[_lf.name] = _I.lib_counts.get(_lf.name, 0) + 1
            # per-call dynamic cost (e.g. printf: depends on the format);
            # identical costs share one synthetic lib entry keyed by content.
            extra = _lf.dynamic_cost(args)
            key = (_lf.name, tuple(sorted(extra.items())))
            if key not in _I.lib_matrix:
                vec = np.zeros(NCAT, dtype=np.int64)
                for cat, n in extra.items():
                    vec[_I.category_names.index(cat)] = n
                _I.lib_matrix[key] = vec
            _I.lib_counts[key] = _I.lib_counts.get(key, 0) + 1
            return _lf.impl(*args)
        return run_lib_dyn

    def _callee_class(self, obj: A.Expr, e: A.Expr) -> str:
        if isinstance(obj, A.Ident):
            slot = self._lookup(obj.name)
            if slot is not None:
                return self.types[slot].name
            for g in self.tu_globals():
                for d in g.decls:
                    if d.name == obj.name:
                        return d.type.name
        raise self.err("cannot resolve method receiver class", e)

    def _make_user_call(self, qname: str, argfns: list, objfn, e: A.Expr):
        I = self.I

        if objfn is None:
            def run_call(fr, _a=tuple(argfns), _q=qname, _I=I):
                cf = _I.functions.get(_q)
                if cf is None:
                    raise InterpError(f"undefined function {_q!r}")
                return cf.call([f(fr) for f in _a])
            return run_call

        def run_method(fr, _a=tuple(argfns), _q=qname, _o=objfn, _I=I):
            cf = _I.functions.get(_q)
            if cf is None:
                raise InterpError(f"undefined method {_q!r}")
            args = [_o(fr)]
            args.extend(f(fr) for f in _a)
            return cf.call(args)
        return run_method


def _ptr_view(p) -> tuple:
    """Normalize a pointer-ish value to (buffer, offset)."""
    if isinstance(p, Ptr):
        return p.buf, p.off
    if isinstance(p, list):
        return p, 0
    raise InterpError(f"not a pointer: {type(p).__name__}")
