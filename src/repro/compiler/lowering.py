"""Lowering: source AST → Mira-x86 instructions.

This is the "compiler" half of the substitution for gcc (DESIGN.md §2).  The
instruction selection follows x86-64 SysV idioms:

* scalar doubles in SSE2 registers (``movsd``/``addsd``/``mulsd``...),
* array accesses through SIB addressing at O1+ (``movsd xmm0,
  [a + rcx*8]``) — index arithmetic the *source* shows but the *binary*
  folds away, the effect PBound-style source-only analysis miscounts,
* explicit address arithmetic at O0 (``imul``/``add`` + indirect load),
* ``cdq`` + ``idiv`` division, ``shl``/``sar`` strength reduction for
  power-of-two multiplies/divides,
* stack frames with ``push rbp; mov rbp, rsp; sub rsp, N`` prologues,
* promoted scalars (O2) living in callee-saved registers,
* packed SSE2 instructions for vectorized loops (O3).

Every instruction is tagged with its **cost center** — the ``(line, col)``
of the statement or SCoP component (loop init / cond / increment, branch
condition) it implements.  The DWARF-style line table carries these into the
object file; the bridge groups decoded instructions by cost center and the
metric generator multiplies each group by its execution-count expression.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from ..errors import CompileError
from ..frontend import ast_nodes as A
from ..frontend.types import BUILTIN_FUNCTIONS, Type
from .isa import Imm, Instruction, Label, Mem, Reg, Xmm
from .optimizer import mark_vectorizable_loops
from .regalloc import FP_SCRATCH, INT_SCRATCH, PromotionPlan, ScratchPool, promote_scalars

__all__ = ["FunctionLowering", "ClassLayouts", "lower_function", "elem_size"]

INT_ARG_REGS = ["rdi", "rsi", "rdx", "rcx", "r8", "r9"]
FP_ARG_REGS = [f"xmm{i}" for i in range(8)]

# Shared value types of lowered expressions.
_INT = Type("int")
_DOUBLE = Type("double")


def elem_size(ty: Type) -> int:
    """Array element size in bytes."""
    if ty.pointer > 0:
        return 8
    return {"char": 1, "bool": 1, "short": 2, "int": 4, "unsigned": 4,
            "float": 4, "double": 8, "long": 8, "size_t": 8}.get(ty.name, 8)


@dataclass
class ClassLayouts:
    """Field offsets and sizes for every class in the translation unit."""

    offsets: dict = field(default_factory=dict)  # class -> {field: offset}
    sizes: dict = field(default_factory=dict)    # class -> total bytes
    field_types: dict = field(default_factory=dict)  # class -> {field: Type}

    @staticmethod
    def build(tu: A.TranslationUnit) -> "ClassLayouts":
        out = ClassLayouts()
        for cls in tu.classes:
            offs: dict[str, int] = {}
            ftypes: dict[str, Type] = {}
            off = 0
            for f in cls.fields:
                offs[f.name] = off
                ftypes[f.name] = f.type
                off += 8  # every field in an 8-byte slot (simple, aligned)
            out.offsets[cls.name] = offs
            out.sizes[cls.name] = max(off, 8)
            out.field_types[cls.name] = ftypes
        return out


@dataclass
class VarInfo:
    """Where a variable lives and what it is."""

    name: str
    type: Type
    dims: tuple = ()          # constant array dimensions
    kind: str = "stack"       # stack | global | reg
    offset: int = 0           # stack: negative rbp offset
    symbol: str = ""          # global symbol name
    reg: str = ""             # promoted register

    @property
    def is_array(self) -> bool:
        return bool(self.dims)


@dataclass
class Val:
    """An expression value held in a register."""

    reg: str
    is_fp: bool
    type: Type
    owned: bool = True  # False for promoted-variable registers (do not free)


class FunctionLowering:
    """Lowers one function to an instruction list."""

    def __init__(self, fn: A.FunctionDef, tu: A.TranslationUnit,
                 layouts: ClassLayouts, globals_table: dict,
                 func_table: dict, opt_level: int = 2) -> None:
        self.fn = fn
        self.tu = tu
        self.layouts = layouts
        self.globals_table = globals_table
        self.func_table = func_table
        self.opt = opt_level
        self.instrs: list[Instruction] = []
        self.ipool = ScratchPool(INT_SCRATCH)
        self.fpool = ScratchPool(FP_SCRATCH)
        self.scopes: list[dict] = [{}]
        self.frame = 0
        self.cur_line = fn.line
        self.cur_col = fn.col
        self.label_n = 0
        self.break_stack: list[str] = []
        self.continue_stack: list[str] = []
        self.float_pool: dict[float, str] = {}
        self.plan: PromotionPlan = PromotionPlan()
        self.ret_label = self._mangle("ret")
        self.vector_ctx = 0  # >0 while lowering a vectorized loop body

    # ------------------------------------------------------------------ utils
    def _mangle(self, tag: str) -> str:
        self.label_n += 1
        base = self.fn.qualified_name.replace("::", "__")
        return f".L_{base}_{tag}_{self.label_n}"

    def emit(self, mnemonic: str, *operands) -> Instruction:
        ins = Instruction(mnemonic, operands, self.cur_line, self.cur_col)
        self.instrs.append(ins)
        return ins

    def set_loc(self, node: A.Node) -> None:
        if node.line:
            self.cur_line = node.line
            self.cur_col = node.col

    def error(self, msg: str, node: A.Node | None = None) -> CompileError:
        where = f" at {node.line}:{node.col}" if node is not None else ""
        return CompileError(f"{self.fn.qualified_name}: {msg}{where}")

    # -------------------------------------------------------------- registers
    def ireg(self) -> str:
        r = self.ipool.alloc()
        if r is None:
            raise self.error("integer expression too complex (scratch "
                             "registers exhausted)")
        return r

    def freg(self) -> str:
        r = self.fpool.alloc()
        if r is None:
            raise self.error("FP expression too complex (scratch registers "
                             "exhausted)")
        return r

    def free(self, val: Val | None) -> None:
        if val is None or not val.owned:
            return
        (self.fpool if val.is_fp else self.ipool).release(val.reg)

    # ----------------------------------------------------------------- scopes
    def lookup(self, name: str) -> VarInfo | None:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        if name in self.globals_table:
            return self.globals_table[name]
        return None

    def declare_local(self, name: str, ty: Type, dims: tuple = ()) -> VarInfo:
        preg = self.plan.reg_for(name)
        if preg is not None and not dims and not ty.is_class:
            info = VarInfo(name, ty, dims, kind="reg", reg=preg)
        else:
            size = 8
            if dims:
                n = 1
                for d in dims:
                    n *= d
                size = n * elem_size(ty)
            elif ty.is_class and ty.pointer == 0:
                size = self.layouts.sizes.get(ty.name, 8)
            self.frame += (size + 7) // 8 * 8
            info = VarInfo(name, ty, dims, kind="stack", offset=-self.frame)
        self.scopes[-1][name] = info
        return info

    # =================================================================== run
    def run(self) -> list[Instruction]:
        fn = self.fn
        if self.opt >= 2:
            self.plan = promote_scalars(fn)
        if self.opt >= 3:
            mark_vectorizable_loops(fn)

        self.set_loc(fn)
        self.emit("push", Reg("rbp"))
        self.emit("mov", Reg("rbp"), Reg("rsp"))
        frame_patch = self.emit("sub", Reg("rsp"), Imm(0))
        for r in self.plan.saved_regs:
            self.emit("push", Reg(r))

        # parameters: implicit this, then declared params
        int_idx = 0
        fp_idx = 0
        if fn.class_name is not None:
            info = self.declare_local("this", Type(fn.class_name, 1))
            self._store_param(info, INT_ARG_REGS[int_idx], False)
            int_idx += 1
        for p in fn.params:
            is_fp = p.type.is_float and p.type.pointer == 0
            info = self.declare_local(p.name, p.type)
            if is_fp:
                if fp_idx >= len(FP_ARG_REGS):
                    raise self.error("too many FP parameters")
                self._store_param(info, FP_ARG_REGS[fp_idx], True)
                fp_idx += 1
            else:
                if int_idx >= len(INT_ARG_REGS):
                    raise self.error("too many integer parameters")
                self._store_param(info, INT_ARG_REGS[int_idx], False)
                int_idx += 1

        self.stmt(fn.body)

        # epilogue
        self.set_loc(fn)
        self._label(self.ret_label)
        for r in reversed(self.plan.saved_regs):
            self.emit("pop", Reg(r))
        self.emit("leave")
        self.emit("ret")

        frame_patch.operands = (Reg("rsp"), Imm((self.frame + 15) // 16 * 16))
        return self.instrs

    def _store_param(self, info: VarInfo, src_reg: str, is_fp: bool) -> None:
        if info.kind == "reg":
            self.emit("movsd" if is_fp else "mov",
                      (Xmm if is_fp else Reg)(info.reg),
                      (Xmm if is_fp else Reg)(src_reg))
        else:
            self.emit("movsd" if is_fp else "mov",
                      Mem(base="rbp", disp=info.offset),
                      (Xmm if is_fp else Reg)(src_reg))

    def _label(self, name: str) -> None:
        # Labels are pseudo-instructions: a nop carrying the label symbol.
        ins = self.emit("nop", Label(name))
        ins.col = 0  # label nops belong to control flow, not a statement

    # ============================================================ statements
    def stmt(self, s: A.Stmt) -> None:
        anns = getattr(s, "annotations", None)
        if anns and any(a.skip for a in anns):
            # {skip:yes}: scope excluded from the model AND from the binary
            # (mirrors removing it from analysis; keeps both sides aligned).
            return
        lower = self._STMT_LOWERERS.get(type(s))
        if lower is None:
            raise self.error(f"cannot lower statement {type(s).__name__}", s)
        lower(self, s)

    def _lower_compound(self, s: A.CompoundStmt) -> None:
        self.scopes.append({})
        for sub in s.stmts:
            self.stmt(sub)
        self.scopes.pop()

    def _lower_null(self, s: A.NullStmt) -> None:
        pass

    def _lower_decl(self, s: A.DeclStmt) -> None:
        self.set_loc(s)
        for d in s.decls:
            dims = tuple(self._const_dim(x) for x in d.array_dims)
            info = self.declare_local(d.name, d.type, dims)
            if d.init is not None:
                self._assign_to_var(info, d.init)

    def _lower_expr_stmt(self, s: A.ExprStmt) -> None:
        self.set_loc(s)
        v = self.expr(s.expr, want_value=False)
        self.free(v)

    def _lower_return(self, s: A.ReturnStmt) -> None:
        self.set_loc(s)
        if s.expr is not None:
            v = self.expr(s.expr)
            if v.is_fp:
                if v.reg != "xmm0":
                    self.emit("movsd", Xmm("xmm0"), Xmm(v.reg))
            else:
                if v.reg != "rax":
                    self.emit("mov", Reg("rax"), Reg(v.reg))
            self.free(v)
        self.emit("jmp", Label(self.ret_label))

    def _lower_break(self, s: A.BreakStmt) -> None:
        self.set_loc(s)
        if not self.break_stack:
            raise self.error("break outside loop", s)
        self.emit("jmp", Label(self.break_stack[-1]))

    def _lower_continue(self, s: A.ContinueStmt) -> None:
        self.set_loc(s)
        if not self.continue_stack:
            raise self.error("continue outside loop", s)
        self.emit("jmp", Label(self.continue_stack[-1]))

    def _const_dim(self, e: A.Expr) -> int:
        if isinstance(e, A.IntLit):
            return e.value
        raise self.error("array dimensions must be constant after folding", e)

    def _assign_to_var(self, info: VarInfo, init: A.Expr) -> None:
        v = self.expr(init)
        v = self._coerce(v, info.type)
        self._store_var(info, v)
        self.free(v)

    def _store_var(self, info: VarInfo, v: Val) -> None:
        if info.kind == "reg":
            self.emit("movsd" if v.is_fp else "mov",
                      (Xmm if v.is_fp else Reg)(info.reg),
                      (Xmm if v.is_fp else Reg)(v.reg))
        elif info.kind == "global":
            self.emit("movsd" if v.is_fp else "mov",
                      Mem(symbol=info.symbol),
                      (Xmm if v.is_fp else Reg)(v.reg))
        else:
            self.emit("movsd" if v.is_fp else "mov",
                      Mem(base="rbp", disp=info.offset),
                      (Xmm if v.is_fp else Reg)(v.reg))

    # ------------------------------------------------------------ control flow
    def _lower_if(self, s: A.IfStmt) -> None:
        else_l = self._mangle("else")
        end_l = self._mangle("endif") if s.els is not None else else_l
        self.set_loc(s.cond)
        self.condition(s.cond, false_label=else_l)
        self.stmt(s.then)
        if s.els is not None:
            self.set_loc(s.cond)
            self.emit("jmp", Label(end_l))
            self._label(else_l)
            self.stmt(s.els)
        self._label(end_l)

    def _lower_for(self, s: A.ForStmt) -> None:
        vectorized = int(s.info.get("vectorized", 0)) if self.opt >= 3 else 0
        head_l = self._mangle("for_cond")
        cont_l = self._mangle("for_incr")
        end_l = self._mangle("for_end")
        self.scopes.append({})
        if s.init is not None:
            self.stmt(s.init)
        self._label(head_l)
        if s.cond is not None:
            self.set_loc(s.cond)
            self.condition(s.cond, false_label=end_l)
        self.break_stack.append(end_l)
        self.continue_stack.append(cont_l)
        if vectorized:
            self.vector_ctx += 1
        self.stmt(s.body)
        if vectorized:
            self.vector_ctx -= 1
        self.break_stack.pop()
        self.continue_stack.pop()
        self._label(cont_l)
        if s.incr is not None:
            self.set_loc(s.incr)
            if vectorized:
                # step 2 (vector width): i += 2 instead of i++
                self._emit_incr_by(s.incr, vectorized)
            else:
                v = self.expr(s.incr, want_value=False)
                self.free(v)
            self.emit("jmp", Label(head_l))
        else:
            self.set_loc(s)
            self.emit("jmp", Label(head_l))
        self._label(end_l)
        self.scopes.pop()

    def _emit_incr_by(self, incr: A.Expr, step: int) -> None:
        if isinstance(incr, A.UnOp) and incr.op == "++" \
                and isinstance(incr.operand, A.Ident):
            info = self.lookup(incr.operand.name)
            if info is None:
                raise self.error(f"unknown variable {incr.operand.name!r}", incr)
            if info.kind == "reg":
                self.emit("add", Reg(info.reg), Imm(step))
            elif info.kind == "global":
                self.emit("add", Mem(symbol=info.symbol), Imm(step))
            else:
                self.emit("add", Mem(base="rbp", disp=info.offset), Imm(step))
            return
        raise self.error("vectorized loop requires ++ increment", incr)

    def _lower_while(self, s: A.WhileStmt) -> None:
        head_l = self._mangle("wh_cond")
        end_l = self._mangle("wh_end")
        self._label(head_l)
        self.set_loc(s.cond)
        self.condition(s.cond, false_label=end_l)
        self.break_stack.append(end_l)
        self.continue_stack.append(head_l)
        self.stmt(s.body)
        self.break_stack.pop()
        self.continue_stack.pop()
        self.set_loc(s.cond)
        self.emit("jmp", Label(head_l))
        self._label(end_l)

    def _lower_do_while(self, s: A.DoWhileStmt) -> None:
        head_l = self._mangle("do_head")
        cond_l = self._mangle("do_cond")
        end_l = self._mangle("do_end")
        self._label(head_l)
        self.break_stack.append(end_l)
        self.continue_stack.append(cond_l)
        self.stmt(s.body)
        self.break_stack.pop()
        self.continue_stack.pop()
        self._label(cond_l)
        self.set_loc(s.cond)
        self.condition(s.cond, false_label=end_l, jump_back=head_l)
        self._label(end_l)

    def condition(self, cond: A.Expr, false_label: str,
                  jump_back: str | None = None) -> None:
        """Lower a branch condition with short-circuit evaluation.

        Falls through on true, jumps to ``false_label`` on false.  For
        do-while, ``jump_back`` makes the true edge an explicit jump.
        """
        self._cond_rec(cond, false_label, negate=False)
        if jump_back is not None:
            self.emit("jmp", Label(jump_back))

    _CMP_JCC_FALSE_INT = {"<": "jge", "<=": "jg", ">": "jle", ">=": "jl",
                          "==": "jne", "!=": "je"}
    _CMP_JCC_TRUE_INT = {"<": "jl", "<=": "jle", ">": "jg", ">=": "jge",
                         "==": "je", "!=": "jne"}
    _CMP_JCC_FALSE_FP = {"<": "jae", "<=": "ja", ">": "jbe", ">=": "jb",
                         "==": "jne", "!=": "je"}

    def _cond_rec(self, cond: A.Expr, false_label: str, negate: bool) -> None:
        if isinstance(cond, A.UnOp) and cond.op == "!":
            # !(x): jump to false_label when x is TRUE
            true_l = self._mangle("nt")
            self._cond_rec(cond.operand, true_l, negate=not negate)
            self.emit("jmp", Label(false_label))
            self._label(true_l)
            return
        if isinstance(cond, A.BinOp) and cond.op == "&&" and not negate:
            self._cond_rec(cond.lhs, false_label, False)
            self._cond_rec(cond.rhs, false_label, False)
            return
        if isinstance(cond, A.BinOp) and cond.op == "||" and not negate:
            ok_l = self._mangle("or_ok")
            next_l = self._mangle("or_next")
            self._cond_rec(cond.lhs, next_l, False)
            self.emit("jmp", Label(ok_l))
            self._label(next_l)
            self._cond_rec(cond.rhs, false_label, False)
            self._label(ok_l)
            return
        if isinstance(cond, A.BinOp) and cond.op in self._CMP_JCC_FALSE_INT:
            lv = self.expr(cond.lhs)
            rv = self.expr(cond.rhs)
            if lv.is_fp or rv.is_fp:
                lv = self._coerce(lv, _DOUBLE)
                rv = self._coerce(rv, _DOUBLE)
                self.emit("ucomisd", Xmm(lv.reg), Xmm(rv.reg))
                table = self._CMP_JCC_FALSE_FP
            else:
                self.emit("cmp", Reg(lv.reg), Reg(rv.reg))
                table = self._CMP_JCC_FALSE_INT
            op = cond.op
            if negate:
                op = {"<": ">=", "<=": ">", ">": "<=", ">=": "<",
                      "==": "!=", "!=": "=="}[op]
            self.emit(table[op], Label(false_label))
            self.free(lv)
            self.free(rv)
            return
        # generic truthiness: evaluate, test against zero
        v = self.expr(cond)
        if v.is_fp:
            z = self.freg()
            self.emit("xorpd", Xmm(z), Xmm(z))
            self.emit("ucomisd", Xmm(v.reg), Xmm(z))
            self.fpool.release(z)
            self.emit("jne" if negate else "je", Label(false_label))
        else:
            self.emit("test", Reg(v.reg), Reg(v.reg))
            self.emit("jne" if negate else "je", Label(false_label))
        self.free(v)

    # =========================================================== expressions
    def expr(self, e: A.Expr, want_value: bool = True) -> Val | None:
        """Lower an expression; returns the register Val (or None when
        ``want_value=False`` and the expression is a pure effect)."""
        lower = self._EXPR_LOWERERS.get(type(e))
        if lower is None:
            raise self.error(f"cannot lower expression {type(e).__name__}", e)
        return lower(self, e, want_value)

    def _lower_int(self, e: A.IntLit, want_value: bool) -> Val:
        r = self.ireg()
        self.emit("mov", Reg(r), Imm(e.value))
        return Val(r, False, _INT)

    def _lower_float(self, e: A.FloatLit, want_value: bool) -> Val:
        return self._load_float_const(float(e.value))

    def _lower_char(self, e: A.CharLit, want_value: bool) -> Val:
        r = self.ireg()
        self.emit("mov", Reg(r), Imm(ord(e.value[0]) if e.value else 0))
        return Val(r, False, Type("char"))

    def _lower_string(self, e: A.StringLit, want_value: bool) -> Val:
        r = self.ireg()
        sym = self._string_symbol(e.value)
        self.emit("lea", Reg(r), Mem(symbol=sym))
        return Val(r, False, Type("char", 1))

    def _lower_ident(self, e: A.Ident, want_value: bool) -> Val:
        return self._load_ident(e)

    def _lower_load(self, e: A.Index | A.Member, want_value: bool) -> Val:
        mem, ty = self.addr(e)
        v = self._load_from(mem, ty)
        self._free_mem_regs(mem)
        return v

    def _lower_cast(self, e: A.Cast, want_value: bool) -> Val:
        v = self.expr(e.expr)
        return self._coerce(v, e.type)

    def _lower_sizeof(self, e: A.SizeOf, want_value: bool) -> Val:
        r = self.ireg()
        size = elem_size(e.arg) if isinstance(e.arg, Type) else 8
        self.emit("mov", Reg(r), Imm(size))
        return Val(r, False, Type("long"))

    # ------------------------------------------------------------- leaf loads
    def _load_float_const(self, value: float) -> Val:
        sym = self.float_pool.get(value)
        if sym is None:
            sym = f".LC_{self.fn.qualified_name.replace('::', '__')}_{len(self.float_pool)}"
            self.float_pool[value] = sym
        r = self.freg()
        if self.vector_ctx:
            self.emit("movapd", Xmm(r), Mem(symbol=sym))
        else:
            self.emit("movsd", Xmm(r), Mem(symbol=sym))
        return Val(r, True, _DOUBLE)

    def _string_symbol(self, s: str) -> str:
        # pool strings by a hash that is the same in every process
        key = float(zlib.crc32(s.encode()) % (10 ** 9)) + 0.5
        sym = self.float_pool.get(key)
        if sym is None:
            sym = f".LS_{self.fn.qualified_name.replace('::', '__')}_{len(self.float_pool)}"
            self.float_pool[key] = sym
        return sym

    def _load_ident(self, e: A.Ident) -> Val:
        info = self.lookup(e.name)
        if info is None:
            # unqualified member access inside a method body
            if self.fn.class_name is not None:
                offs = self.layouts.offsets.get(self.fn.class_name, {})
                if e.name in offs:
                    return self._load_this_field(e.name)
            raise self.error(f"unknown identifier {e.name!r}", e)
        is_fp = info.type.is_float and info.type.pointer == 0 and not info.is_array
        if info.kind == "reg":
            return Val(info.reg, is_fp, info.type, owned=False)
        if info.is_array:
            # array name decays to its address
            r = self.ireg()
            if info.kind == "global":
                self.emit("lea", Reg(r), Mem(symbol=info.symbol))
            else:
                self.emit("lea", Reg(r), Mem(base="rbp", disp=info.offset))
            return Val(r, False, Type(info.type.name, info.type.pointer + 1))
        mem = (Mem(symbol=info.symbol) if info.kind == "global"
               else Mem(base="rbp", disp=info.offset))
        return self._load_from(mem, info.type)

    def _load_this_field(self, name: str) -> Val:
        this = self.lookup("this")
        if this is None:
            raise self.error(f"field {name!r} used outside method")
        tval = self._load_var_value(this)
        off = self.layouts.offsets[self.fn.class_name][name]
        fty = self.layouts.field_types[self.fn.class_name][name]
        v = self._load_from(Mem(base=tval.reg, disp=off), fty)
        self.free(tval)
        return v

    def _load_var_value(self, info: VarInfo) -> Val:
        is_fp = info.type.is_float and info.type.pointer == 0
        if info.kind == "reg":
            return Val(info.reg, is_fp, info.type, owned=False)
        mem = (Mem(symbol=info.symbol) if info.kind == "global"
               else Mem(base="rbp", disp=info.offset))
        return self._load_from(mem, info.type)

    def _load_from(self, mem: Mem, ty: Type) -> Val:
        if ty.is_float and ty.pointer == 0:
            r = self.freg()
            if self.vector_ctx:
                self.emit("movupd", Xmm(r), mem)
            else:
                self.emit("movsd", Xmm(r), mem)
            return Val(r, True, ty)
        r = self.ireg()
        if ty.pointer == 0 and ty.name == "int" and not ty.unsigned:
            self.emit("movsxd", Reg(r), mem)  # 32→64 sign extension
        else:
            self.emit("mov", Reg(r), mem)
        return Val(r, False, ty)

    def _free_mem_regs(self, mem: Mem) -> None:
        for rname in (mem.base, mem.index):
            if rname and self.ipool.is_busy(rname):
                self.ipool.release(rname)

    # -------------------------------------------------------------- addressing
    def addr(self, e: A.Expr) -> tuple[Mem, Type]:
        """Compute the memory operand for an lvalue expression.

        Scratch registers referenced by the returned Mem are owned by the
        caller: call ``_free_mem_regs`` after the access.
        """
        if isinstance(e, A.Ident):
            info = self.lookup(e.name)
            if info is None:
                if self.fn.class_name is not None:
                    offs = self.layouts.offsets.get(self.fn.class_name, {})
                    if e.name in offs:
                        this = self.lookup("this")
                        tval = self._load_var_value(this)
                        fty = self.layouts.field_types[self.fn.class_name][e.name]
                        # tval.reg ownership transfers into the Mem
                        return Mem(base=tval.reg, disp=offs[e.name]), fty
                raise self.error(f"unknown identifier {e.name!r}", e)
            if info.kind == "reg":
                raise self.error(
                    f"cannot take address of promoted variable {e.name!r}", e)
            if info.kind == "global":
                return Mem(symbol=info.symbol), info.type
            return Mem(base="rbp", disp=info.offset), info.type

        if isinstance(e, A.Member):
            base_mem, base_ty = self.addr(e.obj) if not e.arrow else (None, None)
            if e.arrow:
                pv = self.expr(e.obj)
                cls = pv.type.name
                off = self._field_offset(cls, e.name, e)
                return Mem(base=pv.reg, disp=off), \
                    self.layouts.field_types[cls][e.name]
            cls = base_ty.name
            off = self._field_offset(cls, e.name, e)
            fty = self.layouts.field_types[cls][e.name]
            return Mem(base=base_mem.base, index=base_mem.index,
                       scale=base_mem.scale, disp=base_mem.disp + off,
                       symbol=base_mem.symbol), fty

        if isinstance(e, A.Index):
            return self._addr_index(e)

        if isinstance(e, A.UnOp) and e.op == "*":
            pv = self.expr(e.operand)
            return Mem(base=pv.reg), pv.type.pointee()

        raise self.error(f"expression is not an lvalue: {type(e).__name__}", e)

    def _field_offset(self, cls: str, name: str, e: A.Expr) -> int:
        offs = self.layouts.offsets.get(cls)
        if offs is None or name not in offs:
            raise self.error(f"no field {name!r} in class {cls!r}", e)
        return offs[name]

    def _addr_index(self, e: A.Index) -> tuple[Mem, Type]:
        # Collect the index chain for multi-dimensional arrays.
        chain: list[A.Expr] = []
        base = e
        while isinstance(base, A.Index):
            chain.append(base.index)
            base = base.base
        chain.reverse()

        # Resolve the base: array variable, pointer variable, or member.
        if isinstance(base, A.Ident):
            info = self.lookup(base.name)
            if info is None and self.fn.class_name is not None \
                    and base.name in self.layouts.offsets.get(self.fn.class_name, {}):
                # pointer field of this
                fv = self._load_this_field(base.name)
                return self._finish_index(None, fv.reg, fv.type.pointee(),
                                          [], chain, e)
            if info is None:
                raise self.error(f"unknown identifier {base.name!r}", e)
            if info.is_array:
                ety = info.type
                if info.kind == "global":
                    return self._finish_index(info.symbol, None, ety,
                                              list(info.dims), chain, e)
                return self._finish_index(None, "rbp", ety, list(info.dims),
                                          chain, e, base_disp=info.offset)
            if info.type.pointer > 0:
                pv = self._load_var_value(info)
                ety = info.type.pointee()
                return self._finish_index(None, pv.reg, ety, [], chain, e,
                                          base_owned=pv.owned)
            raise self.error(f"{base.name!r} is not indexable", e)
        if isinstance(base, A.Member):
            pv = self.expr(base)  # loads the pointer field value
            if pv.type.pointer == 0:
                raise self.error("indexed member is not a pointer", e)
            return self._finish_index(None, pv.reg, pv.type.pointee(), [],
                                      chain, e)
        raise self.error("unsupported array base expression", e)

    def _finish_index(self, symbol, base_reg, ety: Type, dims: list,
                      chain: list, e: A.Expr, base_disp: int = 0,
                      base_owned: bool = True) -> tuple[Mem, Type]:
        size = elem_size(ety)
        # Linearize multi-dim indices: ((i*d1)+j)*d2 + k ...
        if len(chain) > 1:
            if len(dims) < len(chain):
                raise self.error("too many subscripts for array", e)
            idx_val = self.expr(chain[0])
            for level, sub in enumerate(chain[1:], start=1):
                self.emit("imul", Reg(idx_val.reg), Imm(dims[level]))
                sv = self.expr(sub)
                self.emit("add", Reg(idx_val.reg), Reg(sv.reg))
                self.free(sv)
            index_reg = idx_val.reg
            idx_owned = idx_val.owned
        else:
            iv = self._index_value(chain[0])
            if iv is None:  # constant index folded into displacement
                const = chain[0].value  # type: ignore[attr-defined]
                mem = Mem(base=None if symbol else base_reg, symbol=symbol,
                          disp=base_disp + const * size)
                if base_reg == "rbp":
                    mem = Mem(base="rbp", disp=base_disp + const * size)
                return mem, ety
            index_reg = iv.reg
            idx_owned = iv.owned

        if self.opt >= 1 and size in (1, 2, 4, 8):
            # SIB addressing: the index arithmetic disappears into the
            # addressing mode — invisible to source-only analysis.
            mem = Mem(base=None if symbol else base_reg, index=index_reg,
                      scale=size, disp=base_disp, symbol=symbol)
            if base_reg == "rbp":
                mem = Mem(base="rbp", index=index_reg, scale=size,
                          disp=base_disp, symbol=symbol)
            if not idx_owned:
                # promoted index register: mem must not free it; mark by
                # leaving it out of the pools (is_busy false)
                pass
            return mem, ety
        # O0: explicit address arithmetic
        areg = self.ireg()
        if symbol is not None:
            self.emit("lea", Reg(areg), Mem(symbol=symbol, disp=base_disp))
        elif base_reg == "rbp":
            self.emit("lea", Reg(areg), Mem(base="rbp", disp=base_disp))
        else:
            self.emit("mov", Reg(areg), Reg(base_reg))
        tmp = self.ireg()
        self.emit("mov", Reg(tmp), Reg(index_reg))
        self.emit("imul", Reg(tmp), Imm(size))
        self.emit("add", Reg(areg), Reg(tmp))
        self.ipool.release(tmp)
        if idx_owned and self.ipool.is_busy(index_reg):
            self.ipool.release(index_reg)
        if base_reg and base_reg != "rbp" and self.ipool.is_busy(base_reg):
            self.ipool.release(base_reg)
        return Mem(base=areg), ety

    def _index_value(self, idx: A.Expr) -> Val | None:
        """Value for a single subscript; None if it is a constant literal
        (foldable into the displacement)."""
        if isinstance(idx, A.IntLit):
            return None
        v = self.expr(idx)
        if v.is_fp:
            raise self.error("array subscript must be an integer", idx)
        return v

    # ------------------------------------------------------------- assignment
    def _lower_assign(self, e: A.Assign, want_value: bool) -> Val | None:
        # Simple variable target?
        if isinstance(e.target, A.Ident):
            info = self.lookup(e.target.name)
            if info is not None and not info.is_array:
                return self._assign_scalar(info, e, want_value)
            if info is None and self.fn.class_name is not None \
                    and e.target.name in self.layouts.offsets.get(self.fn.class_name, {}):
                pass  # falls through to memory path below
            elif info is None:
                raise self.error(f"unknown identifier {e.target.name!r}", e)
        mem, ty = self.addr(e.target)
        is_fp = ty.is_float and ty.pointer == 0
        if e.op == "=":
            v = self.expr(e.value)
            v = self._coerce(v, ty)
            self._emit_store(mem, v)
        else:
            cur = self._load_from(mem, ty)
            v = self.expr(e.value)
            v = self._coerce(v, ty)
            res = self._binop_vals(e.op[:-1], cur, v, e)
            self._emit_store(mem, res)
            v = res
        self._free_mem_regs(mem)
        if want_value:
            return v
        self.free(v)
        return None

    def _emit_store(self, mem: Mem, v: Val) -> None:
        if v.is_fp:
            if self.vector_ctx:
                self.emit("movupd", mem, Xmm(v.reg))
            else:
                self.emit("movsd", mem, Xmm(v.reg))
        else:
            self.emit("mov", mem, Reg(v.reg))

    def _assign_scalar(self, info: VarInfo, e: A.Assign,
                       want_value: bool) -> Val | None:
        if e.op == "=":
            v = self.expr(e.value)
            v = self._coerce(v, info.type)
            self._store_var(info, v)
        else:
            cur = self._load_var_value(info)
            if not cur.owned:
                # promoted register: operate in place
                v = self.expr(e.value)
                v = self._coerce(v, info.type)
                self._binop_inplace(e.op[:-1], cur, v, e)
                self.free(v)
                if want_value:
                    return Val(cur.reg, cur.is_fp, cur.type, owned=False)
                return None
            v = self.expr(e.value)
            v = self._coerce(v, info.type)
            res = self._binop_vals(e.op[:-1], cur, v, e)
            self._store_var(info, res)
            v = res
        if want_value:
            return v
        self.free(v)
        return None

    # ---------------------------------------------------------------- unary ops
    def _lower_unop(self, e: A.UnOp, want_value: bool) -> Val | None:
        if e.op in ("++", "--"):
            mn = "inc" if e.op == "++" else "dec"
            if isinstance(e.operand, A.Ident):
                info = self.lookup(e.operand.name)
                if info is not None and info.kind == "reg":
                    self.emit(mn, Reg(info.reg))
                    if want_value:
                        return Val(info.reg, False, info.type, owned=False)
                    return None
            mem, ty = self.addr(e.operand)
            self.emit(mn, mem)
            if want_value:
                v = self._load_from(mem, ty)
                self._free_mem_regs(mem)
                return v
            self._free_mem_regs(mem)
            return None
        if e.op == "-":
            v = self.expr(e.operand)
            if v.is_fp:
                v = self._owned_fp(v)
                s = self.freg()
                self.emit("xorpd", Xmm(s), Xmm(s))
                self.emit("subsd", Xmm(s), Xmm(v.reg))
                self.free(v)
                return Val(s, True, _DOUBLE)
            v = self._owned_int(v)
            self.emit("neg", Reg(v.reg))
            return v
        if e.op == "+":
            return self.expr(e.operand)
        if e.op == "!":
            v = self.expr(e.operand)
            v = self._coerce(v, _INT)
            v = self._owned_int(v)
            self.emit("test", Reg(v.reg), Reg(v.reg))
            self.emit("sete", Reg(v.reg))
            self.emit("movzx", Reg(v.reg), Reg(v.reg))
            return v
        if e.op == "~":
            v = self._owned_int(self.expr(e.operand))
            self.emit("not", Reg(v.reg))
            return v
        if e.op == "*":
            pv = self.expr(e.operand)
            ty = pv.type.pointee()
            v = self._load_from(Mem(base=pv.reg), ty)
            self.free(pv)
            return v
        if e.op == "&":
            mem, ty = self.addr(e.operand)
            r = self.ireg()
            self.emit("lea", Reg(r), mem)
            self._free_mem_regs(mem)
            return Val(r, False, Type(ty.name, ty.pointer + 1))
        raise self.error(f"cannot lower unary {e.op!r}", e)

    def _owned_int(self, v: Val) -> Val:
        if v.owned:
            return v
        r = self.ireg()
        self.emit("mov", Reg(r), Reg(v.reg))
        return Val(r, False, v.type)

    def _owned_fp(self, v: Val) -> Val:
        if v.owned:
            return v
        r = self.freg()
        self.emit("movsd", Xmm(r), Xmm(v.reg))
        return Val(r, True, v.type)

    # ---------------------------------------------------------------- binary ops
    _INT_OPS = {"+": "add", "-": "sub", "*": "imul",
                "&": "and", "|": "or", "^": "xor",
                "<<": "shl", ">>": "sar"}
    _FP_OPS = {"+": "addsd", "-": "subsd", "*": "mulsd", "/": "divsd"}
    _FP_OPS_PACKED = {"+": "addpd", "-": "subpd", "*": "mulpd", "/": "divpd"}
    _CMP_SET_INT = {"<": "setl", "<=": "setle", ">": "setg", ">=": "setge",
                    "==": "sete", "!=": "setne"}
    _CMP_SET_FP = {"<": "setb", "<=": "setb", ">": "seta", ">=": "seta",
                   "==": "sete", "!=": "setne"}

    def _lower_binop(self, e: A.BinOp, want_value: bool = True) -> Val:
        if e.op == ",":
            v = self.expr(e.lhs, want_value=False)
            self.free(v)
            return self.expr(e.rhs)
        if e.op in ("&&", "||"):
            # value context: materialize 0/1 through branches
            res = self.ireg()
            false_l = self._mangle("bv_false")
            end_l = self._mangle("bv_end")
            self._cond_rec(e, false_l, negate=False)
            self.emit("mov", Reg(res), Imm(1))
            self.emit("jmp", Label(end_l))
            self._label(false_l)
            self.emit("mov", Reg(res), Imm(0))
            self._label(end_l)
            return Val(res, False, _INT)

        # strength reduction: power-of-two integer multiply/divide
        if e.op in ("*", "/", "%") and isinstance(e.rhs, A.IntLit) \
                and e.rhs.value > 0 and (e.rhs.value & (e.rhs.value - 1)) == 0:
            lv = self.expr(e.lhs)
            if not lv.is_fp:
                shift = e.rhs.value.bit_length() - 1
                lv = self._owned_int(lv)
                if e.op == "*":
                    if shift:
                        self.emit("shl", Reg(lv.reg), Imm(shift))
                    return lv
                if e.op == "/":
                    if shift:
                        self.emit("sar", Reg(lv.reg), Imm(shift))
                    return lv
                # %: mask
                self.emit("and", Reg(lv.reg), Imm(e.rhs.value - 1))
                return lv
            # FP falls through to the generic path
            rv = self.expr(e.rhs)
            return self._binop_vals(e.op, lv, rv, e)

        lv = self.expr(e.lhs)
        rv = self.expr(e.rhs)
        return self._binop_vals(e.op, lv, rv, e)

    def _binop_vals(self, op: str, lv: Val, rv: Val, e: A.Expr) -> Val:
        if lv.is_fp or rv.is_fp:
            lv = self._coerce(lv, _DOUBLE)
            rv = self._coerce(rv, _DOUBLE)
            if op in self._FP_OPS:
                # two-operand form clobbers the destination: if the left
                # value lives in a promoted register but the op commutes,
                # compute into the right operand instead (gcc does the same)
                if not lv.owned and rv.owned and op in ("+", "*"):
                    lv, rv = rv, lv
                lv = self._owned_fp(lv)
                mn = (self._FP_OPS_PACKED if self.vector_ctx
                      else self._FP_OPS)[op]
                self.emit(mn, Xmm(lv.reg), Xmm(rv.reg))
                self.free(rv)
                return lv
            if op in self._CMP_SET_FP:
                # order operands so setb/seta compute the right predicate
                a, b = (lv, rv)
                if op in ("<", "<="):
                    a, b = rv, lv  # a > b  ≡  b < a
                self.emit("ucomisd", Xmm(a.reg), Xmm(b.reg))
                r = self.ireg()
                self.emit(self._CMP_SET_FP[op], Reg(r))
                self.emit("movzx", Reg(r), Reg(r))
                self.free(lv)
                self.free(rv)
                return Val(r, False, _INT)
            raise self.error(f"unsupported FP operator {op!r}", e)
        # integer domain
        if op in self._INT_OPS:
            lv = self._owned_int(lv)
            self.emit(self._INT_OPS[op], Reg(lv.reg), Reg(rv.reg))
            self.free(rv)
            return lv
        if op in ("/", "%"):
            return self._int_divide(lv, rv, op)
        if op in self._CMP_SET_INT:
            self.emit("cmp", Reg(lv.reg), Reg(rv.reg))
            r = self.ireg()
            self.emit(self._CMP_SET_INT[op], Reg(r))
            self.emit("movzx", Reg(r), Reg(r))
            self.free(lv)
            self.free(rv)
            return Val(r, False, _INT)
        raise self.error(f"unsupported integer operator {op!r}", e)

    def _binop_inplace(self, op: str, target: Val, rhs: Val, e: A.Expr) -> None:
        """Compound assignment into a promoted register."""
        if target.is_fp:
            mn = self._FP_OPS.get(op)
            if mn is None:
                raise self.error(f"unsupported FP compound op {op!r}=", e)
            self.emit(mn, Xmm(target.reg), Xmm(rhs.reg))
            return
        mn = self._INT_OPS.get(op)
        if mn is None:
            raise self.error(f"unsupported compound op {op!r}=", e)
        self.emit(mn, Reg(target.reg), Reg(rhs.reg))

    def _int_divide(self, lv: Val, rv: Val, op: str) -> Val:
        """x86 division: dividend in rdx:rax, ``cdq`` sign extension,
        quotient in rax, remainder in rdx.

        Ownership discipline: rax/rdx may be (a) held by lv/rv, (b) free in
        the pool (we allocate them), or (c) held by an unrelated live value
        — then they are pushed around the idiv and stay that value's
        property; the result must not live there.
        """
        pushed: list[str] = []
        ours: set[str] = set()       # rax/rdx allocations we may reuse/release
        for need in ("rax", "rdx"):
            if need in (lv.reg, rv.reg):
                ours.add(need)       # owned through lv/rv's allocation
            elif self.ipool.alloc_specific(need):
                ours.add(need)
            else:
                self.emit("push", Reg(need))
                pushed.append(need)  # foreign-owned: preserve, never release
        if rv.reg == "rax" or rv.reg == "rdx":
            # idiv clobbers both; move the divisor out (its old allocation
            # stays ours and is reclaimed below).
            r = self.ireg()
            self.emit("mov", Reg(r), Reg(rv.reg))
            rv = Val(r, False, rv.type)
        if lv.reg != "rax":
            self.emit("mov", Reg("rax"), Reg(lv.reg))
            if lv.reg != "rdx":
                self.free(lv)
        self.emit("cdq")
        self.emit("idiv", Reg(rv.reg))
        self.free(rv)
        res_src = "rax" if op == "/" else "rdx"
        out = None
        if res_src in ours:
            out = Val(res_src, False, _INT)
            ours.discard(res_src)
        for r in ours:
            self.ipool.release(r)
        if out is None:
            # result register is foreign (about to be popped): copy out first
            dst = self.ireg()
            self.emit("mov", Reg(dst), Reg(res_src))
            out = Val(dst, False, _INT)
        for r in reversed(pushed):
            self.emit("pop", Reg(r))
        return out

    # ------------------------------------------------------------------- calls
    def _lower_call(self, e: A.Call, want_value: bool) -> Val | None:
        # Resolve target: free function, method, functor, or builtin.
        this_expr: A.Expr | None = None
        if isinstance(e.callee, A.Member):
            this_expr = e.callee.obj
            name = e.callee.name
            cls = self._class_of_expr(this_expr)
            target = f"{cls}::{name}"
            ret_ty = self._fn_return_type(name, cls, e)
        elif isinstance(e.callee, A.Ident):
            name = e.callee.name
            info = self.lookup(name)
            if info is not None and info.type.is_class and info.type.pointer == 0 \
                    and not info.is_array:
                # functor: obj(args) → Class::operator()
                this_expr = e.callee
                cls = info.type.name
                target = f"{cls}::operator()"
                ret_ty = self._fn_return_type("operator()", cls, e)
            else:
                fndef = self.tu.find_function(name, None)
                if fndef is not None:
                    target = name
                    ret_ty = fndef.return_type
                elif name in BUILTIN_FUNCTIONS:
                    target = name
                    ret_ty = BUILTIN_FUNCTIONS[name]
                else:
                    raise self.error(f"call to unknown function {name!r}", e)
        else:
            raise self.error("unsupported call target", e)

        # Evaluate arguments, then stage into ABI registers.
        vals: list[Val] = []
        if this_expr is not None:
            mem, _ = self.addr(this_expr)
            r = self.ireg()
            self.emit("lea", Reg(r), mem)
            self._free_mem_regs(mem)
            vals.append(Val(r, False, Type("void", 1)))
        for a in e.args:
            v = self.expr(a)
            vals.append(v)
        self._stage_call_args(vals, e)
        for v in vals:
            self.free(v)
        self.emit("call", Label(target))
        if not want_value or ret_ty.is_void:
            return None
        if ret_ty.is_float and ret_ty.pointer == 0:
            r = self.freg()
            self.emit("movsd", Xmm(r), Xmm("xmm0"))
            return Val(r, True, ret_ty)
        r = self.ireg()
        self.emit("mov", Reg(r), Reg("rax"))
        return Val(r, False, ret_ty)

    def _stage_call_args(self, vals: list[Val], e: A.Expr) -> None:
        """Move evaluated arguments into ABI registers.

        Uses parallel-move sequencing: a move is emitted only once its target
        is no longer needed as another pending move's source; cycles are
        broken through a temporary register.
        """
        pending: list[list] = []  # [src, tgt, is_fp]
        int_i = fp_i = 0
        for v in vals:
            if v.is_fp:
                if fp_i >= len(FP_ARG_REGS):
                    raise self.error("too many FP call arguments", e)
                tgt = FP_ARG_REGS[fp_i]
                fp_i += 1
            else:
                if int_i >= len(INT_ARG_REGS):
                    raise self.error("too many integer call arguments", e)
                tgt = INT_ARG_REGS[int_i]
                int_i += 1
            if v.reg != tgt:
                pending.append([v.reg, tgt, v.is_fp])
        while pending:
            progressed = False
            for move in list(pending):
                src, tgt, is_fp = move
                if any(p[0] == tgt for p in pending if p is not move):
                    continue  # target still needed as a source
                self.emit("movsd" if is_fp else "mov",
                          (Xmm if is_fp else Reg)(tgt),
                          (Xmm if is_fp else Reg)(src))
                pending.remove(move)
                progressed = True
            if not progressed:
                # cycle: rotate through a temp that is neither source nor target
                move = pending[0]
                used = {p[0] for p in pending} | {p[1] for p in pending}
                candidates = (["xmm15", "xmm14"] if move[2]
                              else ["rax", "r10", "r11", "rbx"])
                tmp = next(r for r in candidates if r not in used)
                self.emit("movsd" if move[2] else "mov",
                          (Xmm if move[2] else Reg)(tmp),
                          (Xmm if move[2] else Reg)(move[0]))
                move[0] = tmp

    def _class_of_expr(self, e: A.Expr) -> str:
        if isinstance(e, A.Ident):
            info = self.lookup(e.name)
            if info is not None and info.type.is_class:
                return info.type.name
        raise self.error("cannot determine class of method receiver", e)

    def _fn_return_type(self, name: str, cls: str | None, e: A.Expr) -> Type:
        fndef = self.tu.find_function(name, cls)
        if fndef is None:
            raise self.error(f"unknown method {cls}::{name}", e)
        return fndef.return_type

    # ----------------------------------------------------------------- ternary
    def _lower_ternary(self, e: A.Ternary, want_value: bool = True) -> Val:
        else_l = self._mangle("t_else")
        end_l = self._mangle("t_end")
        # Determine result domain from the then-branch
        self._cond_rec(e.cond, else_l, negate=False)
        tv = self.expr(e.then)
        is_fp = tv.is_fp
        res = self.freg() if is_fp else self.ireg()
        self.emit("movsd" if is_fp else "mov",
                  (Xmm if is_fp else Reg)(res),
                  (Xmm if is_fp else Reg)(tv.reg))
        self.free(tv)
        self.emit("jmp", Label(end_l))
        self._label(else_l)
        ev = self.expr(e.els)
        ev = self._coerce(ev, _DOUBLE if is_fp else _INT)
        self.emit("movsd" if is_fp else "mov",
                  (Xmm if is_fp else Reg)(res),
                  (Xmm if is_fp else Reg)(ev.reg))
        self.free(ev)
        self._label(end_l)
        return Val(res, is_fp, _DOUBLE if is_fp else _INT)

    # ---------------------------------------------------------------- coercion
    def _coerce(self, v: Val, target: Type) -> Val:
        want_fp = target.is_float and target.pointer == 0
        if v.is_fp == want_fp:
            return v
        if want_fp:
            r = self.freg()
            self.emit("cvtsi2sd", Xmm(r), Reg(v.reg))
            self.free(v)
            return Val(r, True, _DOUBLE)
        r = self.ireg()
        self.emit("cvttsd2si", Reg(r), Xmm(v.reg))
        self.free(v)
        return Val(r, False, _INT)

    # Lowering dispatches on a node's exact type.
    _STMT_LOWERERS = {
        A.CompoundStmt: _lower_compound, A.NullStmt: _lower_null,
        A.DeclStmt: _lower_decl, A.ExprStmt: _lower_expr_stmt,
        A.ReturnStmt: _lower_return, A.IfStmt: _lower_if,
        A.ForStmt: _lower_for, A.WhileStmt: _lower_while,
        A.DoWhileStmt: _lower_do_while, A.BreakStmt: _lower_break,
        A.ContinueStmt: _lower_continue,
    }
    _EXPR_LOWERERS = {
        A.IntLit: _lower_int, A.FloatLit: _lower_float,
        A.CharLit: _lower_char, A.StringLit: _lower_string,
        A.Ident: _lower_ident, A.Index: _lower_load, A.Member: _lower_load,
        A.Assign: _lower_assign, A.UnOp: _lower_unop,
        A.BinOp: _lower_binop, A.Call: _lower_call,
        A.Ternary: _lower_ternary, A.Cast: _lower_cast,
        A.SizeOf: _lower_sizeof,
    }


def lower_function(fn: A.FunctionDef, tu: A.TranslationUnit,
                   layouts: ClassLayouts, globals_table: dict,
                   func_table: dict, opt_level: int = 2
                   ) -> tuple[list[Instruction], dict[float, str]]:
    """Lower one function; returns (instructions, float-literal pool)."""
    fl = FunctionLowering(fn, tu, layouts, globals_table, func_table, opt_level)
    instrs = fl.run()
    return instrs, fl.float_pool
