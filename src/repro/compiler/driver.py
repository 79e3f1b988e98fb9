"""Compilation driver: translation unit → object file bytes.

Pipeline (paper Fig. 1, "Input Processor" right half):

1. constant folding on the AST (all optimization levels — even ``-O0``
   compilers fold literal arithmetic),
2. per-function lowering (with O2 scalar promotion / O3 vectorization
   decided inside :mod:`repro.compiler.lowering`),
3. peephole cleanup (O1+),
4. layout & byte encoding of ``.text``, the float literal pool into
   ``.rodata``, globals into the symbol table, and the DWARF-style line
   program into ``.debug_line``.

Label pseudo-instructions (``nop <label>`` emitted by lowering) become
zero-size address markers: they are resolved to symbol addresses and **not**
encoded, so they never pollute instruction counts.
"""

from __future__ import annotations

import struct

from ..errors import CompileError
from ..frontend import ast_nodes as A
from .isa import Instruction, Label, Mem, encode_instruction
from .lowering import ClassLayouts, VarInfo, elem_size, lower_function
from .objfile import ObjectFile, SYM_FUNC, SYM_LABEL, SYM_OBJECT, Symbol
from .optimizer import fold_constants, peephole
from .dwarf import LineRow, encode_line_program

__all__ = ["compile_tu", "build_globals_table"]


def build_globals_table(tu: A.TranslationUnit,
                        layouts: ClassLayouts) -> dict[str, VarInfo]:
    """Global variables: name → VarInfo with kind='global'."""
    table: dict[str, VarInfo] = {}
    for decl in tu.globals:
        for d in decl.decls:
            dims = []
            for level, x in enumerate(d.array_dims):
                if isinstance(x, A.IntLit):
                    dims.append(x.value)
                elif level == 0:
                    # A parametric *outermost* dimension is allowed: element
                    # addressing never reads it (only the inner dims feed
                    # the linearization strides, and the element size is
                    # fixed by the type), so the instruction stream is
                    # identical to any concrete size.  This is what lets
                    # the sweep engine model ``double a[N]`` with N a free
                    # model symbol.  A placeholder of 1 only sizes the
                    # virtual .bss symbol.
                    dims.append(1)
                else:
                    raise CompileError(
                        f"global array {d.name!r} has non-constant "
                        f"dimension")
            table[d.name] = VarInfo(d.name, d.type, tuple(dims),
                                    kind="global", symbol=d.name)
    return table


def _is_label_marker(ins: Instruction) -> bool:
    return (ins.mnemonic == "nop" and len(ins.operands) == 1
            and type(ins.operands[0]) is Label)


def compile_tu(tu: A.TranslationUnit, opt_level: int = 2,
               source_file: str | None = None,
               only: set | frozenset | None = None) -> ObjectFile:
    """Compile a parsed translation unit into an object file.

    ``only`` restricts lowering to the named functions (qualified names)
    while the symbol/layout tables still cover the whole TU, so each
    emitted function's instruction stream is byte-identical to a full
    compile — the incremental engine's subset-compile entry point.  Calls
    into non-lowered functions stay symbolic references, exactly like
    calls into prototype-only functions in a full compile.

    Constants are folded in place, each definition once: a fresh TU is
    folded in full, and a TU that keeps definitions an earlier compile
    folded (the incremental front end's splice) folds only the rest.
    """
    if not 0 <= opt_level <= 3:
        raise CompileError(f"bad optimization level {opt_level}")
    fold_constants(tu)

    layouts = ClassLayouts.build(tu)
    globals_table = build_globals_table(tu, layouts)
    func_table = {f.qualified_name: f for f in tu.all_functions()}

    # ---- lower the selected functions ----------------------------------------
    lowered: list[tuple[A.FunctionDef, list[Instruction]]] = []
    rodata = bytearray()
    rodata_syms: list[Symbol] = []
    for fn in tu.all_functions():
        if fn.info.get("prototype_only"):
            continue
        if only is not None and fn.qualified_name not in only:
            continue
        instrs, float_pool = lower_function(
            fn, tu, layouts, globals_table, func_table, opt_level)
        if opt_level >= 1:
            instrs = peephole(instrs)
        lowered.append((fn, instrs))
        for value, sym in float_pool.items():
            rodata_syms.append(Symbol(sym, SYM_OBJECT, len(rodata), 8))
            rodata += struct.pack("<d", float(value))

    # ---- collect every symbol name used anywhere ------------------------------
    names: dict[str, int] = {}   # name -> .strtab index, first-use order
    intern = names.setdefault
    for fn, instrs in lowered:
        intern(fn.qualified_name, len(names))
        for ins in instrs:
            for op in ins.operands:
                cls = type(op)
                if cls is Label:
                    intern(op.name, len(names))
                elif cls is Mem and op.symbol:
                    intern(op.symbol, len(names))
    for g in globals_table.values():
        intern(g.symbol, len(names))
    for s in rodata_syms:
        intern(s.name, len(names))

    strings = list(names)

    # ---- encode .text, resolving label addresses ------------------------------
    text = bytearray()
    symbols: list[Symbol] = []
    rows: list[LineRow] = []
    for fn, instrs in lowered:
        start = len(text)
        for ins in instrs:
            if _is_label_marker(ins):
                symbols.append(Symbol(ins.operands[0].name, SYM_LABEL,
                                      len(text), 0))
                continue
            ins.address = len(text)
            rows.append(LineRow(ins.address, ins.line, ins.col))
            text += encode_instruction(ins, names)
        symbols.append(Symbol(fn.qualified_name, SYM_FUNC, start,
                              len(text) - start))

    # ---- globals into the symbol table (virtual .bss layout) -------------------
    bss = 0
    for g in globals_table.values():
        if g.dims:
            n = 1
            for d in g.dims:
                n *= d
            size = n * elem_size(g.type)
        elif g.type.is_class and g.type.pointer == 0:
            size = layouts.sizes.get(g.type.name, 8)
        else:
            size = 8
        symbols.append(Symbol(g.symbol, SYM_OBJECT, bss, size))
        bss += (size + 7) // 8 * 8
    symbols.extend(rodata_syms)

    return ObjectFile(
        text=bytes(text),
        rodata=bytes(rodata),
        debug_line=encode_line_program(rows),
        symbols=symbols,
        strings=strings,
        source_file=source_file or tu.filename,
    )
