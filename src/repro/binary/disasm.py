"""Disassembler: object-file bytes → binary AST.

The binary-side "front end" of the framework (paper Fig. 1 bottom path):
walks ``.text`` byte-by-byte decoding instructions, partitions them into
functions using the symbol table, and annotates every instruction with its
source coordinate from the decoded ``.debug_line`` table.
"""

from __future__ import annotations

from ..compiler.isa import decode_instruction
from ..compiler.objfile import ObjectFile
from ..errors import DisasmError
from .ast_nodes import AsmFunction, AsmInstruction, AsmProgram
from .dwarf_reader import LineTable, decode_line_program

__all__ = ["disassemble", "format_listing"]


def disassemble(obj: ObjectFile | bytes) -> AsmProgram:
    """Decode an object file (or raw bytes) into a binary AST."""
    if isinstance(obj, (bytes, bytearray)):
        obj = ObjectFile.from_bytes(bytes(obj))

    rows = decode_line_program(obj.debug_line)
    table = LineTable(rows)

    funcs = sorted(obj.functions(), key=lambda s: s.address)
    program = AsmProgram(source_file=obj.source_file, line_table=rows)

    # Validate function extents tile .text
    covered = sum(f.size for f in funcs)
    if covered != len(obj.text):
        raise DisasmError(
            f".text is {len(obj.text)} bytes but function symbols cover "
            f"{covered}"
        )

    text, strings, lookup = obj.text, obj.strings, table.lookup
    for sym in funcs:
        fn = AsmFunction(sym.name, sym.address, sym.size)
        append = fn.instructions.append
        pos = sym.address
        end = sym.address + sym.size
        while pos < end:
            ins, nxt = decode_instruction(text, pos, strings)
            append(AsmInstruction(pos, ins.mnemonic, ins.operands, nxt - pos,
                                  *lookup(pos)))
            pos = nxt
        if pos != end:
            raise DisasmError(
                f"function {sym.name} decoding overran its extent "
                f"({pos:#x} != {end:#x})"
            )
        program.functions.append(fn)
    return program


def format_listing(program: AsmProgram) -> str:
    """objdump-style text listing (debugging/CLI aid)."""
    out: list[str] = [f"; source: {program.source_file}"]
    for fn in program.functions:
        out.append("")
        out.append(f"{fn.address:#08x} <{fn.name}>:  ; {len(fn)} instructions")
        for ins in fn.instructions:
            out.append("  " + str(ins))
    return "\n".join(out)
