"""Compiler backend: Mira-x86 lowering, optimization, object-file emission.

Substitutes for gcc + ELF in the paper's pipeline (DESIGN.md §2): the source
AST is lowered to a realistic post-optimization x86-64-like instruction
stream, encoded to bytes with a DWARF-style line table.
"""

from .arch import (ArchDescription, CATEGORY_NAMES, CAT_INT_ARITH,
                   CAT_INT_CTRL, CAT_SSE2_ARITH, CAT_SSE2_DATA, default_arch)
from .driver import compile_tu
from .isa import (Imm, Instruction, Label, Mem, MNEMONICS, Reg, Xmm,
                  decode_instruction, encode_instruction)
from .objfile import ObjectFile
from .optimizer import fold_constants, mark_vectorizable_loops

__all__ = [
    "ArchDescription", "CATEGORY_NAMES", "CAT_INT_ARITH", "CAT_INT_CTRL",
    "CAT_SSE2_ARITH", "CAT_SSE2_DATA", "Imm", "Instruction", "Label",
    "MNEMONICS", "Mem", "ObjectFile", "Reg", "Xmm", "compile_tu",
    "decode_instruction", "default_arch", "encode_instruction",
    "fold_constants", "mark_vectorizable_loops",
]
