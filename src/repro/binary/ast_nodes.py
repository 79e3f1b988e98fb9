"""Binary AST nodes (paper Fig. 3).

Mirrors ROSE's binary AST: an ``SgAsmBlock`` of ``SgAsmFunction`` nodes, each
composed of ``SgAsmX86Instruction`` leaves.  Instances are produced *only*
by decoding object-file bytes in :mod:`repro.binary.disasm` — the frontend's
data structures never leak across, just like the paper's two independently
constructed ASTs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

__all__ = ["AsmInstruction", "AsmFunction", "AsmProgram"]


@dataclass
class AsmInstruction:
    """One decoded instruction (ROSE: ``SgAsmX86Instruction``)."""

    rose_name = "SgAsmX86Instruction"

    address: int
    mnemonic: str
    operands: tuple
    size: int
    line: int = 0   # filled by the DWARF bridge
    col: int = 0

    def __str__(self) -> str:
        ops = ", ".join(str(o) for o in self.operands)
        loc = f"  # {self.line}:{self.col}" if self.line else ""
        return f"{self.address:#08x}: {self.mnemonic} {ops}".rstrip() + loc


@dataclass
class AsmFunction:
    """A function extent in .text (ROSE: ``SgAsmFunction``)."""

    rose_name = "SgAsmFunction"

    name: str
    address: int
    size: int
    instructions: list = field(default_factory=list)

    def __iter__(self) -> Iterator[AsmInstruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass
class AsmProgram:
    """The decoded program (ROSE: ``SgAsmBlock`` root)."""

    rose_name = "SgAsmBlock"

    source_file: str
    functions: list = field(default_factory=list)
    line_table: list = field(default_factory=list)  # list[(addr, line, col)]

    def find_function(self, name: str) -> Optional[AsmFunction]:
        for f in self.functions:
            if f.name == name:
                return f
        return None

    def all_instructions(self) -> Iterator[AsmInstruction]:
        for f in self.functions:
            yield from f.instructions
