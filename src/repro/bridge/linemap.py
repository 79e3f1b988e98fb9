"""The source↔binary bridge (paper §III-A.2).

"Inspired by debuggers, line numbers are used as the bridge to associate
source to binary": each decoded instruction carries the (line, col) of the
statement (or loop SCoP component) it implements, so the instructions of a
function can be grouped into **cost centers** — one group per statement,
loop condition, loop increment, branch condition, or function frame — and
each group matched to its source-AST node by coordinates.

A source statement usually maps to *several* instructions; an instruction
maps to exactly one source coordinate (the paper's N:1 relationship).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..binary.ast_nodes import AsmProgram

__all__ = ["CostCenter", "FunctionBridge", "build_bridge"]


@dataclass
class CostCenter:
    """All instructions attributed to one source coordinate."""

    line: int
    col: int
    instructions: list = field(default_factory=list)

    def mnemonic_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for ins in self.instructions:
            out[ins.mnemonic] = out.get(ins.mnemonic, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass
class FunctionBridge:
    """Per-function association: (line, col) → CostCenter."""

    name: str
    centers: dict = field(default_factory=dict)  # (line, col) -> CostCenter
    frame_center: CostCenter | None = None       # prologue/epilogue/etc.

    def center_at(self, line: int, col: int) -> CostCenter | None:
        return self.centers.get((line, col))

    def centers_on_line(self, line: int) -> list[CostCenter]:
        return [c for (l, _), c in sorted(self.centers.items()) if l == line]

    def lines(self) -> set[int]:
        return {l for (l, _) in self.centers}

    def total_instructions(self) -> int:
        return sum(len(c) for c in self.centers.values())


def build_bridge(program: AsmProgram) -> dict[str, FunctionBridge]:
    """Group every function's instructions into cost centers by (line, col).

    Instructions with col == 0 belong to control-flow glue or the function
    frame (prologue/epilogue, loop back-jumps); they are collected into the
    function's frame center keyed by the function's own line.
    """
    out: dict[str, FunctionBridge] = {}
    for fn in program.functions:
        bridge = FunctionBridge(fn.name)
        for ins in fn.instructions:
            key = (ins.line, ins.col)
            cc = bridge.centers.get(key)
            if cc is None:
                cc = CostCenter(ins.line, ins.col)
                bridge.centers[key] = cc
            cc.instructions.append(ins)
        out[fn.name] = bridge
    return out
