"""The "Mira-x86" instruction set.

A synthetic x86-64-like ISA standing in for real machine code (DESIGN.md §2):
the mnemonics, operand forms, and idioms match what gcc emits for the paper's
kernels (SIB addressing for array access, SSE2 scalar doubles, prologue and
epilogue, ``cdq``+``idiv`` division...), and instructions are *actually
encoded to bytes* so the binary side of the framework genuinely decodes an
object file rather than sharing frontend data structures.

Every instruction carries a source position ``(line, col)`` — the coordinate
of its *cost center* (the statement or SCoP component it implements) — which
the DWARF-like line table preserves into the binary (paper §III-A.2).

Encoding (little-endian):

* instruction: ``[mnemonic_id:u16][n_operands:u8][flags:u8]`` + operands
* register operand: ``[0x00][reg:u8]``
* xmm operand: ``[0x01][reg:u8]``
* immediate: ``[0x02][value:i64]``
* memory: ``[0x03][base:u8][index:u8][scale:u8][disp:i32][sym:u16]``
  (0xFF = absent base/index; sym 0xFFFF = none, else .strtab index)
* label/symbol: ``[0x04][sym:u16]``
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

from ..errors import CompileError, DisasmError

__all__ = [
    "GP_REGS", "XMM_REGS", "MNEMONICS", "MNEMONIC_IDS",
    "Reg", "Xmm", "Imm", "Mem", "Label", "Instruction",
    "encode_instruction", "decode_instruction",
]

# --------------------------------------------------------------------------
# Registers
# --------------------------------------------------------------------------

GP_REGS = [
    "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
    "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
]
XMM_REGS = [f"xmm{i}" for i in range(16)]

_GP_IDS = {r: i for i, r in enumerate(GP_REGS)}
_XMM_IDS = {r: i for i, r in enumerate(XMM_REGS)}

# --------------------------------------------------------------------------
# Mnemonics.  The id table is the ISA's "opcode map" — stable and explicit so
# that encoded bytes are deterministic across runs.
# --------------------------------------------------------------------------

MNEMONICS = [
    # integer data transfer
    "mov", "movzx", "movsx", "xchg", "cmove", "cmovne", "cmovl", "cmovg",
    "push", "pop",
    # 64-bit mode
    "movsxd", "cdqe", "cdq", "cqo",
    # integer arithmetic
    "add", "sub", "imul", "mul", "idiv", "div", "inc", "dec", "neg", "cmp",
    "adc", "sbb",
    # logical
    "and", "or", "xor", "not", "test",
    # shift and rotate
    "shl", "shr", "sar", "rol", "ror",
    # bit and byte
    "sete", "setne", "setl", "setle", "setg", "setge", "setb", "seta",
    "bt", "bsf", "bsr",
    # control transfer
    "jmp", "je", "jne", "jl", "jle", "jg", "jge", "jb", "jbe", "ja", "jae",
    "call", "ret", "leave",
    # misc
    "lea", "nop", "cpuid",
    # x87 (legacy, unused by default lowering but decodable)
    "fld", "fst", "fadd", "fmul",
    # SSE2 data movement
    "movsd", "movapd", "movupd", "movhpd", "movlpd", "movq",
    # SSE2 packed/scalar arithmetic
    "addsd", "subsd", "mulsd", "divsd", "sqrtsd", "maxsd", "minsd",
    "addpd", "subpd", "mulpd", "divpd", "sqrtpd", "maxpd", "minpd",
    # SSE2 logical
    "xorpd", "andpd", "orpd", "andnpd",
    # SSE2 compare
    "ucomisd", "comisd", "cmpsd", "cmppd",
    # SSE2 conversion
    "cvtsi2sd", "cvttsd2si", "cvtsd2ss", "cvtss2sd", "cvtdq2pd",
    # SSE2 shuffle/unpack
    "unpcklpd", "unpckhpd", "shufpd", "pshufd",
    # SSE (single) minimal
    "movss", "addss", "mulss",
    # MMX/integer SIMD minimal
    "paddd", "pmulld", "pxor",
]
MNEMONIC_IDS = {m: i for i, m in enumerate(MNEMONICS)}


# --------------------------------------------------------------------------
# Operands
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Reg:
    """General-purpose register operand."""

    name: str

    def __post_init__(self) -> None:
        if self.name not in _GP_IDS:
            raise CompileError(f"unknown GP register {self.name!r}")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Xmm:
    """SSE register operand."""

    name: str

    def __post_init__(self) -> None:
        if self.name not in _XMM_IDS:
            raise CompileError(f"unknown XMM register {self.name!r}")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Imm:
    """Immediate operand (64-bit signed)."""

    value: int

    def __str__(self) -> str:
        return f"${self.value}"


@dataclass(frozen=True)
class Mem:
    """Memory operand ``[base + index*scale + disp]`` or ``[sym + ...]``."""

    base: Optional[str] = None
    index: Optional[str] = None
    scale: int = 1
    disp: int = 0
    symbol: Optional[str] = None

    def __post_init__(self) -> None:
        if self.base is not None and self.base not in _GP_IDS:
            raise CompileError(f"bad base register {self.base!r}")
        if self.index is not None and self.index not in _GP_IDS:
            raise CompileError(f"bad index register {self.index!r}")
        if self.scale not in (1, 2, 4, 8):
            raise CompileError(f"bad scale {self.scale!r}")

    def __str__(self) -> str:
        parts = []
        if self.symbol:
            parts.append(self.symbol)
        if self.base:
            parts.append(self.base)
        if self.index:
            parts.append(f"{self.index}*{self.scale}")
        s = " + ".join(parts)
        if self.disp:
            s += f" {'+' if self.disp > 0 else '-'} {abs(self.disp)}"
        return f"[{s}]"


@dataclass(frozen=True)
class Label:
    """Code label / call target by symbol name."""

    name: str

    def __str__(self) -> str:
        return self.name


Operand = object  # union of the four classes above


@dataclass
class Instruction:
    """One machine instruction with its source cost-center position."""

    mnemonic: str
    operands: tuple = ()
    line: int = 0
    col: int = 0
    address: int = -1  # assigned at encoding / decoding

    def __post_init__(self) -> None:
        if self.mnemonic not in MNEMONIC_IDS:
            raise CompileError(f"unknown mnemonic {self.mnemonic!r}")

    def __str__(self) -> str:
        ops = ", ".join(str(o) for o in self.operands)
        loc = f"  ; {self.line}:{self.col}" if self.line else ""
        return f"{self.mnemonic} {ops}".rstrip() + loc


# --------------------------------------------------------------------------
# Byte encoding
# --------------------------------------------------------------------------

_ABSENT = 0xFF
_NO_SYM = 0xFFFF


def encode_instruction(ins: Instruction, symidx: dict[str, int]) -> bytes:
    """Encode one instruction; symbols are indexed through ``symidx``.

    An operand outside its field's range (an immediate beyond int64, a
    displacement beyond int32) raises :class:`CompileError`.
    """
    try:
        return _encode(ins, symidx)
    except struct.error as exc:
        raise CompileError(f"cannot encode {ins}: {exc}") from None


def _encode(ins: Instruction, symidx: dict[str, int]) -> bytes:
    out = bytearray()
    out += struct.pack("<HBB", MNEMONIC_IDS[ins.mnemonic], len(ins.operands), 0)
    for op in ins.operands:
        if isinstance(op, Reg):
            out += struct.pack("<BB", 0x00, _GP_IDS[op.name])
        elif isinstance(op, Xmm):
            out += struct.pack("<BB", 0x01, _XMM_IDS[op.name])
        elif isinstance(op, Imm):
            out += struct.pack("<Bq", 0x02, op.value)
        elif isinstance(op, Mem):
            base = _GP_IDS[op.base] if op.base else _ABSENT
            index = _GP_IDS[op.index] if op.index else _ABSENT
            sym = symidx[op.symbol] if op.symbol else _NO_SYM
            out += struct.pack("<BBBBiH", 0x03, base, index, op.scale,
                               op.disp, sym)
        elif isinstance(op, Label):
            out += struct.pack("<BH", 0x04, symidx[op.name])
        else:
            raise CompileError(f"cannot encode operand {op!r}")
    return bytes(out)


def decode_instruction(data: bytes, offset: int,
                       symbols: list[str]) -> tuple[Instruction, int]:
    """Decode one instruction at ``offset``; returns (instruction, next_offset)."""
    try:
        mid, nops, _flags = struct.unpack_from("<HBB", data, offset)
    except struct.error as e:
        raise DisasmError(f"truncated instruction header at {offset}") from e
    if mid >= len(MNEMONICS):
        raise DisasmError(f"bad mnemonic id {mid} at offset {offset}")
    pos = offset + 4
    operands: list = []
    for _ in range(nops):
        try:
            kind = data[pos]
        except IndexError as e:
            raise DisasmError(f"truncated operand at {pos}") from e
        if kind == 0x00:
            operands.append(Reg(GP_REGS[data[pos + 1]]))
            pos += 2
        elif kind == 0x01:
            operands.append(Xmm(XMM_REGS[data[pos + 1]]))
            pos += 2
        elif kind == 0x02:
            (value,) = struct.unpack_from("<q", data, pos + 1)
            operands.append(Imm(value))
            pos += 9
        elif kind == 0x03:
            base, index, scale, disp, sym = struct.unpack_from(
                "<BBBiH", data, pos + 1
            )
            operands.append(Mem(
                GP_REGS[base] if base != _ABSENT else None,
                GP_REGS[index] if index != _ABSENT else None,
                scale, disp,
                symbols[sym] if sym != _NO_SYM else None,
            ))
            pos += 10
        elif kind == 0x04:
            (sym,) = struct.unpack_from("<H", data, pos + 1)
            operands.append(Label(symbols[sym]))
            pos += 3
        else:
            raise DisasmError(f"bad operand kind {kind:#x} at offset {pos}")
    ins = Instruction(MNEMONICS[mid], tuple(operands))
    ins.address = offset
    return ins, pos
