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

Operands and instructions are slotted classes.  Operands are values,
immutable by convention (nothing assigns to one after construction), and
registers are interned: each of :data:`GP_REGS` and :data:`XMM_REGS` is one
:class:`Reg` or :class:`Xmm` object, built at import, that every instruction
shares and the decoder looks up by id.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
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
# Operands.  Values, immutable by convention: nothing assigns to an operand
# after construction, so instructions share them freely.
# --------------------------------------------------------------------------

class _Register:
    """A register operand: one object per name, built at import, so
    ``Reg("rax") is Reg("rax")``.  Constructing an unknown name raises
    :class:`CompileError`."""

    __slots__ = ("name", "code", "_hash")
    _by_name: dict = {}
    _family = ""

    def __new__(cls, name: str):
        reg = cls._by_name.get(name)
        if reg is None:
            raise CompileError(f"unknown {cls._family} register {name!r}")
        return reg

    def __reduce__(self):   # copies and unpickled values are the interned one
        return type(self), (self.name,)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"

    def __str__(self) -> str:
        return self.name


class Reg(_Register):
    """General-purpose register operand."""

    __slots__ = ()
    _family = "GP"


class Xmm(_Register):
    """SSE register operand."""

    __slots__ = ()
    _family = "XMM"


def _intern_registers(cls: type, kind: int, names: list[str]) -> tuple:
    """Build ``cls``'s register objects; returns them in id order."""
    regs = []
    for i, name in enumerate(names):
        reg = object.__new__(cls)
        reg.name = name
        reg.code = bytes((kind, i))     # the operand's encoding
        reg._hash = hash((name,))
        regs.append(reg)
    cls._by_name = {reg.name: reg for reg in regs}
    return tuple(regs)


@dataclass(slots=True, unsafe_hash=True)
class Imm:
    """Immediate operand (64-bit signed)."""

    value: int

    def __str__(self) -> str:
        return f"${self.value}"


@dataclass(slots=True, unsafe_hash=True)
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
        if self.scale not in _SCALES:
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


@dataclass(slots=True, unsafe_hash=True)
class Label:
    """Code label / call target by symbol name."""

    name: str

    def __str__(self) -> str:
        return self.name


Operand = object  # union of the four operand kinds above


@dataclass(slots=True)
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
_SCALES = frozenset({1, 2, 4, 8})

_HEADER = struct.Struct("<HBB")
_IMM = struct.Struct("<Bq")
_MEM = struct.Struct("<BBBBiH")
_LABEL = struct.Struct("<BH")
_IMM_VALUE = struct.Struct("<q")
_MEM_FIELDS = struct.Struct("<BBBiH")
_SYM_INDEX = struct.Struct("<H")

# Memory base/index name -> its byte (None is absent).
_MEM_REG_IDS = {**_GP_IDS, None: _ABSENT}

# Decoding tables, indexed by a register byte.  Register operands: the
# interned register per operand kind (0x00 GP, 0x01 XMM), None for an id
# the ISA does not have.  Memory base/index: the register name, None when
# absent, ``_BAD_REG`` for an id the ISA does not have.
_BAD_REG = object()
_REGISTERS_BY_KIND = tuple(
    regs + (None,) * (256 - len(regs))
    for regs in (_intern_registers(Reg, 0x00, GP_REGS),
                 _intern_registers(Xmm, 0x01, XMM_REGS)))
_MEM_REGS = tuple(GP_REGS) + (_BAD_REG,) * (_ABSENT - len(GP_REGS)) + (None,)


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
    ops = ins.operands
    out = bytearray(_HEADER.pack(MNEMONIC_IDS[ins.mnemonic], len(ops), 0))
    for op in ops:
        cls = type(op)
        if cls is Reg or cls is Xmm:
            out += op.code
        elif cls is Mem:
            out += _MEM.pack(0x03, _MEM_REG_IDS[op.base],
                             _MEM_REG_IDS[op.index], op.scale, op.disp,
                             symidx[op.symbol] if op.symbol else _NO_SYM)
        elif cls is Imm:
            out += _IMM.pack(0x02, op.value)
        elif cls is Label:
            out += _LABEL.pack(0x04, symidx[op.name])
        else:
            raise CompileError(f"cannot encode operand {op!r}")
    return bytes(out)


def decode_instruction(data: bytes, offset: int,
                       symbols: list[str]) -> tuple[Instruction, int]:
    """Decode one instruction at ``offset``; returns (instruction, next_offset).

    Malformed bytes (a truncated instruction, an unknown mnemonic, operand
    kind or register id, a bad scale, a symbol index past ``symbols``)
    raise :class:`DisasmError` naming the offset.
    """
    try:
        mid, nops, _flags = _HEADER.unpack_from(data, offset)
    except struct.error:
        raise DisasmError(f"truncated instruction header at {offset}") \
            from None
    if mid >= len(MNEMONICS):
        raise DisasmError(f"bad mnemonic id {mid} at offset {offset}")
    pos = offset + 4
    operands: list = []
    try:
        for _ in range(nops):
            kind = data[pos]
            if kind <= 0x01:
                reg = _REGISTERS_BY_KIND[kind][data[pos + 1]]
                if reg is None:
                    raise DisasmError(
                        f"bad {('GP', 'XMM')[kind]} register id "
                        f"{data[pos + 1]} at offset {pos}")
                operands.append(reg)
                pos += 2
            elif kind == 0x02:
                (value,) = _IMM_VALUE.unpack_from(data, pos + 1)
                operands.append(Imm(value))
                pos += 9
            elif kind == 0x03:
                base, index, scale, disp, sym = _MEM_FIELDS.unpack_from(
                    data, pos + 1)
                base, index = _MEM_REGS[base], _MEM_REGS[index]
                if base is _BAD_REG or index is _BAD_REG:
                    raise DisasmError(
                        f"bad memory register id at offset {pos}")
                if scale not in _SCALES:
                    raise DisasmError(f"bad scale {scale} at offset {pos}")
                operands.append(Mem(
                    base, index, scale, disp,
                    None if sym == _NO_SYM else _symbol(symbols, sym, pos)))
                pos += 10
            elif kind == 0x04:
                (sym,) = _SYM_INDEX.unpack_from(data, pos + 1)
                operands.append(Label(_symbol(symbols, sym, pos)))
                pos += 3
            else:
                raise DisasmError(
                    f"bad operand kind {kind:#x} at offset {pos}")
    except (IndexError, struct.error):
        raise DisasmError(f"truncated operand at {pos}") from None
    return Instruction(MNEMONICS[mid], tuple(operands), address=offset), pos


def _symbol(symbols: list[str], index: int, pos: int) -> str:
    if index >= len(symbols):
        raise DisasmError(f"bad symbol index {index} at offset {pos}")
    return symbols[index]
