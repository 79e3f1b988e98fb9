"""DWARF-style ``.debug_line`` encoding.

The paper's bridge between source and binary ASTs is the DWARF
``.debug_line`` section inserted by ``-g`` compilation (§III-A.2).  We
implement the same mechanism: a compact *line number program* — a byte-coded
state machine with address/line/column registers — that maps every
instruction address to its source coordinate.  The decoder lives with the
binary-side tools (:mod:`repro.binary.dwarf_reader`), which consume only the
bytes produced here.

Program opcodes:

* ``0x00`` — end of program
* ``0x01 <uleb delta>`` — advance address
* ``0x02 <sleb delta>`` — advance line
* ``0x03 <uleb col>``   — set column
* ``0x04``              — copy (emit a row)
"""

from __future__ import annotations

from ..errors import CompileError

__all__ = ["LineRow", "encode_line_program", "write_uleb", "write_sleb",
           "read_uleb", "read_sleb"]

from dataclasses import dataclass


@dataclass(slots=True, unsafe_hash=True)
class LineRow:
    """One row of the line table: instruction address → (line, col)."""

    address: int
    line: int
    col: int


def write_uleb(value: int, out: bytearray) -> None:
    if value < 0:
        raise CompileError("uleb value must be non-negative")
    while True:
        b = value & 0x7F
        value >>= 7
        if value:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def write_sleb(value: int, out: bytearray) -> None:
    more = True
    while more:
        b = value & 0x7F
        value >>= 7
        if (value == 0 and not (b & 0x40)) or (value == -1 and (b & 0x40)):
            more = False
        else:
            b |= 0x80
        out.append(b)


def read_uleb(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        b = data[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not (b & 0x80):
            return result, pos
        shift += 7


def read_sleb(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        b = data[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        shift += 7
        if not (b & 0x80):
            if b & 0x40:
                result -= 1 << shift
            return result, pos


def encode_line_program(rows: list[LineRow]) -> bytes:
    """Encode sorted (by address) line-table rows into a line program."""
    out = bytearray()
    addr = 0
    line = 1
    col = 0
    last_addr = -1
    for row in rows:
        if row.address < last_addr:
            raise CompileError("line rows must be sorted by address")
        last_addr = row.address
        if row.address != addr:
            out.append(0x01)
            write_uleb(row.address - addr, out)
            addr = row.address
        if row.line != line:
            out.append(0x02)
            write_sleb(row.line - line, out)
            line = row.line
        if row.col != col:
            out.append(0x03)
            write_uleb(row.col, out)
            col = row.col
        out.append(0x04)
    out.append(0x00)
    return bytes(out)
