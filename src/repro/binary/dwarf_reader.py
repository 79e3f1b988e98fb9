"""Decoder for the DWARF-style ``.debug_line`` section.

Replays the line-number program emitted by :mod:`repro.compiler.dwarf`,
reconstructing the (address → line, column) table that is the paper's bridge
between binary and source ASTs (§III-A.2).
"""

from __future__ import annotations

from ..errors import DisasmError
from ..compiler.dwarf import read_sleb, read_uleb

__all__ = ["decode_line_program", "LineTable"]


def decode_line_program(data: bytes) -> list[tuple[int, int, int]]:
    """Decode a line program into sorted ``(address, line, col)`` rows."""
    rows: list[tuple[int, int, int]] = []
    addr = 0
    line = 1
    col = 0
    pos = 0
    n = len(data)
    while True:
        if pos >= n:
            raise DisasmError("line program ended without terminator")
        op = data[pos]
        pos += 1
        if op == 0x00:
            break
        if op == 0x01:
            delta, pos = read_uleb(data, pos)
            addr += delta
        elif op == 0x02:
            delta, pos = read_sleb(data, pos)
            line += delta
        elif op == 0x03:
            col, pos = read_uleb(data, pos)
        elif op == 0x04:
            rows.append((addr, line, col))
        else:
            raise DisasmError(f"bad line-program opcode {op:#x} at {pos - 1}")
    return rows


class LineTable:
    """Address → (line, col) lookup over decoded rows."""

    def __init__(self, rows: list[tuple[int, int, int]]) -> None:
        self.rows = sorted(rows)
        self._by_addr = {addr: (line, col) for addr, line, col in self.rows}

    def lookup(self, address: int) -> tuple[int, int]:
        """Exact-address lookup (every instruction start has a row)."""
        try:
            return self._by_addr[address]
        except KeyError:
            raise DisasmError(f"no line info for address {address:#x}") from None
