"""ELF-like object-file container.

The compiler serializes its output into a byte-level container with the same
*role* as the ELF objects Mira disassembles (DESIGN.md §2): a header, a
string table, a symbol table (functions with address ranges, globals with
sizes), ``.text`` holding encoded instruction bytes, ``.rodata`` for FP
literal pool entries, and ``.debug_line`` holding the DWARF-style line
program.  The binary-side decoder (:mod:`repro.binary.disasm`) consumes only
these bytes — no frontend data structures cross the boundary, mirroring the
paper's two independent ASTs.

Layout (little-endian)::

    magic   8 bytes  b"MIRAOBJ1"
    u32     number of sections
    per section:  u16 name-length, name bytes, u64 size, payload bytes
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from ..errors import DisasmError

__all__ = ["Symbol", "ObjectFile", "SYM_FUNC", "SYM_OBJECT", "SYM_LABEL"]

_MAGIC = b"MIRAOBJ1"

SYM_FUNC = 1    # function entry: addr..addr+size in .text
SYM_OBJECT = 2  # data object (global variable), size in bytes
SYM_LABEL = 3   # local code label (jump target)


@dataclass(frozen=True)
class Symbol:
    name: str
    kind: int
    address: int
    size: int


@dataclass
class ObjectFile:
    """A compiled object: named byte sections + a decoded symbol table."""

    text: bytes = b""
    rodata: bytes = b""
    debug_line: bytes = b""
    symbols: list = field(default_factory=list)
    strings: list = field(default_factory=list)  # .strtab entries, index-stable
    source_file: str = "<input>"

    # -- symbol helpers ---------------------------------------------------------
    def functions(self) -> list[Symbol]:
        return [s for s in self.symbols if s.kind == SYM_FUNC]

    def find_symbol(self, name: str) -> Symbol | None:
        for s in self.symbols:
            if s.name == name:
                return s
        return None

    # -- serialization ------------------------------------------------------------
    def to_bytes(self) -> bytes:
        strtab = "\0".join(self.strings).encode()
        symtab = bytearray()
        symtab += struct.pack("<I", len(self.symbols))
        for s in self.symbols:
            nb = s.name.encode()
            symtab += struct.pack("<H", len(nb)) + nb
            symtab += struct.pack("<BQQ", s.kind, s.address, s.size)
        src = self.source_file.encode()
        sections = [
            (".strtab", strtab),
            (".symtab", bytes(symtab)),
            (".text", self.text),
            (".rodata", self.rodata),
            (".debug_line", self.debug_line),
            (".comment", src),
        ]
        out = bytearray(_MAGIC)
        out += struct.pack("<I", len(sections))
        for name, payload in sections:
            nb = name.encode()
            out += struct.pack("<H", len(nb)) + nb
            out += struct.pack("<Q", len(payload)) + payload
        return bytes(out)

    @staticmethod
    def from_bytes(data: bytes) -> "ObjectFile":
        if data[:8] != _MAGIC:
            raise DisasmError("bad magic: not a Mira object file")
        (nsec,) = struct.unpack_from("<I", data, 8)
        pos = 12
        sections: dict[str, bytes] = {}
        for _ in range(nsec):
            (nlen,) = struct.unpack_from("<H", data, pos)
            pos += 2
            name = data[pos : pos + nlen].decode()
            pos += nlen
            (size,) = struct.unpack_from("<Q", data, pos)
            pos += 8
            sections[name] = data[pos : pos + size]
            if len(sections[name]) != size:
                raise DisasmError(f"truncated section {name}")
            pos += size
        for required in (".strtab", ".symtab", ".text", ".debug_line"):
            if required not in sections:
                raise DisasmError(f"missing section {required}")
        strings = sections[".strtab"].decode().split("\0") \
            if sections[".strtab"] else []
        symtab = sections[".symtab"]
        (nsym,) = struct.unpack_from("<I", symtab, 0)
        spos = 4
        symbols: list[Symbol] = []
        for _ in range(nsym):
            (nlen,) = struct.unpack_from("<H", symtab, spos)
            spos += 2
            name = symtab[spos : spos + nlen].decode()
            spos += nlen
            kind, addr, size = struct.unpack_from("<BQQ", symtab, spos)
            spos += 17
            symbols.append(Symbol(name, kind, addr, size))
        return ObjectFile(
            text=sections[".text"],
            rodata=sections.get(".rodata", b""),
            debug_line=sections[".debug_line"],
            symbols=symbols,
            strings=strings,
            source_file=sections.get(".comment", b"<input>").decode(),
        )

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @staticmethod
    def load(path: str) -> "ObjectFile":
        with open(path, "rb") as fh:
            return ObjectFile.from_bytes(fh.read())
