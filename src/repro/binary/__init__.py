"""Binary-side tools: disassembler, DWARF line-table reader, binary AST.

Substitutes for the ROSE binary frontend (DESIGN.md §2): consumes only
object-file *bytes*.
"""

from .ast_nodes import AsmProgram
from .disasm import disassemble, format_listing

__all__ = ["AsmProgram", "disassemble", "format_listing"]
