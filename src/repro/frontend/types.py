"""Type representation for the C/C++ subset, plus builtin library prototypes.

The type system is deliberately small: Mira needs types to (a) distinguish
integer from floating-point operations during lowering (SSE2 vs integer ALU
instructions) and (b) size array storage for the dynamic substrate.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Type", "BUILTIN_FUNCTIONS", "INT_TYPES", "FLOAT_TYPES"]

INT_TYPES = frozenset({"int", "long", "short", "char", "bool", "unsigned", "size_t"})
FLOAT_TYPES = frozenset({"float", "double"})


@dataclass(frozen=True)
class Type:
    """A (possibly pointer/reference) type."""

    name: str                  # 'int', 'double', 'void', class name, ...
    pointer: int = 0           # pointer depth: double** -> 2
    reference: bool = False    # C++ lvalue reference
    unsigned: bool = False
    const: bool = False

    @property
    def is_void(self) -> bool:
        return self.name == "void" and self.pointer == 0

    @property
    def is_float(self) -> bool:
        return self.pointer == 0 and self.name in FLOAT_TYPES

    @property
    def is_integer(self) -> bool:
        return self.pointer == 0 and (self.name in INT_TYPES or self.unsigned)

    @property
    def is_class(self) -> bool:
        return self.pointer == 0 and self.name not in INT_TYPES \
            and self.name not in FLOAT_TYPES and self.name != "void"

    def pointee(self) -> "Type":
        if self.pointer == 0:
            raise ValueError(f"{self} is not a pointer")
        return Type(self.name, self.pointer - 1, False, self.unsigned, False)

    def __str__(self) -> str:
        s = ("unsigned " if self.unsigned and self.name != "unsigned" else "") + self.name
        s += "*" * self.pointer
        if self.reference:
            s += "&"
        return s


# Builtin library functions: name -> (return type, is_float_fn).
# These are the "external library function calls" whose internals are
# invisible to static analysis (the paper's stated error source §IV-D.1);
# the dynamic substrate charges their internal cost tables
# (repro.dynamic.libruntime).
BUILTIN_FUNCTIONS: dict[str, Type] = {
    "sqrt": Type("double"),
    "fabs": Type("double"),
    "abs": Type("int"),
    "sin": Type("double"),
    "cos": Type("double"),
    "exp": Type("double"),
    "log": Type("double"),
    "pow": Type("double"),
    "floor": Type("double"),
    "ceil": Type("double"),
    "fmin": Type("double"),
    "fmax": Type("double"),
    "min": Type("int"),
    "max": Type("int"),
    "printf": Type("int"),
    "rand": Type("int"),
    "srand": Type("void"),
    "clock": Type("long"),
    "mysecond": Type("double"),   # STREAM's timer
    "exit": Type("void"),
}
