"""Architecture description files (paper §III-C.6).

The paper's user-customizable architecture description declares machine
parameters (cores, cache line size, vector length) and divides the x86
instruction set into **64 categories**; Mira reports category-based
cumulative instruction counts at statement granularity (Table II) and derives
prediction metrics such as instruction-based arithmetic intensity (§IV-D.2).

This module defines the category taxonomy, the default mnemonic→category
mapping for the Mira-x86 ISA, JSON (de)serialization, and two bundled
machine descriptions mirroring the paper's evaluation hosts:

* ``arya`` — Haswell-like (no FP hardware counters, the paper's motivating
  case for static FP analysis),
* ``frankenstein`` — Nehalem-like.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..errors import MiraError
from .isa import MNEMONICS

__all__ = [
    "ArchDescription", "CATEGORY_NAMES", "default_arch", "load_arch",
    "CAT_INT_ARITH", "CAT_INT_CTRL", "CAT_INT_DATA", "CAT_SSE2_DATA",
    "CAT_SSE2_ARITH", "CAT_MISC", "CAT_64BIT",
]

# The seven categories Table II reports for cg_solve:
CAT_INT_ARITH = "Integer arithmetic instruction"
CAT_INT_CTRL = "Integer control transfer instruction"
CAT_INT_DATA = "Integer data transfer instruction"
CAT_SSE2_DATA = "SSE2 data movement instruction"
CAT_SSE2_ARITH = "SSE2 packed arithmetic instruction"
CAT_MISC = "Misc Instruction"
CAT_64BIT = "64-bit mode instruction"

# The full 64-category taxonomy (Intel SDM chapter granularity).  Categories
# beyond what the Mira-x86 backend emits exist so user arch files can
# classify real-world mnemonics; they simply count zero here.
CATEGORY_NAMES = [
    CAT_INT_DATA,                                   # 1
    "Binary arithmetic instruction",                # 2 (alias bucket)
    CAT_INT_ARITH,                                  # 3
    "Decimal arithmetic instruction",               # 4
    "Logical instruction",                          # 5
    "Shift and rotate instruction",                 # 6
    "Bit and byte instruction",                     # 7
    CAT_INT_CTRL,                                   # 8
    "String instruction",                           # 9
    "I/O instruction",                              # 10
    "Enter and leave instruction",                  # 11
    "Flag control instruction",                     # 12
    "Segment register instruction",                 # 13
    CAT_MISC,                                       # 14
    "Random number generator instruction",          # 15
    "BMI1 BMI2 instruction",                        # 16
    "x87 FPU data transfer instruction",            # 17
    "x87 FPU basic arithmetic instruction",         # 18
    "x87 FPU comparison instruction",               # 19
    "x87 FPU transcendental instruction",           # 20
    "x87 FPU load constant instruction",            # 21
    "x87 FPU control instruction",                  # 22
    "MMX data transfer instruction",                # 23
    "MMX conversion instruction",                   # 24
    "MMX packed arithmetic instruction",            # 25
    "MMX comparison instruction",                   # 26
    "MMX logical instruction",                      # 27
    "MMX shift and rotate instruction",             # 28
    "MMX state management instruction",             # 29
    "SSE data transfer instruction",                # 30
    "SSE packed arithmetic instruction",            # 31
    "SSE comparison instruction",                   # 32
    "SSE logical instruction",                      # 33
    "SSE shuffle and unpack instruction",           # 34
    "SSE conversion instruction",                   # 35
    "SSE MXCSR state management instruction",       # 36
    "SSE 64-bit SIMD integer instruction",          # 37
    "SSE cacheability control instruction",         # 38
    CAT_SSE2_DATA,                                  # 39
    CAT_SSE2_ARITH,                                 # 40
    "SSE2 logical instruction",                     # 41
    "SSE2 compare instruction",                     # 42
    "SSE2 shuffle and unpack instruction",          # 43
    "SSE2 conversion instruction",                  # 44
    "SSE2 packed single-precision instruction",     # 45
    "SSE2 128-bit SIMD integer instruction",        # 46
    "SSE2 cacheability control instruction",        # 47
    "SSE3 x87-FP integer conversion instruction",   # 48
    "SSE3 specialized 128-bit unaligned data load", # 49
    "SSE3 SIMD floating-point packed ADD/SUB",      # 50
    "SSE3 SIMD floating-point horizontal ADD/SUB",  # 51
    "SSSE3 instruction",                            # 52
    "SSE4.1 instruction",                           # 53
    "SSE4.2 instruction",                           # 54
    "AESNI and PCLMULQDQ instruction",              # 55
    "AVX instruction",                              # 56
    "AVX2 instruction",                             # 57
    "FMA instruction",                              # 58
    "AVX-512 instruction",                          # 59
    "TSX instruction",                              # 60
    "VMX instruction",                              # 61
    "SMX instruction",                              # 62
    "System instruction",                           # 63
    CAT_64BIT,                                      # 64
]

assert len(CATEGORY_NAMES) == 64, "paper specifies 64 categories"

# Default mnemonic -> category mapping for the Mira-x86 backend.
_DEFAULT_MAP: dict[str, str] = {}


def _assign(cat: str, *mnemonics: str) -> None:
    for m in mnemonics:
        _DEFAULT_MAP[m] = cat


_assign(CAT_INT_DATA, "mov", "movzx", "movsx", "xchg",
        "cmove", "cmovne", "cmovl", "cmovg", "push", "pop")
_assign(CAT_64BIT, "movsxd", "cdqe", "cdq", "cqo")
_assign(CAT_INT_ARITH, "add", "sub", "imul", "mul", "idiv", "div",
        "inc", "dec", "neg", "cmp", "adc", "sbb")
_assign("Logical instruction", "and", "or", "xor", "not", "test")
_assign("Shift and rotate instruction", "shl", "shr", "sar", "rol", "ror")
_assign("Bit and byte instruction", "sete", "setne", "setl", "setle",
        "setg", "setge", "setb", "seta", "bt", "bsf", "bsr")
_assign(CAT_INT_CTRL, "jmp", "je", "jne", "jl", "jle", "jg", "jge",
        "jb", "jbe", "ja", "jae", "call", "ret")
_assign("Enter and leave instruction", "leave")
_assign(CAT_MISC, "lea", "nop", "cpuid")
_assign("x87 FPU data transfer instruction", "fld", "fst")
_assign("x87 FPU basic arithmetic instruction", "fadd", "fmul")
_assign(CAT_SSE2_DATA, "movsd", "movapd", "movupd", "movhpd", "movlpd", "movq")
_assign(CAT_SSE2_ARITH, "addsd", "subsd", "mulsd", "divsd", "sqrtsd",
        "maxsd", "minsd", "addpd", "subpd", "mulpd", "divpd", "sqrtpd",
        "maxpd", "minpd")
_assign("SSE2 logical instruction", "xorpd", "andpd", "orpd", "andnpd")
_assign("SSE2 compare instruction", "ucomisd", "comisd", "cmpsd", "cmppd")
_assign("SSE2 conversion instruction", "cvtsi2sd", "cvttsd2si", "cvtsd2ss",
        "cvtss2sd", "cvtdq2pd")
_assign("SSE2 shuffle and unpack instruction", "unpcklpd", "unpckhpd",
        "shufpd", "pshufd")
_assign("SSE data transfer instruction", "movss")
_assign("SSE packed arithmetic instruction", "addss", "mulss")
_assign("SSE2 128-bit SIMD integer instruction", "paddd", "pmulld", "pxor")

_unmapped = [m for m in MNEMONICS if m not in _DEFAULT_MAP]
assert not _unmapped, f"mnemonics without category: {_unmapped}"

# Categories whose instructions are counted as floating-point instructions
# (PAPI_FP_INS analog).  Matches the paper: "SSE2 packed arithmetic
# instruction represents the packed and scalar double-precision
# floating-point instructions".
_FP_ARITH_CATEGORIES = [
    CAT_SSE2_ARITH,
    "SSE packed arithmetic instruction",
    "x87 FPU basic arithmetic instruction",
    "SSE3 SIMD floating-point packed ADD/SUB",
    "SSE3 SIMD floating-point horizontal ADD/SUB",
    "FMA instruction",
]
# Categories counted as FP data movement (the denominator of the paper's
# instruction-based arithmetic intensity, §IV-D.2).
_FP_DATA_CATEGORIES = [CAT_SSE2_DATA, "SSE data transfer instruction"]


@dataclass
class ArchDescription:
    """A machine model: category mapping + architectural parameters."""

    name: str = "generic-x86_64"
    cores: int = 1
    cache_line_bytes: int = 64
    vector_bits: int = 128
    frequency_ghz: float = 2.3
    has_fp_counters: bool = True
    categories: dict = field(default_factory=dict)   # mnemonic -> category
    fp_arith_categories: list = field(default_factory=lambda: list(_FP_ARITH_CATEGORIES))
    fp_data_categories: list = field(default_factory=lambda: list(_FP_DATA_CATEGORIES))

    def __post_init__(self) -> None:
        if not self.categories:
            self.categories = dict(_DEFAULT_MAP)
        bad = {c for c in self.categories.values() if c not in CATEGORY_NAMES}
        if bad:
            raise MiraError(f"unknown categories in arch file: {sorted(bad)}")

    # -- queries ---------------------------------------------------------------
    def category_of(self, mnemonic: str) -> str:
        try:
            return self.categories[mnemonic]
        except KeyError:
            raise MiraError(f"mnemonic {mnemonic!r} not classified by arch "
                            f"description {self.name!r}") from None

    def is_fp_arith(self, category: str) -> bool:
        return category in self.fp_arith_categories

    def fingerprint(self) -> str:
        """Content hash of the full machine description.

        Any change to the category mapping or machine parameters changes the
        fingerprint, which invalidates cached models built against it (the
        batch engine keys its on-disk cache on this).  Computed once: a
        description is treated as immutable after its first fingerprint —
        batch runs hash it per file, and it is ~100 mnemonic entries of JSON.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            import hashlib

            cached = hashlib.sha256(
                self.to_json().encode("utf-8")).hexdigest()
            self.__dict__["_fingerprint"] = cached
        return cached

    # -- serialization -----------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "cores": self.cores,
                "cache_line_bytes": self.cache_line_bytes,
                "vector_bits": self.vector_bits,
                "frequency_ghz": self.frequency_ghz,
                "has_fp_counters": self.has_fp_counters,
                "categories": self.categories,
                "fp_arith_categories": self.fp_arith_categories,
                "fp_data_categories": self.fp_data_categories,
            },
            indent=2,
        )

    @staticmethod
    def from_json(text: str) -> "ArchDescription":
        d = json.loads(text)
        return ArchDescription(
            name=d.get("name", "custom"),
            cores=d.get("cores", 1),
            cache_line_bytes=d.get("cache_line_bytes", 64),
            vector_bits=d.get("vector_bits", 128),
            frequency_ghz=d.get("frequency_ghz", 2.0),
            has_fp_counters=d.get("has_fp_counters", True),
            categories=d.get("categories", {}),
            fp_arith_categories=d.get("fp_arith_categories",
                                      list(_FP_ARITH_CATEGORIES)),
            fp_data_categories=d.get("fp_data_categories",
                                     list(_FP_DATA_CATEGORIES)),
        )


def default_arch(name: str = "generic") -> ArchDescription:
    """Bundled machine descriptions.

    * ``arya`` — two 18-core Haswell E5-2699v3 @ 2.3 GHz; **no** FPI hardware
      counters (paper §IV-D.1: static analysis is the only way to get FP
      metrics there).
    * ``frankenstein`` — two 4-core Nehalem E5620 @ 2.4 GHz, with FP counters.
    * anything else — a generic single-socket model.
    """
    if name == "arya":
        return ArchDescription(name="arya-haswell", cores=36,
                               vector_bits=256, frequency_ghz=2.3,
                               has_fp_counters=False)
    if name == "frankenstein":
        return ArchDescription(name="frankenstein-nehalem", cores=8,
                               vector_bits=128, frequency_ghz=2.4,
                               has_fp_counters=True)
    return ArchDescription()


def load_arch(path: str) -> ArchDescription:
    """Load a user architecture description file (JSON)."""
    with open(path, "r", encoding="utf-8") as fh:
        return ArchDescription.from_json(fh.read())
