"""Library-function implementations with internal instruction costs.

The paper attributes its static-vs-dynamic error to "instructions in
external library function calls, which at present are not visible and hence
not analyzed by Mira" (§IV-D.1).  This module is where those invisible
instructions live: each builtin has a Python semantic implementation plus a
**cost vector** of the instructions its (simulated) library code executes —
counted by the dynamic profiler, unseen by the static model.

Cost vectors are calibrated to glibc/libm orders of magnitude: libm ``sqrt``
spends one ``sqrtsd`` plus glue; ``printf`` with ``%f`` conversions runs a
binary-to-decimal loop with substantial FP work (the dominant real-world
source of "mystery" FP instructions in measured counts).
"""

from __future__ import annotations

import math

from ..compiler.arch import (CAT_INT_ARITH, CAT_INT_CTRL, CAT_INT_DATA,
                             CAT_MISC, CAT_SSE2_ARITH, CAT_SSE2_DATA)
from ..errors import InterpError

__all__ = ["LIBRARY", "LibFunction", "printf_cost"]

from dataclasses import dataclass, field


@dataclass
class LibFunction:
    """Semantics + per-call internal instruction cost."""

    name: str
    impl: Callable
    cost: dict = field(default_factory=dict)   # category -> count per call
    dynamic_cost: Callable | None = None       # (args) -> extra cost dict


def _fixed(name: str, impl: Callable, **cost: int) -> LibFunction:
    pretty = {
        "int_data": CAT_INT_DATA, "int_arith": CAT_INT_ARITH,
        "int_ctrl": CAT_INT_CTRL, "sse2_data": CAT_SSE2_DATA,
        "sse2_arith": CAT_SSE2_ARITH, "misc": CAT_MISC,
    }
    return LibFunction(name, impl,
                       {pretty[k]: v for k, v in cost.items()})


def printf_cost(fmt: str) -> dict:
    """Instruction cost of one printf call, by conversions in the format.

    ``%f``/``%e``/``%g`` conversions run the binary→decimal digit loop:
    ~60 FP-arithmetic and ~120 data-movement instructions each (glibc's
    ``__printf_fp``); ``%d`` runs an integer digit loop.
    """
    cost = {CAT_INT_DATA: 40, CAT_INT_CTRL: 12, CAT_INT_ARITH: 20,
            CAT_MISC: 4}
    i = 0
    while i < len(fmt):
        if fmt[i] == "%" and i + 1 < len(fmt):
            c = fmt[i + 1]
            if c in "feEgG":
                cost[CAT_SSE2_ARITH] = cost.get(CAT_SSE2_ARITH, 0) + 60
                cost[CAT_SSE2_DATA] = cost.get(CAT_SSE2_DATA, 0) + 120
                cost[CAT_INT_ARITH] += 90
                cost[CAT_INT_CTRL] += 40
            elif c in "diulx":
                cost[CAT_INT_ARITH] += 30
                cost[CAT_INT_DATA] += 20
                cost[CAT_INT_CTRL] += 10
            i += 2
            continue
        i += 1
    return cost


# -- timer state (deterministic virtual clock) ---------------------------------
class _Clock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 1.0e-4
        return self.t


class _Rand:
    """Deterministic LCG (glibc constants)."""

    def __init__(self) -> None:
        self.state = 12345

    def __call__(self) -> int:
        self.state = (self.state * 1103515245 + 12345) & 0x7FFFFFFF
        return self.state

    def seed(self, s: int) -> None:
        self.state = int(s) & 0x7FFFFFFF


_clock = _Clock()
_rand = _Rand()


def _printf_impl(fmt, *args):
    if not isinstance(fmt, str):
        raise InterpError("printf format must be a string literal")
    return 0  # output suppressed; the profiler records the call


def _make_library() -> dict[str, LibFunction]:
    lib: dict[str, LibFunction] = {}

    def add(lf: LibFunction) -> None:
        lib[lf.name] = lf

    # libm: one hardware FP op plus call glue inside the library.
    add(_fixed("sqrt", lambda x: math.sqrt(x),
               sse2_arith=1, sse2_data=4, int_data=4, int_ctrl=2, misc=1))
    add(_fixed("fabs", lambda x: abs(x),
               sse2_data=3, int_data=3, int_ctrl=2, misc=1))
    add(_fixed("sin", lambda x: math.sin(x),
               sse2_arith=14, sse2_data=18, int_data=8, int_ctrl=6, int_arith=6))
    add(_fixed("cos", lambda x: math.cos(x),
               sse2_arith=14, sse2_data=18, int_data=8, int_ctrl=6, int_arith=6))
    add(_fixed("exp", lambda x: math.exp(x),
               sse2_arith=12, sse2_data=14, int_data=8, int_ctrl=5, int_arith=5))
    add(_fixed("log", lambda x: math.log(x),
               sse2_arith=12, sse2_data=14, int_data=8, int_ctrl=5, int_arith=5))
    add(_fixed("pow", lambda x, y: math.pow(x, y),
               sse2_arith=25, sse2_data=25, int_data=12, int_ctrl=8, int_arith=10))
    add(_fixed("floor", lambda x: math.floor(x),
               sse2_data=3, sse2_arith=1, int_ctrl=2))
    add(_fixed("ceil", lambda x: math.ceil(x),
               sse2_data=3, sse2_arith=1, int_ctrl=2))
    add(_fixed("fmin", lambda a, b: min(a, b),
               sse2_arith=1, sse2_data=2, int_ctrl=1))
    add(_fixed("fmax", lambda a, b: max(a, b),
               sse2_arith=1, sse2_data=2, int_ctrl=1))
    add(_fixed("min", lambda a, b: min(a, b),
               int_arith=1, int_data=2, int_ctrl=1))
    add(_fixed("max", lambda a, b: max(a, b),
               int_arith=1, int_data=2, int_ctrl=1))
    add(_fixed("abs", lambda a: abs(a), int_arith=2, int_data=1))
    # timers: gettimeofday + int→double seconds conversion (FP inside!)
    add(_fixed("mysecond", _clock,
               sse2_arith=2, sse2_data=3, int_data=10, int_ctrl=3, misc=2))
    add(_fixed("clock", lambda: int(_clock() * 1e6),
               int_data=10, int_ctrl=3, int_arith=4, misc=2))
    add(_fixed("rand", _rand, int_arith=4, int_data=3, int_ctrl=1))
    add(_fixed("srand", _rand.seed, int_data=2))
    add(_fixed("exit", _exit_impl, int_ctrl=1))

    printf = LibFunction("printf", _printf_impl)
    printf.dynamic_cost = lambda args: printf_cost(args[0]) if args else {}
    add(printf)
    return lib


def _exit_impl(code=0):
    raise InterpError(f"program called exit({code})")


LIBRARY = _make_library()
