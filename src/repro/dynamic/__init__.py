"""Dynamic-execution substrate: the TAU/PAPI stand-in (DESIGN.md §2).

Executes programs with real control flow and data, attributing binary-derived
instruction vectors per cost center, plus library-internal costs the static
model cannot see.
"""

from .interp import Interpreter
from .libruntime import printf_cost
from .papi import count_preset, preset_categories
from .tau import TauProfiler, TauReport
from .values import c_div, c_mod

__all__ = [
    "Interpreter", "TauProfiler", "TauReport", "c_div", "c_mod",
    "count_preset", "preset_categories", "printf_cost",
]
