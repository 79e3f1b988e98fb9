"""Source↔binary association via line numbers (paper §III-A.2)."""

from .linemap import FunctionBridge, build_bridge
from .metrics import NCAT, CategoryVector, vector_for_center

__all__ = ["CategoryVector", "FunctionBridge", "NCAT", "build_bridge",
           "vector_for_center"]
