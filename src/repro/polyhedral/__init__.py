"""Polyhedral iteration-domain modeling (paper §II-B, §III-C.2/3).

Loop SCoPs become :class:`NestLevel` rows; branch conditions become
:class:`Constraint` rows; :func:`count_nest` produces concrete or parametric
lattice-point counts.
"""

from .affine import AffineExpr, Constraint
from .polyhedron import LoopNest, NestLevel
from .scop import (ScopError, condition_to_constraints, expr_to_symbolic,
                   extract_level)

__all__ = [
    "AffineExpr", "Constraint", "LoopNest", "NestLevel", "ScopError",
    "condition_to_constraints", "expr_to_symbolic", "extract_level",
]
