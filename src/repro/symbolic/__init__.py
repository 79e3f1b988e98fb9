"""Exact symbolic engine used for parametric performance expressions.

See :mod:`repro.symbolic.expr` for the expression nodes,
:mod:`repro.symbolic.poly` for polynomial canonicalization and Faulhaber
power sums, :mod:`repro.symbolic.summation` for symbolic summation,
:mod:`repro.symbolic.pycodegen` for Python code emission,
:mod:`repro.symbolic.compile` for the codegen counters, and
:mod:`repro.symbolic.veccompile` for numpy array-vectorized evaluation.

Expression identity is canonical: nodes are hash-consed, so structurally
equal expressions are the same object (see :mod:`repro.symbolic.expr`).
"""

from .compile import CODEGEN_COUNTS, reset_codegen_counters
from .diff import category_exprs, diff_results
from .expr import (Add, Expr, FloorDiv, Int, Max, Min, Mul, Pow, Sum, Sym,
                   as_expr)
from .poly import expr_to_poly, power_sum_poly
from .pycodegen import expr_to_python
from .serialize import expr_from_json, expr_to_json
from .summation import range_size, sum_expr

__all__ = [
    "Add", "CODEGEN_COUNTS", "Expr", "FloorDiv", "Int", "Max", "Min", "Mul",
    "Pow", "Sum", "Sym", "as_expr", "category_exprs", "diff_results",
    "expr_from_json", "expr_to_json", "expr_to_poly", "expr_to_python",
    "power_sum_poly", "range_size", "reset_codegen_counters", "sum_expr",
]
