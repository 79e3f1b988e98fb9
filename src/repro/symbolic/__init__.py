"""Exact symbolic engine used for parametric performance expressions.

See :mod:`repro.symbolic.expr` for the expression nodes,
:mod:`repro.symbolic.poly` for polynomial canonicalization and Faulhaber
power sums, :mod:`repro.symbolic.summation` for symbolic summation, and
:mod:`repro.symbolic.pycodegen` for Python code emission,
:mod:`repro.symbolic.compile` for closure-compiled expressions, and
:mod:`repro.symbolic.veccompile` for numpy array-vectorized evaluation.

Expression identity is canonical: nodes are hash-consed, so structurally
equal expressions are the same object (see :mod:`repro.symbolic.expr`).
"""

from .compile import (
    CODEGEN_COUNTS,
    CompiledExpr,
    compile_expr,
    reset_codegen_counters,
)
from .veccompile import (
    VecCompiledExpr,
    VecCompiledResult,
    compile_expr_vector,
    compile_result_vector,
)
from .expr import (
    Add,
    Expr,
    FloorDiv,
    Int,
    Max,
    Min,
    Mul,
    ONE,
    Pow,
    Sum,
    Sym,
    ZERO,
    as_expr,
)
from .diff import (
    CategoryDelta,
    FunctionDelta,
    ResultDiff,
    category_exprs,
    classify_change,
    diff_results,
)
from .poly import Polynomial, expr_to_poly, power_sum_poly
from .pycodegen import expr_to_numpy, expr_to_python
from .serialize import expr_from_json, expr_to_json
from .summation import range_size, sum_expr, sum_poly_closed_form

__all__ = [
    "Add",
    "CODEGEN_COUNTS",
    "CompiledExpr",
    "Expr",
    "VecCompiledExpr",
    "VecCompiledResult",
    "compile_expr",
    "CategoryDelta",
    "FunctionDelta",
    "ResultDiff",
    "category_exprs",
    "classify_change",
    "compile_expr_vector",
    "compile_result_vector",
    "diff_results",
    "reset_codegen_counters",
    "FloorDiv",
    "Int",
    "Max",
    "Min",
    "Mul",
    "ONE",
    "Polynomial",
    "Pow",
    "Sum",
    "Sym",
    "ZERO",
    "as_expr",
    "expr_from_json",
    "expr_to_json",
    "expr_to_numpy",
    "expr_to_poly",
    "expr_to_python",
    "power_sum_poly",
    "range_size",
    "sum_expr",
    "sum_poly_closed_form",
]
