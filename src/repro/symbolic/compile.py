"""Codegen counters shared by the scalar and vector evaluators.

An analysis that is evaluated repeatedly runs code emitted from its
symbolic models: the generated Fig. 5 module
(:class:`repro.core.model_generator.CompiledResult`, rendered by
:func:`~.pycodegen.expr_to_python`) or
:class:`~.veccompile.VecCompiledResult` (rendered by
:func:`~.pycodegen.expr_to_numpy`).  :data:`CODEGEN_COUNTS` counts that
codegen work.
"""

from __future__ import annotations

from collections import Counter

__all__ = ["CODEGEN_COUNTS", "reset_codegen_counters"]

#: Observability counters for codegen work, keyed ``"<engine>_emit"``: one
#: per evaluator source generated from the symbolic models (and exec'd).  The
#: model cache stores no code, so a restored result emits each engine it
#: uses once; tests assert on exactly that.
CODEGEN_COUNTS: Counter = Counter()


def reset_codegen_counters() -> None:
    """Zero :data:`CODEGEN_COUNTS` (test/benchmark isolation)."""
    CODEGEN_COUNTS.clear()


def _mangle(name: str) -> str:
    """Map a model parameter to a collision-free Python local name."""
    return "v_" + name
