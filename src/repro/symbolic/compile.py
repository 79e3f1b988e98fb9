"""Codegen counters of the generated Fig. 5 module.

An analysis that is evaluated repeatedly runs code emitted from its
symbolic models: the generated Fig. 5 module
(:func:`repro.core.model_generator.generate_model_source`, every count
rendered by :func:`~.pycodegen.expr_to_python`).  That one text serves
both evaluators: the scalar one execs it as it is, and
:class:`~.veccompile.VecCompiledResult` execs it with numpy helpers bound
over its runtime names.  :data:`CODEGEN_COUNTS` counts the emissions.
"""

from __future__ import annotations

from collections import Counter

__all__ = ["CODEGEN_COUNTS", "reset_codegen_counters"]

#: Observability counters for codegen work: ``"module_emit"`` counts the
#: model modules rendered from symbolic models.  The model cache stores no
#: code, so a restored result emits its module once, on first use, whichever
#: engines evaluate it; tests assert on exactly that.
CODEGEN_COUNTS: Counter = Counter()


def reset_codegen_counters() -> None:
    """Zero :data:`CODEGEN_COUNTS` (test/benchmark isolation)."""
    CODEGEN_COUNTS.clear()
