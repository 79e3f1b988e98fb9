"""Mira proper: the staged analysis pipeline and its products.

The paper's three-stage workflow (Fig. 1) is exposed as one coherent API:
:class:`AnalysisConfig` (all knobs, frozen, serializable),
:class:`Pipeline` (named stages ``parse → compile → disassemble → bridge →
model`` with partial execution and observers), and :class:`AnalysisResult`
(the versioned, serializable product), plus derived-metric analysis, loop
coverage, the batch corpus engine and the model store.  This package
re-exports only the names imported through it; the rest stay importable
from their defining modules.
"""

from .analysis import (arithmetic_intensity, instruction_distribution,
                       roofline_estimate)
from .batch import BatchAnalyzer, BatchReport
from .config import CONFIG_SCHEMA_VERSION, AnalysisConfig
from .coverage import loop_coverage, loop_coverage_source
from .incremental import IncrementalAnalyzer
from .model_generator import evaluate_model
from .model_runtime import Metrics
from .pipeline import STAGE_RUN_COUNTS, Pipeline, PipelineState, StageEvent
from .result import RESULT_SCHEMA_VERSION, AnalysisResult
from .store import ModelCache, ModelEntry, ModelStore
from .sweep import SweepResult, sweep_source

__all__ = [
    "AnalysisConfig", "AnalysisResult", "BatchAnalyzer", "BatchReport",
    "CONFIG_SCHEMA_VERSION", "IncrementalAnalyzer", "Metrics", "ModelCache",
    "ModelEntry", "ModelStore", "Pipeline", "PipelineState",
    "RESULT_SCHEMA_VERSION", "STAGE_RUN_COUNTS", "StageEvent", "SweepResult",
    "arithmetic_intensity", "evaluate_model", "instruction_distribution",
    "loop_coverage", "loop_coverage_source", "roofline_estimate",
    "sweep_source",
]
