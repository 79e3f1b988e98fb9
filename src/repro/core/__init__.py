"""Mira proper: the staged analysis pipeline and its products.

The paper's three-stage workflow (Fig. 1) is exposed as one coherent API:
:class:`AnalysisConfig` (all knobs, frozen, serializable),
:class:`Pipeline` (named stages ``parse → compile → disassemble → bridge →
model`` with partial execution and observers), and :class:`AnalysisResult`
(the versioned, serializable product).  ``Mira``/``MiraModel`` remain as a
thin back-compat facade, plus derived-metric analysis, loop coverage, and
the batch corpus engine.
"""

from .analysis import (RooflineEstimate, arithmetic_intensity,
                       instruction_distribution, roofline_estimate)
from .batch import (BatchAnalyzer, BatchItem, BatchReport, BatchResult,
                    FunctionSummary)
from .config import CONFIG_SCHEMA_VERSION, AnalysisConfig
from .coverage import CoverageReport, loop_coverage, loop_coverage_source
from .incremental import IncrementalAnalyzer
from .input_processor import ProcessedInput, source_fingerprint
from .metric_generator import (CallTerm, FunctionModel, GeneratorOptions,
                               MetricGenerator, MetricTerm)
from .mira import Mira, MiraModel
from .model_generator import (CompiledResult, compile_model, evaluate_model,
                              generate_model_source, model_entry_name)
from .model_runtime import Metrics, handle_function_call
from .pipeline import (FUNC_STAGE_RUN_COUNTS, STAGE_RUN_COUNTS, STAGES,
                       Pipeline, PipelineState, StageEvent,
                       reset_stage_counters)
from .result import (RESULT_SCHEMA_VERSION, AnalysisResult,
                     function_payload, restore_function_model)
from .store import ModelCache, ModelEntry, ModelStore, payload_from_result
from .sweep import SweepPoint, SweepResult, run_model_sweep, sweep_source
from .units import FunctionUnit, build_units

__all__ = [
    "AnalysisConfig", "AnalysisResult", "BatchAnalyzer", "BatchItem",
    "BatchReport", "BatchResult", "CONFIG_SCHEMA_VERSION", "CallTerm",
    "CoverageReport", "FUNC_STAGE_RUN_COUNTS", "FunctionModel",
    "FunctionSummary", "FunctionUnit", "GeneratorOptions",
    "IncrementalAnalyzer", "Metrics", "MetricGenerator",
    "MetricTerm", "Mira", "MiraModel", "ModelCache", "ModelEntry",
    "ModelStore", "Pipeline",
    "PipelineState", "ProcessedInput", "RESULT_SCHEMA_VERSION",
    "RooflineEstimate", "STAGES", "STAGE_RUN_COUNTS", "StageEvent",
    "SweepPoint", "SweepResult", "arithmetic_intensity",
    "build_units", "compile_model", "evaluate_model",
    "function_payload", "generate_model_source", "handle_function_call",
    "instruction_distribution", "loop_coverage", "loop_coverage_source",
    "model_entry_name", "payload_from_result", "reset_stage_counters",
    "restore_function_model", "roofline_estimate", "run_model_sweep",
    "source_fingerprint", "sweep_source",
]
