"""Mira: a framework for static performance analysis.

A from-scratch Python reproduction of Meng & Norris, *Mira: A Framework for
Static Performance Analysis*, CLUSTER 2017 (arXiv:1705.07575) — including
every substrate the paper builds on: a C/C++ subset frontend, an optimizing
compiler backend to a synthetic x86-64 ISA with an ELF-like object format
and DWARF-style line tables, a byte-level disassembler, a polyhedral
iteration-domain engine over an exact symbolic algebra, and a dynamic
execution/profiling substrate standing in for TAU/PAPI validation runs.

Quick start::

    from repro import AnalysisConfig, Pipeline

    result = Pipeline(AnalysisConfig()).run(open("kernel.c").read())
    print(result.evaluate("main").as_dict())      # categorized counts
    print(result.stage_timings)                   # per-stage wall time
    print(result.to_json())                       # versioned wire format

``__all__`` below is the supported surface; each sub-package re-exports only
the names imported through it, and everything else stays importable from
its defining module.
"""

from .baselines.pbound import PBoundAnalyzer, PBoundCounts
from .compiler.arch import ArchDescription, default_arch, load_arch
from .core import (
    AnalysisConfig, AnalysisResult, BatchAnalyzer, BatchReport, Metrics,
    ModelCache, Pipeline, PipelineState, StageEvent, arithmetic_intensity,
    instruction_distribution, loop_coverage_source, roofline_estimate,
)
from .dynamic import TauProfiler, TauReport
from .errors import (BatchError, MiraError, PipelineError, SchemaError,
                     ServeError)
from ._version import __version__

__all__ = [
    "AnalysisConfig", "AnalysisResult", "ArchDescription", "BatchAnalyzer",
    "BatchError", "BatchReport", "Metrics", "MiraError", "ModelCache",
    "PBoundAnalyzer", "PBoundCounts", "Pipeline", "PipelineError",
    "PipelineState", "SchemaError", "ServeError", "StageEvent",
    "TauProfiler", "TauReport", "__version__", "arithmetic_intensity",
    "default_arch", "instruction_distribution", "load_arch",
    "loop_coverage_source", "roofline_estimate",
]
