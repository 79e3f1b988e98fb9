"""Input Processor products (paper Fig. 1, first stage).

"Its primary goal is to process source code and ELF object file inputs and
build the corresponding ASTs".  The :class:`~repro.core.pipeline.Pipeline`
runs that work as its parse → compile → disassemble → bridge stages; this
module holds what they produce together (:class:`ProcessedInput`) and the
content-addressed identity of an analysis (:func:`source_fingerprint`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from ..binary import AsmProgram
from ..compiler import ArchDescription, ObjectFile
from ..frontend import TranslationUnit

__all__ = ["ProcessedInput", "source_fingerprint"]

# Bump when the pipeline's observable output changes shape, so stale
# on-disk model caches self-invalidate instead of replaying old results.
# v2: cache payloads carry the serialized AnalysisResult wire format.
# v3: cache payloads carry compiled codegen artifacts (scalar + vector).
# v4: the cache also stores per-function FunctionModel payloads keyed on
#     function-unit fingerprints (the incremental engine).
# v5: the scalar artifact is the generated model module, {"source": text}.
PIPELINE_VERSION = 5


def source_fingerprint(source: str, arch: ArchDescription, opt_level: int,
                       predefined: dict | None = None,
                       filename: str = "<input>",
                       branch_ratio: float = 0.5,
                       symbolic_params: tuple = ()) -> str:
    """Content-addressed identity of one analysis.

    Two analyses share a fingerprint iff they are guaranteed to produce the
    same model: same source bytes, same architecture description, same
    optimization level, same predefines, same default branch ratio (it
    scales non-analyzable branch terms), and the same filename, because
    the stored result and the served handle record it as their ``source``
    (entries carry no generated code).
    """
    material = json.dumps(
        {
            "version": PIPELINE_VERSION,
            "source_sha256": hashlib.sha256(source.encode("utf-8")).hexdigest(),
            "arch": arch.fingerprint(),
            "opt_level": opt_level,
            "predefined": sorted((str(k), str(v))
                                 for k, v in (predefined or {}).items()),
            "filename": filename,
            "branch_ratio": str(branch_ratio),
            # Omitted when empty so pre-existing fingerprints (and cached
            # models) stay valid for non-symbolic analyses.
            **({"symbolic_params": sorted(str(n) for n in symbolic_params)}
               if symbolic_params else {}),
        },
        sort_keys=True,
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


@dataclass
class ProcessedInput:
    """Everything later stages need: both ASTs + the bridge."""

    tu: TranslationUnit
    obj: ObjectFile
    program: AsmProgram
    bridges: dict            # qualified name -> FunctionBridge
    arch: ArchDescription
    opt_level: int
