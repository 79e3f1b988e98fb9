"""Input Processor (paper Fig. 1, first stage).

"Its primary goal is to process source code and ELF object file inputs and
build the corresponding ASTs": parses the source, compiles it to an object
file, disassembles the object's *bytes* back into a binary AST, and builds
the line-number bridge between the two.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from ..binary import AsmProgram, disassemble
from ..bridge import FunctionBridge, build_bridge
from ..compiler import ArchDescription, ObjectFile, compile_tu, default_arch
from ..frontend import TranslationUnit, parse_file, parse_source

__all__ = ["ProcessedInput", "InputProcessor", "source_fingerprint"]

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
    scales non-analyzable branch terms), and the same filename (which the
    generated model module embeds in its header).
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

    def function_names(self) -> list[str]:
        return [f.name for f in self.program.functions]


class InputProcessor:
    """Front end of the framework."""

    def __init__(self, arch: ArchDescription | None = None,
                 opt_level: int = 2) -> None:
        self.arch = arch or default_arch()
        self.opt_level = opt_level

    def process_source(self, source: str, filename: str = "<input>",
                       predefined: dict | None = None) -> ProcessedInput:
        tu = parse_source(source, filename=filename, predefined=predefined)
        return self.process_tu(tu)

    def process_file(self, path: str,
                     predefined: dict | None = None) -> ProcessedInput:
        tu = parse_file(path, predefined=predefined)
        return self.process_tu(tu)

    def process_tu(self, tu: TranslationUnit) -> ProcessedInput:
        obj = compile_tu(tu, opt_level=self.opt_level)
        # Round-trip through bytes: the binary AST is built strictly from
        # the object file, as in the paper.
        program = disassemble(obj.to_bytes())
        bridges = build_bridge(program)
        return ProcessedInput(tu=tu, obj=obj, program=program,
                              bridges=bridges, arch=self.arch,
                              opt_level=self.opt_level)
