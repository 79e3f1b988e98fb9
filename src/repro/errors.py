"""Exception hierarchy for the Mira reproduction.

Every subsystem raises a subclass of :class:`MiraError` so callers can catch
framework errors without masking programming bugs.
"""

from __future__ import annotations


class MiraError(Exception):
    """Base class for all errors raised by this package."""


class LexError(MiraError):
    """Raised by the frontend lexer on malformed input."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ParseError(MiraError):
    """Raised by the frontend parser on syntactically invalid input."""

    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.line = line
        self.col = col


class SymbolicError(MiraError):
    """Raised by the symbolic engine (non-polynomial summation, bad domain)."""


class PolyhedralError(MiraError):
    """Raised when a loop nest cannot be represented polyhedrally.

    The paper handles these cases with annotations or the complement trick;
    we additionally offer a numeric fallback (see DESIGN.md §6).
    """


class CompileError(MiraError):
    """Raised by the compiler backend during lowering/encoding."""


class DisasmError(MiraError):
    """Raised by the binary decoder on malformed object bytes."""


class AnnotationError(MiraError):
    """Raised for malformed ``#pragma @Annotation`` directives."""


class ModelError(MiraError):
    """Raised during model generation or model evaluation."""


class VectorizeError(MiraError):
    """Raised when an expression or model cannot be compiled into an
    array-vectorized (numpy) evaluator — non-polynomial summation bodies,
    or reserved-name collisions.

    The sweep engine's ``engine="auto"`` path treats this as a signal to
    fall back to the scalar engine; it only escapes to the user
    when ``engine="vector"`` was explicitly requested."""


class PipelineError(MiraError):
    """Raised by the staged analysis pipeline: an unknown stage, an
    artifact requested from a stage that has not run, or an input that
    nests too deeply for a stage to analyze (a ``RecursionError`` inside
    any stage, or inside the incremental analyzer's unit split, becomes
    ``PipelineError("<stage>: input nests too deeply to analyze")``)."""


class SchemaError(MiraError):
    """Raised when a serialized payload cannot be loaded: unknown schema
    version, wrong document kind, or malformed structure.

    Versioned payloads (:class:`~repro.core.config.AnalysisConfig`,
    :class:`~repro.core.result.AnalysisResult`) refuse to load documents
    from a different schema version instead of guessing."""


class InterpError(MiraError):
    """Raised by the dynamic-execution substrate (runtime faults)."""


class ServeError(MiraError):
    """Raised by the model-serving subsystem (:mod:`repro.serve`): server
    configuration problems, client connection failures, and HTTP error
    responses surfaced by :class:`~repro.serve.client.MiraClient`."""


def error_payload(exc: BaseException) -> dict:
    """The stable machine-readable failure document.

    ``{"error": {"type": <class name>, "message": <str>}}`` — shared by the
    CLI's ``--json`` failure output and the HTTP server's 4xx/5xx bodies,
    so every consumer parses one shape.  ``type`` is the concrete
    :class:`MiraError` subclass name (callers may substitute a transport
    name like ``"NotFound"`` for non-Mira failures).
    """
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


class BatchError(MiraError):
    """Raised by the batch corpus-analysis engine.

    Per-file analysis failures never abort a batch; they are captured as
    :class:`BatchError` values on the failing file's ``BatchResult``, keeping
    the original error class name and message (workers run in separate
    processes, so the original exception object cannot always cross back).
    """

    def __init__(self, message: str, error_type: str = "MiraError") -> None:
        super().__init__(message)
        self.error_type = error_type
