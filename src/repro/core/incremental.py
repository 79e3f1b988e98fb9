"""Per-function incremental analysis over a :class:`ModelStore`.

The :class:`~repro.core.pipeline.Pipeline` is file-granular: any edit
re-runs every post-parse stage on every function.  The
:class:`IncrementalAnalyzer` is that same Pipeline narrowed to the stale
functions:

1. run the Pipeline's ``parse`` stage (splicing, below) and split the TU
   into function units (:func:`repro.core.units.build_units`) — each
   unit's fingerprint folds in its source slice, the TU context, its
   callees' fingerprints, and the config identity,
2. look every unit up in the store's function tier (memory, then, with
   ``use_cache``, the disk cache's per-function entries); hits restore
   :class:`~repro.core.metric_generator.FunctionModel` payloads without
   touching the compiler,
3. run the remaining stages (compile → disassemble → bridge → model) on
   the same :class:`~repro.core.pipeline.PipelineState` with ``only`` set
   to the misses and ``presolved`` to the hits: the compiler keeps full
   symbol tables and lowers per function, so instruction streams are
   byte-identical to a full compile, and the model stage reads the
   restored models as-is.  The Pipeline builds the one
   :class:`~repro.core.result.AnalysisResult` from the mix.

**The front end splices.**  The analyzer keeps each file's previous front
end: its preprocessed text, its TU, and for each top-level function
definition its character span in that text and the class names in scope at
its start.  Every call still preprocesses the whole file, so a macro or
``#`` edit shows up in the text it compares.  When the text differs from
the previous one only strictly inside one function definition and keeps
its newline count, only that definition is re-lexed and re-parsed; it is
spliced into a copy of the previous TU, and ``build_units`` slices only
it, reusing every other unit's slice hash and callee list by node
identity.  Everything else takes the full parse: the first analyze of a
file, changed predefines, a change of the preprocessed text outside
function definitions (a class, a global, text between definitions) or
across two of them, a changed line count, a column shift that would move a
token after the definition on its last line, a re-parse that does not
consume the span or changes the function's qualified name, arity or
prototype status, and any error — so the full parse stays the only source
of ``ParseError``.  The ``parse`` stage's end event names the re-parsed
function.  Compiling folds constants in the kept TU in place, so a spliced
TU equals a full parse *after* ``fold_constants``; the reused units were
sliced before any folding, so every fingerprint equals a full parse's.
Class member functions are not spliced (an edit inside a class takes the
full parse).

Because callee fingerprints are folded into caller fingerprints, editing
a function automatically invalidates its transitive callers and nothing
else; comment/whitespace edits that keep the line structure intact
invalidate nothing.  Results are **bit-identical** to a cold full analysis
(everything except ``stage_timings``, which honestly report what this run
did — including synthetic ``cache-hit`` entries/events for warm restores).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..errors import AnnotationError, LexError, ModelError, ParseError
from ..frontend import ast_nodes as A
from ..frontend.lexer import tokenize
from ..frontend.parser import Parser
from ..frontend.preprocessor import preprocess
from .config import AnalysisConfig
from .pipeline import (STAGES, Pipeline, StageEvent, function_names,
                       inject_symbolic_params, too_deep)
from .result import AnalysisResult
from .store import ModelCache, ModelStore
from .units import build_units

__all__ = ["IncrementalAnalyzer"]


@dataclass
class _Front:
    """One file's front end, as its last parse left it."""

    predefined: dict
    text: str                  # the preprocessed source
    tu: A.TranslationUnit
    spans: list                # per tu.functions entry: (start, end, classes)
    reparsed: str | None = None   # the function spliced in, if any
    reuse: dict | None = None  # units of the TU this one was spliced from
    units: dict | None = None  # this TU's units, once built


def _offset_spans(text: str, function_spans) -> list:
    """The parser's token spans as character offsets into ``text``."""
    starts, pos = [], 0
    for line in text.split("\n"):
        starts.append(pos)
        pos += len(line) + 1
    return [(starts[a.line - 1] + a.col - 1,
             starts[b.line - 1] + b.col - 1 + len(b.text), classes)
            for a, b, classes in function_spans]


def _common_prefix(a: str, b: str, n: int) -> int:
    """Length of the common prefix of ``a`` and ``b``, at most ``n``."""
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _common_suffix(a: str, b: str, n: int) -> int:
    """Length of the common suffix of ``a`` and ``b``, at most ``n``."""
    la, lb = len(a), len(b)
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[la - mid:la - lo] == b[lb - mid:lb - lo]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _splice(prev: _Front, text: str) -> _Front | None:
    """``prev`` with the one definition the edit lies in re-parsed from
    ``text``, or None when the edit needs the full parse."""
    old = prev.text
    n = min(len(old), len(text))
    head = _common_prefix(old, text, n)
    tail = _common_suffix(old, text, n - head)
    old_stop, new_stop = len(old) - tail, len(text) - tail
    if old.count("\n", head, old_stop) != text.count("\n", head, new_stop):
        return None
    for i, (start, end, classes) in enumerate(prev.spans):
        if start < head and old_stop < end:
            break
    else:
        return None
    fn = prev.tu.functions[i]
    if fn.info.get("prototype_only"):
        return None
    if old.find("\n", old_stop, end) < 0:
        # The edited line ends the definition: a token after it on that
        # line would shift columns outside the span.
        eol = old.find("\n", end)
        if old[end:eol if eol >= 0 else len(old)].strip():
            return None
    delta = len(text) - len(old)
    try:
        parser = Parser(tokenize(text, start, end + delta), prev.tu.filename)
        parser.class_names = set(classes)
        new = parser.parse_top_level_decl()
    except (LexError, ParseError, AnnotationError, RecursionError):
        return None     # the full parse reports it
    if parser.cur.kind != "eof" or not isinstance(new, A.FunctionDef) \
            or new.info.get("prototype_only") \
            or new.qualified_name != fn.qualified_name \
            or len(new.params) != len(fn.params):
        return None
    tu = A.TranslationUnit(prev.tu.filename)
    tu.classes, tu.globals = list(prev.tu.classes), list(prev.tu.globals)
    tu.functions = list(prev.tu.functions)
    tu.functions[i] = new
    spans = prev.spans[:i] + [(start, end + delta, classes)] + [
        (a + delta, b + delta, c) for a, b, c in prev.spans[i + 1:]]
    return _Front(prev.predefined, text, tu, spans,
                  reparsed=fn.qualified_name, reuse=prev.units)


class _SplicingPipeline(Pipeline):
    """The Pipeline whose parse stage splices one re-parsed definition
    into the file's previous TU when the edit allows it."""

    def __init__(self, config: AnalysisConfig, observers=()) -> None:
        super().__init__(config, observers)
        self.fronts: dict[str, _Front] = {}

    def _stage_parse(self, state) -> str | None:
        text = preprocess(state.source, predefined=state.predefined)
        # Only a front whose units were built is spliced into.  A parse
        # error keeps the last good front, so the fix can be spliced.
        prev = self.fronts.get(state.filename)
        front = None
        if prev is not None and prev.units is not None \
                and prev.predefined == state.predefined:
            front = _splice(prev, text)
        if front is None:
            parser = Parser(tokenize(text), state.filename)
            tu = parser.parse_translation_unit()
            inject_symbolic_params(tu, self.config.symbolic_params)
            front = _Front(state.predefined, text, tu,
                           _offset_spans(text, parser.function_spans))
        self.fronts[state.filename] = front
        state.tu = front.tu
        return front.reparsed


class IncrementalAnalyzer:
    """Function-granular analyzer over one :class:`AnalysisConfig`.

    Unchanged functions' (immutable) models are kept in memory, since a
    watch loop re-analyzes on every save.  ``config.use_cache`` (the
    default) decides only the disk tier: with it, results are also shared
    through the same on-disk :class:`ModelCache` directory the batch
    engine uses.  Observers receive the same :class:`StageEvent` stream as
    the Pipeline, plus synthetic ``cache-hit`` events for restored
    functions.
    """

    def __init__(self, config: AnalysisConfig | None = None,
                 observers=()) -> None:
        self.config = config or AnalysisConfig()
        self.pipeline = _SplicingPipeline(self.config, observers)
        self.cache = (ModelCache(self.config.cache_dir)
                      if self.config.use_cache else None)
        self.store = ModelStore(self.cache)
        self._model_memo = self.store.function_models

    def add_observer(self, observer) -> "IncrementalAnalyzer":
        self.pipeline.add_observer(observer)
        return self

    # -- entry points ------------------------------------------------------------
    def analyze_file(self, path: str,
                     predefined: dict | None = None) -> AnalysisResult:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        return self.analyze(source, filename=path, predefined=predefined)

    def analyze(self, source: str, filename: str = "<input>",
                predefined: dict | None = None) -> AnalysisResult:
        pipeline = self.pipeline
        state = pipeline.run_stages(
            pipeline.new_state(source, filename=filename,
                               predefined=predefined), ("parse",))
        front = pipeline.fronts[filename]
        try:
            units = build_units(state.tu, self.config, state.predefined,
                                reuse=front.reuse)
        except RecursionError:
            raise too_deep("units") from None
        except ModelError:
            # Recursive call graph: fingerprints are not well-founded, and
            # neither is the model.  Run the remaining stages cold on the
            # same state so the caller sees the Pipeline's error surface.
            return pipeline.run_stages(state, STAGES[1:]).result
        front.units, front.reuse = units, None

        # -- per-function store lookups ------------------------------------------
        hits: dict = {}
        restored_elapsed = 0.0
        for qname, unit in units.items():
            t0 = time.perf_counter()
            model = self.store.lookup_function(unit.fingerprint, qname)
            dt = time.perf_counter() - t0
            if model is None:
                continue
            hits[qname] = model
            restored_elapsed += dt
            pipeline.notify(StageEvent("model", "cache-hit",
                                       STAGES.index("model"), elapsed=dt,
                                       function=qname))
        if hits:
            state.timings["cache-hit"] = restored_elapsed

        stale = [q for q in units if q not in hits]
        state.only, state.presolved = frozenset(stale), hits
        if hits and not stale:
            # Everything was restored, so no stage runs.  Cold model order
            # is TU declaration order; match it so the result serializes
            # byte-identically to a cold one.
            state.models = {q: hits[q] for q in function_names(state.tu)}
            pipeline.run_stages(state, ())
        else:
            # (A TU without functions restores nothing and runs every
            # stage, like a cold Pipeline.)
            pipeline.run_stages(state, STAGES[1:])
            for qname in stale:
                self.store.put_function(units[qname].fingerprint,
                                        state.models[qname])
        if self.cache is not None:
            self.cache.persist_stats()
        return state.result
