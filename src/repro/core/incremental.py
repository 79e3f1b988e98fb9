"""Per-function incremental analysis over a :class:`ModelStore`.

The :class:`~repro.core.pipeline.Pipeline` is file-granular: any edit
re-runs every post-parse stage on every function.  The
:class:`IncrementalAnalyzer` keeps the same parse (parsing is inherently
file-granular and cheap) but runs compile → disassemble → bridge → model
on the *stale subset* only:

1. parse the file and split it into function units
   (:func:`repro.core.units.build_units`) — each unit's fingerprint folds
   in its source slice, the TU context, its callees' fingerprints, and the
   config identity,
2. look every unit up in the store's function tier (memory, then the
   disk cache's per-function entries); hits restore
   :class:`~repro.core.metric_generator.FunctionModel` payloads without
   touching the compiler,
3. subset-compile the misses (``compile_tu(..., only=...)`` — full symbol
   tables, per-function lowering, so instruction streams are byte-identical
   to a full compile), disassemble/bridge the subset, and model it with
   the restored models presolved (``MetricGenerator.generate(only=...,
   presolved=...)``),
4. assemble one :class:`~repro.core.result.AnalysisResult` from the mix.

Because callee fingerprints are folded into caller fingerprints, editing a
function automatically invalidates its transitive callers and nothing
else; comment/whitespace edits that keep the line structure intact
invalidate nothing.  Results are **bit-identical** to a cold full analysis
(everything except ``stage_timings``, which honestly report what this run
did — including synthetic ``cache-hit`` entries/events for warm restores).
"""

from __future__ import annotations

import time

from ..binary import disassemble
from ..bridge import build_bridge
from ..compiler import compile_tu
from ..errors import ModelError
from ..frontend import parse_source
from .config import AnalysisConfig
from .input_processor import ProcessedInput
from .metric_generator import MetricGenerator
from .pipeline import (STAGE_RUN_COUNTS, STAGES, Pipeline, StageEvent,
                       count_function_stage, inject_symbolic_params)
from .result import AnalysisResult, assemble_result
from .store import ModelCache, ModelStore
from .units import build_units

__all__ = ["IncrementalAnalyzer"]


class IncrementalAnalyzer:
    """Function-granular analyzer over one :class:`AnalysisConfig`.

    With ``config.use_cache`` (the default) results are shared through the
    same on-disk :class:`ModelCache` directory the batch engine uses;
    ``use_cache=False`` degrades to a cold subset-of-everything run per
    call.  Observers receive the same :class:`StageEvent` stream as the
    Pipeline, plus synthetic ``cache-hit`` events for restored functions.
    """

    def __init__(self, config: AnalysisConfig | None = None,
                 observers=(), cache: ModelCache | None = None) -> None:
        self.config = config or AnalysisConfig()
        self._observers = list(observers)
        if cache is None and self.config.use_cache:
            cache = ModelCache(self.config.cache_dir)
        self.cache = cache
        # A watch loop re-analyzes on every save; the function tier keeps
        # unchanged functions' (immutable) models in memory.
        self.store = ModelStore(cache)
        self._model_memo = self.store.function_models

    def add_observer(self, observer) -> "IncrementalAnalyzer":
        self._observers.append(observer)
        return self

    # -- entry points ------------------------------------------------------------
    def analyze_file(self, path: str,
                     predefined: dict | None = None) -> AnalysisResult:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        return self.analyze(source, filename=path, predefined=predefined)

    def analyze(self, source: str, filename: str = "<input>",
                predefined: dict | None = None) -> AnalysisResult:
        timings: dict = {}
        merged = self.config.merged_predefines(predefined)

        tu = self._timed("parse", timings, lambda: self._parse(
            source, filename, merged))

        try:
            units = build_units(tu, self.config, merged)
        except ModelError:
            # Recursive call graph: fingerprints are not well-founded, and
            # neither is the model.  Fall back to the cold pipeline so the
            # caller sees the identical error surface.
            return Pipeline(self.config, self._observers).run(
                source, filename=filename, predefined=predefined)

        # -- per-function store lookups ------------------------------------------
        cached: dict = {}
        restored_elapsed = 0.0
        if self.cache is not None:
            for qname, unit in units.items():
                t0 = time.perf_counter()
                model = self.store.lookup_function(unit.fingerprint, qname)
                dt = time.perf_counter() - t0
                if model is None:
                    continue
                cached[qname] = model
                restored_elapsed += dt
                self._notify(StageEvent("model", "cache-hit",
                                        STAGES.index("model"), elapsed=dt,
                                        function=qname))
        if cached:
            timings["cache-hit"] = restored_elapsed

        stale = [q for q in units if q not in cached]
        processed = None
        if stale:
            only = frozenset(stale)
            obj = self._timed("compile", timings, lambda: compile_tu(
                tu, opt_level=self.config.opt_level, only=only))
            count_function_stage("compile", stale)
            program = self._timed("disassemble", timings,
                                  lambda: disassemble(obj.to_bytes()))
            count_function_stage("disassemble", stale)
            bridges = self._timed("bridge", timings,
                                  lambda: build_bridge(program))
            count_function_stage("bridge", stale)
            gen = MetricGenerator(tu, bridges, self.config.arch,
                                  self.config.gen_options())
            models = self._timed("model", timings, lambda: gen.generate(
                only=only, presolved=cached))
            count_function_stage("model", stale)
            if not cached:
                # Nothing was restored, so the subset was the whole TU:
                # the compiler state is complete and worth carrying (the
                # dynamic profiler needs it), exactly like a cold run.
                processed = ProcessedInput(
                    tu=tu, obj=obj, program=program, bridges=bridges,
                    arch=self.config.arch, opt_level=self.config.opt_level)
            if self.cache is not None:
                for qname in stale:
                    self.store.put_function(units[qname].fingerprint,
                                            models[qname])
        else:
            models = cached
        if self.cache is not None:
            self.cache.persist_stats()

        # Cold model order is TU declaration order; match it so a mixed
        # result serializes byte-identically to a cold one.
        decl_order = [f.qualified_name for f in tu.all_functions()
                      if not f.info.get("prototype_only")]
        ordered = {q: models[q] for q in decl_order if q in models}
        return assemble_result(
            ordered, self.config, source=source, filename=filename,
            predefined=predefined, stage_timings=timings,
            processed=processed, restored=tuple(q for q in units
                                                if q in cached))

    # -- internals ---------------------------------------------------------------
    def _parse(self, source: str, filename: str, predefined: dict):
        tu = parse_source(source, filename=filename, predefined=predefined)
        inject_symbolic_params(tu, self.config.symbolic_params)
        return tu

    def _timed(self, stage: str, timings: dict, thunk):
        self._notify(StageEvent(stage, "start", STAGES.index(stage)))
        t0 = time.perf_counter()
        out = thunk()
        dt = time.perf_counter() - t0
        timings[stage] = dt
        STAGE_RUN_COUNTS[stage] += 1
        self._notify(StageEvent(stage, "end", STAGES.index(stage),
                                elapsed=dt))
        return out

    def _notify(self, event: StageEvent) -> None:
        for obs in self._observers:
            obs(event)
