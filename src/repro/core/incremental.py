"""Per-function incremental analysis over a :class:`ModelStore`.

The :class:`~repro.core.pipeline.Pipeline` is file-granular: any edit
re-runs every post-parse stage on every function.  The
:class:`IncrementalAnalyzer` is that same Pipeline narrowed to the stale
functions:

1. run the Pipeline's ``parse`` stage and split the TU into function
   units (:func:`repro.core.units.build_units`) — each unit's fingerprint
   folds in its source slice, the TU context, its callees' fingerprints,
   and the config identity,
2. look every unit up in the store's function tier (memory, then the
   disk cache's per-function entries); hits restore
   :class:`~repro.core.metric_generator.FunctionModel` payloads without
   touching the compiler,
3. run the remaining stages (compile → disassemble → bridge → model) on
   the same :class:`~repro.core.pipeline.PipelineState` with ``only`` set
   to the misses and ``presolved`` to the hits: the compiler keeps full
   symbol tables and lowers per function, so instruction streams are
   byte-identical to a full compile, and the model stage reads the
   restored models as-is.  The Pipeline builds the one
   :class:`~repro.core.result.AnalysisResult` from the mix.

Parsing still runs on the whole file for every call, and it is a
measurable share of a watch-loop edit, not a free step.  Because callee
fingerprints are folded into caller fingerprints, editing a function
automatically invalidates its transitive callers and nothing else;
comment/whitespace edits that keep the line structure intact
invalidate nothing.  Results are **bit-identical** to a cold full analysis
(everything except ``stage_timings``, which honestly report what this run
did — including synthetic ``cache-hit`` entries/events for warm restores).
"""

from __future__ import annotations

import time

from ..errors import ModelError
from .config import AnalysisConfig
from .pipeline import (STAGES, Pipeline, StageEvent, function_names,
                       too_deep)
from .result import AnalysisResult
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
        self.pipeline = Pipeline(self.config, observers)
        if cache is None and self.config.use_cache:
            cache = ModelCache(self.config.cache_dir)
        self.cache = cache
        # A watch loop re-analyzes on every save; the function tier keeps
        # unchanged functions' (immutable) models in memory.
        self.store = ModelStore(cache)
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
        try:
            units = build_units(state.tu, self.config, state.predefined)
        except RecursionError:
            raise too_deep("units") from None
        except ModelError:
            # Recursive call graph: fingerprints are not well-founded, and
            # neither is the model.  Run the remaining stages cold on the
            # same state so the caller sees the Pipeline's error surface.
            return pipeline.run_stages(state, STAGES[1:]).result

        # -- per-function store lookups ------------------------------------------
        hits: dict = {}
        restored_elapsed = 0.0
        if self.cache is not None:
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
            if self.cache is not None:
                for qname in stale:
                    self.store.put_function(units[qname].fingerprint,
                                            state.models[qname])
        if self.cache is not None:
            self.cache.persist_stats()
        return state.result
