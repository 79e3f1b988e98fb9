"""The staged analysis pipeline (paper Fig. 1, made inspectable).

The paper's workflow is a staged dataflow: preprocess+parse the source,
compile it, disassemble the object *bytes* back into a binary AST, bridge
source lines to binary cost centers, and generate the parametric models.
:class:`Pipeline` makes those stages first-class:

* **named stages** — ``parse → compile → disassemble → bridge → model``,
* **partial execution** — :meth:`Pipeline.run_until` stops after any stage
  and returns the :class:`PipelineState` holding every artifact built so
  far (the CLI's ``mira inspect --stage`` debugging entry point),
* **narrowed execution** — :meth:`Pipeline.run_stages` runs any slice of
  the stages on a state whose ``only``/``presolved`` fields restrict
  compile → model to a subset of functions (the incremental analyzer's
  stale set, with the restored models of the rest),
* **per-stage wall-time accounting** — ``state.timings`` and
  ``AnalysisResult.stage_timings``,
* **observer hooks** — callables receiving a :class:`StageEvent` at each
  stage boundary (progress bars, tracing, profiling).

A full :meth:`Pipeline.run` returns an
:class:`~repro.core.result.AnalysisResult`.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from ..binary import disassemble
from ..bridge import build_bridge
from ..compiler import compile_tu
from ..errors import PipelineError
from ..frontend import ast_nodes as A
from ..frontend import parse_source
from ..frontend.types import Type
from .config import AnalysisConfig
from .input_processor import ProcessedInput
from .metric_generator import MetricGenerator
from .result import AnalysisResult

__all__ = ["Pipeline", "PipelineState", "StageEvent", "STAGES",
           "STAGE_RUN_COUNTS", "FUNC_STAGE_RUN_COUNTS",
           "reset_stage_counters", "inject_symbolic_params",
           "function_names", "too_deep"]

#: Stage names, in execution order.
STAGES = ("parse", "compile", "disassemble", "bridge", "model")

#: Process-wide count of executed stages across every Pipeline instance.
#: Observability hook: the sweep benchmarks assert a parametric sweep runs
#: the "compile" stage at most once per workload.
STAGE_RUN_COUNTS: Counter = Counter()

#: Process-wide per-function stage executions, keyed ``"stage:qname"`` —
#: the incremental engine's observability hook: tests assert that editing
#: one function re-runs compile/model for exactly that function and its
#: transitive callers.  Only function-granular stages count here (parse is
#: file-granular).
FUNC_STAGE_RUN_COUNTS: Counter = Counter()


def reset_stage_counters() -> None:
    """Zero the process-wide stage counters (test/benchmark hygiene)."""
    STAGE_RUN_COUNTS.clear()
    FUNC_STAGE_RUN_COUNTS.clear()


def inject_symbolic_params(tu, names) -> None:
    """Declare each ``config.symbolic_params`` name as a global int.

    This is the late-binding half of the sweep engine: a size macro
    predefined to *itself* survives preprocessing as a plain identifier
    (see the preprocessor's blue-paint rule), and this synthetic global
    gives the compiler a symbol to load, so the polyhedral layer sees a
    free model parameter instead of a baked-in constant.  Only existing
    *global* declarations and function names suppress the injection; a
    same-named function parameter or local (e.g. dgemm's ``n``) simply
    shadows the synthetic global, which then sits unused.  Module-level so
    the incremental analyzer parses identically to the Pipeline.
    """
    declared = {d.name for g in tu.globals for d in g.decls}
    declared |= {f.name for f in tu.all_functions()}
    for name in names or ():
        if name in declared:
            continue
        tu.globals.append(A.DeclStmt(
            [A.VarDecl(name, Type("int"), [], None)]))


def function_names(tu) -> list[str]:
    """Qualified names of the TU's defined functions, in declaration order
    (the order of a cold result's models)."""
    return [f.qualified_name for f in tu.all_functions()
            if not f.info.get("prototype_only")]


def too_deep(stage: str) -> PipelineError:
    """The typed error for a stack-exhausting input in ``stage``."""
    return PipelineError(f"{stage}: input nests too deeply to analyze")


@dataclass(frozen=True)
class StageEvent:
    """One observer notification: a stage is starting or has finished.

    ``phase`` is ``"start"``/``"end"`` for executed stages; warm cache
    restores emit synthetic ``"cache-hit"`` events (with ``function`` set
    on per-function hits) so timing consumers see the restore instead of
    misreading a hit as a zero-cost run.  The incremental analyzer's
    ``"parse"`` end event names the one function it re-parsed, when it
    spliced that function into the file's previous TU."""

    stage: str
    phase: str            # "start" | "end" | "cache-hit"
    index: int            # position of the stage in STAGES
    elapsed: float = 0.0  # wall seconds (end / cache-hit events)
    function: str | None = None   # per-function events (incremental engine)


@dataclass
class PipelineState:
    """Everything a (possibly partial) pipeline run has produced."""

    config: AnalysisConfig
    source: str
    filename: str = "<input>"
    predefined: dict = field(default_factory=dict)
    tu: object = None          # after "parse":       frontend TranslationUnit
    obj: object = None         # after "compile":     ObjectFile
    program: object = None     # after "disassemble": binary AsmProgram
    bridges: dict | None = None   # after "bridge":   qname -> FunctionBridge
    models: dict | None = None    # after "model":    qname -> FunctionModel
    result: AnalysisResult | None = None
    timings: dict = field(default_factory=dict)   # stage -> seconds
    only: frozenset | None = None  # functions to build; None means all
    presolved: dict | None = None  # qname -> restored FunctionModel
    fingerprint: str | None = None  # the result's; computed when None

    @property
    def stage(self) -> str | None:
        """The last completed stage (None before "parse" finishes)."""
        done = [s for s in STAGES if s in self.timings]
        return done[-1] if done else None

    def processed(self) -> ProcessedInput:
        """The classic ProcessedInput view (requires stages through
        "bridge")."""
        if self.bridges is None:
            raise PipelineError(
                'ProcessedInput requires the pipeline to have run through '
                f'"bridge"; last completed stage: {self.stage!r}')
        return ProcessedInput(tu=self.tu, obj=self.obj, program=self.program,
                              bridges=self.bridges, arch=self.config.arch,
                              opt_level=self.config.opt_level)


class Pipeline:
    """Staged executor over one :class:`AnalysisConfig`."""

    STAGES = STAGES

    def __init__(self, config: AnalysisConfig | None = None,
                 observers=()) -> None:
        self.config = config or AnalysisConfig()
        self._observers = list(observers)

    def add_observer(self, observer) -> "Pipeline":
        """Register a callable invoked with a :class:`StageEvent` at every
        stage start/end.  Returns self for chaining."""
        self._observers.append(observer)
        return self

    # -- entry points ------------------------------------------------------------
    def run(self, source: str, filename: str = "<input>",
            predefined: dict | None = None) -> AnalysisResult:
        """The full pipeline: source text in, AnalysisResult out."""
        state = self.run_until("model", source, filename=filename,
                               predefined=predefined)
        return state.result

    def run_file(self, path: str,
                 predefined: dict | None = None) -> AnalysisResult:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        return self.run(source, filename=path, predefined=predefined)

    def run_until(self, stage: str, source: str, filename: str = "<input>",
                  predefined: dict | None = None) -> PipelineState:
        """Execute stages up to and including ``stage``; return the state.

        ``run_until("model")`` is equivalent to :meth:`run` except that it
        returns the full state (whose ``.result`` is the AnalysisResult).
        """
        if stage not in STAGES:
            raise PipelineError(f"unknown pipeline stage {stage!r}; "
                                f"stages are: {', '.join(STAGES)}")
        state = self.new_state(source, filename=filename,
                               predefined=predefined)
        return self.run_stages(state, STAGES[:STAGES.index(stage) + 1])

    def new_state(self, source: str, filename: str = "<input>",
                  predefined: dict | None = None) -> PipelineState:
        """A fresh state for ``source``, before any stage has run."""
        return PipelineState(
            config=self.config, source=source, filename=filename,
            predefined=self.config.merged_predefines(predefined))

    def run_stages(self, state: PipelineState, names) -> PipelineState:
        """Run the stages ``names`` (in order) on ``state`` and return it.

        Each stage is timed, counted and reported to the observers; a
        ``RecursionError`` inside one becomes a :class:`PipelineError`.
        Once ``state.models`` is set, ``state.result`` is (re)built from
        the state — with ``processed`` only when nothing was restored.
        """
        for name in names:
            i = STAGES.index(name)
            self.notify(StageEvent(name, "start", i))
            t0 = time.perf_counter()
            try:
                # A stage narrowed to one function returns its name.
                function = getattr(self, f"_stage_{name}")(state)
            except RecursionError:
                raise too_deep(name) from None
            dt = time.perf_counter() - t0
            state.timings[name] = dt
            STAGE_RUN_COUNTS[name] += 1
            if name != "parse":
                built = state.only if state.only is not None \
                    else function_names(state.tu)
                for q in built:
                    FUNC_STAGE_RUN_COUNTS[f"{name}:{q}"] += 1
            self.notify(StageEvent(name, "end", i, elapsed=dt,
                                   function=function))
        if state.models is not None:
            if state.fingerprint is None:
                state.fingerprint = self.config.fingerprint(
                    state.source, filename=state.filename,
                    predefined=state.predefined)
            state.result = AnalysisResult(
                models=state.models,
                arch=self.config.arch,
                processed=None if state.presolved else state.processed(),
                source_name=state.filename,
                opt_level=self.config.opt_level,
                fingerprint=state.fingerprint,
                stage_timings=dict(state.timings),
                restored_functions=tuple(state.presolved or ()))
        return state

    def run_file_until(self, stage: str, path: str,
                       predefined: dict | None = None) -> PipelineState:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        return self.run_until(stage, source, filename=path,
                              predefined=predefined)

    # -- stages ------------------------------------------------------------------
    def _stage_parse(self, state: PipelineState) -> None:
        state.tu = parse_source(state.source, filename=state.filename,
                                predefined=state.predefined)
        inject_symbolic_params(state.tu, self.config.symbolic_params)

    def _stage_compile(self, state: PipelineState) -> None:
        state.obj = compile_tu(state.tu, opt_level=self.config.opt_level,
                               only=state.only)

    def _stage_disassemble(self, state: PipelineState) -> None:
        # Round-trip through bytes: the binary AST is built strictly from
        # the object file, as in the paper.
        state.program = disassemble(state.obj.to_bytes())

    def _stage_bridge(self, state: PipelineState) -> None:
        state.bridges = build_bridge(state.program)

    def _stage_model(self, state: PipelineState) -> None:
        gen = MetricGenerator(state.tu, state.bridges, self.config.arch,
                              self.config.gen_options())
        state.models = gen.generate(only=state.only,
                                    presolved=state.presolved)

    # -- observers ---------------------------------------------------------------
    def notify(self, event: StageEvent) -> None:
        """Deliver ``event`` to every observer."""
        for obs in self._observers:
            obs(event)
