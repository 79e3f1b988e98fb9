"""Metric generation (paper §III-B, §III-C).

Combines the three ingredients into per-function parametric models:

1. **binary cost centers** — per-(line, col) instruction category vectors
   from the bridge,
2. **iteration domains** — polyhedral loop/branch modeling with annotation
   fallbacks,
3. **call structure** — ``handle_function_call`` composition with
   call-site-named parameters (the paper's ``y_16``).

The generator performs the paper's two traversals: a bottom-up pass that
collects each loop's SCoP pieces onto the loop head node (stored in
``node.info``), and a top-down pass that pushes iteration-domain context into
nested structures and emits one :class:`MetricTerm` per cost center.

Execution-count semantics per cost center (matching both the lowered binary
and the dynamic substrate):

==================  ===========================================
cost center          executions
==================  ===========================================
function frame       1 per call
loop init            |enclosing domain|
loop condition       |loop domain| + |enclosing domain|
loop increment       |loop domain|
body statement       |its enclosing domain| (× branch ratios)
branch condition     |enclosing domain|
==================  ===========================================

Every statement, call site and loop head of one loop body shares its
domain, so each :meth:`MetricGenerator.generate` call counts each distinct
domain once: a memo keyed on the context's structure (nest levels, branch
constraints, pending negation, ratio multiplier, collapsed outer count)
holds the count and the unproven extents the count appended to the
function's assumptions, which a repeat replays in order.  The memo belongs
to the one ``generate`` call, not to the generator or the process: ``mira
serve`` analyzes in concurrent threads, and every new analysis counts
every domain again.  A count that raises is not stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ..bridge import CategoryVector, FunctionBridge, vector_for_center
from ..compiler.arch import ArchDescription
from ..errors import ModelError, PolyhedralError
from ..frontend import ast_nodes as A
from ..frontend.pragma import Annotation
from ..polyhedral import (
    LoopNest, NestLevel, ScopError, condition_to_constraints, extract_level,
)
from ..polyhedral.counting import count_nest
from ..symbolic import Expr, Int, Sym, as_expr

__all__ = ["MetricTerm", "CallTerm", "FunctionModel", "MetricGenerator",
           "GeneratorOptions", "resolve_callee", "direct_callees",
           "call_graph", "topo_order"]


# ---------------------------------------------------------------------------
# call resolution (module-level: shared with the pre-modeling call graph the
# incremental engine builds in repro.core.units)
# ---------------------------------------------------------------------------

def var_class(tu: A.TranslationUnit, name: str,
              fn: A.FunctionDef) -> str | None:
    """The class of a named variable visible in ``fn`` (local, parameter,
    or global), or None when it is not of class type."""
    if not tu.classes:
        return None
    class_names = {c.name for c in tu.classes}
    for node in A.walk(fn.body):
        if isinstance(node, A.DeclStmt):
            for d in node.decls:
                if d.name == name and d.type.name in class_names:
                    return d.type.name
    for p in fn.params:
        if p.name == name and p.type.name in class_names:
            return p.type.name
    for g in tu.globals:
        for d in g.decls:
            if d.name == name and d.type.name in class_names:
                return d.type.name
    return None


def resolve_callee(tu: A.TranslationUnit, call: A.Call,
                   fn: A.FunctionDef) -> A.FunctionDef | None:
    """The user-function a call site targets, or None for builtins/library
    calls (invisible to static analysis)."""
    if isinstance(call.callee, A.Member):
        if not isinstance(call.callee.obj, A.Ident):
            return None
        cls = var_class(tu, call.callee.obj.name, fn)
        if cls is None:
            return None
        return tu.find_function(call.callee.name, cls)
    if isinstance(call.callee, A.Ident):
        name = call.callee.name
        target = tu.find_function(name, None)
        if target is not None and not target.info.get("prototype_only"):
            return target
        # functor? look for a local/global variable of class type
        cls = var_class(tu, name, fn)
        if cls is not None:
            return tu.find_function("operator()", cls)
        return None
    return None


def direct_callees(tu: A.TranslationUnit, fn: A.FunctionDef) -> list[str]:
    """Qualified names of the user functions ``fn`` calls directly
    (deduplicated, first-call order, self-calls included)."""
    out: list[str] = []
    seen: set = set()
    for node in A.walk(fn.body):
        if not isinstance(node, A.Call):
            continue
        callee = resolve_callee(tu, node, fn)
        if callee is not None and callee.qualified_name not in seen:
            seen.add(callee.qualified_name)
            out.append(callee.qualified_name)
    return out


@dataclass
class GeneratorOptions:
    """Knobs for statically-undecidable cases."""

    default_branch_ratio: float = 0.5
    opt_level: int = 2


@dataclass
class MetricTerm:
    """``vector × count`` for one cost center."""

    line: int
    col: int
    vector: CategoryVector
    count: Expr
    desc: str = ""

    def free_params(self) -> frozenset:
        return self.count.free_symbols()


@dataclass
class CallTerm:
    """A user-function call site: callee metrics × count, with the caller's
    bindings for the callee's model parameters."""

    callee: str               # qualified name
    count: Expr
    line: int
    arg_exprs: dict = field(default_factory=dict)  # callee param -> Expr|None

    def binding(self, p: str) -> Expr:
        """The caller-side expression this call binds to callee parameter
        ``p``: the argument expression, else the call-site parameter
        ``<p>_<line>`` (the paper's ``y_16``).  The one call-binding rule:
        the closure pass, the evaluators and ``mira diff`` all bind
        through it."""
        bound = self.arg_exprs.get(p)
        return bound if bound is not None else Sym(f"{p}_{self.line}")

    def free_params(self) -> frozenset:
        out = set(self.count.free_symbols())
        for e in self.arg_exprs.values():
            if e is not None:
                out |= e.free_symbols()
        return frozenset(out)


@dataclass
class FunctionModel:
    """The parametric model of one function.

    Live models carry the source AST node in ``fn``; models restored from a
    serialized :class:`~repro.core.result.AnalysisResult` have ``fn=None``
    and carry their identity in ``restored_names`` instead (the AST is not
    part of the wire format).
    """

    fn: A.FunctionDef | None
    terms: list = field(default_factory=list)
    calls: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    params: list = field(default_factory=list)   # resolved later (ordered)
    # Validity domain: expressions that must be >= 0 for the counts to be
    # exact (unproven well-formed-loop extents, own and inherited from
    # callees).  Statically-false assumptions become warnings instead.
    assumptions: list = field(default_factory=list)
    restored_names: tuple | None = None          # (qualified_name, model_name)

    @classmethod
    def restored(cls, qualified_name: str, model_name: str, *,
                 terms=(), calls=(), warnings=(), params=(),
                 assumptions=()) -> "FunctionModel":
        """Rebuild a model from serialized parts, without an AST."""
        return cls(fn=None, terms=list(terms), calls=list(calls),
                   warnings=list(warnings), params=list(params),
                   assumptions=list(assumptions),
                   restored_names=(qualified_name, model_name))

    @property
    def qualified_name(self) -> str:
        if self.restored_names is not None:
            return self.restored_names[0]
        return self.fn.qualified_name

    @property
    def model_name(self) -> str:
        """Paper naming: class + function + original arg count (``A_foo_2``)."""
        if self.restored_names is not None:
            return self.restored_names[1]
        name = self.fn.name.replace("operator()", "operatorcall")
        parts = []
        if self.fn.class_name:
            parts.append(self.fn.class_name)
        parts.append(name)
        parts.append(str(len(self.fn.params)))
        return "_".join(parts)

    def own_free_params(self) -> frozenset:
        out: set = set()
        for t in self.terms:
            out |= t.free_params()
        for c in self.calls:
            out |= c.count.free_symbols()
        return frozenset(out)


@dataclass
class _Ctx:
    """Top-down traversal context: the enclosing iteration domain.

    ``extra`` is a symbolic multiplier produced when an outer region was
    *collapsed* to a count (e.g. a loop nested inside a complement-counted
    else-branch): the inner domain restarts fresh and the outer count
    multiplies it.  ``counts`` is the memo of the ``generate`` call the
    context belongs to; every context of that call shares it.
    """

    nest: LoopNest
    counts: dict
    multiplier: Fraction = Fraction(1)
    pending_neg: tuple = ()   # constraints of a convex condition to negate
    extra: Expr = Int(1)

    def child(self, **kw) -> "_Ctx":
        return _Ctx(
            nest=kw.get("nest", self.nest),
            counts=self.counts,
            multiplier=kw.get("multiplier", self.multiplier),
            pending_neg=kw.get("pending_neg", self.pending_neg),
            extra=kw.get("extra", self.extra),
        )

    def count(self, assumptions: list | None = None) -> Expr:
        """Execution count of this context (times any body here runs).

        Each domain is counted once per memo: a repeat returns the stored
        count and replays the extents the first count appended, with the
        same append-if-absent rule, so ``assumptions`` comes out as if it
        had been counted again.  Errors are not stored."""
        key = (tuple(self.nest.levels), tuple(self.nest.constraints),
               self.pending_neg, self.multiplier, self.extra)
        hit = self.counts.get(key)
        if hit is None:
            extents: list = []
            base = count_nest(self.nest, Int(1), extents)
            if self.pending_neg:
                narrowed = self.nest
                for c in self.pending_neg:
                    narrowed = narrowed.with_constraint(c)
                base = base - count_nest(narrowed, Int(1), extents)
            if self.multiplier != 1:
                base = Int(self.multiplier) * base
            if self.extra != Int(1):
                base = self.extra * base
            hit = self.counts[key] = (base, extents)
        base, extents = hit
        if assumptions is not None:
            for e in extents:
                if e not in assumptions:
                    assumptions.append(e)
        return base


def _negate_constraints(cs: list):
    """Negate a conjunction of constraints if the result stays convex
    (single comparison, or single modular row).  Returns list or None."""
    from ..polyhedral.affine import AffineExpr, Constraint

    if len(cs) != 1:
        return None
    (c,) = cs
    if c.kind == "ge":
        # not(e >= 0)  ≡  e <= -1  ≡  -e - 1 >= 0
        return [Constraint("ge", c.expr.scale(-1) - AffineExpr.constant(1))]
    if c.kind == "mod_ne":
        return [Constraint("mod_eq", c.expr, c.mod, c.rem)]
    if c.kind == "mod_eq":
        return [Constraint("mod_ne", c.expr, c.mod, c.rem)]
    return None  # 'eq' negation is non-convex


class MetricGenerator:
    """Builds FunctionModels for every function in a translation unit."""

    def __init__(self, tu: A.TranslationUnit, bridges: dict,
                 arch: ArchDescription,
                 options: GeneratorOptions | None = None) -> None:
        self.tu = tu
        self.bridges = bridges
        self.arch = arch
        self.opts = options or GeneratorOptions()

    # ------------------------------------------------------------------ api
    def generate(self, only: set | frozenset | None = None,
                 presolved: dict | None = None) -> dict[str, FunctionModel]:
        """Build models for every function in the TU.

        ``only`` restricts fresh generation to the named functions;
        everything else must be supplied through ``presolved`` (restored
        :class:`FunctionModel` instances whose params/assumptions are
        already final — the incremental engine's cache hits).  Parameter
        and assumption closure then run only over the fresh subset, with
        presolved callee models read as-is, so a mixed run is bit-identical
        to a full cold run."""
        models: dict[str, FunctionModel] = {}
        fresh: set = set()
        counts: dict = {}     # this call's domain-count memo (see _Ctx.count)
        for fn in self.tu.all_functions():
            if fn.info.get("prototype_only"):
                continue
            qname = fn.qualified_name
            if only is not None and qname not in only:
                if presolved is None or qname not in presolved:
                    raise ModelError(
                        f"incremental generate: no presolved model for "
                        f"{qname!r} and it is not in the fresh set")
                models[qname] = presolved[qname]
                continue
            models[qname] = self.generate_function(fn, counts)
            fresh.add(qname)
        self._close(models, fresh if only is not None else None)
        return models

    def generate_function(self, fn: A.FunctionDef,
                          counts: dict) -> FunctionModel:
        """One function's model; ``counts`` is the domain-count memo of
        the :meth:`generate` call (shared by every function it models)."""
        bridge = self.bridges.get(fn.qualified_name)
        if bridge is None:
            raise ModelError(f"no binary information for {fn.qualified_name} "
                             "(was it compiled?)")
        model = FunctionModel(fn)
        self._bottom_up(fn.body)
        # frame term: prologue/epilogue at the function's own coordinate
        self._emit_term(model, bridge, fn.line, fn.col, Int(1), "frame")
        ctx = _Ctx(nest=LoopNest(), counts=counts)
        self._walk(fn.body, ctx, model, bridge)
        return model

    # ------------------------------------------------- pass 1: bottom-up SCoP
    def _bottom_up(self, node: A.Node) -> None:
        """Collect loop SCoP info onto loop head nodes (paper's upward pass).

        Results land in ``node.info['scop']`` (a NestLevel) or
        ``node.info['scop_error']`` (the reason static extraction failed,
        to be rescued by annotations in the top-down pass).
        """
        for c in node.children():
            self._bottom_up(c)
        if isinstance(node, A.ForStmt):
            bindings = {}
            for ann in node.annotations:
                if ann.lp_init is not None or ann.lp_cond is not None:
                    bindings = self._annotation_bindings(node, ann)
            try:
                level = extract_level(node, bindings=bindings)
                node.info["scop"] = level
            except ScopError as e:
                node.info["scop_error"] = str(e)

    def _annotation_bindings(self, loop: A.ForStmt, ann: Annotation) -> dict:
        return {}

    # ------------------------------------------------- pass 2: top-down walk
    def _walk(self, s: A.Stmt, ctx: _Ctx, model: FunctionModel,
              bridge: FunctionBridge) -> None:
        if isinstance(s, A.Stmt) and any(a.skip for a in s.annotations):
            return
        if isinstance(s, A.CompoundStmt):
            for sub in s.stmts:
                self._walk(sub, ctx, model, bridge)
            return
        if isinstance(s, (A.NullStmt,)):
            return
        if isinstance(s, (A.ExprStmt, A.DeclStmt, A.ReturnStmt)):
            if isinstance(s, A.ReturnStmt) and ctx.nest.levels:
                model.warnings.append(
                    f"line {s.line}: return inside a loop exits early; "
                    f"counts are upper bounds")
            count = ctx.count(model.assumptions)
            self._emit_term(model, bridge, s.line, s.col, count, "stmt")
            self._emit_calls(s, count, model)
            return
        if isinstance(s, A.IfStmt):
            self._walk_if(s, ctx, model, bridge)
            return
        if isinstance(s, A.ForStmt):
            self._walk_for(s, ctx, model, bridge)
            return
        if isinstance(s, A.WhileStmt):
            self._walk_while(s, ctx, model, bridge)
            return
        if isinstance(s, A.DoWhileStmt):
            self._walk_do_while(s, ctx, model, bridge)
            return
        if isinstance(s, (A.BreakStmt, A.ContinueStmt)):
            # Control transfer cost is folded into the enclosing centers.
            # Early exits make the static counts upper bounds (same as the
            # paper's static nature) — advertise it, so exactness-demanding
            # consumers (the differential fuzzer's oracles) know to skip.
            kind = "break" if isinstance(s, A.BreakStmt) else "continue"
            model.warnings.append(
                f"line {s.line}: {kind} alters control flow; "
                f"counts are upper bounds")
            count = ctx.count(model.assumptions)
            self._emit_term(model, bridge, s.line, s.col, count, "jump")
            return
        raise ModelError(f"metric generation: unhandled {type(s).__name__}")

    # ------------------------------------------------------------------ loops
    def _loop_level(self, s: A.ForStmt, ctx: _Ctx,
                    model: FunctionModel) -> NestLevel | None:
        """Resolve the loop's NestLevel: SCoP, or annotation rescue."""
        ann_iters = None
        ann_init = None
        ann_cond = None
        for ann in s.annotations:
            if ann.iters is not None:
                ann_iters = ann.iters
            if ann.lp_init is not None:
                ann_init = ann.lp_init
            if ann.lp_cond is not None:
                ann_cond = ann.lp_cond

        if ann_iters is not None:
            trip = Sym(ann_iters) if isinstance(ann_iters, str) else Int(int(ann_iters))
            var = self._loop_var_name(s) or f"_it_L{s.line}"
            return NestLevel(var, Int(1), trip)

        level = s.info.get("scop")
        if level is not None and ann_init is None and ann_cond is None:
            return level

        if ann_init is not None or ann_cond is not None:
            var = self._loop_var_name(s)
            if var is None:
                model.warnings.append(
                    f"line {s.line}: cannot identify loop variable")
                return None
            lb = Sym(ann_init) if ann_init is not None else \
                (level.lb if level is not None else Int(0))
            ub = Sym(ann_cond) if ann_cond is not None else \
                (level.ub if level is not None else Int(0))
            step = level.step if level is not None else 1
            return NestLevel(var, as_expr(lb), as_expr(ub), step)

        err = s.info.get("scop_error", "no SCoP")
        model.warnings.append(
            f"line {s.line}: loop not statically analyzable ({err}); "
            f"exposed as model parameter")
        var = self._loop_var_name(s) or f"_it_L{s.line}"
        return NestLevel(var, Int(1), Sym(f"iters_{s.line}"))

    @staticmethod
    def _loop_var_name(s: A.ForStmt) -> str | None:
        if isinstance(s.init, A.DeclStmt) and len(s.init.decls) == 1:
            return s.init.decls[0].name
        if isinstance(s.init, A.ExprStmt) and isinstance(s.init.expr, A.Assign) \
                and isinstance(s.init.expr.target, A.Ident):
            return s.init.expr.target.name
        return None

    def _walk_for(self, s: A.ForStmt, ctx: _Ctx, model: FunctionModel,
                  bridge: FunctionBridge) -> None:
        level = self._loop_level(s, ctx, model)
        if level is None:
            return
        if self.opts.opt_level >= 3 and s.info.get("vectorized"):
            level = NestLevel(level.var, level.lb, level.ub,
                              level.step * int(s.info["vectorized"]))

        outer_count = ctx.count(model.assumptions)
        # A loop whose bounds depend on enclosing indices that were collapsed
        # away (ratio/complement contexts) cannot nest symbolically.
        body_ctx = self._nest_ctx(ctx, level, s, model)
        iters = body_ctx.count(model.assumptions)

        if s.init is not None:
            self._emit_term(model, bridge, s.init.line, s.init.col,
                            outer_count, "loop-init")
            self._emit_calls(s.init, outer_count, model)
        if s.cond is not None:
            self._emit_term(model, bridge, s.cond.line, s.cond.col,
                            iters + outer_count, "loop-cond")
        if s.incr is not None:
            self._emit_term(model, bridge, s.incr.line, s.incr.col,
                            iters, "loop-incr")
        self._walk(s.body, body_ctx, model, bridge)

    def _nest_ctx(self, ctx: _Ctx, level: NestLevel, s: A.Stmt,
                  model: FunctionModel) -> _Ctx:
        """Push a loop level into the context, collapsing ratio/negation
        contexts into a scalar multiplier when necessary."""
        if ctx.pending_neg:
            deps = (level.lb.free_symbols() | level.ub.free_symbols()) \
                & set(ctx.nest.index_vars())
            if deps:
                raise ModelError(
                    f"line {s.line}: loop inside a negated branch depends on "
                    f"outer indices {sorted(deps)}; annotate the branch")
            collapsed = ctx.count(model.assumptions)
            return _Ctx(nest=LoopNest().add_level(level), counts=ctx.counts,
                        extra=collapsed)
        return ctx.child(nest=ctx.nest.nested(level))

    def _walk_while(self, s: A.WhileStmt, ctx: _Ctx, model: FunctionModel,
                    bridge: FunctionBridge) -> None:
        ann_iters = None
        for ann in s.annotations:
            if ann.iters is not None:
                ann_iters = ann.iters
        if ann_iters is None:
            model.warnings.append(
                f"line {s.line}: while-loop trip count exposed as parameter "
                f"iters_{s.line}")
            trip: Expr = Sym(f"iters_{s.line}")
        else:
            trip = Sym(ann_iters) if isinstance(ann_iters, str) else Int(int(ann_iters))
        level = NestLevel(f"_wh_L{s.line}", Int(1), trip)
        outer_count = ctx.count(model.assumptions)
        body_ctx = self._nest_ctx(ctx, level, s, model)
        iters = body_ctx.count(model.assumptions)
        self._emit_term(model, bridge, s.cond.line, s.cond.col,
                        iters + outer_count, "while-cond")
        self._walk(s.body, body_ctx, model, bridge)

    def _walk_do_while(self, s: A.DoWhileStmt, ctx: _Ctx, model: FunctionModel,
                       bridge: FunctionBridge) -> None:
        ann_iters = None
        for ann in s.annotations:
            if ann.iters is not None:
                ann_iters = ann.iters
        if ann_iters is None:
            model.warnings.append(
                f"line {s.line}: do-while trip count exposed as parameter "
                f"iters_{s.line}")
            trip: Expr = Sym(f"iters_{s.line}")
        else:
            trip = Sym(ann_iters) if isinstance(ann_iters, str) else Int(int(ann_iters))
        level = NestLevel(f"_dw_L{s.line}", Int(1), trip)
        body_ctx = self._nest_ctx(ctx, level, s, model)
        iters = body_ctx.count(model.assumptions)
        self._emit_term(model, bridge, s.cond.line, s.cond.col, iters,
                        "dowhile-cond")
        self._walk(s.body, body_ctx, model, bridge)

    # ---------------------------------------------------------------- branches
    def _walk_if(self, s: A.IfStmt, ctx: _Ctx, model: FunctionModel,
                 bridge: FunctionBridge) -> None:
        cond_count = ctx.count(model.assumptions)
        self._emit_term(model, bridge, s.cond.line, s.cond.col, cond_count,
                        "if-cond")
        self._emit_calls_expr(s.cond, cond_count, model)

        ratio = None
        for ann in s.annotations:
            if ann.ratio is not None:
                ratio = ann.ratio

        constraints = None
        if ratio is None:
            try:
                constraints = condition_to_constraints(s.cond)
            except ScopError:
                constraints = None

        if constraints is not None:
            then_ctx = ctx.child(nest=self._with_constraints(ctx.nest,
                                                             constraints))
            try:
                then_ctx.count()  # validate the intersection is countable
            except PolyhedralError as e:
                model.warnings.append(
                    f"line {s.line}: branch constraints not countable "
                    f"({e}); falling back to ratio heuristic")
                constraints = None
        if constraints is not None:
            self._walk(s.then, then_ctx, model, bridge)
            if s.els is not None:
                neg = _negate_constraints(constraints)
                if neg is not None:
                    els_ctx = ctx.child(
                        nest=self._with_constraints(ctx.nest, neg))
                else:
                    # complement trick: count_else = count − count_then
                    els_ctx = ctx.child(pending_neg=tuple(constraints))
                self._walk(s.els, els_ctx, model, bridge)
            return

        # annotation ratio or heuristic
        if ratio is None:
            ratio = self.opts.default_branch_ratio
            model.warnings.append(
                f"line {s.line}: branch condition not statically analyzable; "
                f"assuming ratio {ratio}")
        r = Fraction(ratio).limit_denominator(10 ** 6)
        then_ctx = ctx.child(multiplier=ctx.multiplier * r)
        self._walk(s.then, then_ctx, model, bridge)
        if s.els is not None:
            els_ctx = ctx.child(multiplier=ctx.multiplier * (1 - r))
            self._walk(s.els, els_ctx, model, bridge)

    @staticmethod
    def _with_constraints(nest: LoopNest, cs: list) -> LoopNest:
        out = nest
        for c in cs:
            out = out.with_constraint(c)
        return out

    # -------------------------------------------------------------------- emit
    def _emit_term(self, model: FunctionModel, bridge: FunctionBridge,
                   line: int, col: int, count: Expr, desc: str) -> None:
        center = bridge.center_at(line, col)
        if center is None:
            return  # optimized away entirely (e.g. folded constants)
        vec = vector_for_center(center, self.arch)
        model.terms.append(MetricTerm(line, col, vec, count, desc))

    def _emit_calls(self, s: A.Stmt, count: Expr, model: FunctionModel) -> None:
        for node in A.walk(s):
            if isinstance(node, A.Expr):
                self._emit_calls_expr(node, count, model, recurse=False)

    def _emit_calls_expr(self, e: A.Expr, count: Expr, model: FunctionModel,
                         recurse: bool = True) -> None:
        nodes = A.walk(e) if recurse else [e]
        for node in nodes:
            if not isinstance(node, A.Call):
                continue
            callee = self._resolve_callee(node, model)
            if callee is None:
                continue  # builtin/library: invisible to static analysis
            arg_map = self._map_call_args(node, callee)
            model.calls.append(CallTerm(callee.qualified_name, count,
                                        node.line, arg_map))

    def _resolve_callee(self, call: A.Call, model: FunctionModel):
        return resolve_callee(self.tu, call, model.fn)

    def _map_call_args(self, call: A.Call, callee: A.FunctionDef) -> dict:
        """Bind callee source parameters to caller-side symbolic expressions
        where possible (IntLit or plain identifiers); None means the binding
        must become a call-site parameter (the paper's ``y_16``)."""
        out: dict[str, Expr | None] = {}
        for p, a in zip(callee.params, call.args):
            if isinstance(a, A.IntLit):
                out[p.name] = Int(a.value)
            elif isinstance(a, A.Ident):
                out[p.name] = Sym(a.name)
            else:
                out[p.name] = None
        return out

    # ------------------------------------------------------------- closure
    def _close(self, models: dict[str, FunctionModel],
               fresh: set | None = None) -> None:
        """The closure pass, callees first: each model's final parameter
        list and inherited assumptions, both bound through
        :meth:`CallTerm.binding`.

        A model's parameters are its own free parameters plus the free
        symbols of its calls' bindings of every callee parameter, so an
        unbound callee parameter ``p`` bubbles up as ``p_<line>``.  A
        callee's assumptions are rewritten through the same bindings: one
        that folds to a negative constant is a *statically detected*
        violation (the call passes a binding outside the polynomial's
        validity domain) and becomes a warning; a non-negative constant is
        discharged; anything still symbolic is inherited.

        ``fresh`` (incremental runs) names the models generated this run;
        restored models are already closed and are read as-is, so a mixed
        run is exact."""
        for qname in topo_order(call_graph(models)):
            m = models[qname]
            if fresh is not None and qname not in fresh:
                continue
            params = set(m.own_free_params())
            for c in m.calls:
                callee = models.get(c.callee)
                if callee is None:
                    continue
                for p in callee.params:
                    params |= c.binding(p).free_symbols()
                if c.count == Int(0):
                    continue  # call never executes; nothing to inherit
                for a in callee.assumptions:
                    rewritten = a.subs(
                        {n: c.binding(n) for n in a.free_symbols()})
                    if not rewritten.free_symbols():
                        if rewritten.evaluate({}) < 0:
                            m.warnings.append(
                                f"line {c.line}: call binds {c.callee} "
                                f"outside a loop's validity domain (extent "
                                f"{rewritten.evaluate({})} < 0); counts are "
                                f"approximate")
                    elif rewritten not in m.assumptions:
                        m.assumptions.append(rewritten)
            src_params = [p.name for p in m.fn.params if p.name in params]
            m.params = src_params + sorted(params - set(src_params))


def call_graph(models: dict[str, FunctionModel]) -> dict[str, list]:
    """qname -> callee qnames in call-site order, for :func:`topo_order`."""
    return {q: [c.callee for c in m.calls] for q, m in models.items()}


def topo_order(graph: dict) -> list[str]:
    """Callees before callers in a name -> callee-names map (names missing
    from the map are skipped); raises on recursion.

    The one call-graph order: the metric generator, the Fig. 5 emitter,
    ``AnalysisResult.from_dict`` and the incremental engine's function
    units all use it."""
    out: list[str] = []
    state: dict[str, int] = {}

    def visit(q: str) -> None:
        st = state.get(q, 0)
        if st == 1:
            raise ModelError(f"recursive call cycle involving {q!r} "
                             "(not supported by static modeling)")
        if st == 2:
            return
        state[q] = 1
        for c in graph[q]:
            if c in graph:
                visit(c)
        state[q] = 2
        out.append(q)

    for q in graph:
        visit(q)
    return out
