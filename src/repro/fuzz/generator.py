"""Seeded, deterministic structured C program generator.

Programs are built as **specs** — small frozen dataclasses describing loop
nests, guards, bodies, and call graphs — and only then rendered to C
source.  The split is what makes the rest of the subsystem possible:

* the shrinker (:mod:`repro.fuzz.shrink`) minimizes at the spec level,
  where every reduction is guaranteed to stay inside the supported
  grammar,
* the property-based suite drives hypothesis strategies through the same
  builders, so the fuzzer and the property tests cannot drift,
* reproducers persist the spec (JSON round-trip via
  :func:`spec_to_dict`/:func:`spec_from_dict`), so a checked-in
  divergence replays exactly even as the generator evolves.

A spec renders in three **modes**, all sharing the same loop structure:

* ``concrete`` — size parameters inlined as integer literals; the program
  is fully closed, so both the static model and the dynamic interpreter
  can run it (the paper's Tables III-V setting),
* ``runtime``  — sizes are global ``int`` variables assigned at the top
  of ``main``: the *same binary* carries a parametric static model (the
  assignment is opaque to the polyhedral layer) and a concrete dynamic
  execution — the sound symbolic static-vs-dynamic oracle,
* ``symbolic`` — sizes are bare identifiers declared via
  ``AnalysisConfig.symbolic_params``; static-only, used by the
  sweep/engine oracles across a grid of bindings.

The generated fragment deliberately stays within what the framework
*claims* to analyze exactly; constructs that are modeled heuristically
(non-affine guards) may still be generated — the oracle stack uses model
warnings to decide when exactness is required.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from ..core.config import AnalysisConfig
from ..errors import MiraError

__all__ = [
    "BoundSpec", "CallSpec", "FunctionSpec", "GeneratedProgram",
    "GuardSpec", "LoopSpec", "ProgramSpec", "StmtSpec", "ALL_FEATURES",
    "generate_program", "render_program", "spec_from_dict", "spec_to_dict",
]

#: Feature toggles for :func:`generate_program`.  Each enables one slice of
#: the grammar; the default is all of them.
ALL_FEATURES = ("triangular", "steps", "downward", "guards", "mod_guards",
                "nonaffine_guards", "fp", "arrays", "calls", "params",
                "sizes")

_MODES = ("concrete", "runtime", "symbolic")

#: Hard cap on dynamically executed innermost iterations per program, so a
#: fuzz campaign's interpreter runs stay fast.
_MAX_TRIPS = 4000

_LOOP_VARS = ("i", "j", "k", "l")
_SIZE_NAMES = ("N", "M")


# ---------------------------------------------------------------------------
# spec dataclasses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundSpec:
    """An affine bound ``base + offset`` where ``base`` is an enclosing
    loop variable, a size parameter, a function parameter, or None (a
    plain integer literal)."""

    base: str | None
    offset: int

    def render(self, subst: dict | None = None) -> str:
        if self.base is None:
            return str(self.offset)
        base = self.base
        if subst and base in subst:
            return str(subst[base] + self.offset)
        if self.offset == 0:
            return base
        if self.offset < 0:
            return f"{base} - {-self.offset}"
        return f"{base} + {self.offset}"


@dataclass(frozen=True)
class LoopSpec:
    """One ``for`` level.  ``down=False``: ``for (v = lo; v OP hi; v += step)``;
    ``down=True``: ``for (v = hi; v OP' lo; v -= step)`` with ``OP'`` the
    mirrored comparison."""

    var: str
    lo: BoundSpec
    hi: BoundSpec
    op: str = "<"            # "<" | "<=" (upward sense; mirrored when down)
    step: int = 1
    down: bool = False

    def render(self, subst: dict | None = None) -> str:
        lo = self.lo.render(subst)
        hi = self.hi.render(subst)
        if self.down:
            op = {"<": ">", "<=": ">="}[self.op]
            incr = f"{self.var}--" if self.step == 1 else \
                f"{self.var} -= {self.step}"
            return (f"for (int {self.var} = {hi}; {self.var} {op} {lo}; "
                    f"{incr})")
        incr = f"{self.var}++" if self.step == 1 else \
            f"{self.var} += {self.step}"
        return (f"for (int {self.var} = {lo}; {self.var} {self.op} {hi}; "
                f"{incr})")


@dataclass(frozen=True)
class GuardSpec:
    """An ``if`` condition over in-scope loop variables.

    kinds: ``cmp`` (``var OP bound``), ``mod`` (``var % mod OP rem``),
    ``affine2`` (``var + var2 OP bound``), ``nonaffine``
    (``var * var2 OP bound`` — modeled by the ratio heuristic, so exact
    oracles skip it via the model's warning)."""

    kind: str
    var: str
    op: str
    rhs: BoundSpec
    var2: str | None = None   # affine2 / nonaffine second variable
    mod: int = 2              # mod kind only
    rem: int = 0

    def render(self, subst: dict | None = None) -> str:
        if self.kind == "mod":
            return f"{self.var} % {self.mod} {self.op} {self.rem}"
        if self.kind == "affine2":
            return f"{self.var} + {self.var2} {self.op} " \
                   f"{self.rhs.render(subst)}"
        if self.kind == "nonaffine":
            return f"{self.var} * {self.var2} {self.op} " \
                   f"{self.rhs.render(subst)}"
        return f"{self.var} {self.op} {self.rhs.render(subst)}"


@dataclass(frozen=True)
class StmtSpec:
    """One body statement.

    kinds: ``int_acc`` (``acc = acc + <expr>;``), ``int_arr``
    (``va[idx] = va[idx] + <expr>;``), ``fp_scalar`` (``s = s OP c;``),
    ``fp_arr`` (``xa[idx] = xa[idx] OP ya[idx2];``), ``call``
    (``callee(args);``)."""

    kind: str
    op: str = "+"
    idx: str | None = None        # array index variable (None -> literal 0)
    idx2: str | None = None
    expr_var: str | None = None   # int expr: acc += var * coef + ...
    coef: int = 1
    call: "CallSpec | None" = None

    def render(self, subst: dict | None = None) -> str:
        if self.kind == "call":
            return self.call.render(subst)
        if self.kind == "int_acc":
            return f"acc = acc {self.op} {self._int_expr()};"
        if self.kind == "int_arr":
            i = self.idx or "0"
            return f"va[{i}] = va[{i}] + {self._int_expr()};"
        if self.kind == "fp_scalar":
            return f"s = s {self.op} 1.5;"
        if self.kind == "fp_arr":
            i, j = self.idx or "0", self.idx2 or "0"
            return f"xa[{i}] = xa[{i}] {self.op} ya[{j}];"
        raise MiraError(f"unknown StmtSpec kind {self.kind!r}")

    def _int_expr(self) -> str:
        if self.expr_var is None:
            return str(self.coef)
        if self.coef == 1:
            return self.expr_var
        return f"{self.expr_var} * {self.coef}"


@dataclass(frozen=True)
class CallSpec:
    """A call statement: ``callee(arg, ...)`` with loop-invariant args —
    integer literals or size-parameter names (the exactly-modelable call
    binding forms)."""

    callee: str
    args: tuple = ()          # each: int literal or size/param name (str)

    def render(self, subst: dict | None = None) -> str:
        parts = []
        for a in self.args:
            if isinstance(a, str) and subst and a in subst:
                parts.append(str(subst[a]))
            else:
                parts.append(str(a))
        return f"{self.callee}({', '.join(parts)});"


@dataclass(frozen=True)
class FunctionSpec:
    """One generated function: a loop nest, an optional guard chain at the
    innermost level, and 1-3 body statements."""

    name: str
    params: tuple = ()            # (name, lo, hi) int params usable as bounds
    loops: tuple = ()             # LoopSpec, outermost first
    guards: tuple = ()            # GuardSpec chain at the innermost level
    body: tuple = ()              # StmtSpec
    tail_calls: tuple = ()        # CallSpec after the nest, at function level


@dataclass(frozen=True)
class ProgramSpec:
    """A whole generated program.

    ``sizes`` maps each size-parameter name to ``(value, sweep_values)``:
    the concrete binding used by ``concrete``/``runtime`` renders and the
    grid the sweep oracles evaluate the ``symbolic`` render over.
    """

    functions: tuple = ()         # FunctionSpec, callees before callers
    main_calls: tuple = ()        # CallSpec invoked from main
    sizes: tuple = ()             # ((name, value, (sweep values...)), ...)

    def size_values(self) -> dict:
        return {name: value for name, value, _grid in self.sizes}

    def size_grid(self) -> dict:
        return {name: list(grid) for name, _value, grid in self.sizes}


# ---------------------------------------------------------------------------
# interval analysis over specs (array sizing, trip estimation, domains)
# ---------------------------------------------------------------------------

def _bound_interval(b: BoundSpec, env: dict) -> tuple[int, int]:
    """Conservative [min, max] of a bound under variable intervals ``env``
    (each entry a (lo, hi) pair)."""
    if b.base is None:
        return b.offset, b.offset
    lo, hi = env.get(b.base, (0, 0))
    return lo + b.offset, hi + b.offset


def var_intervals(fn: FunctionSpec, spec: ProgramSpec,
                  param_ranges: dict | None = None) -> dict:
    """Per-loop-variable conservative value intervals for one function.

    Size parameters span their whole sweep grid; function parameters span
    their declared range.  Intervals cover every value the variable takes
    in any iteration of any render mode (used for array sizing and for
    non-negativity checks)."""
    env: dict = {}
    for name, value, grid in spec.sizes:
        vals = [value, *grid]
        env[name] = (min(vals), max(vals))
    for pname, plo, phi in fn.params:
        if param_ranges and pname in param_ranges:
            env[pname] = param_ranges[pname]
        else:
            env[pname] = (plo, phi)
    for lp in fn.loops:
        lo_lo, lo_hi = _bound_interval(lp.lo, env)
        hi_lo, hi_hi = _bound_interval(lp.hi, env)
        if lp.down:
            # starts at hi and decreases while > lo (op "<") / >= lo
            # ("<="): the exclusive end is at the *bottom* of the range
            top = hi_hi
            bottom = lo_lo if lp.op == "<=" else lo_lo + 1
            env[lp.var] = (min(bottom, top, hi_lo), max(bottom, top, hi_hi))
        else:
            top = hi_hi if lp.op == "<=" else hi_hi - 1
            env[lp.var] = (min(lo_lo, top), max(lo_lo, top, lo_hi))
    return env


def max_trips(fn: FunctionSpec, spec: ProgramSpec) -> int:
    """Upper bound on innermost iterations of one invocation of ``fn``."""
    env = var_intervals(fn, spec)
    total = 1
    for lp in fn.loops:
        lo_lo, _ = _bound_interval(lp.lo, env)
        _, hi_hi = _bound_interval(lp.hi, env)
        top = hi_hi if lp.op == "<=" else hi_hi - 1
        extent = max(0, (top - lo_lo) // max(1, lp.step) + 1)
        total *= extent
        if total == 0:
            return 0
    return total


def _array_extent(spec: ProgramSpec) -> int:
    """Smallest safe declared size for the shared arrays: every index
    variable's maximum possible value + 1 (only non-negative-domain
    variables are ever used as indexes)."""
    need = 4
    for fn in spec.functions:
        env = var_intervals(fn, spec)
        for st in fn.body:
            for iv in (st.idx, st.idx2):
                if iv is not None and iv in env:
                    need = max(need, env[iv][1] + 1)
    return min(max(need, 4), 256)


def nonneg_vars(fn: FunctionSpec, spec: ProgramSpec) -> list[str]:
    """Loop variables whose domain is provably non-negative (safe as array
    indexes and for exactly-counted modular guards)."""
    env = var_intervals(fn, spec)
    return [lp.var for lp in fn.loops if env[lp.var][0] >= 0]


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _render_function(fn: FunctionSpec, subst: dict | None,
                     lines: list) -> None:
    params = ", ".join(f"int {p}" for p, _lo, _hi in fn.params)
    lines.append(f"void {fn.name}({params}) {{")
    indent = "  "
    for lp in fn.loops:
        lines.append(f"{indent}{lp.render(subst)}")
        indent += "  "
    for g in fn.guards:
        lines.append(f"{indent}if ({g.render(subst)})")
        indent += "  "
    body = [st.render(subst) for st in fn.body] or ["acc = acc + 1;"]
    if len(body) == 1:
        lines.append(f"{indent}{body[0]}")
    else:
        lines.append(f"{indent}{{")
        for b in body:
            lines.append(f"{indent}  {b}")
        lines.append(f"{indent}}}")
    for c in fn.tail_calls:
        lines.append(f"  {c.render(subst)}")
    lines.append("}")


def render_program(spec: ProgramSpec, mode: str = "concrete") -> str:
    """Render a spec to C source in one of the three modes (module
    docstring).  Deterministic: equal specs render byte-identical."""
    if mode not in _MODES:
        raise MiraError(f"unknown render mode {mode!r}; expected one of "
                        f"{_MODES}")
    values = spec.size_values()
    subst = values if mode == "concrete" else None
    lines: list[str] = []
    ext = _array_extent(spec)
    decls = ["int acc;", "double s;"]
    kinds = {st.kind for fn in spec.functions for st in fn.body}
    if "int_arr" in kinds:
        decls.append(f"int va[{ext}];")
    if "fp_arr" in kinds:
        decls.append(f"double xa[{ext}];")
        decls.append(f"double ya[{ext}];")
    if mode == "runtime":
        decls.extend(f"int {name};" for name in values)
    lines.extend(decls)
    lines.append("")
    for fn in spec.functions:
        _render_function(fn, subst, lines)
        lines.append("")
    lines.append("int main() {")
    if mode == "runtime":
        for name, value in values.items():
            lines.append(f"  {name} = {value};")
    for c in spec.main_calls:
        lines.append(f"  {c.render(subst)}")
    lines.append("  return acc;")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the generated-program handle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratedProgram:
    """One fuzz case: the spec plus its provenance.

    ``seed`` is informational (a spec loaded from a reproducer file keeps
    the seed that originally produced it, but replays from the spec)."""

    spec: ProgramSpec
    seed: int | None = None
    features: tuple = ALL_FEATURES

    def source(self, mode: str = "concrete") -> str:
        return render_program(self.spec, mode)

    def config(self, mode: str = "concrete",
               base: AnalysisConfig | None = None) -> AnalysisConfig:
        """The AnalysisConfig the oracles analyze this render under:
        ``symbolic`` mode late-binds the size names via
        ``symbolic_params``."""
        cfg = base or AnalysisConfig()
        if mode == "symbolic" and self.spec.sizes:
            return cfg.with_changes(
                symbolic_params=tuple(self.spec.size_values()))
        return cfg

    def bindings(self) -> dict:
        """Concrete size bindings (what ``concrete``/``runtime`` renders
        bake in)."""
        return self.spec.size_values()

    def sweep_grid(self) -> dict:
        return self.spec.size_grid()


@dataclass(frozen=True)
class RawProgram:
    """A literal-source fuzz case.

    Used for hand-written reproducers of bugs outside the generator's
    grammar (early exits, while loops, ...).  The same source serves every
    render mode; it declares no sizes, so only the concrete-mode oracles
    apply."""

    raw: str
    seed: int | None = None
    spec: ProgramSpec = ProgramSpec((), (), ())
    features: tuple = ()

    def source(self, mode: str = "concrete") -> str:
        return self.raw

    def config(self, mode: str = "concrete",
               base: AnalysisConfig | None = None) -> AnalysisConfig:
        return base or AnalysisConfig()

    def bindings(self) -> dict:
        return {}

    def sweep_grid(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# spec <-> JSON (reproducer persistence)
# ---------------------------------------------------------------------------

def spec_to_dict(spec: ProgramSpec) -> dict:
    def bound(b):
        return {"base": b.base, "offset": b.offset}

    def guard(g):
        return {"kind": g.kind, "var": g.var, "op": g.op,
                "rhs": bound(g.rhs), "var2": g.var2,
                "mod": g.mod, "rem": g.rem}

    def stmt(st):
        return {"kind": st.kind, "op": st.op, "idx": st.idx,
                "idx2": st.idx2, "expr_var": st.expr_var, "coef": st.coef,
                "call": call(st.call) if st.call else None}

    def call(c):
        return {"callee": c.callee, "args": list(c.args)}

    return {
        "functions": [{
            "name": fn.name,
            "params": [list(p) for p in fn.params],
            "loops": [{"var": lp.var, "lo": bound(lp.lo),
                       "hi": bound(lp.hi), "op": lp.op,
                       "step": lp.step, "down": lp.down}
                      for lp in fn.loops],
            "guards": [guard(g) for g in fn.guards],
            "body": [stmt(st) for st in fn.body],
            "tail_calls": [call(c) for c in fn.tail_calls],
        } for fn in spec.functions],
        "main_calls": [call(c) for c in spec.main_calls],
        "sizes": [[name, value, list(grid)]
                  for name, value, grid in spec.sizes],
    }


def spec_from_dict(d: dict) -> ProgramSpec:
    def bound(b):
        return BoundSpec(base=b["base"], offset=int(b["offset"]))

    def guard(g):
        return GuardSpec(kind=g["kind"], var=g["var"], op=g["op"],
                         rhs=bound(g["rhs"]), var2=g.get("var2"),
                         mod=int(g.get("mod", 2)), rem=int(g.get("rem", 0)))

    def call(c):
        return CallSpec(callee=c["callee"],
                        args=tuple(a if isinstance(a, str) else int(a)
                                   for a in c.get("args", ())))

    def stmt(st):
        return StmtSpec(kind=st["kind"], op=st.get("op", "+"),
                        idx=st.get("idx"), idx2=st.get("idx2"),
                        expr_var=st.get("expr_var"),
                        coef=int(st.get("coef", 1)),
                        call=call(st["call"]) if st.get("call") else None)

    functions = tuple(FunctionSpec(
        name=f["name"],
        params=tuple(tuple(p) for p in f.get("params", ())),
        loops=tuple(LoopSpec(var=lp["var"], lo=bound(lp["lo"]),
                             hi=bound(lp["hi"]), op=lp.get("op", "<"),
                             step=int(lp.get("step", 1)),
                             down=bool(lp.get("down", False)))
                    for lp in f.get("loops", ())),
        guards=tuple(guard(g) for g in f.get("guards", ())),
        body=tuple(stmt(st) for st in f.get("body", ())),
        tail_calls=tuple(call(c) for c in f.get("tail_calls", ())),
    ) for f in d.get("functions", ()))
    return ProgramSpec(
        functions=functions,
        main_calls=tuple(call(c) for c in d.get("main_calls", ())),
        sizes=tuple((s[0], int(s[1]), tuple(int(v) for v in s[2]))
                    for s in d.get("sizes", ())))


# ---------------------------------------------------------------------------
# random builders (the fuzzer front end)
# ---------------------------------------------------------------------------

def _build_loop(rng: random.Random, depth_index: int, outer_vars: list,
                size_names: list, param_names: list, features: set,
                max_extent: int) -> LoopSpec:
    """One random loop level.  Exposed as a building block so property
    tests can drive the same construction with hypothesis-chosen
    randomness."""
    var = _LOOP_VARS[depth_index]
    lo_base = None
    lo_off = rng.randint(-3, 3)
    if "triangular" in features and outer_vars and rng.random() < 0.35:
        lo_base = rng.choice(outer_vars)
        lo_off = rng.randint(0, 2)
    hi_base = None
    hi_off = lo_off + rng.randint(0, max_extent)
    candidates = []
    if "triangular" in features and outer_vars:
        candidates += outer_vars
    if "sizes" in features and size_names:
        candidates += size_names
    if "params" in features and param_names:
        candidates += param_names
    if candidates and rng.random() < 0.5:
        hi_base = rng.choice(candidates)
        hi_off = rng.randint(0, 3)
    op = rng.choice(("<", "<="))
    step = 1
    if "steps" in features and rng.random() < 0.3:
        step = rng.randint(2, 3)
    down = ("downward" in features and lo_base is None and hi_base is None
            and rng.random() < 0.15)
    return LoopSpec(var=var, lo=BoundSpec(lo_base, lo_off),
                    hi=BoundSpec(hi_base, hi_off), op=op, step=step,
                    down=down)


def _build_guard(rng: random.Random, in_scope: list, nonneg: list,
                 size_names: list, features: set) -> GuardSpec | None:
    kinds = ["cmp", "cmp", "affine2"]
    if "mod_guards" in features and nonneg:
        kinds += ["mod", "mod"]
    if "nonaffine_guards" in features and len(in_scope) >= 2:
        kinds.append("nonaffine")
    kind = rng.choice(kinds)
    if kind == "mod":
        mod = rng.randint(2, 4)
        return GuardSpec(kind="mod", var=rng.choice(nonneg),
                         op=rng.choice(("==", "!=")), rhs=BoundSpec(None, 0),
                         mod=mod, rem=rng.randint(0, mod - 1))
    var = rng.choice(in_scope)
    rhs_base = None
    if size_names and rng.random() < 0.3:
        rhs_base = rng.choice(size_names)
    rhs = BoundSpec(rhs_base, rng.randint(-2, 6))
    op = rng.choice(("<", "<=", ">", ">=", "==", "!="))
    if kind == "cmp":
        return GuardSpec(kind="cmp", var=var, op=op, rhs=rhs)
    var2 = rng.choice([v for v in in_scope if v != var] or in_scope)
    if kind == "affine2":
        return GuardSpec(kind="affine2", var=var, op=rng.choice(
            ("<", "<=", ">", ">=")), rhs=rhs, var2=var2)
    return GuardSpec(kind="nonaffine", var=var,
                     op=rng.choice(("<", "<=", ">", ">=")),
                     rhs=BoundSpec(None, rng.randint(0, 12)), var2=var2)


def _build_stmt(rng: random.Random, nonneg: list, in_scope: list,
                features: set) -> StmtSpec:
    kinds = ["int_acc", "int_acc"]
    if "fp" in features:
        kinds.append("fp_scalar")
        if "arrays" in features and nonneg:
            kinds += ["fp_arr", "fp_arr"]
    if "arrays" in features and nonneg:
        kinds.append("int_arr")
    kind = rng.choice(kinds)
    if kind == "int_acc":
        ev = rng.choice([None, *in_scope]) if in_scope else None
        return StmtSpec(kind="int_acc", op=rng.choice(("+", "-")),
                        expr_var=ev, coef=rng.randint(1, 3))
    if kind == "int_arr":
        return StmtSpec(kind="int_arr", idx=rng.choice(nonneg),
                        expr_var=rng.choice([None, *in_scope]),
                        coef=rng.randint(1, 3))
    if kind == "fp_scalar":
        return StmtSpec(kind="fp_scalar", op=rng.choice(("+", "-", "*")))
    return StmtSpec(kind="fp_arr", op=rng.choice(("+", "-", "*")),
                    idx=rng.choice(nonneg), idx2=rng.choice(nonneg))


def _build_function(rng: random.Random, name: str, size_names: list,
                    callees: list, features: set,
                    with_params: bool) -> FunctionSpec:
    params: tuple = ()
    if with_params and "params" in features and rng.random() < 0.7:
        params = (("m", 0, 12),)
    depth = rng.choice((1, 1, 2, 2, 2, 3, 3, 4))
    max_extents = {1: 24, 2: 10, 3: 6, 4: 4}
    loops = []
    outer: list = []
    for d in range(depth):
        lp = _build_loop(rng, d, outer, size_names,
                         [p for p, _lo, _hi in params], features,
                         max_extents[depth])
        loops.append(lp)
        outer.append(lp.var)
    fn = FunctionSpec(name=name, params=params, loops=tuple(loops))
    probe = ProgramSpec(functions=(fn,),
                        sizes=tuple((n, 6, (6,)) for n in size_names))
    nn = nonneg_vars(fn, probe)
    in_scope = [lp.var for lp in loops]
    guards = []
    if "guards" in features:
        n_guards = rng.choice((0, 0, 0, 1, 1, 2))
        for _ in range(n_guards):
            g = _build_guard(rng, in_scope, nn, size_names, features)
            if g is not None:
                guards.append(g)
    body = [_build_stmt(rng, nn, in_scope, features)
            for _ in range(rng.choice((1, 1, 1, 2, 3)))]
    if "calls" in features and callees and rng.random() < 0.4:
        callee = rng.choice(callees)
        args = tuple(_call_arg(rng, size_names, lo, hi)
                     for _p, lo, hi in callee.params)
        body.append(StmtSpec(kind="call",
                             call=CallSpec(callee.name, args)))
    tail = ()
    if "calls" in features and callees and rng.random() < 0.25:
        callee = rng.choice(callees)
        args = tuple(_call_arg(rng, size_names, lo, hi)
                     for _p, lo, hi in callee.params)
        tail = (CallSpec(callee.name, args),)
    return replace(fn, guards=tuple(guards), body=tuple(body),
                   tail_calls=tail)


def _call_arg(rng: random.Random, size_names: list, lo: int, hi: int):
    """A loop-invariant call argument: a literal in the parameter's declared
    range, or a size name whose grid fits inside it."""
    if size_names and hi >= 12 and rng.random() < 0.4:
        return rng.choice(size_names)
    return rng.randint(lo, hi)


def generate_program(seed: int, features=ALL_FEATURES) -> GeneratedProgram:
    """The fuzzer entry point: a deterministic random program.

    Equal ``(seed, features)`` always produce the identical spec and
    byte-identical renders, independent of interpreter hash seeds or
    platform."""
    features = set(features)
    rng = random.Random(seed)
    sizes: list = []
    if "sizes" in features:
        for name in _SIZE_NAMES[: rng.choice((0, 1, 1, 1, 2))]:
            value = rng.randint(2, 9)
            grid = sorted({rng.randint(0, 12) for _ in range(3)} | {value})
            sizes.append((name, value, tuple(grid)))
    size_names = [name for name, _v, _g in sizes]
    n_funcs = rng.choice((1, 1, 1, 2, 2, 3)) if "calls" in features else 1
    functions: list = []
    for idx in range(n_funcs):
        name = f"fn{idx}" if idx < n_funcs - 1 else "kernel"
        fn = _build_function(rng, name, size_names, functions, features,
                             with_params=idx < n_funcs - 1)
        functions.append(fn)
    spec = ProgramSpec(functions=tuple(functions),
                       main_calls=_main_calls(rng, functions, size_names),
                       sizes=tuple(sizes))
    spec = _clamp_trips(spec)
    return GeneratedProgram(spec=spec, seed=seed,
                            features=tuple(sorted(features)))


def _main_calls(rng: random.Random, functions: list,
                size_names: list) -> tuple:
    calls = []
    for fn in functions:
        args = tuple(_call_arg(rng, size_names, lo, hi)
                     for _p, lo, hi in fn.params)
        calls.append(CallSpec(fn.name, args))
    return tuple(calls)


def _clamp_trips(spec: ProgramSpec) -> ProgramSpec:
    """Keep total dynamic work bounded: while any function's worst-case
    innermost trip count exceeds the cap, shave its deepest extent."""
    functions = list(spec.functions)
    for i, fn in enumerate(functions):
        guard = 0
        while max_trips(fn, spec) > _MAX_TRIPS and guard < 64:
            guard += 1
            loops = list(fn.loops)
            deepest = loops[-1]
            if deepest.hi.base is None and deepest.lo.base is None:
                extent = deepest.hi.offset - deepest.lo.offset
                loops[-1] = replace(
                    deepest, hi=BoundSpec(None, deepest.lo.offset
                                          + max(0, extent // 2)))
            else:
                loops[-1] = replace(deepest, hi=BoundSpec(None, 3),
                                    lo=BoundSpec(None, 0))
            fn = replace(fn, loops=tuple(loops))
            functions[i] = fn
            spec = replace(spec, functions=tuple(functions))
    return spec
