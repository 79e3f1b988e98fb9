"""The framework's strongest invariant, property-tested:

For any program whose control flow is fully statically analyzable (affine
loop bounds, affine/modular branch conditions, no library calls), the static
model's category counts must equal the dynamic execution's counts *exactly*
— both sides consume the same binary cost centers, and the polyhedral
counting must match real iteration behaviour.

Hypothesis drives the same spec building blocks the differential fuzzer
uses (:mod:`repro.fuzz.generator`): strategies compose ``LoopSpec`` /
``GuardSpec`` / ``StmtSpec`` into a ``ProgramSpec`` rendered by
``render_program``, so the property suite and the fuzz campaigns exercise
one grammar and cannot drift apart.  Any mismatch is a genuine bug in the
polyhedral engine, the metric generator, or the interpreter.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Pipeline
from repro.dynamic import TauProfiler
from repro.fuzz.generator import (BoundSpec, CallSpec, FunctionSpec,
                                  GuardSpec, LoopSpec, ProgramSpec, StmtSpec,
                                  nonneg_vars, render_program)


def run_both(src: str) -> tuple[dict, dict]:
    model = Pipeline().run(src)
    rep = TauProfiler(model.processed).profile("main")
    return (model.evaluate("main").as_dict(),
            rep.function("main").categories)


# -- random program generation ------------------------------------------------

_VARS = ("i", "j", "k")


@st.composite
def loop_levels(draw, depth_index: int):
    """One random affine loop level as a fuzz-generator ``LoopSpec``:
    constant bounds, optionally an upper bound hanging off the enclosing
    index (triangular), strided, or downward."""
    lo_off = draw(st.integers(min_value=-3, max_value=3))
    triangular = depth_index > 0 and draw(st.booleans())
    if triangular:
        hi = BoundSpec(_VARS[depth_index - 1],
                       draw(st.integers(min_value=0, max_value=4)))
    else:
        hi = BoundSpec(None,
                       lo_off + draw(st.integers(min_value=0, max_value=6)))
    down = not triangular and draw(st.sampled_from((False, False, False,
                                                    True)))
    return LoopSpec(var=_VARS[depth_index], lo=BoundSpec(None, lo_off),
                    hi=hi, op=draw(st.sampled_from(("<", "<="))),
                    step=draw(st.sampled_from((1, 1, 1, 2, 3))), down=down)


@st.composite
def nest_specs(draw):
    """A 1-3-deep nest with an optional exactly-countable guard, as a full
    ``ProgramSpec`` (single ``kernel`` function called from main)."""
    depth = draw(st.integers(min_value=1, max_value=3))
    loops = tuple(draw(loop_levels(d)) for d in range(depth))
    fn = FunctionSpec(name="kernel", loops=loops,
                      body=(StmtSpec(kind="int_acc"),))
    probe = ProgramSpec(functions=(fn,))
    var = loops[-1].var
    guards = [None, None,
              GuardSpec(kind="cmp", var=var, op=">", rhs=BoundSpec(None, 1)),
              GuardSpec(kind="cmp", var=var, op="<=", rhs=BoundSpec(None, 2))]
    if depth > 1:
        guards.append(GuardSpec(kind="affine2", var=var, op="<=",
                                rhs=BoundSpec(None, 3),
                                var2=loops[0].var))
    if var in nonneg_vars(fn, probe):
        # nonzero residues under C's % only count exactly on non-negative
        # domains (sign-follows-dividend); elsewhere Mira falls back to the
        # ratio heuristic, which is legitimately inexact.
        guards.append(GuardSpec(kind="mod", var=var, op="==",
                                rhs=BoundSpec(None, 0), mod=2, rem=0))
        guards.append(GuardSpec(kind="mod", var=var, op="!=",
                                rhs=BoundSpec(None, 0), mod=3, rem=1))
    guard = draw(st.sampled_from(guards))
    fn = FunctionSpec(name="kernel", loops=loops,
                      guards=(guard,) if guard is not None else (),
                      body=(StmtSpec(kind="int_acc"),))
    return ProgramSpec(functions=(fn,),
                       main_calls=(CallSpec("kernel", ()),))


@given(nest_specs())
@settings(max_examples=40, deadline=None)
def test_property_random_affine_nest_exact(spec):
    src = render_program(spec)
    static, dynamic = run_both(src)
    assert static == dynamic, f"divergence for program:\n{src}"


@given(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
    st.sampled_from(["+", "*", "-"]),
)
@settings(max_examples=25, deadline=None)
def test_property_fp_kernel_exact(n, m, op):
    spec = ProgramSpec(
        functions=(FunctionSpec(
            name="kernel",
            loops=(LoopSpec("i", BoundSpec(None, 0), BoundSpec("N", 0)),
                   LoopSpec("j", BoundSpec(None, 0), BoundSpec("M", 0))),
            body=(StmtSpec(kind="fp_arr", op=op, idx="i", idx2="j"),)),),
        main_calls=(CallSpec("kernel", ()),),
        sizes=(("N", n, (n,)), ("M", m, (m,))))
    static, dynamic = run_both(render_program(spec, "concrete"))
    assert static == dynamic
    fp = static.get("SSE2 packed arithmetic instruction", 0)
    assert fp == n * m


@given(st.integers(min_value=1, max_value=12),
       st.integers(min_value=2, max_value=5),
       st.integers(min_value=0, max_value=4))
@settings(max_examples=25, deadline=None)
def test_property_modular_branch_exact(n, mod, rem):
    rem = rem % mod
    spec = ProgramSpec(
        functions=(FunctionSpec(
            name="kernel",
            loops=(LoopSpec("i", BoundSpec(None, 0), BoundSpec(None, n)),),
            guards=(GuardSpec(kind="mod", var="i", op="!=",
                              rhs=BoundSpec(None, 0), mod=mod, rem=rem),),
            body=(StmtSpec(kind="int_acc"),)),),
        main_calls=(CallSpec("kernel", ()),))
    static, dynamic = run_both(render_program(spec))
    assert static == dynamic


@given(st.integers(min_value=0, max_value=10),
       st.integers(min_value=0, max_value=10))
@settings(max_examples=20, deadline=None)
def test_property_else_branch_exact(n, split):
    src = f"""
int a; int b;
void kernel() {{
  for (int i = 0; i < {n}; i++) {{
    if (i < {split}) {{ a = a + 1; }}
    else {{ b = b + 2; }}
  }}
}}
int main() {{ kernel(); return a + b; }}
"""
    static, dynamic = run_both(src)
    assert static == dynamic


@given(st.integers(min_value=0, max_value=20))
@settings(max_examples=20, deadline=None)
def test_property_call_composition_exact(n):
    spec = ProgramSpec(
        functions=(
            FunctionSpec(
                name="leaf", params=(("m", 0, 20),),
                loops=(LoopSpec("i", BoundSpec(None, 0),
                                BoundSpec("m", 0)),),
                body=(StmtSpec(kind="fp_scalar", op="+"),)),
            FunctionSpec(
                name="kernel",
                loops=(LoopSpec("r", BoundSpec(None, 0),
                                BoundSpec(None, 3)),),
                body=(StmtSpec(kind="call", call=CallSpec("leaf", (n,))),)),
        ),
        main_calls=(CallSpec("kernel", ()),))
    static, dynamic = run_both(render_program(spec))
    assert static == dynamic
    assert static.get("SSE2 packed arithmetic instruction", 0) == 3 * n
