"""Figure 5: the statically generated Python model.

The paper shows the model generated for a class member function with an
annotated inner loop: ``A_foo_2(y)`` keyed by class + name + arity, metric
dictionaries updated per statement, ``handle_function_call`` combining the
callee into ``main``, and the call-site parameter ``y_16`` named after the
source line.  This bench regenerates that artifact and validates each
property, timing full model generation (parse -> compile -> disassemble ->
bridge -> model).
"""

import re

from _common import analyze_workload, rows_to_text, save_table


def test_fig5_generated_model(benchmark):
    model = benchmark(lambda: analyze_workload("fig5"))
    src = model.python_source()
    save_table("fig5_generated_model", src)

    # paper naming convention: class + function + original arg count
    assert "def A_foo_2(y):" in src
    # main's model: parametric call-site binding named after the line
    m = re.search(r"def main_0\((y_\d+)\):", src)
    assert m, "main model should take the bubbled call-site parameter"
    ysite = m.group(1)
    assert f"A_foo_2({ysite})" in src
    assert "handle_function_call(metrics, _callee_0, 1)" in src

    # the model is executable and parametric in y
    ns = model.compiled_module()
    foo = ns["MODEL_FUNCTIONS"]["A::foo"]
    fp_small = foo(y=9).fp_instructions(ns["MIRA_FP_CATEGORIES"])
    fp_big = foo(y=99).fp_instructions(ns["MIRA_FP_CATEGORIES"])
    # 2 FP per inner iteration × 16 outer × (y+1) inner
    assert fp_small == 2 * 16 * 10
    assert fp_big == 2 * 16 * 100

    # codegen path equals direct symbolic evaluation
    direct = model.evaluate("A::foo", {"y": 99}).as_dict()
    assert foo(y=99).as_dict() == direct


def test_fig5_listing6_annotations(benchmark):
    """Listing 6: lp_init/lp_cond variables complete the polyhedral model;
    skip:yes removes a scope entirely."""
    model = benchmark(lambda: analyze_workload("listings"))
    params = model.parameters("listing6")
    assert "x" in params and "y" in params
    # inner trip = y - x + 1 per outer iteration (4 outer iterations);
    # the annotated-skip if contributes nothing
    m = model.evaluate("listing6", {"x": 2, "y": 11})
    d = m.as_dict()
    rows = [[k, v] for k, v in d.items()]
    save_table("fig5_listing6", rows_to_text(
        "Listing 6 with annotations (x=2, y=11)", ["Category", "Count"], rows))
    # acc=acc+2 executes 4 * 10 times: at least 40 integer adds in the body
    assert d["Integer arithmetic instruction"] >= 40


if __name__ == "__main__":
    import sys

    import pytest

    raise SystemExit(pytest.main([__file__, "-q", "--benchmark-disable"]
                                 + sys.argv[1:]))
