"""Tests for symbolic model diffing (repro.symbolic.diff)."""

import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import AnalysisConfig, AnalysisResult, Pipeline
from repro.symbolic import (Int, Max, Sym, category_exprs, diff_results,
                            expr_to_json)
from repro.symbolic.diff import classify_change
from repro.symbolic.poly import expr_to_poly
from repro.workloads import available, source_path

N = Sym("n")


class TestClassifyChange:
    def test_unchanged(self):
        assert classify_change(N ** 2, N ** 2) == "unchanged"

    def test_leading_coeff_ratio(self):
        # the headline case: 2n^3 + n^2 → 4n^3
        before = Int(2) * N ** 3 + N ** 2
        after = Int(4) * N ** 3
        assert classify_change(before, after) == \
            "degree unchanged, leading coeff ×2"

    def test_fractional_ratio(self):
        assert classify_change(Int(2) * N ** 2, Int(3) * N ** 2) == \
            "degree unchanged, leading coeff ×3/2"

    def test_degree_change(self):
        assert classify_change(N ** 2, N ** 3) == "degree 2 → 3"
        assert classify_change(Int(5) * N ** 3 + N, N) == "degree 3 → 1"

    def test_constant_change(self):
        assert classify_change(Int(5), Int(9)) == "constant change"

    def test_lower_order_change(self):
        before = Int(2) * N ** 3 + N
        after = Int(2) * N ** 3 + Int(5) * N
        assert classify_change(before, after) == \
            "degree 3 and leading terms unchanged; lower-order terms changed"

    def test_multivariate_leading_terms_changed(self):
        m = Sym("m")
        # degree 2 both, but the leading monomial set changes
        assert "leading terms changed" in \
            classify_change(N * m, N ** 2)

    def test_non_polynomial(self):
        assert classify_change(Max((N, Int(1))), N) == \
            "non-polynomial change"


def analyze(src: str, **cfg):
    return Pipeline(AnalysisConfig(**cfg)).run(src, filename="t.c")


SRC_A = """\
int leaf(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }
int mid(int n) {
  int s = 0;
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++)
      s += leaf(n);
  return s;
}
int main() { return mid(50); }
"""

# mid gains a third loop level; gone is replaced by nothing; extra appears
SRC_B = """\
int leaf(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }
int mid(int n) {
  int s = 0;
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++)
      for (int k = 0; k < n; k++)
        s += leaf(n);
  return s;
}
int extra(int n) { int s = 1; for (int i = 0; i < n; i++) s += 2; return s; }
int main() { return mid(50) + extra(3); }
"""


class TestDiffResults:
    def test_self_diff_is_identical(self):
        res = analyze(SRC_A)
        diff = res.diff(res)
        assert diff.identical
        assert diff.to_dict()["identical"]
        assert not diff.changed and not diff.added and not diff.removed
        assert set(diff.unchanged) == {"leaf", "mid", "main"}
        assert "identical" in diff.format()

    def test_added_and_changed_functions(self):
        a, b = analyze(SRC_A), analyze(SRC_B)
        diff = a.diff(b)
        assert not diff.identical
        assert [d.qname for d in diff.added] == ["extra"]
        assert not diff.removed
        changed = {d.qname: d for d in diff.changed}
        assert "mid" in changed
        assert "leaf" in diff.unchanged
        # the new loop level raises mid's inclusive TOTAL degree
        total = {c.category: c for c in changed["mid"].categories}["TOTAL"]
        assert "degree" in total.change and "→" in total.change

    def test_removed_is_symmetric_to_added(self):
        a, b = analyze(SRC_A), analyze(SRC_B)
        diff = b.diff(a)
        assert [d.qname for d in diff.removed] == ["extra"]
        assert not diff.added

    def test_reported_expressions_are_inclusive(self):
        a, b = analyze(SRC_A), analyze(SRC_B)
        diff = a.diff(b)
        mid = next(d for d in diff.changed if d.qname == "mid")
        total = {c.category: c for c in mid.categories}["TOTAL"]
        # mid's inclusive count folds leaf's body through the call site:
        # degree 3 before (n^2 iterations × n-loop leaf), 4 after
        assert "n**3" in str(total.before)
        assert "n**4" in str(total.after)

    def test_to_dict_shape(self):
        a, b = analyze(SRC_A), analyze(SRC_B)
        doc = a.diff(b).to_dict()
        assert doc["kind"] == "ModelDiff"
        assert {"a", "b", "identical", "arch_changed", "added", "removed",
                "changed", "unchanged"} <= set(doc)
        for d in doc["changed"]:
            for c in d["categories"]:
                assert {"category", "before", "after", "change"} == set(c)

    def test_format_mentions_functions_and_classification(self):
        a, b = analyze(SRC_A), analyze(SRC_B)
        text = a.diff(b).format()
        assert "+ extra" in text
        assert "~ mid" in text
        assert "degree" in text

    def test_arch_change_flagged(self):
        from repro.compiler.arch import default_arch

        a = analyze(SRC_A)
        b = analyze(SRC_A, arch=default_arch("frankenstein"))
        diff = a.diff(b)
        assert diff.arch_changed
        assert not diff.identical
        assert "architecture" in diff.format()

    def test_opt_level_difference_shows_up(self):
        a = analyze(SRC_A)
        b = analyze(SRC_A, opt_level=0)
        diff = a.diff(b)
        assert not diff.identical
        assert diff.changed


# leaf <- top <- main; the edit doubles leaf's FP count
CHAIN_A = """\
double leaf(int n) {
  double s = 0;
  for (int i = 0; i < n; i++) s = s + 1.5;
  return s;
}
double top(int m) {
  double s = 0;
  for (int j = 0; j < m; j++) s = s + leaf(m);
  return s;
}
int main() { return top(40); }
"""
CHAIN_B = CHAIN_A.replace("s = s + 1.5;", "s = s + 1.5 + 2.5;")


def fp_expr(result, qname):
    """Inclusive FP_INS of ``qname`` as a polynomial, from category_exprs."""
    cats = category_exprs(result.models, qname)
    return sum((expr_to_poly(cats[c])
                for c in result.arch.fp_arith_categories if c in cats),
               expr_to_poly(Int(0)))


class TestCallerChain:
    def test_callers_change_through_their_callee(self):
        a, b = analyze(CHAIN_A), analyze(CHAIN_B)
        diff = a.diff(b)
        changed = {d.qname: d for d in diff.changed}
        assert list(changed) == ["leaf", "top", "main"]
        assert not diff.unchanged
        assert changed["leaf"].detail == ""
        assert changed["top"].detail == "via leaf"
        assert changed["main"].detail == "via top"
        for q, d in changed.items():
            fp = {c.category: c for c in d.categories}["FP_INS"]
            assert expr_to_poly(fp.before) == fp_expr(a, q), q
            assert expr_to_poly(fp.after) == fp_expr(b, q), q
            if q != "main":
                assert fp.change == "degree unchanged, leading coeff ×2", q
        # main's inclusive FP: top(40) runs leaf(40) 40 times, plus one
        # add of its own per iteration
        fp = {c.category: c for c in changed["main"].categories}["FP_INS"]
        assert (fp.before, fp.after) == (Int(40 * 40 + 40),
                                         Int(2 * 40 * 40 + 40))
        text = diff.format()
        assert "~ main\n    via top" in text
        assert "3 changed, 0 added, 0 removed, 0 unchanged" in text

    def test_a_second_diff_of_the_same_results_agrees(self):
        # the per-result memo serves the second diff
        a, b = analyze(CHAIN_A), analyze(CHAIN_B)
        assert a.diff(b).to_dict() == a.diff(b).to_dict()
        # and the reverse diff mirrors the forward one
        back = {d.qname: d for d in b.diff(a).changed}
        assert back["main"].detail == "via top"
        fwd = {c.category: c for c in
               next(d for d in a.diff(b).changed
                    if d.qname == "main").categories}
        for c in back["main"].categories:
            assert (c.before, c.after) == (fwd[c.category].after,
                                           fwd[c.category].before)

    def test_an_own_change_is_not_reported_as_via(self):
        a, b = analyze(SRC_A), analyze(SRC_B)
        diff = a.diff(b)
        changed = {d.qname: d for d in diff.changed}
        assert set(changed) == {"mid", "main"}
        # main now also calls extra: its own model changed
        assert changed["main"].detail == ""
        # the callee of a changed function is not named
        assert diff.unchanged == ["leaf"]

    @pytest.mark.parametrize("field,extra", [
        ("warnings", "an extra warning"),
        ("assumptions", expr_to_json(Sym("n") - 1)),
    ])
    def test_metadata_only_change(self, field, extra):
        a = analyze(CHAIN_A)
        doc = a.to_dict()
        doc["functions"]["leaf"].setdefault(field, []).append(extra)
        b = AnalysisResult.from_dict(doc)
        diff = a.diff(b)
        assert [d.qname for d in diff.changed] == ["leaf"]
        leaf = diff.changed[0]
        assert leaf.detail == "metadata-only change (warnings/terms layout)"
        assert leaf.categories == []
        # the callers' inclusive counts did not move
        assert diff.unchanged == ["top", "main"]

    def test_call_sites_bind_the_callee_separately(self):
        src = CHAIN_A.replace("int main() { return top(40); }",
                              "int main() { return leaf(10) + leaf(20); }")
        res = analyze(src)
        # one FP add per leaf iteration, 10 + 20, and main's own add
        assert fp_expr(res, "main") == expr_to_poly(Int(10 + 20 + 1))


class TestConcurrentDiffs:
    def test_threads_sharing_a_result_agree(self):
        # A served diff runs on a server thread; every thread diffing a
        # must see only finished entries of a's inclusive-count memo.
        expected = analyze(CHAIN_A).diff(analyze(CHAIN_B)).to_dict()
        a_json = analyze(CHAIN_A).to_json()
        bs = [analyze(CHAIN_B) for _ in range(8)]
        docs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(20):
                    a = AnalysisResult.from_json(a_json)    # a cold memo
                    docs += pool.map(lambda b: a.diff(b).to_dict(), bs,
                                     timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert len(docs) == 20 * len(bs)
        assert all(doc == expected for doc in docs)


def triangular_nest(depth: int, n: int) -> str:
    """``main`` calling a depth-``depth`` triangular loop nest ``work(n)``
    (each loop runs to the index of the one around it)."""
    loops = "\n".join(
        "  " * (d + 1) + f"for (int i{d + 1} = 0; i{d + 1} < "
        f"{'n' if d == 0 else f'i{d}'}; i{d + 1}++)" for d in range(depth))
    terms = " + ".join(f"i{d + 1}" for d in range(depth))
    return (f"int work(int n)\n{{\n  int s = 0;\n{loops}\n"
            f"{'  ' * (depth + 1)}s = s + ({terms}) * 3;\n  return s;\n}}\n"
            f"int main()\n{{\n  return work({n});\n}}\n")


class TestDeepNest:
    def test_editing_main_over_a_deep_nest_is_fast(self):
        src = triangular_nest(10, 17)
        a = analyze(src)
        b = analyze(src.replace("  return work(17);",
                                "  int z = 1;\n  return work(17);"))
        t0 = time.perf_counter()
        diff = a.diff(b)
        elapsed = time.perf_counter() - t0
        assert [d.qname for d in diff.changed] == ["main"]
        assert diff.unchanged == ["work"]
        # folding work(17) into main used to take tens of seconds (every
        # inner sum recomputed for every outer index)
        assert elapsed < 1.0, elapsed


class TestCorpusSelfDiff:
    @pytest.mark.parametrize("name", available())
    def test_self_diff_empty_for_corpus(self, name):
        res = Pipeline(AnalysisConfig()).run_file(source_path(name))
        diff = res.diff(res)
        assert diff.identical, name
        assert set(diff.unchanged) == set(res.models)

    @pytest.mark.parametrize("name", available())
    def test_live_vs_restored_diff_empty_for_corpus(self, name):
        # A restored model has no AST, so the equality rule must compare
        # only what the wire format carries.
        res = Pipeline(AnalysisConfig()).run_file(source_path(name))
        diff = res.diff(AnalysisResult.from_json(res.to_json()))
        assert diff.identical, name
        assert set(diff.unchanged) == set(res.models)
