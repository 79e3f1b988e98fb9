"""The incremental front end: splicing one re-parsed function.

An :class:`IncrementalAnalyzer` keeps each file's previous TU; when an
edit lies inside one function definition it re-parses only that function
and splices it in.  The full parse is the oracle: a spliced TU must equal
a full parse after constant folding (compiling folds the kept TU in
place), its units must equal :func:`build_units` on a fresh full parse,
and its result must equal a cold :class:`Pipeline` run.  Every edit the
splice rule does not cover must take the full parse — visible in the
``parse`` stage's end event, whose ``function`` names the re-parsed
function and is None after a full parse.
"""

import random

import pytest

from repro.compiler.optimizer import fold_constants
from repro.core import AnalysisConfig, IncrementalAnalyzer, Pipeline
from repro.core.pipeline import (STAGE_RUN_COUNTS, inject_symbolic_params,
                                 reset_stage_counters)
from repro.core.units import build_units
from repro.errors import ParseError
from repro.frontend import ast_nodes as A
from repro.frontend import parse_source, preprocess
from repro.workloads import source_path

SPLICE_PROGRAMS = ("listings", "minife", "stream", "mgrid")


def strip_timings(result) -> dict:
    doc = result.to_dict()
    doc.pop("stage_timings", None)
    return doc


def dump(node):
    """A node as nested tuples: type, position, every slot (children
    dumped), and the parser's own ``info`` mark."""
    if isinstance(node, list):
        return [dump(x) for x in node]
    if not isinstance(node, A.Node):
        return node
    slots = [s for cls in type(node).__mro__
             for s in getattr(cls, "__slots__", ()) if s != "info"]
    return (type(node).__name__,
            node.info.get("prototype_only", False),
            tuple((s, dump(getattr(node, s))) for s in slots))


class Watch:
    """An analyzer over one file that records each parse's end event."""

    def __init__(self, tmp_path, filename="t.c", **config):
        self.analyzer = IncrementalAnalyzer(
            AnalysisConfig(cache_dir=str(tmp_path / "cache"), **config))
        self.filename = filename
        self.reparsed = []
        self.analyzer.add_observer(
            lambda e: self.reparsed.append(e.function)
            if e.stage == "parse" and e.phase == "end" else None)

    def analyze(self, source, predefined=None):
        return self.analyzer.analyze(source, filename=self.filename,
                                     predefined=predefined)

    @property
    def last(self):
        """The function the last analyze spliced in; None: full parse."""
        return self.reparsed[-1]

    @property
    def front(self):
        return self.analyzer.pipeline.fronts[self.filename]

    def check_against_full_parse(self, source, predefined=None):
        """The kept TU and units equal a full parse's; the result equals a
        cold Pipeline run."""
        config = self.analyzer.config
        merged = config.merged_predefines(predefined)
        full = parse_source(source, filename=self.filename,
                            predefined=merged)
        inject_symbolic_params(full, config.symbolic_params)
        units = build_units(full, config, merged)
        key = {q: (u.fingerprint, u.slice_hash, u.callees, u.context_hash)
               for q, u in units.items()}
        assert {q: (u.fingerprint, u.slice_hash, u.callees, u.context_hash)
                for q, u in self.front.units.items()} == key
        fold_constants(full)
        fold_constants(self.front.tu)
        assert dump(self.front.tu) == dump(full)


def _line_col_edit(source, line, col, text):
    lines = source.split("\n")
    lines[line - 1] = lines[line - 1][:col - 1] + text \
        + lines[line - 1][col - 1:]
    return "\n".join(lines)


def _same_prefix(source, line, col) -> bool:
    """Whether raw and preprocessed text agree up to (line, col): only
    then is a parsed column a position in the raw source."""
    raw = source.split("\n")[line - 1]
    pre = preprocess(source).split("\n")[line - 1]
    return raw[:col - 1] == pre[:col - 1]


def function_edits(source, fn):
    """Three same-line-count edits inside ``fn``: a declaration at the
    body start, one before its middle statement, and indentation before
    its first statement (shifting the columns of that line)."""
    body = fn.body
    edits = {"body-start": _line_col_edit(source, body.line, body.col + 1,
                                          " int splice_head = 1;")}
    stmts = [s for s in body.stmts
             if _same_prefix(source, s.line, s.col)]
    if stmts:
        mid = stmts[len(stmts) // 2]
        edits["middle"] = _line_col_edit(source, mid.line, mid.col,
                                         "int splice_mid = 2; ")
        first = stmts[0]
        edits["column-shift"] = _line_col_edit(source, first.line,
                                               first.col, "   ")
    return edits


def free_functions(name):
    source = open(source_path(name), encoding="utf-8").read()
    tu = parse_source(source)
    return source, [f for f in tu.functions
                    if not f.info.get("prototype_only")
                    and f.class_name is None]


@pytest.mark.parametrize("name", SPLICE_PROGRAMS)
def test_every_free_function_edit_is_spliced(name, tmp_path):
    source, functions = free_functions(name)
    assert functions
    watch = Watch(tmp_path, filename=f"{name}.c")
    watch.analyze(source)
    assert watch.last is None
    cold_pipeline = Pipeline(watch.analyzer.config)
    for fn in functions:
        edits = function_edits(source, fn)
        assert set(edits) == {"body-start", "middle", "column-shift"}, \
            fn.name
        for kind, edited in edits.items():
            result = watch.analyze(edited)
            assert watch.last == fn.qualified_name, (fn.name, kind)
            watch.check_against_full_parse(edited)
            cold = cold_pipeline.run(edited, filename=f"{name}.c")
            assert strip_timings(result) == strip_timings(cold), \
                (fn.name, kind)
            # Undoing the edit is a splice too, and restores every model.
            back = watch.analyze(source)
            assert watch.last == fn.qualified_name
            assert set(back.restored_functions) == set(back.models)


SRC = """\
struct P { int x; };
int g = 3;
int f0(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }
int f1(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) s += f0(n);
  return s;
}
int main() { return f1(10) + g; }
"""


def test_splice_counts_and_times_parse(tmp_path):
    watch = Watch(tmp_path)
    watch.analyze(SRC)
    reset_stage_counters()
    result = watch.analyze(SRC.replace("s += i;", "s += 2 * i;"))
    assert watch.last == "f0"
    assert STAGE_RUN_COUNTS["parse"] == 1
    assert result.stage_timings["parse"] > 0
    assert sorted(result.fresh_functions()) == ["f0", "f1", "main"]


def test_comment_edit_inside_a_function_restores_everything(tmp_path):
    watch = Watch(tmp_path)
    watch.analyze(SRC)
    result = watch.analyze(SRC.replace("int s = 0;\n",
                                       "int s = 0; /* note */\n"))
    assert watch.last == "f1"
    assert result.fresh_functions() == []
    watch.check_against_full_parse(SRC.replace("int s = 0;\n",
                                               "int s = 0; /* note */\n"))


def test_macro_used_in_one_function_is_spliced(tmp_path):
    src = "#define K 4\n" + SRC.replace("s += i;", "s += K * i;")
    watch = Watch(tmp_path)
    watch.analyze(src)
    edited = src.replace("#define K 4", "#define K 5")
    result = watch.analyze(edited)
    assert watch.last == "f0"
    watch.check_against_full_parse(edited)
    cold = Pipeline(watch.analyzer.config).run(edited, filename="t.c")
    assert strip_timings(result) == strip_timings(cold)


#: Edits of SRC the splice rule does not cover, each with why.
FULL_PARSE_EDITS = {
    "class": ("struct P { int x; };", "struct P { int x; int y; };"),
    "global": ("int g = 3;", "int g = 4;"),
    "across-definitions": ("return s; }\nint f1(int n) {",
                           "return s + 0; }\nint f1(int n) { "),
    "line-count": ("  return s;\n}", "  s += 1;\n  return s;\n}"),
    "rename": ("int main() {", "int start() {"),
    "arity": ("int main() {", "int main(int c) {"),
    "outside-definitions": ("\nint main()", "\n int main()"),
    "second-definition": ("return f1(10) + g; }",
                          "return f1(10) + g; } int h() { return 1; }"),
    "split-definition": ("s += f0(n);",
                         "s += f0(n); return s; } int h(int n) { int s = 0;"),
    "two-functions": ("s += i;", "s += i + 1;", "s += f0(n);",
                      "s += f0(n + 1);"),
}


@pytest.mark.parametrize("case", sorted(FULL_PARSE_EDITS))
def test_full_parse_fallback(case, tmp_path):
    pairs = FULL_PARSE_EDITS[case]
    edited = SRC
    for old, new in zip(pairs[::2], pairs[1::2]):
        assert edited.count(old) == 1, old
        edited = edited.replace(old, new)
    watch = Watch(tmp_path)
    watch.analyze(SRC)
    result = watch.analyze(edited)
    assert watch.last is None
    watch.check_against_full_parse(edited)
    cold = Pipeline(watch.analyzer.config).run(edited, filename="t.c")
    assert strip_timings(result) == strip_timings(cold)


def test_token_after_the_definition_on_the_edited_line(tmp_path):
    src = "int f(int n) { return n; } int g(int n) { return 2 * n; }\n" \
          "int main() { return f(1) + g(2); }\n"
    watch = Watch(tmp_path)
    watch.analyze(src)
    edited = src.replace("return n;", "return n + 1;")
    watch.analyze(edited)
    assert watch.last is None
    watch.check_against_full_parse(edited)
    # An edit of the definition that ends the line is spliced.
    again = edited.replace("return 2 * n;", "return 3 * n;")
    watch.analyze(again)
    assert watch.last == "g"
    watch.check_against_full_parse(again)


def test_first_analyze_and_changed_predefines_parse_fully(tmp_path):
    src = "#ifndef N\n#define N 8\n#endif\n" \
          "int f(int n) { int s = 0; for (int i = 0; i < N; i++) s += n; " \
          "return s; }\nint main() { return f(2); }\n"
    watch = Watch(tmp_path)
    watch.analyze(src)
    assert watch.last is None
    watch.analyze(src.replace("s += n;", "s += 2 * n;"),
                  predefined={"N": "16"})
    assert watch.last is None
    watch.check_against_full_parse(src.replace("s += n;", "s += 2 * n;"),
                                   predefined={"N": "16"})
    watch.analyze(src, predefined={"N": "16"})
    assert watch.last == "f"


def test_parse_error_comes_from_the_full_parse(tmp_path):
    broken = SRC.replace("s += i;", "s += i +;")
    with pytest.raises(ParseError) as cold:
        Pipeline(AnalysisConfig(use_cache=False)).run(broken,
                                                      filename="t.c")
    watch = Watch(tmp_path)
    watch.analyze(SRC)
    with pytest.raises(ParseError) as warm:
        watch.analyze(broken)
    assert str(warm.value) == str(cold.value)
    assert (warm.value.line, warm.value.col) == \
        (cold.value.line, cold.value.col)
    # The failed analyze kept the last good front: the fix is spliced.
    fixed = SRC.replace("s += i;", "s += i + 1;")
    result = watch.analyze(fixed)
    assert watch.last == "f0"
    watch.check_against_full_parse(fixed)
    cold_fixed = Pipeline(watch.analyzer.config).run(fixed, filename="t.c")
    assert strip_timings(result) == strip_timings(cold_fixed)


def test_recursive_call_graph_keeps_no_units(tmp_path):
    from repro.errors import ModelError

    watch = Watch(tmp_path)
    watch.analyze(SRC)
    rec = SRC.replace("s += i;", "s += f0(i - 1);")
    with pytest.raises(ModelError):
        watch.analyze(rec)
    assert watch.last == "f0"
    # The spliced TU was compiled by the error path without units, so the
    # next edit may not splice into it.
    watch.analyze(SRC)
    assert watch.last is None
    watch.check_against_full_parse(SRC)


def test_results_of_earlier_analyses_keep_their_tu(tmp_path):
    watch = Watch(tmp_path, use_cache=False)
    first = watch.analyze(SRC)
    before = dump(first.processed.tu)
    watch.analyze(SRC.replace("s += i;", "s += 2 * i;"))
    assert watch.last == "f0"
    assert dump(first.processed.tu) == before


def test_out_of_line_member_definition_is_spliced(tmp_path):
    src = ("class Acc { public: int n; int add(int k); };\n"
           "int Acc::add(int k) {\n"
           "  int s = 0;\n"
           "  for (int i = 0; i < k; i++) s += i;\n"
           "  return s;\n"
           "}\n"
           "int main() { Acc a; return a.add(5); }\n")
    watch = Watch(tmp_path)
    watch.analyze(src)
    edited = src.replace("s += i;", "s += 2 * i;")
    result = watch.analyze(edited)
    assert watch.last == "Acc::add"
    watch.check_against_full_parse(edited)
    cold = Pipeline(watch.analyzer.config).run(edited, filename="t.c")
    assert strip_timings(result) == strip_timings(cold)


def test_symbolic_params_survive_the_splice(tmp_path):
    src = ("double a[N];\n"
           "void fill(double x) {\n"
           "  for (int i = 0; i < N; i++) a[i] = x;\n"
           "}\n"
           "int main() { fill(1.0); return 0; }\n")
    watch = Watch(tmp_path, symbolic_params=("N", "M"),
                  predefined=(("N", "N"),))
    watch.analyze(src)
    edited = src.replace("a[i] = x;", "a[i] = x + 1.0;")
    result = watch.analyze(edited)
    assert watch.last == "fill"
    watch.check_against_full_parse(edited)
    cold = Pipeline(watch.analyzer.config).run(edited, filename="t.c")
    assert strip_timings(result) == strip_timings(cold)
    assert "N" in result.parameters("fill")


#: Fragments that open or close literals, comments, blocks and functions.
EDIT_FRAGMENTS = ('"', "'", "\\", "/", "*", "#", ".", "0x", "e", "+", "-",
                  " ", "\t", "{", "}", ";", "(", ")", ",", "//", "/*", "*/",
                  "int x = 1;", "return 0;", "} int q() {")


def _outcome(run):
    try:
        return "ok", strip_timings(run())
    except Exception as exc:    # the error is part of the outcome
        return "error", type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", ["dgemm", "stream", "minife", "listings"])
def test_random_same_line_count_edits_match_a_cold_run(name, tmp_path):
    """Byte splices anywhere in the file, spliced or not, give what a cold
    run gives: the same result or the same error."""
    base = open(source_path(name), encoding="utf-8").read()
    watch = Watch(tmp_path, filename=f"{name}.c")
    watch.analyze(base)
    cold_pipeline = Pipeline(AnalysisConfig(use_cache=False))
    rng = random.Random(name)
    spliced = 0
    for _ in range(25):
        at = rng.randrange(len(base))
        cut = rng.randrange(4)
        if "\n" in base[at:at + cut]:
            cut = 0
        edited = base[:at] + rng.choice(EDIT_FRAGMENTS) + base[at + cut:]
        count = len(watch.reparsed)
        warm = _outcome(lambda: watch.analyze(edited))
        spliced += len(watch.reparsed) > count and watch.last is not None
        assert warm == _outcome(
            lambda: cold_pipeline.run(edited, filename=f"{name}.c")), \
            (at, edited[at - 20:at + 20])
        watch.analyze(base)
    assert spliced
