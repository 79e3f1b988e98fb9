"""Unit tests for the C/C++ subset parser."""

import pytest

from repro.errors import ParseError
from repro.frontend import ast_nodes as A
from repro.frontend import parse_source, preprocess, tokenize, unparse
from repro.frontend.parser import Parser
from repro.workloads import available, get_source


def parse_stmt(body: str):
    tu = parse_source(f"void f() {{ {body} }}")
    return tu.functions[0].body.stmts


def parse_expr(text: str):
    stmts = parse_stmt(f"{text};")
    assert isinstance(stmts[0], A.ExprStmt)
    return stmts[0].expr


class TestExpressions:
    def test_precedence_mul_over_add(self):
        e = parse_expr("a + b * c")
        assert isinstance(e, A.BinOp) and e.op == "+"
        assert isinstance(e.rhs, A.BinOp) and e.rhs.op == "*"

    def test_parens_override(self):
        e = parse_expr("(a + b) * c")
        assert e.op == "*" and e.lhs.op == "+"

    def test_relational_vs_shift(self):
        e = parse_expr("a << 2 < b")
        assert e.op == "<" and e.lhs.op == "<<"

    def test_logical_chain(self):
        e = parse_expr("a && b || c")
        assert e.op == "||" and e.lhs.op == "&&"

    def test_assignment_right_assoc(self):
        e = parse_expr("a = b = c")
        assert isinstance(e, A.Assign) and isinstance(e.value, A.Assign)

    def test_compound_assign(self):
        e = parse_expr("x += y * 2")
        assert isinstance(e, A.Assign) and e.op == "+="

    def test_ternary(self):
        e = parse_expr("a ? b : c")
        assert isinstance(e, A.Ternary)

    def test_unary_minus_binds_tight(self):
        e = parse_expr("-a * b")
        assert e.op == "*" and isinstance(e.lhs, A.UnOp)

    def test_prefix_postfix_incr(self):
        pre = parse_expr("++i")
        post = parse_expr("i++")
        assert isinstance(pre, A.UnOp) and pre.prefix
        assert isinstance(post, A.UnOp) and not post.prefix

    def test_call_args(self):
        e = parse_expr("foo(1, x + 2, bar(3))")
        assert isinstance(e, A.Call) and len(e.args) == 3
        assert isinstance(e.args[2], A.Call)

    def test_member_and_arrow(self):
        e = parse_expr("a.b")
        assert isinstance(e, A.Member) and not e.arrow
        e2 = parse_expr("p->q")
        assert isinstance(e2, A.Member) and e2.arrow

    def test_method_call(self):
        e = parse_expr("obj.run(3)")
        assert isinstance(e, A.Call) and isinstance(e.callee, A.Member)

    def test_index_chain(self):
        e = parse_expr("m[i][j]")
        assert isinstance(e, A.Index) and isinstance(e.base, A.Index)

    def test_cast(self):
        e = parse_expr("(double)n")
        assert isinstance(e, A.Cast) and e.type.name == "double"

    def test_cast_vs_parenthesized_expr(self):
        e = parse_expr("(n) + 1")
        assert isinstance(e, A.BinOp)

    def test_sizeof_type(self):
        e = parse_expr("sizeof(double)")
        assert isinstance(e, A.SizeOf)

    def test_address_and_deref(self):
        e = parse_expr("*p + &x")
        assert isinstance(e.lhs, A.UnOp) and e.lhs.op == "*"
        assert isinstance(e.rhs, A.UnOp) and e.rhs.op == "&"

    def test_hex_literal(self):
        e = parse_expr("0xFF")
        assert isinstance(e, A.IntLit) and e.value == 255

    def test_float_literal(self):
        e = parse_expr("2.5e2")
        assert isinstance(e, A.FloatLit) and e.value == 250.0

    def test_string_literal(self):
        e = parse_expr('printf("hi\\n")')
        assert isinstance(e.args[0], A.StringLit) and e.args[0].value == "hi\n"

    def test_bool_literals(self):
        assert parse_expr("true").value == 1
        assert parse_expr("false").value == 0

    def test_too_deep_nesting_is_a_parse_error(self):
        deep = "(" * 3000 + "x" + ")" * 3000
        with pytest.raises(ParseError, match="nesting too deep"):
            parse_source(f"int f(int x) {{ return {deep}; }}")
        # the parser is still usable afterwards
        assert isinstance(parse_expr("((x))"), A.Ident)


class TestStatements:
    def test_decl_with_init(self):
        (st,) = parse_stmt("int i = 0;")
        assert isinstance(st, A.DeclStmt)
        assert st.decls[0].name == "i" and st.decls[0].init.value == 0

    def test_decl_multiple(self):
        (st,) = parse_stmt("double a = 1.0, b, c = 2.0;")
        assert [d.name for d in st.decls] == ["a", "b", "c"]

    def test_array_decl(self):
        (st,) = parse_stmt("double a[10][20];")
        assert len(st.decls[0].array_dims) == 2

    def test_pointer_decl(self):
        (st,) = parse_stmt("double *p;")
        assert st.decls[0].type.pointer == 1

    def test_if_else(self):
        (st,) = parse_stmt("if (x > 0) y = 1; else y = 2;")
        assert isinstance(st, A.IfStmt) and st.els is not None

    def test_dangling_else(self):
        (st,) = parse_stmt("if (a) if (b) x = 1; else x = 2;")
        assert st.els is None and st.then.els is not None

    def test_for_canonical(self):
        (st,) = parse_stmt("for (int i = 0; i < 10; i++) x += i;")
        assert isinstance(st, A.ForStmt)
        assert isinstance(st.init, A.DeclStmt)
        assert isinstance(st.cond, A.BinOp)
        assert isinstance(st.incr, A.UnOp)

    def test_for_empty_clauses(self):
        (st,) = parse_stmt("for (;;) break;")
        assert st.init is None and st.cond is None and st.incr is None

    def test_for_expr_init(self):
        (st,) = parse_stmt("for (i = 0; i < n; i += 2) ;")
        assert isinstance(st.init, A.ExprStmt)

    def test_while(self):
        (st,) = parse_stmt("while (n > 0) n--;")
        assert isinstance(st, A.WhileStmt)

    def test_do_while(self):
        (st,) = parse_stmt("do { n--; } while (n > 0);")
        assert isinstance(st, A.DoWhileStmt)

    def test_return_void_and_value(self):
        (a, ) = parse_stmt("return;")
        assert isinstance(a, A.ReturnStmt) and a.expr is None
        (b, ) = parse_stmt("return x + 1;")
        assert b.expr is not None

    def test_break_continue(self):
        sts = parse_stmt("while (1) { break; continue; }")
        inner = sts[0].body.stmts
        assert isinstance(inner[0], A.BreakStmt)
        assert isinstance(inner[1], A.ContinueStmt)

    def test_nested_blocks(self):
        (st,) = parse_stmt("{ { int x; } }")
        assert isinstance(st, A.CompoundStmt)

    def test_missing_semicolon_raises(self):
        with pytest.raises(ParseError):
            parse_stmt("x = 1")

    def test_line_numbers(self):
        tu = parse_source("void f() {\n  int x;\n  x = 1;\n}")
        stmts = tu.functions[0].body.stmts
        assert stmts[0].line == 2 and stmts[1].line == 3


class TestDeclarations:
    def test_function_params(self):
        tu = parse_source("int add(int a, int b) { return a + b; }")
        fn = tu.functions[0]
        assert [p.name for p in fn.params] == ["a", "b"]
        assert fn.return_type.name == "int"

    def test_array_param_decays(self):
        tu = parse_source("void f(double a[], int n) { }")
        assert tu.functions[0].params[0].type.pointer == 1

    def test_void_param_list(self):
        tu = parse_source("int f(void) { return 0; }")
        assert tu.functions[0].params == []

    def test_global_array(self):
        tu = parse_source("double data[100];")
        assert tu.globals[0].decls[0].name == "data"

    def test_prototype_recorded(self):
        tu = parse_source("double mysecond();")
        assert tu.functions[0].info.get("prototype_only")

    def test_class_with_method(self):
        tu = parse_source(
            "class A { public: double d; void foo(double *a) { d = a[0]; } };"
        )
        cls = tu.classes[0]
        assert cls.name == "A"
        assert cls.fields[0].name == "d"
        assert cls.methods[0].qualified_name == "A::foo"

    def test_struct_operator_call(self):
        tu = parse_source(
            "struct F { int n; void operator()(int x) { n = x; } };"
        )
        m = tu.classes[0].methods[0]
        assert m.name == "operator()"
        assert m.qualified_name == "F::operator()"

    def test_out_of_line_member(self):
        tu = parse_source(
            "class A { public: int x; };\nint A::get() { return x; }"
        )
        fn = tu.find_function("get", "A")
        assert fn is not None and fn.class_name == "A"

    def test_class_type_declaration(self):
        tu = parse_source(
            "class A { public: int x; };\nint main() { A inst; inst.x = 1; return 0; }"
        )
        st = tu.functions[0].body.stmts[0]
        assert st.decls[0].type.name == "A"

    def test_unsigned_long(self):
        tu = parse_source("unsigned long v;")
        d = tu.globals[0].decls[0]
        assert d.type.unsigned

    def test_find_function_free_vs_member(self):
        tu = parse_source(
            "class A { public: void go() { } };\nvoid go() { }"
        )
        assert tu.find_function("go").class_name is None
        assert tu.find_function("go", "A").class_name == "A"

    def test_all_functions_includes_methods(self):
        tu = parse_source(
            "class A { public: void m() { } };\nvoid f() { }"
        )
        names = {f.qualified_name for f in tu.all_functions()}
        assert names == {"A::m", "f"}


class TestAnnotations:
    def test_annotation_attaches_to_next_statement(self):
        tu = parse_source(
            "void f() {\n#pragma @Annotation {skip:yes}\n  x = 1;\n}"
        )
        st = tu.functions[0].body.stmts[0]
        assert st.annotations and st.annotations[0].skip

    def test_annotation_with_variables(self):
        tu = parse_source(
            "void f() {\n#pragma @Annotation {lp_init:x, lp_cond:y}\n"
            "  for (i = 0; i < n; i++) ;\n}"
        )
        ann = tu.functions[0].body.stmts[0].annotations[0]
        assert ann.lp_init == "x" and ann.lp_cond == "y"

    def test_annotation_ratio(self):
        tu = parse_source(
            "void f() {\n#pragma @Annotation {ratio:0.25}\n  if (x) y = 1;\n}"
        )
        assert tu.functions[0].body.stmts[0].annotations[0].ratio == 0.25


class TestUnparse:
    def test_roundtrip_parses_again(self):
        src = """
        class A { public: double d; void foo(double *a, int n) {
            for (int i = 0; i < n; i++) { a[i] = a[i] * d + 1.0; }
        } };
        double g[100];
        int main() { A x; x.d = 2.0; x.foo(g, 100); return 0; }
        """
        tu = parse_source(src)
        text = unparse(tu)
        tu2 = parse_source(text)
        assert unparse(tu2) == text


def _walk_recursive(node):
    """The definition ``A.walk`` must match: pre-order, children in
    ``children()`` order."""
    yield node
    for c in node.children():
        yield from _walk_recursive(c)


class TestWalkAndSpans:
    @pytest.mark.parametrize("name", available())
    def test_walk_is_the_recursive_pre_order(self, name):
        tu = parse_source(get_source(name))
        assert [id(n) for n in A.walk(tu)] == \
            [id(n) for n in _walk_recursive(tu)]

    @pytest.mark.parametrize("name", available())
    def test_function_spans_relex_to_the_same_tokens(self, name):
        text = preprocess(get_source(name))
        toks = tokenize(text)
        parser = Parser(toks)
        tu = parser.parse_translation_unit()
        assert len(parser.function_spans) == len(tu.functions)
        starts = [0]
        for line in text.split("\n"):
            starts.append(starts[-1] + len(line) + 1)
        for (first, last, classes), fn in zip(parser.function_spans,
                                              tu.functions):
            assert classes == {c.name for c in tu.classes
                               if c.line < fn.line}
            a = toks.index(first)
            b = toks.index(last, a)
            start = starts[first.line - 1] + first.col - 1
            end = starts[last.line - 1] + last.col - 1 + len(last.text)
            sub = tokenize(text, start, end)
            assert sub[:-1] == toks[a:b + 1]
            assert sub[-1].kind == "eof"
            reparsed = Parser(sub)
            reparsed.class_names = set(classes)
            again = reparsed.parse_top_level_decl()
            assert reparsed.cur.kind == "eof"
            assert unparse(again) == unparse(fn)
