"""Unit tests for the lexer and preprocessor."""

import random
import re

import pytest

import reference_lexer
from repro.core import AnalysisConfig, Pipeline
from repro.errors import LexError, MiraError, ParseError
from repro.frontend import parse_source, preprocess, tokenize
from repro.frontend import preprocessor
from repro.fuzz.generator import generate_program
from repro.workloads import available, get_source


class TestLexer:
    def test_empty(self):
        toks = tokenize("")
        assert len(toks) == 1 and toks[0].kind == "eof"

    def test_identifiers_and_keywords(self):
        toks = tokenize("int foo_bar2")
        assert toks[0].kind == "kw" and toks[0].text == "int"
        assert toks[1].kind == "id" and toks[1].text == "foo_bar2"

    def test_integer_literals(self):
        toks = tokenize("42 0x1F 100L 7u")
        assert [t.text for t in toks[:-1]] == ["42", "0x1F", "100L", "7u"]
        assert all(t.kind == "int" for t in toks[:-1])

    def test_float_literals(self):
        toks = tokenize("1.5 2.0e3 1e-2 3.f .5")
        assert all(t.kind == "float" for t in toks[:-1])

    def test_int_vs_float_disambiguation(self):
        toks = tokenize("3 3.0")
        assert toks[0].kind == "int" and toks[1].kind == "float"

    def test_char_literal(self):
        toks = tokenize(r"'a' '\n'")
        assert toks[0].kind == "char" and toks[1].kind == "char"

    def test_string_literal(self):
        toks = tokenize('"hello \\"world\\""')
        assert toks[0].kind == "string"

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_line_col_tracking(self):
        toks = tokenize("a\n  b\n    c")
        assert (toks[0].line, toks[0].col) == (1, 1)
        assert (toks[1].line, toks[1].col) == (2, 3)
        assert (toks[2].line, toks[2].col) == (3, 5)

    def test_comments_skipped(self):
        toks = tokenize("a // comment\nb /* multi\nline */ c")
        assert [t.text for t in toks[:-1]] == ["a", "b", "c"]

    def test_comment_preserves_line_numbers(self):
        toks = tokenize("/* one\ntwo\nthree */ x")
        assert toks[0].line == 3

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_multichar_punctuators_greedy(self):
        toks = tokenize("a<<=b>>c<=d->e++f")
        texts = [t.text for t in toks[:-1]]
        assert "<<=" in texts and ">>" in texts and "<=" in texts
        assert "->" in texts and "++" in texts

    def test_pragma_token(self):
        toks = tokenize("#pragma @Annotation {skip:yes}\nint x;")
        assert toks[0].kind == "pragma"
        assert "@Annotation" in toks[0].text

    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("int @x;")

    def test_unexpected_directive_rejected(self):
        with pytest.raises(LexError):
            tokenize("#define X 1\nint x;")


class TestLexerTotality:
    """Inputs that used to escape the frontend as raw Python exceptions."""

    @pytest.mark.parametrize("source, message", [
        ('char *s = "a\\', "unterminated string literal"),
        ('char *s = "a\\\n";', "newline in string literal"),
    ])
    def test_string_cut_after_backslash(self, source, message):
        with pytest.raises(LexError, match=message) as exc:
            tokenize(source)
        assert (exc.value.line, exc.value.col) == (1, 11)

    @pytest.mark.parametrize("literal", ["0x", "0X", "0xu", "0xLf"])
    def test_hex_prefix_without_digits(self, literal):
        with pytest.raises(LexError, match="no digits") as exc:
            tokenize(f"int x = {literal};")
        assert (exc.value.line, exc.value.col) == (1, 9)

    @pytest.mark.parametrize("text, col", [
        ("int x = ²;", 9),       # superscript two: a digit, not decimal
        ("int x = 1²;", 10),
        ("int x = ٣;", 9),       # Arabic-Indic three: a decimal digit
        ("int x = ½;", 9),       # one half: numeric
    ])
    def test_non_ascii_digits(self, text, col):
        with pytest.raises(LexError, match="unexpected character") as exc:
            tokenize(text)
        assert (exc.value.line, exc.value.col) == (1, col)

    def test_non_ascii_letters_and_trailing_digits_stay_identifiers(self):
        toks = tokenize("café x²")
        assert [(t.kind, t.text) for t in toks[:-1]] == \
            [("id", "café"), ("id", "x²")]

    def test_malformed_float_suffix_is_a_parse_error(self):
        with pytest.raises(ParseError, match="malformed floating literal"):
            parse_source("double x = 1.5u;")

    @pytest.mark.parametrize("source", [
        'char *s = "a\\',
        "int main() { return 0x; }",
        "int main() { return ²; }",
        "int main() { double d = 0x1lf; return 0; }",
    ])
    def test_pipeline_raises_a_typed_error(self, source):
        with pytest.raises(MiraError):
            Pipeline(AnalysisConfig(use_cache=False)).run(source)


# -- the regex lexer against the hand-written reference ----------------------

def _lex(fn, source):
    """Tokens as tuples, or ``("LexError", line, col, message)``."""
    try:
        return [(t.kind, t.text, t.line, t.col) for t in fn(source)]
    except LexError as exc:
        return ("LexError", exc.line, exc.col, str(exc))


#: A reference hex token with no digits: any suffix starts with u or l,
#: since the digit loop would have taken an f.
_NO_HEX_DIGITS = re.compile(r"0[xX](?:[uUlL][uUlLfF]*)?")


def _offset(source, line, col):
    return sum(len(s) + 1 for s in source.split("\n")[:line - 1]) + col - 1


def assert_matches_reference(source: str) -> None:
    """Token-for-token equality with the reference lexer, or the same
    LexError line, column and message.  The reference's three escapes are
    the only allowed differences: a string cut after a backslash and a
    ``0x`` without digits are a LexError here; the regex lexer agrees with
    the reference up to a non-ASCII digit, which it does not read as one."""
    got = _lex(tokenize, source)
    try:
        expected = _lex(reference_lexer.tokenize, source)
    except IndexError:
        # A string literal ending in a backslash at EOF (or an earlier
        # escape the reference lexed past).
        assert got[0] == "LexError", source
        return
    tokens = expected
    if expected[0] == "LexError":
        # The tokens the reference lexed before its error.
        tokens = _lex(reference_lexer.tokenize,
                      source[:_offset(source, *expected[1:3])])
    for kind, text, line, col in tokens:
        if kind not in ("int", "float"):
            continue
        if not text.isascii():
            first = next(i for i, c in enumerate(text) if not c.isascii())
            assert_matches_reference(
                source[:_offset(source, line, col) + first])
            return
        if _NO_HEX_DIGITS.fullmatch(text):
            assert got[:3] == ("LexError", line, col), source
            return
    assert got == expected, source


def _preprocessed(name):
    return preprocess(get_source(name))


#: Fragments that start, end or break literals, comments and directives.
SPLICE_FRAGMENTS = ('"', "'", "\\", "/", "*", "#", ".", "0x", "0X", "e", "E",
                    "+", "-", "u", "L", "f", " ", "\n", "\t")


class TestLexerMatchesReference:
    @pytest.mark.parametrize("name", available())
    def test_corpus_program(self, name):
        assert_matches_reference(get_source(name))   # raw: directive errors
        assert_matches_reference(_preprocessed(name))

    @pytest.mark.parametrize("mode", ["concrete", "runtime", "symbolic"])
    def test_fuzz_generator_programs(self, mode):
        for seed in range(25):
            source = generate_program(seed).source(mode)
            assert_matches_reference(source)
            assert_matches_reference(preprocess(source))

    @pytest.mark.parametrize("name", ["dgemm", "stream", "minife", "fig5"])
    def test_truncations(self, name):
        source = _preprocessed(name)
        ends = set(range(0, len(source) + 1, len(source) // 60 + 1))
        # Cutting right after a backslash ends a string literal there.
        ends |= {i + 1 for i, c in enumerate(source) if c == "\\"}
        for end in sorted(ends):
            assert_matches_reference(source[:end])

    @pytest.mark.parametrize("name", ["dgemm", "stream", "minife", "fig5"])
    def test_byte_splices(self, name):
        source = _preprocessed(name)
        rng = random.Random(name)
        for _ in range(100):
            at = rng.randrange(len(source) + 1)
            if rng.random() < 0.5:
                lo = rng.randrange(len(source))
                patch = source[lo:lo + rng.randrange(1, 12)]
            else:
                patch = "".join(rng.choice(SPLICE_FRAGMENTS)
                                for _ in range(rng.randrange(1, 4)))
            cut = rng.randrange(6)
            assert_matches_reference(source[:at] + patch + source[at + cut:])

    @pytest.mark.parametrize("source", [
        "'\n'", "'\\\n' x", "'\\'", "'''", "''", "'ab'",
        "1.e5 .5e+3f 0x1uf 1Lf 1e+ 2e", "a...b ..c", "/*/ */ x",
        "#pragma x\r\n y", "#  \n", "\f", "x /* a\nb */ y // z\n w",
        '"a\\"b" "\\\\"', "00x1 0x1.5", "\u00a0",
    ])
    def test_edge_cases(self, source):
        assert_matches_reference(source)


class TestPreprocessor:
    def test_object_macro(self):
        out = preprocess("#define N 100\nint a[N];")
        assert "int a[100];" in out

    def test_line_numbers_preserved(self):
        src = "#define N 10\n\nint a[N];"
        out = preprocess(src)
        assert out.split("\n")[2] == "int a[10];"

    def test_function_macro(self):
        out = preprocess("#define SQ(x) ((x)*(x))\nint y = SQ(3+1);")
        assert "((3+1)*(3+1))" in out

    def test_function_macro_nested_parens(self):
        out = preprocess("#define F(a,b) a+b\nint y = F(g(1,2), 3);")
        assert "g(1,2)" in out and "+ 3" in out.replace("+3", "+ 3")

    def test_macro_not_expanded_in_string(self):
        out = preprocess('#define N 10\nchar* s = "N";')
        assert '"N"' in out

    def test_include_ignored(self):
        out = preprocess('#include <stdio.h>\nint x;')
        assert "int x;" in out and "stdio" not in out

    def test_ifdef(self):
        src = "#define A 1\n#ifdef A\nint x;\n#else\nint y;\n#endif"
        out = preprocess(src)
        assert "int x;" in out and "int y;" not in out

    def test_ifndef(self):
        src = "#ifndef A\nint x;\n#else\nint y;\n#endif"
        out = preprocess(src)
        assert "int x;" in out and "int y;" not in out

    def test_undef(self):
        src = "#define A 5\n#undef A\nint x = A;"
        out = preprocess(src)
        assert "int x = A;" in out

    def test_unterminated_if_rejected(self):
        with pytest.raises(ParseError):
            preprocess("#ifdef A\nint x;")

    def test_pragma_passthrough(self):
        out = preprocess("#pragma @Annotation {skip:yes}\nint x;")
        assert "#pragma @Annotation" in out

    def test_predefined(self):
        out = preprocess("int a[N];", predefined={"N": "32"})
        assert "int a[32];" in out

    def test_self_referential_macro_blue_paint(self):
        # Standard C: a macro is not re-expanded inside its own expansion,
        # so `#define A A` leaves the identifier alone.  The sweep engine
        # relies on this to late-bind size macros as free model symbols.
        out = preprocess("#define A A\nint x = A;")
        assert "int x = A;" in out

    def test_mutually_recursive_macros_terminate(self):
        out = preprocess("#define A B\n#define B A\nint x = A;")
        assert "int x = A;" in out

    def test_deep_macro_chain_still_guarded(self):
        defines = "\n".join(f"#define A{i} A{i + 1}" for i in range(40))
        with pytest.raises(ParseError):
            preprocess(defines + "\nint x = A0;")

    def test_macro_wrong_arity(self):
        with pytest.raises(ParseError):
            preprocess("#define F(a,b) a+b\nint x = F(1);")


def _preprocess_every_line(monkeypatch, source, predefined=None):
    """``preprocess`` with every line through the ``_expand`` scan."""
    with monkeypatch.context() as m:
        m.setattr(preprocessor, "_expand_line",
                  lambda line, table: preprocessor._expand(line, table))
        return preprocess(source, predefined=predefined)


class TestPreprocessorFastPath:
    """A line naming no defined macro is copied, not scanned: the output
    must be byte-identical to scanning every line."""

    @pytest.mark.parametrize("name", available())
    def test_corpus_program(self, name, monkeypatch):
        source = get_source(name)
        for predefined in (None, {"N": "N", "STREAM_ARRAY_SIZE": "64"}):
            assert preprocess(source, predefined=predefined) == \
                _preprocess_every_line(monkeypatch, source, predefined)

    @pytest.mark.parametrize("mode", ["concrete", "runtime", "symbolic"])
    def test_fuzz_generator_programs(self, mode, monkeypatch):
        for seed in range(25):
            source = generate_program(seed).source(mode)
            assert preprocess(source) == \
                _preprocess_every_line(monkeypatch, source)

    @pytest.mark.parametrize("line, literal", [
        ('printf("N = %d", N);', '"N = %d"'), ('puts("N");', '"N"'),
        ("char c = 'N';", "'N'"),
        ('puts("F(1)"); int y = F(N, 2);', '"F(1)"'),
        ('puts("unterminated N', '"unterminated N'),
    ])
    def test_macro_name_in_a_literal(self, line, literal, monkeypatch):
        source = f"#define N 10\n#define F(a, b) a*b\n{line}\n"
        out = preprocess(source)
        assert out == _preprocess_every_line(monkeypatch, source)
        assert literal in out
