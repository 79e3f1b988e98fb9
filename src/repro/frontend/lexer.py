"""Lexer for the C/C++ subset: one compiled master regex.

Tracks 1-based line/column positions for every token: line numbers are the
*bridge* between the source AST and the binary AST (paper §III-A.2), so
position fidelity matters more here than in a typical toy lexer.  Every
token kind is a named group of one alternation, so the source is scanned
once; line and column come from counting the newlines of each match.

``#pragma`` lines are emitted as single ``pragma`` tokens; all other
preprocessor directives are expected to have been handled by
:mod:`repro.frontend.preprocessor` before lexing.

Numeric literals are ASCII only, so every ``int``/``float`` token the
parser receives converts: ``0x`` without hex digits and non-ASCII digits
are :class:`~repro.errors.LexError`, as is a string literal cut off after a
backslash.
"""

from __future__ import annotations

import re

from ..errors import LexError
from .tokens import KEYWORDS, PUNCTUATORS, Token

__all__ = ["tokenize"]

# A string literal up to its closing quote; neither a character nor an
# escape may be a newline.
_STRING_BODY = r'"(?:[^"\\\n]|\\[^\n])*'

# Alternatives are tried in order, so where two overlap the earlier wins:
# comments before the "/" punctuator, numbers before ".", and a malformed
# form of a construct right after its well-formed one.  Punctuators keep
# ``PUNCTUATORS``' longest-first order (greedy matching).
_RULES = (
    ("ws", r"[ \t\r\n]+"),
    ("comment", r"//[^\n]*|/\*[\s\S]*?\*/"),
    ("open_comment", r"/\*"),
    ("hash", r"#[^\n]*"),
    ("id", r"[^\W\d]\w*"),
    ("hex", r"0[xX](?P<hexdigits>[0-9a-fA-F]*)(?P<hexsuffix>[uUlLfF]*)"),
    ("number", r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
               r"[uUlLfF]*"),
    ("char", r"'(?:\\[\s\S]|[^\\])'"),
    ("open_char", r"'"),
    ("string", _STRING_BODY + '"'),
    ("open_string", _STRING_BODY),
    ("punct", "|".join(re.escape(p) for p in PUNCTUATORS)),
    ("other", r"[\s\S]"),
)
_FLOAT_MARKS = frozenset(".eEfF")
_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pattern})"
                                for name, pattern in _RULES))


def tokenize(source: str, start: int = 0,
             end: int | None = None) -> list[Token]:
    """Convert source text into a token list ending with an ``eof`` token.

    ``start``/``end`` lex only ``source[start:end]``, each token at the
    line and column it has in the whole text (the incremental analyzer
    re-lexes one function definition this way)."""
    if end is None:
        end = len(source)
    toks: list[Token] = []
    append = toks.append
    line = source.count("\n", 0, start) + 1
    # offset of the first character of ``line``
    line_start = source.rfind("\n", 0, start) + 1
    for m in _TOKEN_RE.finditer(source, start, end):
        kind = m.lastgroup
        text = m.group()
        if kind == "punct":
            append(Token("punct", text, line, m.start() - line_start + 1))
            continue
        if kind == "ws" or kind == "comment":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + text.rindex("\n") + 1
            continue
        col = m.start() - line_start + 1
        if kind == "id":
            if text in KEYWORDS:
                append(Token("kw", text, line, col))
            elif text[0].isalpha() or text[0] == "_":
                append(Token("id", text, line, col))
            else:
                # ``[^\W\d]`` also admits non-decimal digits (``²``) and
                # other numerics (``½``); neither starts a C identifier.
                raise LexError(f"unexpected character {text[0]!r}",
                               line, col)
        elif kind == "number":
            kind = "int" if _FLOAT_MARKS.isdisjoint(text) else "float"
            append(Token(kind, text, line, col))
        elif kind == "string":
            append(Token("string", text, line, col))
        elif kind == "hex":
            if not m.group("hexdigits"):
                raise LexError(f"hex literal {text!r} has no digits",
                               line, col)
            kind = "float" if "f" in m.group("hexsuffix").lower() else "int"
            append(Token(kind, text, line, col))
        elif kind == "char":
            append(Token("char", text, line, col))
            if "\n" in text:       # a newline is a legal (odd) char body
                line += 1
                line_start = m.end() - 1
        elif kind == "hash":
            if not text.rstrip().startswith("#pragma"):
                raise LexError(
                    f"unexpected preprocessor directive {text.split()[0]!r} "
                    "(preprocessor should have consumed it)", line, col)
            append(Token("pragma", text.strip(), line, col))
        elif kind == "open_comment":
            raise LexError("unterminated block comment", line, col)
        elif kind == "open_char":
            raise LexError("unterminated character literal", line, col)
        elif kind == "open_string":
            # The body stops at EOF, at a newline, or at a backslash that
            # escapes a newline or nothing at all.
            if source.startswith(("\n", "\\\n"), m.end(), end):
                raise LexError("newline in string literal", line, col)
            raise LexError("unterminated string literal", line, col)
        else:
            raise LexError(f"unexpected character {text!r}", line, col)
    append(Token("eof", "", line, end - line_start + 1))
    return toks
