"""Token definitions for the C/C++ subset lexer.

A :class:`Token` is a slotted value, immutable by convention: nothing
assigns to a token after the lexer builds it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Token", "KEYWORDS", "PUNCTUATORS"]

# Token kinds:
#   'id'      identifier
#   'kw'      keyword
#   'int'     integer literal
#   'float'   floating literal
#   'char'    character literal
#   'string'  string literal
#   'punct'   operator / punctuator
#   'pragma'  a full #pragma line (text payload)
#   'eof'     end of input

KEYWORDS = frozenset(
    {
        "void", "int", "long", "short", "char", "float", "double", "bool",
        "unsigned", "signed", "const", "static", "struct", "class", "public",
        "private", "return", "if", "else", "for", "while", "do", "break",
        "continue", "sizeof", "true", "false", "operator", "size_t", "inline",
    }
)

# Longest-first so the lexer can do greedy matching.
PUNCTUATORS = [
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "::",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
]


@dataclass(slots=True, unsafe_hash=True)
class Token:
    """A single lexical token with source position (1-based line/col)."""

    kind: str
    text: str
    line: int
    col: int

    def is_punct(self, text: str) -> bool:
        return self.kind == "punct" and self.text == text

    def is_kw(self, text: str) -> bool:
        return self.kind == "kw" and self.text == text

    def __repr__(self) -> str:  # compact for parser error messages
        return f"{self.kind}:{self.text!r}@{self.line}:{self.col}"
