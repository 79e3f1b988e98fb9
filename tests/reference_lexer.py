"""Reference lexer: the hand-written character-loop tokenizer.

The production lexer (:mod:`repro.frontend.lexer`) is one compiled regex;
this is the per-character loop it replaced, kept as the oracle that
``tests/test_frontend_lexer.py`` compares it with token for token.  It is
not fixed: its three known escapes (a string ending in a backslash at EOF
raises ``IndexError``; ``0x`` without digits and non-ASCII digits become
``int`` tokens the parser cannot convert) are the only differences the
oracle test allows.
"""

from __future__ import annotations

from repro.errors import LexError
from repro.frontend.tokens import KEYWORDS, PUNCTUATORS, Token

__all__ = ["tokenize"]


def tokenize(source: str) -> list[Token]:
    """Convert source text into a token list ending with an ``eof`` token."""
    toks: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = source[i]
        # -- whitespace -----------------------------------------------------
        if c in " \t\r\n":
            advance(1)
            continue
        # -- comments ---------------------------------------------------------
        if source.startswith("//", i):
            j = source.find("\n", i)
            advance((j - i) if j != -1 else (n - i))
            continue
        if source.startswith("/*", i):
            j = source.find("*/", i + 2)
            if j == -1:
                raise LexError("unterminated block comment", line, col)
            advance(j + 2 - i)
            continue
        # -- preprocessor remnants (#pragma only) ------------------------------
        if c == "#":
            j = source.find("\n", i)
            end = j if j != -1 else n
            text = source[i:end]
            if text.rstrip().startswith("#pragma"):
                toks.append(Token("pragma", text.strip(), line, col))
                advance(end - i)
                continue
            raise LexError(f"unexpected preprocessor directive {text.split()[0]!r} "
                           "(preprocessor should have consumed it)", line, col)
        # -- identifiers / keywords ---------------------------------------------
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = "kw" if text in KEYWORDS else "id"
            toks.append(Token(kind, text, line, col))
            advance(j - i)
            continue
        # -- numeric literals -----------------------------------------------------
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            is_float = False
            if source.startswith("0x", i) or source.startswith("0X", i):
                j = i + 2
                while j < n and (source[j].isdigit() or source[j].lower() in "abcdef"):
                    j += 1
            else:
                while j < n and source[j].isdigit():
                    j += 1
                if j < n and source[j] == ".":
                    is_float = True
                    j += 1
                    while j < n and source[j].isdigit():
                        j += 1
                if j < n and source[j] in "eE":
                    k = j + 1
                    if k < n and source[k] in "+-":
                        k += 1
                    if k < n and source[k].isdigit():
                        is_float = True
                        j = k
                        while j < n and source[j].isdigit():
                            j += 1
            # suffixes
            while j < n and source[j] in "uUlLfF":
                if source[j] in "fF":
                    is_float = True
                j += 1
            text = source[i:j]
            toks.append(Token("float" if is_float else "int", text, line, col))
            advance(j - i)
            continue
        # -- character literal -------------------------------------------------------
        if c == "'":
            j = i + 1
            if j < n and source[j] == "\\":
                j += 2
            else:
                j += 1
            if j >= n or source[j] != "'":
                raise LexError("unterminated character literal", line, col)
            toks.append(Token("char", source[i : j + 1], line, col))
            advance(j + 1 - i)
            continue
        # -- string literal -----------------------------------------------------------
        if c == '"':
            j = i + 1
            while j < n and source[j] != '"':
                if source[j] == "\\":
                    j += 1
                if source[j] == "\n":
                    raise LexError("newline in string literal", line, col)
                j += 1
            if j >= n:
                raise LexError("unterminated string literal", line, col)
            toks.append(Token("string", source[i : j + 1], line, col))
            advance(j + 1 - i)
            continue
        # -- punctuators -------------------------------------------------------------
        for p in PUNCTUATORS:
            if source.startswith(p, i):
                toks.append(Token("punct", p, line, col))
                advance(len(p))
                break
        else:
            raise LexError(f"unexpected character {c!r}", line, col)

    toks.append(Token("eof", "", line, col))
    return toks
