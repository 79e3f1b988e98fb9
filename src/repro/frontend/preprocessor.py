"""Minimal C preprocessor.

Supports the subset the bundled workloads need:

* ``#include`` — ignored (the frontend declares library functions via the
  builtin prototype table in :mod:`repro.frontend.types`),
* ``#define NAME value`` — object-like macros, textual word-boundary
  substitution,
* ``#define NAME(args) body`` — simple function-like macros without
  stringification/pasting,
* ``#undef``, ``#ifdef/#ifndef/#else/#endif`` over defined names,
* ``#pragma`` — passed through untouched for the lexer (annotations).

Line numbers are preserved exactly: every consumed directive line is replaced
by an empty line, and macro expansion never inserts newlines.  This matters
because line numbers are the source↔binary bridge.
"""

from __future__ import annotations

import re

from ..errors import ParseError

__all__ = ["preprocess", "MacroTable"]

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class MacroTable:
    """Defined macros: name -> (params or None, body)."""

    def __init__(self) -> None:
        self.macros: dict[str, tuple[list[str] | None, str]] = {}

    def define(self, name: str, params: list[str] | None, body: str) -> None:
        self.macros[name] = (params, body)

    def undef(self, name: str) -> None:
        self.macros.pop(name, None)

    def __contains__(self, name: str) -> bool:
        return name in self.macros


def _expand(line: str, table: MacroTable, depth: int = 0,
            active: frozenset = frozenset()) -> str:
    """Expand macros in one line (no newlines introduced).

    Standard C "blue paint": a macro is never re-expanded inside its own
    expansion, so self-referential definitions (``#define N N`` — which the
    sweep engine uses to turn a size macro into a free model symbol) leave
    the name in place instead of recursing.
    """
    if depth > 32:
        raise ParseError("macro expansion too deep (recursive macro?)")
    out: list[str] = []
    i = 0
    n = len(line)
    while i < n:
        m = _WORD.match(line, i)
        if not m:
            # Skip string/char literals wholesale so their contents are inert.
            if line[i] in "\"'":
                quote = line[i]
                j = i + 1
                while j < n and line[j] != quote:
                    if line[j] == "\\":
                        j += 1
                    j += 1
                out.append(line[i : j + 1])
                i = j + 1
                continue
            out.append(line[i])
            i += 1
            continue
        word = m.group(0)
        i = m.end()
        if word not in table or word in active:
            out.append(word)
            continue
        params, body = table.macros[word]
        if params is None:
            out.append(_expand(body, table, depth + 1, active | {word}))
            continue
        # Function-like: need an argument list right here.
        if i >= n or line[i] != "(":
            out.append(word)
            continue
        depth_paren = 0
        args: list[str] = []
        cur: list[str] = []
        j = i
        while j < n:
            c = line[j]
            if c == "(":
                depth_paren += 1
                if depth_paren > 1:
                    cur.append(c)
            elif c == ")":
                depth_paren -= 1
                if depth_paren == 0:
                    j += 1
                    break
                cur.append(c)
            elif c == "," and depth_paren == 1:
                args.append("".join(cur).strip())
                cur = []
            else:
                cur.append(c)
            j += 1
        else:
            raise ParseError(f"unterminated macro call {word!r}")
        if cur or args:
            args.append("".join(cur).strip())
        if len(args) != len(params):
            raise ParseError(
                f"macro {word!r} expects {len(params)} args, got {len(args)}"
            )
        expanded = body
        for p, a in sorted(zip(params, args), key=lambda pa: -len(pa[0])):
            expanded = re.sub(rf"\b{re.escape(p)}\b", a, expanded)
        out.append("(" + _expand(expanded, table, depth + 1,
                                 active | {word}) + ")")
        i = j
    return "".join(out)


def _expand_line(line: str, table: MacroTable) -> str:
    """``_expand(line, table)``, without the scan when no word of the line
    (string literals included) names a defined macro: such a line is its
    own expansion."""
    if table.macros.keys().isdisjoint(_WORD.findall(line)):
        return line
    return _expand(line, table)


def preprocess(source: str, *, predefined: dict[str, str] | None = None) -> str:
    """Run the preprocessor; returns text with identical line numbering."""
    table = MacroTable()
    for k, v in (predefined or {}).items():
        table.define(k, None, v)

    out_lines: list[str] = []
    skip_stack: list[bool] = []  # True = currently skipping

    for raw in source.split("\n"):
        stripped = raw.strip()
        skipping = any(skip_stack)
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            if body.startswith("ifdef"):
                name = body.split(None, 1)[1].strip()
                skip_stack.append(skipping or name not in table)
                out_lines.append("")
            elif body.startswith("ifndef"):
                name = body.split(None, 1)[1].strip()
                skip_stack.append(skipping or name in table)
                out_lines.append("")
            elif body.startswith("else"):
                if not skip_stack:
                    raise ParseError("#else without #if")
                skip_stack[-1] = not skip_stack[-1]
                out_lines.append("")
            elif body.startswith("endif"):
                if not skip_stack:
                    raise ParseError("#endif without #if")
                skip_stack.pop()
                out_lines.append("")
            elif skipping:
                out_lines.append("")
            elif body.startswith("include"):
                out_lines.append("")
            elif body.startswith("undef"):
                table.undef(body.split(None, 1)[1].strip())
                out_lines.append("")
            elif body.startswith("define"):
                rest = body[len("define"):].strip()
                m = _WORD.match(rest)
                if not m:
                    raise ParseError(f"malformed #define: {raw!r}")
                name = m.group(0)
                after = rest[m.end():]
                if after.startswith("("):
                    close = after.index(")")
                    params = [p.strip() for p in after[1:close].split(",") if p.strip()]
                    table.define(name, params, after[close + 1 :].strip())
                else:
                    table.define(name, None, after.strip())
                out_lines.append("")
            elif body.startswith("pragma"):
                out_lines.append(raw)  # lexer turns this into a pragma token
            else:
                raise ParseError(f"unsupported preprocessor directive: {raw!r}")
            continue
        if skipping:
            out_lines.append("")
            continue
        out_lines.append(_expand_line(raw, table))
    if skip_stack:
        raise ParseError("unterminated #if block")
    return "\n".join(out_lines)
