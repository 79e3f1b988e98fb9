"""Recursive-descent parser for the C/C++ subset.

Produces the source AST of :mod:`repro.frontend.ast_nodes`.  The accepted
language covers everything the paper's listings and evaluation codes use:

* functions, global variables, fixed-size global/local arrays,
* ``class``/``struct`` definitions with fields and member functions,
  including ``operator()`` (miniFE's ``matvec_std::operator()``),
* the full C expression grammar (assignment through primary, casts,
  ``sizeof``, ternary),
* ``for``/``while``/``do``/``if``/``break``/``continue``/``return``,
* ``#pragma @Annotation`` directives, attached to the next statement.

Operator precedence follows C.  Line/column positions from the lexer are
propagated onto every node — they are the source↔binary bridge.
"""

from __future__ import annotations

from ..errors import ParseError
from . import ast_nodes as A
from .lexer import tokenize
from .pragma import is_annotation_pragma, parse_annotation
from .preprocessor import preprocess
from .tokens import Token
from .types import Type

__all__ = ["Parser", "parse_source", "parse_file"]

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}
_TYPE_KEYWORDS = frozenset({
    "void", "int", "long", "short", "char", "float", "double", "bool",
    "unsigned", "signed", "size_t",
})
# Keywords that begin a type, its qualifiers included.
_TYPE_START_KEYWORDS = _TYPE_KEYWORDS | {"const", "struct", "class",
                                         "static", "inline"}
_QUALIFIERS = frozenset({"const", "static", "inline"})
_PREFIX_OPS = frozenset({"+", "-", "!", "~", "*", "&", "++", "--"})
# Tokens after ``( type )`` that make it a cast.
_CAST_OPERAND_KINDS = frozenset({"id", "int", "float", "char", "string"})
_CAST_OPERAND_PUNCTS = _PREFIX_OPS | {"("}

# Binary operator precedence (larger binds tighter).
_BIN_PREC = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}


def parse_source(source: str, filename: str = "<input>",
                 predefined: dict | None = None) -> A.TranslationUnit:
    """Preprocess + lex + parse a source string."""
    text = preprocess(source, predefined=predefined)
    return Parser(tokenize(text), filename).parse_translation_unit()


def parse_file(path: str, predefined: dict | None = None) -> A.TranslationUnit:
    """Parse a C/C++ file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_source(fh.read(), filename=path, predefined=predefined)


class Parser:
    """One-token-lookahead recursive-descent parser."""

    def __init__(self, tokens: list[Token], filename: str = "<input>") -> None:
        self.toks = tokens
        self.pos = 0
        #: The current token, ``toks[pos]``.
        self.cur: Token = tokens[0]
        self.filename = filename
        self.class_names: set[str] = set()
        #: One entry per ``tu.functions`` element: its first and last
        #: token and the class names in scope where it starts.
        self.function_spans: list[tuple[Token, Token, frozenset]] = []

    # -- token helpers -----------------------------------------------------
    def peek(self, off: int = 1) -> Token:
        idx = min(self.pos + off, len(self.toks) - 1)
        return self.toks[idx]

    def advance(self) -> Token:
        t = self.cur
        if t.kind != "eof":
            self.pos += 1
            self.cur = self.toks[self.pos]
        return t

    def expect_punct(self, text: str) -> Token:
        if not self.cur.is_punct(text):
            raise ParseError(f"expected {text!r}, got {self.cur!r}",
                             self.cur.line, self.cur.col)
        return self.advance()

    def expect_kind(self, kind: str) -> Token:
        if self.cur.kind != kind:
            raise ParseError(f"expected {kind}, got {self.cur!r}",
                             self.cur.line, self.cur.col)
        return self.advance()

    def error(self, msg: str) -> ParseError:
        return ParseError(msg, self.cur.line, self.cur.col)

    # -- type parsing ---------------------------------------------------------
    def at_type_start(self) -> bool:
        t = self.cur
        if t.kind == "kw":
            return t.text in _TYPE_START_KEYWORDS
        return t.kind == "id" and t.text in self.class_names

    def parse_type(self) -> Type:
        const = False
        unsigned = False
        name: str | None = None
        while True:
            t = self.cur
            text = t.text
            if t.kind == "kw":
                if text in _QUALIFIERS:
                    const = const or text == "const"
                elif text == "struct" or text == "class":
                    pass
                elif text == "unsigned":
                    unsigned = True
                    if name is None:
                        name = "int"
                elif text == "signed":
                    if name is None:
                        name = "int"
                elif text in _TYPE_KEYWORDS:
                    if name in (None, "int"):
                        name = text
                    elif name == "long" and text in ("long", "int", "double"):
                        name = "long" if text != "double" else "double"
                    elif name == "short" and text == "int":
                        name = "short"
                    else:
                        break
                else:
                    break
                self.advance()
                continue
            if t.kind == "id" and text in self.class_names and name is None:
                name = text
                self.advance()
                continue
            break
        if name is None:
            raise self.error("expected a type")
        pointer = 0
        while self.cur.is_punct("*"):
            pointer += 1
            self.advance()
            if self.cur.is_kw("const"):
                self.advance()
        reference = False
        if self.cur.is_punct("&"):
            reference = True
            self.advance()
        return Type(name, pointer, reference, unsigned, const)

    # -- translation unit -------------------------------------------------------
    def parse_translation_unit(self) -> A.TranslationUnit:
        try:
            return self._parse_translation_unit()
        except RecursionError:
            # Recursive descent spends Python stack on every nesting level;
            # input nested deeper than the interpreter allows is rejected
            # as a typed error, not a raw RecursionError.
            raise ParseError("nesting too deep to parse", self.cur.line,
                             self.cur.col) from None

    def _parse_translation_unit(self) -> A.TranslationUnit:
        tu = A.TranslationUnit(self.filename)
        pending_annotations: list = []
        while self.cur.kind != "eof":
            if self.cur.kind == "pragma":
                tok = self.advance()
                if is_annotation_pragma(tok.text):
                    pending_annotations.append(parse_annotation(tok.text, tok.line))
                continue
            if self.cur.kind == "kw" and self.cur.text in ("class", "struct") \
                    and self.peek().kind == "id" and self.peek(2).is_punct("{"):
                tu.classes.append(self.parse_class())
                continue
            first, classes = self.cur, frozenset(self.class_names)
            decl = self.parse_top_level_decl()
            if isinstance(decl, A.FunctionDef):
                tu.functions.append(decl)
                self.function_spans.append(
                    (first, self.toks[self.pos - 1], classes))
            elif isinstance(decl, A.DeclStmt):
                if pending_annotations:
                    decl.annotations.extend(pending_annotations)
                    pending_annotations = []
                tu.globals.append(decl)
        return tu

    def parse_class(self) -> A.ClassDef:
        kw = self.advance()  # class|struct
        is_struct = kw.text == "struct"
        name_tok = self.expect_kind("id")
        self.class_names.add(name_tok.text)
        self.expect_punct("{")
        fields: list[A.VarDecl] = []
        methods: list[A.FunctionDef] = []
        while not self.cur.is_punct("}"):
            if self.cur.kind == "kw" and self.cur.text in ("public", "private") \
                    and self.peek().is_punct(":"):
                self.advance()
                self.advance()
                continue
            member = self.parse_member(name_tok.text)
            if isinstance(member, A.FunctionDef):
                methods.append(member)
            else:
                fields.extend(member)
        self.expect_punct("}")
        self.expect_punct(";")
        return A.ClassDef(name_tok.text, fields, methods, is_struct,
                          kw.line, kw.col)

    def parse_member(self, class_name: str):
        """Parse one class member: a field declaration or a method."""
        ty = self.parse_type()
        # operator() method
        if self.cur.is_kw("operator"):
            op_tok = self.advance()
            self.expect_punct("(")
            self.expect_punct(")")
            name = "operator()"
            return self.parse_function_rest(name, ty, class_name,
                                            op_tok.line, op_tok.col)
        name_tok = self.expect_kind("id")
        if self.cur.is_punct("("):
            return self.parse_function_rest(name_tok.text, ty, class_name,
                                            name_tok.line, name_tok.col)
        decls = self.parse_declarators(ty, name_tok)
        self.expect_punct(";")
        return decls

    def parse_top_level_decl(self):
        ty = self.parse_type()
        # Out-of-line member definition: Ret Class::name(...) {...}
        if self.cur.kind == "id" and self.peek().is_punct("::"):
            cls_tok = self.advance()
            self.advance()  # '::'
            if self.cur.is_kw("operator"):
                op_tok = self.advance()
                self.expect_punct("(")
                self.expect_punct(")")
                return self.parse_function_rest("operator()", ty, cls_tok.text,
                                                op_tok.line, op_tok.col)
            name_tok = self.expect_kind("id")
            return self.parse_function_rest(name_tok.text, ty, cls_tok.text,
                                            name_tok.line, name_tok.col)
        name_tok = self.expect_kind("id")
        if self.cur.is_punct("("):
            return self.parse_function_rest(name_tok.text, ty, None,
                                            name_tok.line, name_tok.col)
        decls = self.parse_declarators(ty, name_tok)
        self.expect_punct(";")
        return A.DeclStmt(decls, name_tok.line, name_tok.col)

    def parse_function_rest(self, name: str, return_type: Type,
                            class_name: str | None,
                            line: int, col: int) -> A.FunctionDef:
        self.expect_punct("(")
        params: list[A.ParamDecl] = []
        if not self.cur.is_punct(")"):
            while True:
                if self.cur.is_kw("void") and self.peek().is_punct(")"):
                    self.advance()
                    break
                pty = self.parse_type()
                pname = ""
                if self.cur.kind == "id":
                    pname = self.advance().text
                # array parameter decays to pointer: double a[]
                while self.cur.is_punct("["):
                    self.advance()
                    if not self.cur.is_punct("]"):
                        self.parse_expr()  # ignored size
                    self.expect_punct("]")
                    pty = Type(pty.name, pty.pointer + 1, False,
                               pty.unsigned, pty.const)
                params.append(A.ParamDecl(pname, pty, self.cur.line, self.cur.col))
                if self.cur.is_punct(","):
                    self.advance()
                    continue
                break
        self.expect_punct(")")
        if self.cur.is_punct(";"):  # prototype only — record with empty body
            self.advance()
            body = A.CompoundStmt([], line, col)
            fn = A.FunctionDef(name, return_type, params, body, class_name, line, col)
            fn.info["prototype_only"] = True
            return fn
        body = self.parse_compound()
        return A.FunctionDef(name, return_type, params, body, class_name, line, col)

    def parse_declarators(self, ty: Type, first_name: Token) -> list[A.VarDecl]:
        decls: list[A.VarDecl] = []
        name_tok = first_name
        while True:
            dims: list[A.Expr] = []
            while self.cur.is_punct("["):
                self.advance()
                dims.append(self.parse_expr())
                self.expect_punct("]")
            init = None
            if self.cur.is_punct("="):
                self.advance()
                init = self.parse_assignment()
            decls.append(A.VarDecl(name_tok.text, ty, dims, init,
                                   name_tok.line, name_tok.col))
            if self.cur.is_punct(","):
                self.advance()
                extra_ptr = 0
                while self.cur.is_punct("*"):
                    extra_ptr += 1
                    self.advance()
                name_tok = self.expect_kind("id")
                if extra_ptr:
                    ty = Type(ty.name, ty.pointer + extra_ptr, False,
                              ty.unsigned, ty.const)
                continue
            break
        return decls

    # -- statements -----------------------------------------------------------
    def parse_compound(self) -> A.CompoundStmt:
        open_tok = self.expect_punct("{")
        stmts: list[A.Stmt] = []
        pending: list = []
        while not self.cur.is_punct("}"):
            if self.cur.kind == "eof":
                raise self.error("unterminated block")
            if self.cur.kind == "pragma":
                tok = self.advance()
                if is_annotation_pragma(tok.text):
                    pending.append(parse_annotation(tok.text, tok.line))
                continue
            st = self.parse_statement()
            if pending:
                st.annotations.extend(pending)
                pending = []
            stmts.append(st)
        self.expect_punct("}")
        return A.CompoundStmt(stmts, open_tok.line, open_tok.col)

    def parse_statement(self) -> A.Stmt:
        t = self.cur
        text = t.text
        if t.kind == "punct":
            if text == "{":
                return self.parse_compound()
            if text == ";":
                self.advance()
                return A.NullStmt(t.line, t.col)
        elif t.kind == "kw":
            if text == "if":
                return self.parse_if()
            if text == "for":
                return self.parse_for()
            if text == "while":
                return self.parse_while()
            if text == "do":
                return self.parse_do_while()
            if text == "return":
                self.advance()
                expr = None
                if not self.cur.is_punct(";"):
                    expr = self.parse_expr()
                self.expect_punct(";")
                return A.ReturnStmt(expr, t.line, t.col)
            if text == "break":
                self.advance()
                self.expect_punct(";")
                return A.BreakStmt(t.line, t.col)
            if text == "continue":
                self.advance()
                self.expect_punct(";")
                return A.ContinueStmt(t.line, t.col)
        # A declaration, unless a lone ``const`` starts an expression.
        if self.at_type_start() and (
                text != "const" or self.peek().kind in ("kw", "id")):
            return self.parse_decl_stmt()
        expr = self.parse_expr()
        self.expect_punct(";")
        return A.ExprStmt(expr, t.line, t.col)

    def parse_decl_stmt(self) -> A.DeclStmt:
        start = self.cur
        ty = self.parse_type()
        name_tok = self.expect_kind("id")
        decls = self.parse_declarators(ty, name_tok)
        self.expect_punct(";")
        return A.DeclStmt(decls, start.line, start.col)

    def parse_if(self) -> A.IfStmt:
        t = self.advance()
        self.expect_punct("(")
        cond = self.parse_expr()
        self.expect_punct(")")
        then = self.parse_statement()
        els = None
        if self.cur.is_kw("else"):
            self.advance()
            els = self.parse_statement()
        return A.IfStmt(cond, then, els, t.line, t.col)

    def parse_for(self) -> A.ForStmt:
        t = self.advance()
        self.expect_punct("(")
        init: A.Stmt | None = None
        if not self.cur.is_punct(";"):
            if self.at_type_start():
                init = self.parse_decl_stmt()  # consumes ';'
            else:
                e = self.parse_expr()
                self.expect_punct(";")
                init = A.ExprStmt(e, e.line, e.col)
        else:
            self.advance()
        cond = None
        if not self.cur.is_punct(";"):
            cond = self.parse_expr()
        self.expect_punct(";")
        incr = None
        if not self.cur.is_punct(")"):
            incr = self.parse_expr()
        self.expect_punct(")")
        body = self.parse_statement()
        return A.ForStmt(init, cond, incr, body, t.line, t.col)

    def parse_while(self) -> A.WhileStmt:
        t = self.advance()
        self.expect_punct("(")
        cond = self.parse_expr()
        self.expect_punct(")")
        body = self.parse_statement()
        return A.WhileStmt(cond, body, t.line, t.col)

    def parse_do_while(self) -> A.DoWhileStmt:
        t = self.advance()
        body = self.parse_statement()
        if not self.cur.is_kw("while"):
            raise self.error("expected 'while' after do-body")
        self.advance()
        self.expect_punct("(")
        cond = self.parse_expr()
        self.expect_punct(")")
        self.expect_punct(";")
        return A.DoWhileStmt(body, cond, t.line, t.col)

    # -- expressions ------------------------------------------------------------
    def parse_expr(self) -> A.Expr:
        e = self.parse_assignment()
        while self.cur.is_punct(","):
            t = self.advance()
            rhs = self.parse_assignment()
            e = A.BinOp(",", e, rhs, t.line, t.col)
        return e

    def parse_assignment(self) -> A.Expr:
        lhs = self.parse_ternary()
        if self.cur.kind == "punct" and self.cur.text in _ASSIGN_OPS:
            op = self.advance()
            rhs = self.parse_assignment()
            return A.Assign(op.text, lhs, rhs, op.line, op.col)
        return lhs

    def parse_ternary(self) -> A.Expr:
        cond = self.parse_binary(1)
        if self.cur.is_punct("?"):
            t = self.advance()
            then = self.parse_assignment()
            self.expect_punct(":")
            els = self.parse_assignment()
            return A.Ternary(cond, then, els, t.line, t.col)
        return cond

    def parse_binary(self, min_prec: int) -> A.Expr:
        lhs = self.parse_unary()
        while True:
            t = self.cur
            if t.kind != "punct":
                break
            prec = _BIN_PREC.get(t.text)
            if prec is None or prec < min_prec:
                break
            self.advance()
            rhs = self.parse_binary(prec + 1)
            lhs = A.BinOp(t.text, lhs, rhs, t.line, t.col)
        return lhs

    def parse_unary(self) -> A.Expr:
        t = self.cur
        if t.kind == "punct" and t.text in _PREFIX_OPS:
            self.advance()
            operand = self.parse_unary()
            return A.UnOp(t.text, operand, True, t.line, t.col)
        if t.is_kw("sizeof"):
            self.advance()
            self.expect_punct("(")
            if self.at_type_start():
                arg = self.parse_type()
            else:
                arg = self.parse_expr()
            self.expect_punct(")")
            return A.SizeOf(arg, t.line, t.col)
        # cast: '(' type ')' unary
        if t.is_punct("(") and self._looks_like_cast():
            self.advance()
            ty = self.parse_type()
            self.expect_punct(")")
            expr = self.parse_unary()
            return A.Cast(ty, expr, t.line, t.col)
        return self.parse_postfix()

    def _looks_like_cast(self) -> bool:
        """Lookahead: '(' followed by a type and ')' then a unary-start."""
        save = self.pos
        try:
            self.advance()  # '('
            if not self.at_type_start():
                return False
            self.parse_type()
            if not self.cur.is_punct(")"):
                return False
            nxt = self.peek()
            return nxt.kind in _CAST_OPERAND_KINDS or (
                nxt.kind == "punct" and nxt.text in _CAST_OPERAND_PUNCTS)
        except ParseError:
            return False
        finally:
            self.pos = save
            self.cur = self.toks[save]

    def parse_postfix(self) -> A.Expr:
        e = self.parse_primary()
        while True:
            t = self.cur
            if t.kind != "punct":
                break
            text = t.text
            if text == "(":
                self.advance()
                args: list[A.Expr] = []
                if not self.cur.is_punct(")"):
                    while True:
                        args.append(self.parse_assignment())
                        if self.cur.is_punct(","):
                            self.advance()
                            continue
                        break
                self.expect_punct(")")
                e = A.Call(e, args, t.line, t.col)
            elif text == "[":
                self.advance()
                idx = self.parse_expr()
                self.expect_punct("]")
                e = A.Index(e, idx, t.line, t.col)
            elif text == "." or text == "->":
                self.advance()
                name = self.expect_kind("id").text
                e = A.Member(e, name, text == "->", t.line, t.col)
            elif text == "++" or text == "--":
                self.advance()
                e = A.UnOp(text, e, False, t.line, t.col)
            else:
                break
        return e

    def parse_primary(self) -> A.Expr:
        t = self.cur
        if t.kind == "int":
            self.advance()
            text = t.text.rstrip("uUlL")
            value = int(text, 16) if text.lower().startswith("0x") else int(text)
            return A.IntLit(value, t.line, t.col)
        if t.kind == "float":
            self.advance()
            try:
                value = float(t.text.rstrip("fFlL"))
            except ValueError:      # suffix mixes, e.g. 1.5u or 0x1lf
                raise ParseError(f"malformed floating literal {t.text!r}",
                                 t.line, t.col) from None
            return A.FloatLit(value, t.text, t.line, t.col)
        if t.kind == "char":
            self.advance()
            inner = t.text[1:-1]
            value = {"\\n": "\n", "\\t": "\t", "\\0": "\0", "\\\\": "\\",
                     "\\'": "'"}.get(inner, inner)
            return A.CharLit(value, t.line, t.col)
        if t.kind == "string":
            self.advance()
            inner = t.text[1:-1]
            inner = inner.replace("\\n", "\n").replace("\\t", "\t") \
                         .replace('\\"', '"').replace("\\\\", "\\")
            return A.StringLit(inner, t.line, t.col)
        if t.is_kw("true"):
            self.advance()
            return A.IntLit(1, t.line, t.col)
        if t.is_kw("false"):
            self.advance()
            return A.IntLit(0, t.line, t.col)
        if t.kind == "id":
            self.advance()
            return A.Ident(t.text, t.line, t.col)
        if t.is_punct("("):
            self.advance()
            e = self.parse_expr()
            self.expect_punct(")")
            return e
        raise self.error(f"unexpected token {t!r} in expression")
