"""Source AST node classes.

The node taxonomy mirrors the ROSE IR used by the paper: each class carries a
``rose_name`` naming its ROSE counterpart (``SgForStatement``, ``SgIfStmt``,
``SgExprStatement``, ...).  Every node also carries:

* ``line`` / ``col`` — 1-based source position (the bridge to the binary AST),
* ``info`` — an open attribute dictionary.  The paper's metric generator
  "attaches additional information to the particular tree node as a
  supplement used for analysis and modeling" during its bottom-up pass; this
  dict is that mechanism.
* ``annotations`` — parsed ``#pragma @Annotation`` payloads that textually
  precede the node (statements only).
"""

from __future__ import annotations

from typing import Iterator, Optional

__all__ = [
    "Node", "Expr", "Stmt",
    "IntLit", "FloatLit", "CharLit", "StringLit", "Ident",
    "BinOp", "UnOp", "Assign", "Ternary", "Call", "Member", "Index",
    "Cast", "SizeOf",
    "ExprStmt", "DeclStmt", "CompoundStmt", "IfStmt", "ForStmt",
    "WhileStmt", "DoWhileStmt", "ReturnStmt", "BreakStmt", "ContinueStmt",
    "NullStmt",
    "VarDecl", "ParamDecl", "FunctionDef", "ClassDef", "TranslationUnit",
    "walk",
]


class Node:
    """Base AST node."""

    rose_name = "SgNode"
    __slots__ = ("line", "col", "info")

    def __init__(self, line: int = 0, col: int = 0) -> None:
        self.line = line
        self.col = col
        self.info: dict = {}

    def children(self) -> Iterator["Node"]:
        return iter(())

    def __repr__(self) -> str:
        return f"<{type(self).__name__} @{self.line}:{self.col}>"


def walk(node: Node) -> Iterator[Node]:
    """Pre-order traversal of the subtree rooted at ``node``.

    Iterative, so a deep tree costs one generator resume per node rather
    than one per node and level."""
    stack = [node]
    pop, push = stack.pop, stack.extend
    while stack:
        node = pop()
        yield node
        kids = list(node.children())
        kids.reverse()
        push(kids)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr(Node):
    rose_name = "SgExpression"
    __slots__ = ()


class IntLit(Expr):
    rose_name = "SgIntVal"
    __slots__ = ("value",)

    def __init__(self, value: int, line: int = 0, col: int = 0) -> None:
        super().__init__(line, col)
        self.value = value

    def __repr__(self) -> str:
        return f"IntLit({self.value})"


class FloatLit(Expr):
    rose_name = "SgDoubleVal"
    __slots__ = ("value", "text")

    def __init__(self, value: float, text: str = "", line: int = 0, col: int = 0) -> None:
        super().__init__(line, col)
        self.value = value
        self.text = text or repr(value)

    def __repr__(self) -> str:
        return f"FloatLit({self.text})"


class CharLit(Expr):
    rose_name = "SgCharVal"
    __slots__ = ("value",)

    def __init__(self, value: str, line: int = 0, col: int = 0) -> None:
        super().__init__(line, col)
        self.value = value


class StringLit(Expr):
    rose_name = "SgStringVal"
    __slots__ = ("value",)

    def __init__(self, value: str, line: int = 0, col: int = 0) -> None:
        super().__init__(line, col)
        self.value = value


class Ident(Expr):
    rose_name = "SgVarRefExp"
    __slots__ = ("name",)

    def __init__(self, name: str, line: int = 0, col: int = 0) -> None:
        super().__init__(line, col)
        self.name = name

    def __repr__(self) -> str:
        return f"Ident({self.name})"


class BinOp(Expr):
    rose_name = "SgBinaryOp"
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Expr, rhs: Expr, line: int = 0, col: int = 0) -> None:
        super().__init__(line, col)
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def children(self) -> Iterator[Node]:
        yield self.lhs
        yield self.rhs

    def __repr__(self) -> str:
        return f"BinOp({self.op!r}, {self.lhs!r}, {self.rhs!r})"


class UnOp(Expr):
    rose_name = "SgUnaryOp"
    __slots__ = ("op", "operand", "prefix")

    def __init__(self, op: str, operand: Expr, prefix: bool = True,
                 line: int = 0, col: int = 0) -> None:
        super().__init__(line, col)
        self.op = op
        self.operand = operand
        self.prefix = prefix

    def children(self) -> Iterator[Node]:
        yield self.operand

    def __repr__(self) -> str:
        where = "pre" if self.prefix else "post"
        return f"UnOp({self.op!r}, {self.operand!r}, {where})"


class Assign(Expr):
    rose_name = "SgAssignOp"
    __slots__ = ("op", "target", "value")

    def __init__(self, op: str, target: Expr, value: Expr,
                 line: int = 0, col: int = 0) -> None:
        super().__init__(line, col)
        self.op = op  # '=', '+=', '-=', '*=', '/=', '%='
        self.target = target
        self.value = value

    def children(self) -> Iterator[Node]:
        yield self.target
        yield self.value

    def __repr__(self) -> str:
        return f"Assign({self.op!r}, {self.target!r}, {self.value!r})"


class Ternary(Expr):
    rose_name = "SgConditionalExp"
    __slots__ = ("cond", "then", "els")

    def __init__(self, cond: Expr, then: Expr, els: Expr,
                 line: int = 0, col: int = 0) -> None:
        super().__init__(line, col)
        self.cond = cond
        self.then = then
        self.els = els

    def children(self) -> Iterator[Node]:
        yield self.cond
        yield self.then
        yield self.els


class Call(Expr):
    rose_name = "SgFunctionCallExp"
    __slots__ = ("callee", "args")

    def __init__(self, callee: Expr, args: list, line: int = 0, col: int = 0) -> None:
        super().__init__(line, col)
        self.callee = callee
        self.args = args

    def children(self) -> Iterator[Node]:
        yield self.callee
        yield from self.args

    def __repr__(self) -> str:
        return f"Call({self.callee!r}, {len(self.args)} args)"


class Member(Expr):
    rose_name = "SgDotExp"
    __slots__ = ("obj", "name", "arrow")

    def __init__(self, obj: Expr, name: str, arrow: bool = False,
                 line: int = 0, col: int = 0) -> None:
        super().__init__(line, col)
        self.obj = obj
        self.name = name
        self.arrow = arrow

    def children(self) -> Iterator[Node]:
        yield self.obj


class Index(Expr):
    rose_name = "SgPntrArrRefExp"
    __slots__ = ("base", "index")

    def __init__(self, base: Expr, index: Expr, line: int = 0, col: int = 0) -> None:
        super().__init__(line, col)
        self.base = base
        self.index = index

    def children(self) -> Iterator[Node]:
        yield self.base
        yield self.index

    def __repr__(self) -> str:
        return f"Index({self.base!r}, {self.index!r})"


class Cast(Expr):
    rose_name = "SgCastExp"
    __slots__ = ("type", "expr")

    def __init__(self, type_, expr: Expr, line: int = 0, col: int = 0) -> None:
        super().__init__(line, col)
        self.type = type_
        self.expr = expr

    def children(self) -> Iterator[Node]:
        yield self.expr


class SizeOf(Expr):
    rose_name = "SgSizeOfOp"
    __slots__ = ("arg",)

    def __init__(self, arg, line: int = 0, col: int = 0) -> None:
        super().__init__(line, col)
        self.arg = arg  # a Type or an Expr


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Stmt(Node):
    rose_name = "SgStatement"
    __slots__ = ("annotations",)

    def __init__(self, line: int = 0, col: int = 0) -> None:
        super().__init__(line, col)
        self.annotations: list = []  # parsed pragma payloads preceding this stmt


class ExprStmt(Stmt):
    rose_name = "SgExprStatement"
    __slots__ = ("expr",)

    def __init__(self, expr: Expr, line: int = 0, col: int = 0) -> None:
        super().__init__(line, col)
        self.expr = expr

    def children(self) -> Iterator[Node]:
        yield self.expr


class VarDecl(Node):
    """One declarator: ``double a[100] = init``."""

    rose_name = "SgInitializedName"
    __slots__ = ("name", "type", "array_dims", "init")

    def __init__(self, name: str, type_, array_dims: list, init: Optional[Expr],
                 line: int = 0, col: int = 0) -> None:
        super().__init__(line, col)
        self.name = name
        self.type = type_
        self.array_dims = array_dims  # list of Expr (constant-foldable)
        self.init = init

    def children(self) -> Iterator[Node]:
        yield from self.array_dims
        if self.init is not None:
            yield self.init

    def __repr__(self) -> str:
        return f"VarDecl({self.type} {self.name})"


class DeclStmt(Stmt):
    rose_name = "SgVariableDeclaration"
    __slots__ = ("decls",)

    def __init__(self, decls: list, line: int = 0, col: int = 0) -> None:
        super().__init__(line, col)
        self.decls = decls

    def children(self) -> Iterator[Node]:
        yield from self.decls


class CompoundStmt(Stmt):
    rose_name = "SgBasicBlock"
    __slots__ = ("stmts",)

    def __init__(self, stmts: list, line: int = 0, col: int = 0) -> None:
        super().__init__(line, col)
        self.stmts = stmts

    def children(self) -> Iterator[Node]:
        yield from self.stmts


class IfStmt(Stmt):
    rose_name = "SgIfStmt"
    __slots__ = ("cond", "then", "els")

    def __init__(self, cond: Expr, then: Stmt, els: Optional[Stmt],
                 line: int = 0, col: int = 0) -> None:
        super().__init__(line, col)
        self.cond = cond
        self.then = then
        self.els = els

    def children(self) -> Iterator[Node]:
        yield self.cond
        yield self.then
        if self.els is not None:
            yield self.els


class ForStmt(Stmt):
    rose_name = "SgForStatement"
    __slots__ = ("init", "cond", "incr", "body")

    def __init__(self, init: Optional[Stmt], cond: Optional[Expr],
                 incr: Optional[Expr], body: Stmt,
                 line: int = 0, col: int = 0) -> None:
        super().__init__(line, col)
        self.init = init  # DeclStmt or ExprStmt or None (SgForInitStatement)
        self.cond = cond
        self.incr = incr  # e.g. SgPlusPlusOp in ROSE terms
        self.body = body

    def children(self) -> Iterator[Node]:
        if self.init is not None:
            yield self.init
        if self.cond is not None:
            yield self.cond
        if self.incr is not None:
            yield self.incr
        yield self.body


class WhileStmt(Stmt):
    rose_name = "SgWhileStmt"
    __slots__ = ("cond", "body")

    def __init__(self, cond: Expr, body: Stmt, line: int = 0, col: int = 0) -> None:
        super().__init__(line, col)
        self.cond = cond
        self.body = body

    def children(self) -> Iterator[Node]:
        yield self.cond
        yield self.body


class DoWhileStmt(Stmt):
    rose_name = "SgDoWhileStmt"
    __slots__ = ("body", "cond")

    def __init__(self, body: Stmt, cond: Expr, line: int = 0, col: int = 0) -> None:
        super().__init__(line, col)
        self.body = body
        self.cond = cond

    def children(self) -> Iterator[Node]:
        yield self.body
        yield self.cond


class ReturnStmt(Stmt):
    rose_name = "SgReturnStmt"
    __slots__ = ("expr",)

    def __init__(self, expr: Optional[Expr], line: int = 0, col: int = 0) -> None:
        super().__init__(line, col)
        self.expr = expr

    def children(self) -> Iterator[Node]:
        if self.expr is not None:
            yield self.expr


class BreakStmt(Stmt):
    rose_name = "SgBreakStmt"
    __slots__ = ()


class ContinueStmt(Stmt):
    rose_name = "SgContinueStmt"
    __slots__ = ()


class NullStmt(Stmt):
    rose_name = "SgNullStatement"
    __slots__ = ()


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

class ParamDecl(Node):
    rose_name = "SgInitializedName"
    __slots__ = ("name", "type")

    def __init__(self, name: str, type_, line: int = 0, col: int = 0) -> None:
        super().__init__(line, col)
        self.name = name
        self.type = type_

    def __repr__(self) -> str:
        return f"ParamDecl({self.type} {self.name})"


class FunctionDef(Node):
    rose_name = "SgFunctionDeclaration"
    __slots__ = ("name", "return_type", "params", "body", "class_name")

    def __init__(self, name: str, return_type, params: list, body: CompoundStmt,
                 class_name: Optional[str] = None, line: int = 0, col: int = 0) -> None:
        super().__init__(line, col)
        self.name = name
        self.return_type = return_type
        self.params = params
        self.body = body
        self.class_name = class_name  # set for member functions

    @property
    def qualified_name(self) -> str:
        if self.class_name:
            return f"{self.class_name}::{self.name}"
        return self.name

    def children(self) -> Iterator[Node]:
        yield from self.params
        yield self.body

    def __repr__(self) -> str:
        return f"FunctionDef({self.qualified_name}/{len(self.params)})"


class ClassDef(Node):
    rose_name = "SgClassDeclaration"
    __slots__ = ("name", "fields", "methods", "is_struct")

    def __init__(self, name: str, fields: list, methods: list,
                 is_struct: bool = False, line: int = 0, col: int = 0) -> None:
        super().__init__(line, col)
        self.name = name
        self.fields = fields   # list[VarDecl]
        self.methods = methods  # list[FunctionDef]
        self.is_struct = is_struct

    def children(self) -> Iterator[Node]:
        yield from self.fields
        yield from self.methods


class TranslationUnit(Node):
    rose_name = "SgSourceFile"
    __slots__ = ("filename", "classes", "functions", "globals")

    def __init__(self, filename: str = "<input>") -> None:
        super().__init__(1, 1)
        self.filename = filename
        self.classes: list[ClassDef] = []
        self.functions: list[FunctionDef] = []
        self.globals: list[DeclStmt] = []

    def children(self) -> Iterator[Node]:
        yield from self.classes
        yield from self.globals
        yield from self.functions

    def find_function(self, name: str, class_name: Optional[str] = None):
        """Look up a function definition by (class, name)."""
        for f in self.functions:
            if f.name == name and f.class_name == class_name:
                return f
        for c in self.classes:
            for m in c.methods:
                if m.name == name and (class_name is None or m.class_name == class_name):
                    return m
        return None

    def all_functions(self) -> list[FunctionDef]:
        out = list(self.functions)
        for c in self.classes:
            out.extend(c.methods)
        return out
