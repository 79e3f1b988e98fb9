"""AST traversal machinery.

The paper's metric generator traverses the source AST **twice**: a bottom-up
pass that propagates structure details (e.g. loop SCoP pieces scattered in
``SgForInitStatement``/``SgExprStatement``/``SgPlusPlusOp`` children) up to
the sub-tree head node, and a top-down pass that pushes context (enclosing
iteration domains) from parents to children (§III-B).  This module provides
both traversal orders plus a generic visitor.
"""

from __future__ import annotations

from typing import Iterator

from .ast_nodes import Node

__all__ = ["preorder", "postorder", "Visitor", "BottomUpPass", "TopDownPass"]


def preorder(node: Node) -> Iterator[Node]:
    """Parent before children (top-down order)."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(list(n.children())))


def postorder(node: Node) -> Iterator[Node]:
    """Children before parent (bottom-up order)."""
    for c in node.children():
        yield from postorder(c)
    yield node


class Visitor:
    """Dispatch on node class name: ``visit_ForStmt`` etc.

    Unhandled node classes fall back through the MRO, then to
    ``generic_visit`` which recurses into children.
    """

    def visit(self, node: Node):
        for cls in type(node).__mro__:
            method = getattr(self, f"visit_{cls.__name__}", None)
            if method is not None:
                return method(node)
        return self.generic_visit(node)

    def generic_visit(self, node: Node):
        for c in node.children():
            self.visit(c)


class BottomUpPass(Visitor):
    """A visitor whose ``visit`` processes children first.

    Subclasses implement ``visit_<Class>``; information flows child→parent by
    writing into ``node.info`` (the paper's "extra data attached to the head
    node").
    """

    def visit(self, node: Node):
        for c in node.children():
            self.visit(c)
        for cls in type(node).__mro__:
            method = getattr(self, f"handle_{cls.__name__}", None)
            if method is not None:
                return method(node)
        return None


class TopDownPass(Visitor):
    """A visitor that pushes a context object down the tree.

    Subclasses implement ``enter_<Class>(node, ctx) -> child_ctx`` (returning
    the context for children) and optionally ``leave_<Class>(node, ctx)``.
    """

    def run(self, node: Node, ctx):
        child_ctx = ctx
        entered = None
        for cls in type(node).__mro__:
            method = getattr(self, f"enter_{cls.__name__}", None)
            if method is not None:
                child_ctx = method(node, ctx)
                entered = cls
                break
        for c in node.children():
            self.run(c, child_ctx)
        for cls in type(node).__mro__:
            method = getattr(self, f"leave_{cls.__name__}", None)
            if method is not None:
                method(node, ctx)
                break
        return entered
