"""C/C++ subset frontend: preprocessor, lexer, parser, source AST.

Stands in for the ROSE/EDG frontend the paper builds on (DESIGN.md §2).
"""

from . import ast_nodes
from .ast_nodes import TranslationUnit
from .lexer import tokenize
from .parser import parse_source
from .preprocessor import preprocess
from .printer import unparse

__all__ = ["TranslationUnit", "ast_nodes", "parse_source", "preprocess",
           "tokenize", "unparse"]
