"""Affine expressions and constraints over loop indices and parameters.

The polyhedral model (paper §II-B, §III-C.2) represents each loop iteration
as a lattice point inside the polyhedron carved out by affine loop bounds and
branch conditions.  This module provides the affine algebra: expressions of
the form ``c0 + c1*x1 + ... + cn*xn`` with exact rational coefficients, and
the constraint forms Mira extracts from loop SCoPs and ``if`` conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

from ..errors import PolyhedralError
from ..symbolic import Expr, Int, Sym
from ..symbolic.poly import expr_to_poly

Number = Union[int, Fraction]

__all__ = ["AffineExpr", "Constraint", "affine_from_symbolic"]


@dataclass(frozen=True)
class AffineExpr:
    """``const + sum(coeffs[v] * v)`` with Fraction coefficients."""

    coeffs: tuple = ()          # tuple[tuple[str, Fraction], ...], sorted by var
    const: Fraction = Fraction(0)

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def constant(c: Number) -> "AffineExpr":
        return AffineExpr((), Fraction(c))

    @staticmethod
    def var(name: str, coeff: Number = 1) -> "AffineExpr":
        return AffineExpr(((name, Fraction(coeff)),), Fraction(0))

    @staticmethod
    def build(coeffs: Mapping[str, Number], const: Number = 0) -> "AffineExpr":
        items = tuple(sorted((v, Fraction(c)) for v, c in coeffs.items() if c != 0))
        return AffineExpr(items, Fraction(const))

    # -- algebra ---------------------------------------------------------------
    def coeff_map(self) -> dict[str, Fraction]:
        return dict(self.coeffs)

    def coeff(self, var: str) -> Fraction:
        for v, c in self.coeffs:
            if v == var:
                return c
        return Fraction(0)

    def __add__(self, other: "AffineExpr") -> "AffineExpr":
        m = self.coeff_map()
        for v, c in other.coeffs:
            m[v] = m.get(v, Fraction(0)) + c
        return AffineExpr.build(m, self.const + other.const)

    def __sub__(self, other: "AffineExpr") -> "AffineExpr":
        return self + other.scale(-1)

    def __neg__(self) -> "AffineExpr":
        return self.scale(-1)

    def scale(self, k: Number) -> "AffineExpr":
        k = Fraction(k)
        return AffineExpr.build(
            {v: c * k for v, c in self.coeffs}, self.const * k
        )

    def drop_var(self, var: str) -> "AffineExpr":
        return AffineExpr.build(
            {v: c for v, c in self.coeffs if v != var}, self.const
        )

    # -- queries -----------------------------------------------------------------
    def variables(self) -> frozenset:
        return frozenset(v for v, _ in self.coeffs)

    def is_constant(self) -> bool:
        return not self.coeffs

    def evaluate(self, env: Mapping[str, Number]) -> Fraction:
        total = self.const
        for v, c in self.coeffs:
            if v not in env:
                raise PolyhedralError(f"unbound variable {v!r} in affine expr")
            total += c * Fraction(env[v])
        return total

    def to_symbolic(self) -> Expr:
        e: Expr = Int(self.const)
        for v, c in self.coeffs:
            e = e + Int(c) * Sym(v)
        return e

    def __str__(self) -> str:
        parts = []
        for v, c in self.coeffs:
            if c == 1:
                parts.append(v)
            elif c == -1:
                parts.append(f"-{v}")
            else:
                parts.append(f"{c}*{v}")
        if self.const != 0 or not parts:
            parts.append(str(self.const))
        return " + ".join(parts).replace("+ -", "- ")


def affine_from_symbolic(e: Expr) -> Optional[AffineExpr]:
    """Convert a symbolic Expr to AffineExpr; None if not affine."""
    p = expr_to_poly(e)
    if p is None:
        return None
    coeffs: dict[str, Fraction] = {}
    const = Fraction(0)
    for mono, c in p.terms.items():
        if not mono:
            const = c
            continue
        if len(mono) != 1 or mono[0][1] != 1:
            return None
        coeffs[mono[0][0]] = c
    return AffineExpr.build(coeffs, const)


@dataclass(frozen=True)
class Constraint:
    """A polyhedral constraint.

    * kind ``'ge'``:   ``expr >= 0``  (convex half-space)
    * kind ``'eq'``:   ``expr == 0``  (hyperplane)
    * kind ``'mod_eq'``: ``expr % mod == rem`` — lattice slice (convex domain
      intersected with a lattice; countable via floor arithmetic)
    * kind ``'mod_ne'``: ``expr % mod != rem`` — *breaks convexity* (the
      "holes" of paper Fig. 4(c)); handled by the complement trick.
    """

    kind: str
    expr: AffineExpr
    mod: int = 0
    rem: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("ge", "eq", "mod_eq", "mod_ne"):
            raise PolyhedralError(f"unknown constraint kind {self.kind!r}")
        if self.kind in ("mod_eq", "mod_ne"):
            if self.mod <= 0:
                raise PolyhedralError("modulus must be positive")
            if not (0 <= self.rem < self.mod):
                raise PolyhedralError("remainder out of range")

    @property
    def convex(self) -> bool:
        return self.kind in ("ge", "eq")

    def satisfied(self, env: Mapping[str, Number]) -> bool:
        v = self.expr.evaluate(env)
        if self.kind == "ge":
            return v >= 0
        if self.kind == "eq":
            return v == 0
        if v.denominator != 1:
            return False
        r = v.numerator % self.mod
        if self.kind == "mod_eq":
            return r == self.rem
        return r != self.rem

    def __str__(self) -> str:
        if self.kind == "ge":
            return f"{self.expr} >= 0"
        if self.kind == "eq":
            return f"{self.expr} == 0"
        op = "==" if self.kind == "mod_eq" else "!="
        return f"({self.expr}) % {self.mod} {op} {self.rem}"
