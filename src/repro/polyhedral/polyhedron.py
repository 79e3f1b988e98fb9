"""Loop-nest iteration domains: data structures, enumeration, convexity.

A :class:`LoopNest` is the polyhedral representation Mira builds for each
(perfectly or imperfectly nested) loop: one :class:`NestLevel` per loop with
symbolic affine bounds, plus extra :class:`Constraint` rows contributed by
enclosed ``if`` conditions (paper §III-C.3).

Enumeration (:meth:`LoopNest.enumerate_points`) is the brute-force oracle the
tests validate symbolic counting against — it executes the nest semantics
exactly like the generated loop would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping

from ..errors import PolyhedralError
from ..symbolic import Expr, Max, Min, as_expr
from .affine import Constraint

__all__ = ["NestLevel", "LoopNest"]


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


@dataclass(frozen=True)
class NestLevel:
    """One loop level: ``for (var = lb; var <= ub; var += step)``.

    Bounds are symbolic expressions over outer loop variables and model
    parameters; ``step`` is a positive integer (downward loops are normalized
    by the SCoP extractor — iteration counts are direction-invariant).
    """

    var: str
    lb: Expr
    ub: Expr
    step: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.step, int) or self.step <= 0:
            raise PolyhedralError(f"step must be a positive int, got {self.step!r}")

    def bounds_at(self, env: Mapping[str, int]) -> tuple[int, int]:
        """Concrete (lo, hi) given bindings for outer vars and parameters."""
        lo = self.lb.evaluate(env)
        hi = self.ub.evaluate(env)
        return _ceil(lo), _floor(hi)


def _expr_has_node(e: Expr, kinds: tuple) -> bool:
    if isinstance(e, kinds):
        return True
    for attr in ("args",):
        if hasattr(e, attr):
            return any(_expr_has_node(a, kinds) for a in getattr(e, attr))
    for attr in ("num", "den", "base", "body", "lo", "hi"):
        if hasattr(e, attr):
            sub = getattr(e, attr)
            if isinstance(sub, Expr) and _expr_has_node(sub, kinds):
                return True
    return False


@dataclass
class LoopNest:
    """A loop nest with optional branch constraints.

    ``levels`` are ordered outermost → innermost.  ``constraints`` are extra
    conditions (from ``if`` statements) over the nest variables and
    parameters; they restrict which lattice points are counted.
    """

    levels: list = field(default_factory=list)
    constraints: list = field(default_factory=list)

    # -- construction ------------------------------------------------------------
    def add_level(self, level: NestLevel) -> "LoopNest":
        names = {l.var for l in self.levels}
        if level.var in names:
            raise PolyhedralError(f"duplicate loop variable {level.var!r}")
        self.levels.append(level)
        return self

    def with_constraint(self, c: Constraint) -> "LoopNest":
        """A copy with one extra constraint (used when entering an if-branch)."""
        return LoopNest(list(self.levels), list(self.constraints) + [c])

    def nested(self, level: NestLevel) -> "LoopNest":
        """A copy with one more inner level (used when entering a loop)."""
        out = LoopNest(list(self.levels), list(self.constraints))
        return out.add_level(level)

    # -- queries --------------------------------------------------------------------
    @property
    def depth(self) -> int:
        return len(self.levels)

    def index_vars(self) -> list[str]:
        return [l.var for l in self.levels]

    def parameters(self) -> frozenset:
        """Free symbols that are not loop indices."""
        idx = set(self.index_vars())
        out: set = set()
        for l in self.levels:
            out |= l.lb.free_symbols() | l.ub.free_symbols()
        for c in self.constraints:
            out |= c.expr.variables()
        return frozenset(out - idx)

    def is_convex(self) -> tuple[bool, str]:
        """Check whether the iteration domain is a convex lattice set.

        Returns ``(ok, reason)``.  Non-convexity arises from:

        * ``mod_ne`` constraints — holes in the lattice (paper Fig. 4(c)),
        * ``Min`` in a lower bound or ``Max`` in an upper bound — a union of
          polyhedra (paper Fig. 4(d) / Listing 3).
        """
        for c in self.constraints:
            if c.kind == "mod_ne":
                return False, f"modular exclusion breaks convexity: {c}"
        for l in self.levels:
            if _expr_has_node(l.lb, (Min,)):
                return False, f"Min in lower bound of {l.var} (union of polyhedra)"
            if _expr_has_node(l.ub, (Max,)):
                return False, f"Max in upper bound of {l.var} (union of polyhedra)"
        return True, "convex"

    # -- brute-force enumeration (oracle) ----------------------------------------------
    def enumerate_points(
        self, params: Mapping[str, int] | None = None
    ) -> Iterator[dict]:
        """Yield every lattice point, executing the nest like a real loop."""
        params = dict(params or {})
        yield from self._enum(0, params)

    def _enum(self, depth: int, env: dict) -> Iterator[dict]:
        if depth == len(self.levels):
            if all(c.satisfied(env) for c in self.constraints):
                yield {l.var: env[l.var] for l in self.levels}
            return
        level = self.levels[depth]
        lo, hi = level.bounds_at(env)
        v = lo
        while v <= hi:
            env2 = dict(env)
            env2[level.var] = v
            yield from self._enum(depth + 1, env2)
            v += level.step

    def count_concrete(self, params: Mapping[str, int] | None = None) -> int:
        """Exact point count by enumeration (test oracle; exponential)."""
        return sum(1 for _ in self.enumerate_points(params))

    def count(self, body: Expr | int = 1) -> Expr:
        """Symbolic (possibly parametric) lattice-point count.

        Delegates to :func:`repro.polyhedral.counting.count_nest`.
        """
        from .counting import count_nest

        return count_nest(self, as_expr(body))

    def __str__(self) -> str:
        lines = []
        for l in self.levels:
            s = f"  {l.var} in [{l.lb!r}, {l.ub!r}]"
            if l.step != 1:
                s += f" step {l.step}"
            lines.append(s)
        for c in self.constraints:
            lines.append(f"  s.t. {c}")
        return "LoopNest(\n" + "\n".join(lines) + "\n)"
