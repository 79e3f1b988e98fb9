"""Parametric lattice-point counting for loop nests.

Implements the counting side of the paper's polyhedral modeling (§III-C.2/3):

* nested affine loops → exact (quasi-)polynomial counts via recursive
  symbolic summation (Faulhaber closed forms),
* branch constraints → tightened per-variable bounds (paper Fig. 4(b)),
* modular exclusions (``j % 4 != 0``) → the complement trick
  ``count_true = count_total − count_false`` (paper Fig. 4(c) and the
  equation in §III-C.3),
* strides → floor-division trip counts,
* statically intractable shapes → lazy ``Sum`` nodes evaluated numerically at
  model-evaluation time (extension; the paper requires annotations there).

The central entry point is :func:`count_nest`, which counts
``sum over the nest domain of body`` where *body* may itself be a parametric
expression produced by inner scopes (this is how "using the polyhedral model
as context in the following analysis" composes).
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import PolyhedralError
from ..symbolic import Expr, FloorDiv, Int, Max, Min, Sum, as_expr, sum_expr
from .affine import AffineExpr, Constraint, affine_from_symbolic
from .polyhedron import LoopNest, NestLevel

__all__ = ["count_nest", "bounds_from_constraint", "count_residue"]


def bounds_from_constraint(
    c: Constraint, var: str, inner_vars: frozenset
) -> tuple[list[Expr], list[Expr], list[Constraint]] | None:
    """Resolve a constraint into bounds on ``var``.

    Returns ``(lower_bounds, upper_bounds, residual_mod_constraints)`` if the
    constraint involves ``var`` (and no variable *inner* to it), or None when
    the constraint does not mention ``var``.

    An affine constraint ``a*var + rest >= 0`` becomes
    ``var >= ceil(-rest/a)`` (a>0) or ``var <= floor(-rest/(-a))`` (a<0),
    with ceil/floor realized as FloorDiv nodes (``ceil(p/q) = -((-p)//q)``).
    """
    vs = c.expr.variables()
    if var not in vs:
        return None
    if vs & inner_vars:
        raise PolyhedralError(
            f"constraint {c} mentions variables inner to {var!r}; "
            "constraints must be resolvable at the innermost mentioned level"
        )
    a = c.expr.coeff(var)
    rest = c.expr.drop_var(var)

    if c.kind in ("mod_eq", "mod_ne"):
        if abs(a) != 1:
            raise PolyhedralError(
                f"modular constraint {c}: only unit coefficients on {var!r} "
                "are supported symbolically"
            )
        return [], [], [c]

    if c.kind == "eq":
        if a == 0:
            raise PolyhedralError(f"degenerate equality {c}")
        val = _div_exact(rest.scale(-1), a)
        return [val], [val], []

    # kind == 'ge':  a*var + rest >= 0
    if a > 0:
        # var >= -rest/a  →  lower bound ceil(-rest/a)
        return [_ceil_div(rest.scale(-1), a)], [], []
    if a < 0:
        # var <= rest/(-a)  →  upper bound floor(rest/(-a))
        return [], [_floor_div(rest, -a)], []
    raise PolyhedralError(f"constraint {c} has zero coefficient on {var!r}")


def _clear_denominators(aff: AffineExpr, a: Fraction) -> tuple[AffineExpr, int]:
    """Scale (aff, a) by the lcm of denominators so both become integral."""
    denoms = [a.denominator] + [c.denominator for _, c in aff.coeffs] + [
        aff.const.denominator
    ]
    lcm = 1
    for d in denoms:
        g = _gcd(lcm, d)
        lcm = lcm // g * d
    return aff.scale(lcm), int(a * lcm)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _ceil_div(num: AffineExpr, den: Fraction) -> Expr:
    """Symbolic ``ceil(num/den)`` for den > 0: ``-((-num) // den)``."""
    num_i, den_i = _clear_denominators(num, den)
    if den_i == 1:
        return num_i.to_symbolic()
    return Int(0) - FloorDiv.make(num_i.scale(-1).to_symbolic(), Int(den_i))


def _floor_div(num: AffineExpr, den: Fraction) -> Expr:
    """Symbolic ``floor(num/den)`` for den > 0."""
    num_i, den_i = _clear_denominators(num, den)
    if den_i == 1:
        return num_i.to_symbolic()
    return FloorDiv.make(num_i.to_symbolic(), Int(den_i))


def _div_exact(num: AffineExpr, den: Fraction) -> Expr:
    return num.scale(Fraction(1, 1) / den).to_symbolic()


def count_residue(
    body: Expr, var: str, lo: Expr, hi: Expr, target: Expr, mod: int
) -> Expr:
    """``sum(body for var in [lo,hi] if var ≡ target (mod m))``.

    Solutions are ``var = target + m*k``; the count of such points is
    ``floor((hi - target)/m) - floor((lo - 1 - target)/m)``, valid for any
    integer representative ``target`` (no reduction needed).  When the body
    depends on ``var`` we substitute and sum over ``k``; FloorDiv bounds fold
    to integers in the concrete case, otherwise a lazy Sum remains.
    """
    k_lo = Int(0) - FloorDiv.make((target - lo), Int(mod))  # ceil((lo-target)/m)
    k_hi = FloorDiv.make(hi - target, Int(mod))
    if var not in body.free_symbols():
        n = k_hi - k_lo + 1
        if isinstance(n, Int):
            n = n if n.value >= 0 else Int(0)
        else:
            n = Max.make((Int(0), n))
        return body * n
    kvar = f"_k_{var}"
    sub_body = body.subs({var: target + Int(mod) * _sym(kvar)})
    return sum_expr(sub_body, kvar, k_lo, k_hi)


def _sym(name: str):
    from ..symbolic import Sym

    return Sym(name)


def _effective_bounds(
    nest: LoopNest, depth: int
) -> tuple[Expr, Expr, list[Constraint], bool]:
    """Combine the loop's own bounds with constraint-derived bounds for the
    variable at ``depth``.

    Returns ``(lo, hi, residual mod constraints, tightened)`` where
    ``tightened`` records whether branch constraints narrowed the loop's own
    bounds — only then may the effective range be empty and need clamping
    (a plain loop's range is assumed well-formed, the standard polyhedral
    assumption, which keeps counts polynomial).
    """
    level = nest.levels[depth]
    inner = frozenset(l.var for l in nest.levels[depth + 1 :])
    lows: list[Expr] = [level.lb]
    highs: list[Expr] = [level.ub]
    mods: list[Constraint] = []
    for c in nest.constraints:
        # A constraint is resolved at the *innermost* level it mentions;
        # at outer levels it has already been consumed.
        if c.expr.variables() & inner:
            continue
        resolved = bounds_from_constraint(c, level.var, inner)
        if resolved is None:
            continue
        lo_b, hi_b, mod_c = resolved
        lows.extend(lo_b)
        highs.extend(hi_b)
        mods.extend(mod_c)
    tightened = len(lows) > 1 or len(highs) > 1
    lo = lows[0] if len(lows) == 1 else Max.make(lows)
    hi = highs[0] if len(highs) == 1 else Min.make(highs)
    return lo, hi, mods, tightened


def _sum_level(body: Expr, level: NestLevel, lo: Expr, hi: Expr,
               mods: list[Constraint], *, clamp: bool,
               ivs: dict | None = None) -> Expr:
    """Sum ``body`` over one loop level with effective bounds and residual
    modular constraints."""
    var = level.var

    # C's % has remainder-sign-follows-dividend semantics: for a nonzero
    # target residue, mathematical residue counting is only valid when the
    # constrained expression is provably non-negative over the domain.
    if mods and ivs is not None:
        for c in mods:
            if c.rem != 0:
                iv = ivs.get(var)
                if iv is not None and iv[0] < 0:
                    raise PolyhedralError(
                        f"modular constraint {c}: C remainder semantics on a "
                        f"possibly-negative domain (min {iv[0]}); use an "
                        "annotation")

    if level.step != 1:
        if mods:
            return _sum_strided_with_mods(body, level, lo, hi, mods)
        return count_residue(body, var, lo, hi, level.lb, level.step)

    if not mods:
        return sum_expr(body, var, lo, hi, clamp=clamp)

    # Apply modular constraints one at a time.  For a single mod_eq we count
    # the residue class directly; for mod_ne we use the complement trick
    # (paper: Count_true = Count_total - Count_false).
    if len(mods) > 1:
        raise PolyhedralError(
            "multiple modular constraints on one variable are not supported; "
            "use an annotation"
        )
    (c,) = mods
    a = c.expr.coeff(var)
    rest = c.expr.drop_var(var)
    # a*var + rest ≡ rem (mod m), |a| == 1 (checked in bounds_from_constraint)
    # → var ≡ a*(rem - rest) (mod m)
    target = (AffineExpr.constant(c.rem) - rest).scale(int(a)).to_symbolic()
    eq_count = count_residue(body, var, lo, hi, target, c.mod)
    if c.kind == "mod_eq":
        return eq_count
    total = sum_expr(body, var, lo, hi, clamp=clamp)
    return total - eq_count


def _sum_strided_with_mods(body: Expr, level: NestLevel, lo: Expr, hi: Expr,
                           mods: list[Constraint]) -> Expr:
    """Strided loop intersected with a modular constraint.

    Substituting ``var = lb + step*k`` turns ``a*var + rest ≡ rem (mod m)``
    into the linear congruence ``(a*step)*k ≡ rem - a*(lb + rest') (mod m)``
    over the normalized counter ``k``; solvable symbolically whenever
    ``gcd(a*step, m)`` divides a *concrete* right-hand side (or equals 1).
    """
    if len(mods) > 1:
        raise PolyhedralError(
            "multiple modular constraints on one strided variable are not "
            "supported; use an annotation")
    (c,) = mods
    var = level.var
    step = level.step
    a = int(c.expr.coeff(var))
    rest = c.expr.drop_var(var)
    if rest.variables():
        raise PolyhedralError(
            "strided loop with a multi-variable modular constraint is not "
            "supported; use an annotation")
    lb_aff = _as_concrete(level.lb)
    if lb_aff is None:
        raise PolyhedralError(
            "strided loop with modular constraint requires a concrete "
            "lower bound; use an annotation")

    kvar = f"_k_{var}"
    k_sym = _sym(kvar)
    sub_body = body.subs({var: level.lb + Int(step) * k_sym})
    # k range from the effective [lo, hi]:  k >= ceil((lo-lb)/step)
    k_lo = Int(0) - FloorDiv.make(level.lb - lo, Int(step))
    k_hi = FloorDiv.make(hi - level.lb, Int(step))

    m = c.mod
    coeff = (a * step) % m
    rhs = (c.rem - a * (int(lb_aff) + int(rest.const))) % m
    g = _gcd(coeff if coeff else m, m)
    if rhs % g != 0:
        eq_count = Int(0)  # congruence has no solutions
    else:
        m2 = m // g
        if m2 == 1:
            # every k satisfies the congruence
            eq_count = sum_expr(sub_body, kvar, k_lo, k_hi, clamp=True)
        else:
            coeff2 = (coeff // g) % m2
            rhs2 = (rhs // g) % m2
            inv = pow(coeff2, -1, m2)
            target = (inv * rhs2) % m2
            eq_count = count_residue(sub_body, kvar, k_lo, k_hi,
                                     Int(target), m2)
    if c.kind == "mod_eq":
        return eq_count
    total = sum_expr(sub_body, kvar, k_lo, k_hi, clamp=True)
    return total - eq_count


def _as_concrete(e: Expr):
    if isinstance(e, Int):
        return e.value
    return None


def _provably_nonempty(nest: LoopNest, depth: int, lo: Expr, hi: Expr) -> bool:
    """Try to prove ``hi - lo >= 0`` over the enclosing iteration domain.

    Eliminates outer index variables innermost-first, substituting for each
    the bound that *minimizes* ``hi - lo`` (its lower bound for a positive
    coefficient, upper for negative); a loop's own bounds over-approximate
    the values its variable takes, so a completed proof is sound.  Returns
    True only when elimination ends in a non-negative constant — e.g. the
    classic triangular ``j in [0, i]`` under ``i in [0, N-1]`` proves via
    ``i >= 0``, keeping its polynomial closed form.
    """
    d = affine_from_symbolic(hi - lo)
    if d is None:
        return False
    for k in range(depth - 1, -1, -1):
        level = nest.levels[k]
        c = d.coeff(level.var)
        if c == 0:
            continue
        bound = affine_from_symbolic(level.lb if c > 0 else level.ub)
        if bound is None:
            return False
        d = d.drop_var(level.var) + bound.scale(c)
    return d.is_constant() and d.const >= 0


def count_nest(nest: LoopNest, body: Expr | int = 1,
               assumptions: list | None = None) -> Expr:
    """Count ``sum over the nest's lattice points of body`` symbolically.

    The result is exact: a (quasi-)polynomial in the nest parameters when
    closed forms exist, otherwise an expression containing lazy ``Sum`` nodes
    that evaluate numerically (still exactly) when parameters are bound.

    When ``assumptions`` is a list, every *unproven* application of the
    well-formed-loop assumption appends the loop's extent expression
    (``hi - lo + 1``), which the count is only valid for when non-negative.
    Callers can check these against concrete parameter bindings (a caller
    passing ``m = 1`` into ``for (i = 2; i < m; i++)`` lands outside the
    validity domain, and the polynomial count goes negative).
    """
    body = as_expr(body)
    if not nest.levels:
        # No enclosing loop: constraints degenerate to a 0/1 guard that we
        # cannot decide symbolically; require constant constraints.
        for c in nest.constraints:
            if c.expr.variables():
                raise PolyhedralError(
                    f"constraint {c} has free variables but no enclosing loop"
                )
            env: dict = {}
            if not c.satisfied(env):
                return Int(0)
        return body

    # Verify every constraint is resolvable at some level.
    idx_vars = set(nest.index_vars())
    for c in nest.constraints:
        cv = c.expr.variables() & idx_vars
        if not cv:
            # Parameter-only constraint: keep as a guard we cannot decide;
            # conservatively ignore it for counting but record in the nest.
            continue

    # Top-down interval propagation over the loops' own bounds (an
    # over-approximation of each index's range), used to *prove* per-level
    # trip counts non-negative.  Provably-safe levels keep polynomial closed
    # forms; provably-possibly-empty levels are clamped with max(0, .)
    # (exact, found by property testing); undecidable (parametric) levels
    # follow the paper's well-formed-loop assumption.
    from ..symbolic.intervals import interval_eval

    ivs: dict = {}
    for level in nest.levels:
        lo_iv = interval_eval(level.lb, ivs)
        hi_iv = interval_eval(level.ub, ivs)
        if lo_iv is not None and hi_iv is not None:
            ivs[level.var] = (lo_iv[0], hi_iv[1])

    expr = body
    for depth in range(len(nest.levels) - 1, -1, -1):
        lo, hi, mods, tightened = _effective_bounds(nest, depth)
        lo_iv = interval_eval(lo, ivs)
        hi_iv = interval_eval(hi, ivs)
        if lo_iv is not None and hi_iv is not None:
            clamp = hi_iv[0] - lo_iv[1] + 1 < 0  # can the range be empty?
        elif (lo.free_symbols() | hi.free_symbols()) \
                & {l.var for l in nest.levels[:depth]}:
            # A bound varying with an enclosing index can empty the level
            # for part of the outer domain even in a plain loop (e.g.
            # ``for (j = i; j <= 0; j++)``) — the well-formed-loop
            # assumption only covers parameters.  Clamp unless provably
            # non-empty.
            clamp = not _provably_nonempty(nest, depth, lo, hi)
        else:
            clamp = tightened
            if not clamp and assumptions is not None \
                    and nest.levels[depth].step == 1:
                extent = hi - lo + Int(1)
                if extent not in assumptions:
                    assumptions.append(extent)
        expr = _sum_level(expr, nest.levels[depth], lo, hi, mods,
                          clamp=clamp, ivs=ivs)
    return expr
