"""Interval evaluation of symbolic expressions.

Used by the polyhedral counter to decide whether a loop's trip count can be
negative for some enclosing iteration (in which case the count must be
clamped with ``max(0, .)``, sacrificing the polynomial closed form) or is
provably non-negative (closed form safe).  Parametric expressions whose
symbols have no known interval return None — "undecidable", in which case
the counter falls back to the paper's well-formed-loop assumption.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional

from .expr import (SUM_HI, SUM_LO, Add, Expr, FloorDiv, Int, Max, Min, Mul,
                   Pow, Sum, Sym)
from .pycodegen import sum_lowering

__all__ = ["interval_eval", "interval_eval_within", "Interval"]

Interval = tuple  # (Fraction lo, Fraction hi)


def _mul_iv(a: Interval, b: Interval) -> Interval:
    products = [a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]]
    return (min(products), max(products))


def _floor(x: Fraction) -> Fraction:
    return Fraction(x.numerator // x.denominator)


def interval_eval(e: Expr, env: Mapping[str, Interval]) -> Optional[Interval]:
    """Conservative interval of ``e`` given variable intervals, or None."""
    if isinstance(e, Int):
        return (e.value, e.value)
    if isinstance(e, Sym):
        return env.get(e.name)
    if isinstance(e, Add):
        lo = Fraction(0)
        hi = Fraction(0)
        for a in e.args:
            iv = interval_eval(a, env)
            if iv is None:
                return None
            lo += iv[0]
            hi += iv[1]
        return (lo, hi)
    if isinstance(e, Mul):
        acc: Interval = (Fraction(1), Fraction(1))
        for a in e.args:
            iv = interval_eval(a, env)
            if iv is None:
                return None
            acc = _mul_iv(acc, iv)
        return acc
    if isinstance(e, Pow):
        iv = interval_eval(e.base, env)
        if iv is None:
            return None
        acc: Interval = (Fraction(1), Fraction(1))
        for _ in range(e.exp):
            acc = _mul_iv(acc, iv)
        # tighten even powers of sign-crossing bases
        if e.exp % 2 == 0 and iv[0] < 0 < iv[1]:
            acc = (Fraction(0), acc[1])
        return acc
    if isinstance(e, FloorDiv):
        num = interval_eval(e.num, env)
        den = interval_eval(e.den, env)
        if num is None or den is None:
            return None
        if den[0] <= 0 <= den[1]:
            return None  # division by a range containing zero: give up
        corners = [_floor(num[i] / den[j]) for i in (0, 1) for j in (0, 1)]
        return (min(corners), max(corners))
    if isinstance(e, Max):
        los = []
        his = []
        for a in e.args:
            iv = interval_eval(a, env)
            if iv is None:
                return None
            los.append(iv[0])
            his.append(iv[1])
        return (max(los), max(his))
    if isinstance(e, Min):
        los = []
        his = []
        for a in e.args:
            iv = interval_eval(a, env)
            if iv is None:
                return None
            los.append(iv[0])
            his.append(iv[1])
        return (min(los), min(his))
    if isinstance(e, Sum):
        return None  # not needed; lazy sums already evaluate exactly
    return None


@lru_cache(maxsize=4096)
def _lowered(s: Sum) -> Optional[Expr]:
    """The scaled closed form ``s`` is emitted as, over its own bounds."""
    lowering = sum_lowering(s)
    if lowering is None:
        return None
    return lowering[0].subs({SUM_LO: s.lo, SUM_HI: s.hi})


def _fits(iv: Optional[Interval], bound) -> Optional[Interval]:
    if iv is None or iv[0] < -bound or iv[1] > bound:
        return None
    return iv


def interval_eval_within(e: Expr, env: Mapping[str, Interval],
                         bound) -> Optional[Interval]:
    """Interval of ``e`` with an *every-intermediate-value* magnitude check.

    Like :func:`interval_eval`, but returns None unless the interval of
    **every** node — including each left-to-right partial accumulation of
    n-ary ``Add``/``Mul``/``Pow`` chains, which is how the vector engine's
    emitted code actually computes them — fits in ``[-bound, bound]``.
    This is the int64 overflow precheck for
    :mod:`repro.symbolic.veccompile`: numpy int64 multiplication wraps
    *silently*, so the only safe strategy is proving in advance that no
    intermediate can leave the representable range.

    A ``Sum`` is checked through the expression its emitted closed form
    computes (:func:`~.pycodegen.sum_lowering`, with its bounds in), and
    the result is widened with 0, because the emitted ``_mira_where`` guard
    evaluates the closed form even on empty-range points.  A ``Sum`` with
    no closed form — or any unknown symbol — yields None.
    """
    if isinstance(e, Int):
        return _fits((e.value, e.value), bound)
    if isinstance(e, Sym):
        return _fits(env.get(e.name), bound)
    if isinstance(e, Add):
        acc: Optional[Interval] = None
        for a in e.args:
            iv = interval_eval_within(a, env, bound)
            if iv is None:
                return None
            acc = iv if acc is None else _fits(
                (acc[0] + iv[0], acc[1] + iv[1]), bound)
            if acc is None:
                return None
        return acc
    if isinstance(e, Mul):
        acc = None
        for a in e.args:
            iv = interval_eval_within(a, env, bound)
            if iv is None:
                return None
            acc = iv if acc is None else _fits(_mul_iv(acc, iv), bound)
            if acc is None:
                return None
        return acc
    if isinstance(e, Pow):
        base = interval_eval_within(e.base, env, bound)
        if base is None:
            return None
        # numpy ** is repeated squaring, but bounding the naive product
        # chain also bounds every square-and-multiply intermediate: each is
        # base**k for some k <= exp, and |base**k| <= max over the chain.
        acc = base
        for _ in range(e.exp - 1):
            acc = _fits(_mul_iv(acc, base), bound)
            if acc is None:
                return None
        if e.exp % 2 == 0 and base[0] < 0 < base[1]:
            acc = (Fraction(0), acc[1])
        if e.exp == 0:
            acc = (Fraction(1), Fraction(1))
        return acc
    if isinstance(e, FloorDiv):
        num = interval_eval_within(e.num, env, bound)
        den = interval_eval_within(e.den, env, bound)
        if num is None or den is None:
            return None
        if den[0] <= 0 <= den[1]:
            return None  # may divide by zero: let the scalar engine raise
        corners = [_floor(num[i] / den[j]) for i in (0, 1) for j in (0, 1)]
        return _fits((min(corners), max(corners)), bound)
    if isinstance(e, Max) or isinstance(e, Min):
        los = []
        his = []
        for a in e.args:
            iv = interval_eval_within(a, env, bound)
            if iv is None:
                return None
            los.append(iv[0])
            his.append(iv[1])
        pick = max if isinstance(e, Max) else min
        return (pick(los), pick(his))
    if isinstance(e, Sum):
        lowered = _lowered(e)
        if lowered is None:
            return None
        iv = interval_eval_within(lowered, env, bound)
        if iv is None:
            return None
        # the emitted _mira_where guard replaces empty ranges with 0
        return (min(iv[0], Fraction(0)), max(iv[1], Fraction(0)))
    return None
