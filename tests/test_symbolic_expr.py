"""Unit tests for the symbolic expression engine."""

from fractions import Fraction
from math import comb

import pytest

from repro.errors import SymbolicError
from repro.symbolic import (
    Add, Expr, FloorDiv, Int, Max, Min, Mul, Pow, Sum, Sym, as_expr,
)


class TestInt:
    def test_int_value(self):
        assert Int(5).evaluate({}) == 5

    def test_fraction_value(self):
        assert Int(Fraction(1, 2)).evaluate({}) == Fraction(1, 2)

    def test_repr_integer(self):
        assert repr(Int(7)) == "7"

    def test_repr_fraction(self):
        assert repr(Int(Fraction(1, 3))) == "(1/3)"

    def test_rejects_bool(self):
        with pytest.raises(SymbolicError):
            Int(True)

    def test_rejects_float(self):
        with pytest.raises(SymbolicError):
            Int(0.5)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Int(1).value = Fraction(2)

    def test_equality_and_hash(self):
        assert Int(3) == Int(3)
        assert hash(Int(3)) == hash(Int(3))
        assert Int(3) != Int(4)


class TestSym:
    def test_evaluate_bound(self):
        assert Sym("x").evaluate({"x": 9}) == 9

    def test_evaluate_unbound_raises(self):
        with pytest.raises(SymbolicError):
            Sym("x").evaluate({})

    def test_evaluate_float_binding_rejected(self):
        with pytest.raises(SymbolicError):
            Sym("x").evaluate({"x": 1.5})

    def test_free_symbols(self):
        assert Sym("q").free_symbols() == {"q"}

    def test_subs(self):
        assert Sym("x").subs({"x": 3}) == Int(3)

    def test_subs_other_name_noop(self):
        assert Sym("x").subs({"y": 3}) == Sym("x")

    def test_empty_name_rejected(self):
        with pytest.raises(SymbolicError):
            Sym("")


class TestArithmetic:
    def test_add_constants_folds(self):
        assert Sym("x") + 2 + 3 == Sym("x") + 5

    def test_like_terms_collect(self):
        x = Sym("x")
        assert x + x == 2 * x

    def test_mul_by_zero(self):
        assert Sym("x") * 0 == Int(0)

    def test_mul_by_one(self):
        assert Sym("x") * 1 == Sym("x")

    def test_distribution_canonical(self):
        x, y = Sym("x"), Sym("y")
        assert (x + y) * (x - y) == x ** 2 - y ** 2

    def test_sub(self):
        x = Sym("x")
        assert (x - x) == Int(0)

    def test_neg(self):
        assert (-Sym("x")).evaluate({"x": 4}) == -4

    def test_pow_zero(self):
        assert Sym("x") ** 0 == Int(1)

    def test_pow_negative_rejected(self):
        with pytest.raises(SymbolicError):
            Sym("x") ** -1

    def test_div_by_const(self):
        e = Sym("x") / 2
        assert e.evaluate({"x": 5}) == Fraction(5, 2)

    def test_div_by_zero(self):
        with pytest.raises(SymbolicError):
            Sym("x") / 0

    def test_div_by_symbol_rejected(self):
        with pytest.raises(SymbolicError):
            Sym("x") / Sym("y")

    def test_evaluate_nested(self):
        x, y = Sym("x"), Sym("y")
        e = (x + 2 * y) ** 2
        assert e.evaluate({"x": 1, "y": 3}) == 49

    def test_radd_rsub_rmul(self):
        x = Sym("x")
        assert (1 + x).evaluate({"x": 2}) == 3
        assert (1 - x).evaluate({"x": 2}) == -1
        assert (3 * x).evaluate({"x": 2}) == 6

    def test_mul_zero_factor_still_surfaces_unbound_symbol(self):
        # Regression: a zero factor used to short-circuit evaluation,
        # silently masking unbound symbols in the remaining factors.  The
        # node is built directly because Mul.make folds the zero away.
        e = Mul((Int(0), Sym("u")))
        with pytest.raises(SymbolicError, match="unbound symbol 'u'"):
            e.evaluate({})
        assert e.evaluate({"u": 7}) == 0

    def test_structural_hash_cached_and_consistent(self):
        e1 = (Sym("x") + 1) * Sym("y")
        e2 = (Sym("x") + 1) * Sym("y")
        h = hash(e1)
        # cached in the _hash slot after the first computation
        assert object.__getattribute__(e1, "_hash") == h
        assert hash(e1) == h == hash(e2)
        assert e1 == e2


class TestFloorDiv:
    def test_concrete_fold(self):
        assert FloorDiv.make(Int(7), Int(2)) == Int(3)

    def test_negative_floor_semantics(self):
        assert FloorDiv.make(Int(-7), Int(2)) == Int(-4)

    def test_den_one_identity(self):
        assert FloorDiv.make(Sym("x"), Int(1)) == Sym("x")

    def test_symbolic_evaluate(self):
        e = FloorDiv.make(Sym("x"), Int(3))
        assert e.evaluate({"x": 10}) == 3
        assert e.evaluate({"x": -1}) == -1

    def test_div_by_zero_rejected(self):
        with pytest.raises(SymbolicError):
            FloorDiv.make(Sym("x"), Int(0))

    def test_free_symbols(self):
        e = FloorDiv.make(Sym("a") + Sym("b"), Int(2))
        assert e.free_symbols() == {"a", "b"}

    def test_subs(self):
        e = FloorDiv.make(Sym("x"), Int(2))
        assert e.subs({"x": 9}) == Int(4)


class TestMinMax:
    def test_max_constants_fold(self):
        assert Max.make([Int(2), Int(5)]) == Int(5)

    def test_min_constants_fold(self):
        assert Min.make([Int(2), Int(5)]) == Int(2)

    def test_max_mixed(self):
        e = Max.make([Int(0), Sym("n")])
        assert e.evaluate({"n": -3}) == 0
        assert e.evaluate({"n": 3}) == 3

    def test_single_arg_collapses(self):
        assert Max.make([Sym("x")]) == Sym("x")

    def test_dedupe(self):
        e = Max.make([Sym("x"), Sym("x"), Int(1)])
        assert len(e.args) == 2

    def test_nested_flatten(self):
        e = Max.make([Max.make([Sym("x"), Int(1)]), Int(2)])
        assert e.evaluate({"x": 0}) == 2

    def test_subs_folds(self):
        e = Min.make([Sym("x"), Int(4)])
        assert e.subs({"x": 2}) == Int(2)


class TestSum:
    def test_concrete_folds(self):
        e = Sum.make(Sym("i"), "i", Int(1), Int(4))
        assert e == Int(10)

    def test_empty_range(self):
        assert Sum.make(Int(1), "i", Int(5), Int(2)) == Int(0)

    def test_parametric_evaluate(self):
        e = Sum.make(Sym("i") * Sym("c"), "i", Int(1), Sym("n"))
        assert e.evaluate({"n": 3, "c": 2}) == 12

    def test_bound_var_not_free(self):
        e = Sum.make(Sym("i") + Sym("n"), "i", Int(0), Sym("n"))
        assert e.free_symbols() == {"n"}

    def test_subs_does_not_capture_bound_var(self):
        e = Sum.make(Sym("i"), "i", Int(0), Sym("n"))
        e2 = e.subs({"i": 99, "n": 3})
        assert e2.evaluate({}) == 6

    def test_empty_at_evaluation(self):
        e = Sum.make(Sym("i"), "i", Int(0), Sym("n"))
        assert e.evaluate({"n": -5}) == 0

    def test_fractional_lower_bound_fold_matches_evaluate(self):
        # Regression: the concrete fold used to floor a fractional lower
        # bound (starting at k=0 for lo=1/2) while lazy evaluation ceils it
        # (k=1).  Both must ceil: Sum(1, k, 1/2, 3) == 3.
        folded = Sum.make(Int(1), "k", Int(Fraction(1, 2)), Int(3))
        lazy = Sum(Int(1), "k", Int(Fraction(1, 2)), Int(3))
        assert folded == Int(3)
        assert lazy.evaluate({}) == 3
        assert folded.evaluate({}) == lazy.evaluate({})

    def test_fractional_bound_fold_matches_evaluate_general(self):
        for lo in (Fraction(-3, 2), Fraction(1, 3), Fraction(5, 2)):
            folded = Sum.make(Sym("k"), "k", Int(lo), Int(4))
            lazy = Sum(Sym("k"), "k", Int(lo), Int(4))
            assert folded.evaluate({}) == lazy.evaluate({})


def brute(e: Expr, env: dict) -> Fraction:
    """Reference evaluator: every sum loops over its whole range, with no
    memo and no shared partial sums."""
    if isinstance(e, Sum):
        lo, hi = brute(e.lo, env), brute(e.hi, env)
        k = -((-lo.numerator) // lo.denominator)        # ceil
        total = Fraction(0)
        while k <= hi:
            total += brute(e.body, {**env, e.var: k})
            k += 1
        return total
    if isinstance(e, Int):
        return e.value
    if isinstance(e, Sym):
        return Fraction(env[e.name])
    if isinstance(e, Add):
        return sum((brute(a, env) for a in e.args), Fraction(0))
    if isinstance(e, Mul):
        out = Fraction(1)
        for a in e.args:
            out *= brute(a, env)
        return out
    if isinstance(e, (Max, Min)):
        pick = max if isinstance(e, Max) else min
        return pick(brute(a, env) for a in e.args)
    if isinstance(e, FloorDiv):
        q = brute(e.num, env) / brute(e.den, env)
        return Fraction(q.numerator // q.denominator)
    if isinstance(e, Pow):
        return brute(e.base, env) ** e.exp
    raise TypeError(e)


def nest(depth: int, body: Expr, top: Expr) -> Expr:
    """A triangular nest: i1 in [0, top-1], i(d+1) in [0, i(d)-1]."""
    e = body
    for d in range(depth, 0, -1):
        hi = (top if d == 1 else Sym(f"i{d - 1}")) - 1
        e = Sum(e, f"i{d}", Int(0), hi)
    return e


I, J, N, M = Sym("i"), Sym("j"), Sym("n"), Sym("m")


class TestSumMemo:
    """``Sum.evaluate`` memoizes on its free symbols' values and continues
    partial sums; each case is checked against :func:`brute`."""

    CASES = [
        # nested sums with Max bodies (the lazy fallback's usual shape)
        nest(4, Max.make([Sym("i4") - N + 3, Int(0)]), N),
        nest(3, Max.make([Sym("i3") * 2 - Sym("i1"), Int(1)]) * M, N),
        # a body that uses an outer index and a parameter
        Sum(Sum(Max.make([I - J, M]), "j", Int(0), I), "i", Int(0), N),
        # fractional lower bounds, at both levels
        Sum(Sum(J + 1, "j", I * Fraction(1, 2), N), "i",
            Int(Fraction(-3, 2)), N - 1),
        Sum(Min.make([I, M]), "i", N * Fraction(1, 3), N * 2),
        # a lower bound above the upper one: empty ranges
        Sum(Sum(Int(1), "j", I + 2, N), "i", Int(0), N + 3),
    ]

    BINDINGS = [
        {"n": 6, "m": 2},
        {"n": 3, "m": -1},            # smaller after larger: runs restart
        {"n": 9, "m": 4},
        {"n": Fraction(6), "m": 2},   # the same point as an int binding
        {"n": Fraction(13, 2), "m": Fraction(1, 2)},
        {"n": -4, "m": 1},            # negative: every range is empty
        {"n": 0, "m": 0},
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_matches_brute_force(self, case):
        e = self.CASES[case]
        for env in self.BINDINGS:
            assert e.evaluate(env) == brute(e, env), (e, env)
        # and again, now that every memo is warm
        for env in reversed(self.BINDINGS):
            assert e.evaluate(env) == brute(e, env), (e, env)

    def test_int_and_fraction_bindings_agree(self):
        e = nest(3, Max.make([Sym("i3"), Int(0)]), N)
        assert e.evaluate({"n": 7}) == e.evaluate({"n": Fraction(7)}) \
            == brute(e, {"n": 7})

    def test_memo_never_hides_a_float_or_unbound_symbol(self):
        e = Sum(I * N, "i", Int(0), N)
        assert e.evaluate({"n": 3}) == 18
        with pytest.raises(SymbolicError):
            e.evaluate({"n": 3.0})
        with pytest.raises(SymbolicError):
            e.evaluate({})
        with pytest.raises(SymbolicError):
            e.evaluate(None)

    def test_concrete_fold_is_the_memoized_evaluate(self):
        # Sum.make folds a concrete sum through Sum.evaluate
        e = nest(5, Max.make([Sym("i5"), Int(0)]), Int(12))
        folded = Sum.make(e.body, e.var, e.lo, e.hi)
        assert isinstance(folded, Int)
        assert folded.value == brute(e, {})

    def test_deep_triangular_fold_matches_its_closed_form(self):
        # depth 10 over n = 17 sums the smallest index of every decreasing
        # 10-tuple below 17: choose the other 9 above it.  A plain nested
        # loop visits every decreasing tuple of every length up to 10
        # (~10^5 body evaluations); the memoized one a few hundred.
        e = nest(10, Max.make([Sym("i10"), Int(0)]), N)
        want = sum(m * comb(16 - m, 9) for m in range(17))
        assert e.subs({"n": 17}) == Int(want)
        assert e.evaluate({"n": 17}) == want


class TestAsExpr:
    def test_int(self):
        assert as_expr(3) == Int(3)

    def test_fraction(self):
        assert as_expr(Fraction(1, 2)) == Int(Fraction(1, 2))

    def test_passthrough(self):
        x = Sym("x")
        assert as_expr(x) is x

    def test_bool_rejected(self):
        with pytest.raises(SymbolicError):
            as_expr(True)

    def test_str_rejected(self):
        with pytest.raises(SymbolicError):
            as_expr("x")
