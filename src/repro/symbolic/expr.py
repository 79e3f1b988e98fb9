"""A small exact symbolic-expression engine.

Mira's generated models contain *parametric expressions*: loop trip counts
that depend on user inputs (array sizes, annotation variables).  The paper
keeps such expressions symbolic until model-evaluation time.  SymPy is not
available in this environment, so this module implements the small exact CAS
the framework needs:

* immutable expression nodes (:class:`Int`, :class:`Sym`, :class:`Add`,
  :class:`Mul`, :class:`Pow`, :class:`FloorDiv`, :class:`Max`, :class:`Min`,
  :class:`Sum`),
* constructor-level canonicalization (constant folding, flattening,
  like-term collection through the polynomial backend in :mod:`.poly`),
* exact evaluation over :class:`fractions.Fraction`,
* substitution, and
* free-variable queries.

All arithmetic is exact; floats never enter the engine.

**Expr identity is canonical** (hash-consing): every node is interned in a
process-wide weak table keyed on its structure, so structurally equal trees
built through *any* code path — operators, ``make`` constructors, the
polynomial backend, :mod:`.serialize` round-trips — are the **same object**:
``a + b is a + b``.  Equality therefore short-circuits on identity, deep
trees share subterms instead of duplicating them, and per-node caches
(structural hash, free-symbol sets) are computed at most once per distinct
expression in the process.  ``Add.make``/``Mul.make`` canonicalization is
additionally memoized on the (interned) argument tuples, which removes the
quadratic re-canonicalization cost of repeated subtrees during model
construction.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterable, Mapping, Union

from ..errors import SymbolicError

Number = Union[int, Fraction]
ExprLike = Union["Expr", int, Fraction]

__all__ = [
    "Expr",
    "Int",
    "Sym",
    "Add",
    "Mul",
    "Pow",
    "FloorDiv",
    "Max",
    "Min",
    "Sum",
    "as_expr",
    "ZERO",
    "ONE",
    "interning_disabled",
    "intern_table_size",
]


def _floor_fraction(x: Fraction) -> int:
    """Exact floor of a rational number."""
    return x.numerator // x.denominator


def _ceil_fraction(x: Fraction) -> int:
    """Exact ceiling of a rational number."""
    return -((-x.numerator) // x.denominator)


# ---------------------------------------------------------------------------
# hash-consing machinery
# ---------------------------------------------------------------------------

#: The global intern table: structural key -> node.  Weak values, so
#: expressions no longer referenced anywhere are collectable.
_INTERN: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

#: Interning on/off switch (see :func:`interning_disabled`).
_INTERNING = True

#: Memo for ``Add.make``/``Mul.make`` canonicalization, keyed on the operator
#: and the (interned) argument tuple.  Bounded: cleared wholesale when full.
_MAKE_MEMO: dict = {}
_MAKE_MEMO_MAX = 1 << 16

#: Memos for ``Sum.evaluate``: values keyed on the (interned) sum and the
#: values of its free symbols, and runs (the next index and the partial sum
#: so far) keyed on body, index, lower bound and the body's other bindings.
#: Bounded: both cleared wholesale when the first is full.
_SUM_MEMO: dict = {}
_SUM_RUNS: dict = {}
_SUM_MEMO_MAX = 1 << 14
_EXACT_TYPES = frozenset({int, Fraction})


@contextmanager
def interning_disabled():
    """Temporarily construct fresh (non-interned) nodes.

    Benchmark instrumentation only: lets ``bench_eval_sweep`` measure model
    construction with and without hash-consing.  Correctness is unaffected —
    ``__eq__`` keeps its structural fallback — but identity guarantees
    (``a + b is a + b``) do not hold for nodes built inside the block.
    """
    global _INTERNING
    prev = _INTERNING
    _INTERNING = False
    _MAKE_MEMO.clear()
    try:
        yield
    finally:
        _INTERNING = prev
        _MAKE_MEMO.clear()


def intern_table_size() -> int:
    """Number of live interned nodes (observability / benchmarks)."""
    return len(_INTERN)


def _interned(cls, key: tuple, attrs: tuple):
    """Return the canonical node for ``key``, creating it if needed."""
    if _INTERNING:
        self = _INTERN.get(key)
        if self is not None:
            return self
    self = object.__new__(cls)
    for name, value in attrs:
        object.__setattr__(self, name, value)
    if _INTERNING:
        _INTERN[key] = self
    return self


_EMPTY_FROZENSET: frozenset = frozenset()


class Expr:
    """Base class for all symbolic expressions.

    Expressions are immutable, hashable, and hash-consed: structural
    equality coincides with identity for nodes built while interning is
    enabled (the default), so ``==`` short-circuits on ``is``.
    """

    __slots__ = ("_hash", "_free", "__weakref__")

    def __setattr__(self, name, value):  # immutability for every node type
        raise AttributeError("Expr nodes are immutable")

    # -- construction helpers -------------------------------------------------
    def __add__(self, other: ExprLike) -> "Expr":
        return Add.make((self, as_expr(other)))

    def __radd__(self, other: ExprLike) -> "Expr":
        return Add.make((as_expr(other), self))

    def __sub__(self, other: ExprLike) -> "Expr":
        return Add.make((self, Mul.make((Int(-1), as_expr(other)))))

    def __rsub__(self, other: ExprLike) -> "Expr":
        return Add.make((as_expr(other), Mul.make((Int(-1), self))))

    def __mul__(self, other: ExprLike) -> "Expr":
        return Mul.make((self, as_expr(other)))

    def __rmul__(self, other: ExprLike) -> "Expr":
        return Mul.make((as_expr(other), self))

    def __neg__(self) -> "Expr":
        return Mul.make((Int(-1), self))

    def __pow__(self, exp: int) -> "Expr":
        return Pow.make(self, exp)

    def __floordiv__(self, other: ExprLike) -> "Expr":
        return FloorDiv.make(self, as_expr(other))

    def __truediv__(self, other: ExprLike) -> "Expr":
        other = as_expr(other)
        if isinstance(other, Int):
            if other.value == 0:
                raise SymbolicError("division by zero")
            return Mul.make((self, Int(Fraction(1, 1) / other.value)))
        raise SymbolicError(
            "exact division by a symbolic expression is not supported; "
            "use FloorDiv for integer division"
        )

    # -- interface ------------------------------------------------------------
    def free_symbols(self) -> frozenset:
        """Free symbol names, computed once and cached per node."""
        try:
            return self._free
        except AttributeError:
            fs = self._free_symbols()
            object.__setattr__(self, "_free", fs)
            return fs

    def _free_symbols(self) -> frozenset:  # pragma: no cover - per subclass
        raise NotImplementedError

    def subs(self, mapping: Mapping[str, ExprLike]) -> "Expr":
        """Substitute symbols by name.  Values may be numbers or Exprs."""
        raise NotImplementedError

    def evaluate(self, env: Mapping[str, Number] | None = None) -> Fraction:
        """Exactly evaluate with the given variable bindings."""
        raise NotImplementedError

    def evaluate_int(self, env: Mapping[str, Number] | None = None) -> int:
        """Evaluate and require an integer result."""
        v = self.evaluate(env)
        if v.denominator != 1:
            raise SymbolicError(f"expected integer value, got {v}")
        return v.numerator

    def is_constant(self) -> bool:
        return not self.free_symbols()

    def sort_key(self) -> tuple:
        return (type(self).__name__, str(self))

    def __eq__(self, other: object) -> bool:  # pragma: no cover - per subclass
        raise NotImplementedError

    def __hash__(self) -> int:
        # Structural hashing of deep n-ary trees is a hot path in
        # canonicalization (arg dedup in Min/Max, poly monomial keys), so the
        # hash is computed once and cached in the `_hash` slot.
        try:
            return self._hash
        except AttributeError:
            h = self._structural_hash()
            object.__setattr__(self, "_hash", h)
            return h

    def _structural_hash(self) -> int:  # pragma: no cover - per subclass
        raise NotImplementedError


class Int(Expr):
    """An exact rational constant (named Int for the common case)."""

    __slots__ = ("value",)

    def __new__(cls, value: Number) -> "Int":
        if isinstance(value, bool):  # bool is an int subclass; reject it
            raise SymbolicError("boolean is not a numeric constant")
        if isinstance(value, int):
            value = Fraction(value)
        if not isinstance(value, Fraction):
            raise SymbolicError(f"Int requires an exact number, got {type(value)!r}")
        return _interned(cls, ("Int", value), (("value", value),))

    def _free_symbols(self) -> frozenset:
        return _EMPTY_FROZENSET

    def subs(self, mapping: Mapping[str, ExprLike]) -> Expr:
        return self

    def evaluate(self, env: Mapping[str, Number] | None = None) -> Fraction:
        return self.value

    def __repr__(self) -> str:
        if self.value.denominator == 1:
            return str(self.value.numerator)
        return f"({self.value.numerator}/{self.value.denominator})"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Int) and self.value == other.value

    __hash__ = Expr.__hash__

    def _structural_hash(self) -> int:
        return hash(("Int", self.value))


class Sym(Expr):
    """A free symbol (model parameter or loop index)."""

    __slots__ = ("name",)

    def __new__(cls, name: str) -> "Sym":
        if not name or not isinstance(name, str):
            raise SymbolicError("symbol name must be a non-empty string")
        return _interned(cls, ("Sym", name), (("name", name),))

    def _free_symbols(self) -> frozenset:
        return frozenset({self.name})

    def subs(self, mapping: Mapping[str, ExprLike]) -> Expr:
        if self.name in mapping:
            return as_expr(mapping[self.name])
        return self

    def evaluate(self, env: Mapping[str, Number] | None = None) -> Fraction:
        if env is None or self.name not in env:
            raise SymbolicError(f"unbound symbol {self.name!r}")
        v = env[self.name]
        if isinstance(v, float):
            raise SymbolicError(f"float binding for {self.name!r}; use int/Fraction")
        return Fraction(v)

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Sym) and self.name == other.name

    __hash__ = Expr.__hash__

    def _structural_hash(self) -> int:
        return hash(("Sym", self.name))


class _NAry(Expr):
    """Shared machinery for Add/Mul."""

    __slots__ = ("args",)
    _symbol = "?"

    def __new__(cls, args: tuple) -> "_NAry":
        args = tuple(args)
        return _interned(cls, (cls.__name__, args), (("args", args),))

    def _free_symbols(self) -> frozenset:
        out: frozenset = frozenset()
        for a in self.args:
            out |= a.free_symbols()
        return out

    def __repr__(self) -> str:
        return "(" + f" {self._symbol} ".join(map(repr, self.args)) + ")"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return type(other) is type(self) and self.args == other.args

    __hash__ = Expr.__hash__

    def _structural_hash(self) -> int:
        return hash((type(self).__name__, self.args))


def _try_poly_canonical(args: Iterable[Expr], op: str) -> Expr | None:
    """Canonicalize a sum/product through the polynomial backend when every
    operand is polynomial.  Returns None when any operand is non-polynomial
    (Max/Min/FloorDiv/Sum), in which case light flattening is used instead."""
    from .poly import Polynomial, expr_to_poly  # local import: avoid cycle

    polys = []
    for a in args:
        p = expr_to_poly(a)
        if p is None:
            return None
        polys.append(p)
    if op == "+":
        acc = Polynomial.zero()
        for p in polys:
            acc = acc + p
    else:
        acc = Polynomial.const(1)
        for p in polys:
            acc = acc * p
    return acc.to_expr()


def _memoized_make(op: str, args: tuple, build) -> Expr:
    """Memoize a canonicalizing ``make`` on its interned argument tuple."""
    if not _INTERNING:
        return build(args)
    key = (op, args)
    hit = _MAKE_MEMO.get(key)
    if hit is not None:
        return hit
    out = build(args)
    if len(_MAKE_MEMO) >= _MAKE_MEMO_MAX:
        _MAKE_MEMO.clear()
    _MAKE_MEMO[key] = out
    return out


class Add(_NAry):
    """n-ary sum."""

    __slots__ = ()
    _symbol = "+"

    @staticmethod
    def make(args: Iterable[ExprLike]) -> Expr:
        args = tuple(as_expr(a) for a in args)
        return _memoized_make("+", args, Add._make_uncached)

    @staticmethod
    def _make_uncached(args: tuple) -> Expr:
        canon = _try_poly_canonical(args, "+")
        if canon is not None:
            return canon
        # Light canonicalization: flatten nested adds, fold constants.
        flat: list[Expr] = []
        const = Fraction(0)
        for a in args:
            if isinstance(a, Add):
                for b in a.args:
                    if isinstance(b, Int):
                        const += b.value
                    else:
                        flat.append(b)
            elif isinstance(a, Int):
                const += a.value
            else:
                flat.append(a)
        if const != 0:
            flat.append(Int(const))
        if not flat:
            return Int(0)
        if len(flat) == 1:
            return flat[0]
        return Add(tuple(flat))

    def subs(self, mapping: Mapping[str, ExprLike]) -> Expr:
        return Add.make(tuple(a.subs(mapping) for a in self.args))

    def evaluate(self, env: Mapping[str, Number] | None = None) -> Fraction:
        total = Fraction(0)
        for a in self.args:
            total += a.evaluate(env)
        return total


class Mul(_NAry):
    """n-ary product."""

    __slots__ = ()
    _symbol = "*"

    @staticmethod
    def make(args: Iterable[ExprLike]) -> Expr:
        args = tuple(as_expr(a) for a in args)
        return _memoized_make("*", args, Mul._make_uncached)

    @staticmethod
    def _make_uncached(args: tuple) -> Expr:
        canon = _try_poly_canonical(args, "*")
        if canon is not None:
            return canon
        flat: list[Expr] = []
        const = Fraction(1)
        for a in args:
            if isinstance(a, Mul):
                for b in a.args:
                    if isinstance(b, Int):
                        const *= b.value
                    else:
                        flat.append(b)
            elif isinstance(a, Int):
                const *= a.value
            else:
                flat.append(a)
        if const == 0:
            return Int(0)
        if const != 1:
            flat.insert(0, Int(const))
        if not flat:
            return Int(1)
        if len(flat) == 1:
            return flat[0]
        return Mul(tuple(flat))

    def subs(self, mapping: Mapping[str, ExprLike]) -> Expr:
        return Mul.make(tuple(a.subs(mapping) for a in self.args))

    def evaluate(self, env: Mapping[str, Number] | None = None) -> Fraction:
        # No zero short-circuit: every factor must evaluate, so an unbound
        # symbol raises exactly as it would in the unfactored expression.
        total = Fraction(1)
        for a in self.args:
            total *= a.evaluate(env)
        return total


class Pow(Expr):
    """Integer power with non-negative exponent."""

    __slots__ = ("base", "exp")

    def __new__(cls, base: Expr, exp: int) -> "Pow":
        return _interned(cls, ("Pow", base, exp),
                         (("base", base), ("exp", exp)))

    @staticmethod
    def make(base: ExprLike, exp: int) -> Expr:
        if not isinstance(exp, int) or exp < 0:
            raise SymbolicError("Pow requires a non-negative integer exponent")
        base = as_expr(base)
        if exp == 0:
            return Int(1)
        if exp == 1:
            return base
        if isinstance(base, Int):
            return Int(base.value ** exp)
        from .poly import expr_to_poly

        p = expr_to_poly(base)
        if p is not None:
            return (p ** exp).to_expr()
        return Pow(base, exp)

    def _free_symbols(self) -> frozenset:
        return self.base.free_symbols()

    def subs(self, mapping: Mapping[str, ExprLike]) -> Expr:
        return Pow.make(self.base.subs(mapping), self.exp)

    def evaluate(self, env: Mapping[str, Number] | None = None) -> Fraction:
        return self.base.evaluate(env) ** self.exp

    def __repr__(self) -> str:
        return f"{self.base!r}**{self.exp}"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Pow) and self.base == other.base and self.exp == other.exp

    __hash__ = Expr.__hash__

    def _structural_hash(self) -> int:
        return hash(("Pow", self.base, self.exp))


class FloorDiv(Expr):
    """Floor division ``num // den`` (den constant, nonzero).

    Appears in strided-loop trip counts and modular complement counting.
    """

    __slots__ = ("num", "den")

    def __new__(cls, num: Expr, den: Expr) -> "FloorDiv":
        return _interned(cls, ("FloorDiv", num, den),
                         (("num", num), ("den", den)))

    @staticmethod
    def make(num: ExprLike, den: ExprLike) -> Expr:
        num = as_expr(num)
        den = as_expr(den)
        if isinstance(den, Int) and den.value == 0:
            raise SymbolicError("floor division by zero")
        if isinstance(num, Int) and isinstance(den, Int):
            return Int(_floor_fraction(num.value / den.value))
        if isinstance(den, Int) and den.value == 1:
            return num
        return FloorDiv(num, den)

    def _free_symbols(self) -> frozenset:
        return self.num.free_symbols() | self.den.free_symbols()

    def subs(self, mapping: Mapping[str, ExprLike]) -> Expr:
        return FloorDiv.make(self.num.subs(mapping), self.den.subs(mapping))

    def evaluate(self, env: Mapping[str, Number] | None = None) -> Fraction:
        d = self.den.evaluate(env)
        if d == 0:
            raise SymbolicError("floor division by zero at evaluation")
        return Fraction(_floor_fraction(self.num.evaluate(env) / d))

    def __repr__(self) -> str:
        return f"({self.num!r} // {self.den!r})"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, FloorDiv) and self.num == other.num and self.den == other.den

    __hash__ = Expr.__hash__

    def _structural_hash(self) -> int:
        return hash(("FloorDiv", self.num, self.den))


class _MinMax(Expr):
    __slots__ = ("args",)
    _pick = None  # overridden

    def __new__(cls, args: tuple) -> "_MinMax":
        args = tuple(args)
        return _interned(cls, (cls.__name__, args), (("args", args),))

    @classmethod
    def make(cls, args: Iterable[ExprLike]) -> Expr:
        flat: list[Expr] = []
        consts: list[Fraction] = []
        for a in args:
            a = as_expr(a)
            if isinstance(a, cls):
                for b in a.args:
                    (consts if isinstance(b, Int) else flat).append(
                        b.value if isinstance(b, Int) else b
                    )
            elif isinstance(a, Int):
                consts.append(a.value)
            else:
                flat.append(a)
        if consts:
            flat.append(Int(cls._pick(consts)))
        # dedupe structurally, keep order stable
        seen = set()
        uniq = []
        for a in flat:
            if a not in seen:
                seen.add(a)
                uniq.append(a)
        if len(uniq) == 1:
            return uniq[0]
        if not uniq:
            raise SymbolicError(f"{cls.__name__} of no arguments")
        return cls(tuple(uniq))

    def _free_symbols(self) -> frozenset:
        out: frozenset = frozenset()
        for a in self.args:
            out |= a.free_symbols()
        return out

    def subs(self, mapping: Mapping[str, ExprLike]) -> Expr:
        return type(self).make(tuple(a.subs(mapping) for a in self.args))

    def evaluate(self, env: Mapping[str, Number] | None = None) -> Fraction:
        return type(self)._pick([a.evaluate(env) for a in self.args])

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self.args))})"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return type(other) is type(self) and self.args == other.args

    __hash__ = Expr.__hash__

    def _structural_hash(self) -> int:
        return hash((type(self).__name__, self.args))


class Max(_MinMax):
    """Maximum of several expressions (e.g. clamped loop lower bounds)."""

    __slots__ = ()
    _pick = staticmethod(max)


class Min(_MinMax):
    """Minimum of several expressions (e.g. clamped loop upper bounds)."""

    __slots__ = ()
    _pick = staticmethod(min)


class Sum(Expr):
    """A lazy summation ``sum(body for var in [lo, hi])``.

    Used as a *numeric fallback* when no closed form exists (non-convex
    domains, parametric min/max bounds — DESIGN.md §6).  Evaluation iterates
    the range; an empty range contributes 0 (this clamps negative trip counts
    exactly like real loop execution).  Evaluation is memoized (see
    :meth:`evaluate`), and a concrete :meth:`make` folds through it.
    """

    __slots__ = ("body", "var", "lo", "hi", "_names")

    def __new__(cls, body: Expr, var: str, lo: Expr, hi: Expr) -> "Sum":
        return _interned(cls, ("Sum", body, var, lo, hi),
                         (("body", body), ("var", var),
                          ("lo", lo), ("hi", hi)))

    @staticmethod
    def make(body: ExprLike, var: str, lo: ExprLike, hi: ExprLike) -> Expr:
        body = as_expr(body)
        lo = as_expr(lo)
        hi = as_expr(hi)
        if isinstance(lo, Int) and isinstance(hi, Int) and not (
            body.free_symbols() - {var}
        ):
            # Fully concrete: fold immediately, through `Sum.evaluate`, so
            # folding and lazy evaluation agree by construction.
            return Int(Sum(body, var, lo, hi).evaluate())
        return Sum(body, var, lo, hi)

    def _free_symbols(self) -> frozenset:
        return (
            (self.body.free_symbols() - {self.var})
            | self.lo.free_symbols()
            | self.hi.free_symbols()
        )

    def subs(self, mapping: Mapping[str, ExprLike]) -> Expr:
        if self.free_symbols().isdisjoint(mapping):
            return self        # e.g. an inner sum of a nest, under n -> 17
        inner = {k: v for k, v in mapping.items() if k != self.var}
        return Sum.make(
            self.body.subs(inner), self.var, self.lo.subs(mapping), self.hi.subs(mapping)
        )

    def evaluate(self, env: Mapping[str, Number] | None = None) -> Fraction:
        # A sum's value depends only on its own free symbols, so it is
        # memoized on their values.  A sum of the same body from the same
        # lower bound also continues the last such sum (a *run*) instead of
        # starting over, so an outer index walking up adds one term per
        # step: a depth-d triangular nest over n costs O(d·n) body
        # evaluations instead of O(n^d).
        try:
            names, body_names = self._names
        except AttributeError:
            names = tuple(sorted(self.free_symbols()))
            body_names = tuple(sorted(self.body.free_symbols() - {self.var}))
            object.__setattr__(self, "_names", (names, body_names))
        if env is None:
            env = {}
        values = tuple(map(env.get, names))
        # Only exact bindings are memoized: an unbound symbol or a float
        # must raise as it would without the memo.
        exact = all(map(_EXACT_TYPES.__contains__, map(type, values)))
        if exact:
            key = (self, values)
            hit = _SUM_MEMO.get(key)
            if hit is not None:
                return hit
        inner = dict(env)
        body, var = self.body, self.var
        lo = _ceil_fraction(self.lo.evaluate(inner))
        hi = _floor_fraction(self.hi.evaluate(inner))
        start, whole, frac = lo, 0, Fraction(0)
        if exact:
            run = (body, var, lo, tuple(map(env.get, body_names)))
            state = _SUM_RUNS.get(run)
            if state is not None and state[0] <= hi + 1:
                start, whole, frac = state
        # Integer terms are summed as ints: Fraction addition dominates
        # the fold otherwise.
        for k in range(start, hi + 1):
            inner[var] = k
            v = body.evaluate(inner)
            if v.denominator == 1:
                whole += v.numerator
            else:
                frac += v
        total = frac + whole
        if exact:
            if len(_SUM_MEMO) >= _SUM_MEMO_MAX:
                _SUM_MEMO.clear()
                _SUM_RUNS.clear()
            _SUM_MEMO[key] = total
            _SUM_RUNS[run] = (max(start, hi + 1), whole, frac)
        return total

    def __repr__(self) -> str:
        return f"Sum({self.body!r}, {self.var}={self.lo!r}..{self.hi!r})"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Sum)
            and self.body == other.body
            and self.var == other.var
            and self.lo == other.lo
            and self.hi == other.hi
        )

    __hash__ = Expr.__hash__

    def _structural_hash(self) -> int:
        return hash(("Sum", self.body, self.var, self.lo, self.hi))


ZERO = Int(0)
ONE = Int(1)

#: Strong references pin the most common constants in the weak intern table
#: so they are never re-created (the poly backend churns through small ints).
_SMALL_INT_PIN = tuple(Int(i) for i in range(-8, 129))


def as_expr(x: ExprLike) -> Expr:
    """Coerce ints/Fractions/Exprs into Expr."""
    if isinstance(x, Expr):
        return x
    if isinstance(x, bool):
        raise SymbolicError("cannot coerce bool to Expr")
    if isinstance(x, (int, Fraction)):
        return Int(x)
    raise SymbolicError(f"cannot coerce {type(x).__name__} to Expr")
