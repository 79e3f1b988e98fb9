"""Runtime support imported by Mira-generated Python models (paper Fig. 5).

The generated model keeps per-category instruction counts in
:class:`Metrics` dictionaries "updated in the same order as the statements";
``handle_function_call(caller, callee, iterations)`` merges a callee's
metrics into the caller, multiplying by the loop iteration count of the call
site (paper §III-C.5).

Counts are exact: iteration expressions may be rational (branch-ratio
annotations), so values are accumulated exactly — as machine ints on the
fast path, falling back to ``Fraction`` arithmetic only once a rational
enters — and rounded only on report.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Callable, Mapping

from ..errors import ModelError

__all__ = ["Metrics", "handle_function_call", "_mira_sum",
           "_mira_ceil", "_mira_floor", "_mira_exact", "_mira_scaled",
           "_mira_where", "_mira_error", "run_model_script"]


def _mira_ceil(x) -> int:
    """Exact ceiling of an int/Fraction bound (int fast path)."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return -((-x.numerator) // x.denominator)
    return int(x)  # exotic exact integrals (e.g. bool is rejected upstream)


def _mira_floor(x) -> int:
    """Exact floor of an int/Fraction bound (int fast path)."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator // x.denominator
    return int(x)


def _mira_exact(x):
    """Normalize an exact value: integral ``Fraction`` → ``int``.

    Keeps closed-form summation results (whose Faulhaber coefficients are
    rational) on the integer fast path whenever the value is integral.
    """
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def _mira_scaled(x, d: int):
    """``x / d`` exactly, where ``x`` is ``d`` times the closed form of a
    sum whose body has integer coefficients.

    On an int, ``//``: at integer bindings that closed form is an integer
    (the true sum of integers), so ``x`` is a multiple of ``d``.  A rational
    binding makes ``x`` a ``Fraction``, divided exactly.
    """
    if isinstance(x, Fraction):
        return _mira_exact(x / d)
    return x // d


def _mira_where(cond, value, other):
    """``value`` if ``cond`` else ``other``: a closed-form sum's empty-range
    guard, as a call so that the vector runtime can bind ``np.where``."""
    return value if cond else other


def _mira_error(message: str):
    """Raise the ModelError of a call site the model cannot evaluate (an
    unmodeled callee, an unbound callee parameter) when it is reached."""
    raise ModelError(message)


def _mira_sum(body: Callable[[int], object], lo, hi):
    """Numeric fallback for lazy symbolic sums.

    Empty-range convention: the summation range is the integer lattice
    ``[ceil(lo), floor(hi)]`` — exactly the range ``Sum.evaluate`` walks —
    and an empty range (``ceil(lo) > floor(hi)``, including arbitrarily
    reversed bounds) contributes 0.  Reversed bounds are deliberately *not*
    an error: clamped iteration domains (``Max``/``Min`` trip counts)
    legitimately produce them, and a zero contribution is what real loop
    execution yields.

    Integer fast path: int-valued bodies accumulate as machine ints; the
    accumulator switches to exact ``Fraction`` arithmetic automatically the
    moment a rational term (branch-ratio model) enters.
    """
    total = 0
    for k in range(_mira_ceil(lo), _mira_floor(hi) + 1):
        total += body(k)
    return total


class Metrics:
    """Per-category instruction counts for one function invocation."""

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: dict[str, int | Fraction] = {}

    def add(self, vector: Mapping[str, int], times=1) -> None:
        """Accumulate ``vector × times`` (one model statement).

        Fast path: while ``times`` and the accumulated values are ints, the
        sums stay machine ints (no per-statement ``Fraction`` boxing); exact
        ``Fraction`` arithmetic takes over automatically when a rational
        count (branch-ratio model) enters.  Either way the sums are exact,
        and an integral one is stored as an ``int``, whatever produced it.
        """
        if isinstance(times, float):
            times = Fraction(times)  # floats never enter exact accumulation
        if times == 0:
            return
        counts = self.counts
        for cat, n in vector.items():
            v = counts.get(cat, 0) + n * times
            counts[cat] = v if type(v) is int else _mira_exact(v)

    def merge(self, other: "Metrics", times=1) -> None:
        self.add(other.counts, times)

    # -- reporting ---------------------------------------------------------------
    def as_dict(self) -> dict[str, int]:
        """Rounded integer counts by category (zero rows dropped)."""
        out = {}
        for cat, v in self.counts.items():
            n = v if type(v) is int else int(round(v))
            if n:
                out[cat] = n
        return out

    def total(self) -> int:
        return sum(self.as_dict().values())

    def get(self, category: str) -> int:
        v = self.counts.get(category, 0)
        return v if type(v) is int else int(round(v))

    def fp_instructions(self, fp_categories) -> int:
        """PAPI_FP_INS analog over the arch file's FP categories."""
        return sum(self.get(c) for c in fp_categories)

    def __repr__(self) -> str:
        return f"Metrics({self.as_dict()})"


def handle_function_call(caller: Metrics, callee: Metrics, iterations=1) -> None:
    """Combine callee metrics into the caller (paper's helper of the same
    name): every callee metric is multiplied by the call site's loop
    iteration count."""
    if not isinstance(iterations, (int, Rational)):
        raise TypeError("iterations must be an exact number")
    caller.merge(callee, iterations)


def run_model_script(model_functions: dict, parameters: dict,
                     fp_categories, argv=None) -> None:
    """The ``__main__`` entry of a generated model module.

    ``python model.py [FUNCTION] name=value ...`` evaluates one model
    function (the first one by default) and prints its category counts,
    ``TOTAL`` and ``FP_INS``, in the format of ``mira eval``.
    """
    import sys

    entry = None
    env = {}
    for a in sys.argv[1:] if argv is None else argv:
        if "=" in a:
            k, v = a.split("=", 1)
            env[k] = int(v)
        else:
            entry = a
    if entry is None:
        entry = next(iter(model_functions))
    needed = parameters[entry]
    missing = [p for p in needed if p not in env]
    if missing:
        raise SystemExit(
            f"model {entry} needs parameters: {needed}; missing {missing}")
    metrics = model_functions[entry](*[env[p] for p in needed])
    print(f"# Mira model evaluation: {entry}")
    for cat, n in sorted(metrics.as_dict().items(), key=lambda kv: -kv[1]):
        print(f"{n:>16}  {cat}")
    print(f"{metrics.total():>16}  TOTAL")
    print(f"{metrics.fp_instructions(fp_categories):>16}  FP_INS")
