"""The vector evaluator: the generated Fig. 5 module over numpy columns.

One text, two runtimes.  The module :mod:`repro.core.model_generator`
writes (``AnalysisResult.python_source()``) is exec'd as it is by the
scalar evaluator, which calls it point by point.  Here the same text is
exec'd with numpy helpers bound over its runtime names (``Metrics``,
``handle_function_call``, ``max``/``min``, the ``_mira_where`` empty-range
guard, ``_mira_ceil``/``_mira_floor`` and ``_mira_scaled``), so its model
functions take **numpy arrays** of parameter values: a million-point sweep
becomes a handful of ufunc operations per cost-center term instead of a
million calls.  The Faulhaber closed forms of polynomial-body ``Sum``
nodes vectorize as pure arithmetic under a ``np.where`` guard; a ``Sum``
the emitter had to write as a ``_mira_sum`` loop has no vector form.

Exactness contract — the dtype discipline
-----------------------------------------

Every count produced here is bit-exact with ``Expr.evaluate`` /
``evaluate_model``.  That is achieved with two evaluation modes and a
strict fallback ladder:

* **int64 mode** (the fast path).  Available only when emission needed no
  ``Fraction`` literal anywhere in the model set (``int64_capable``) *and*
  the caller proves, for the concrete parameter ranges at hand, that no
  intermediate value can leave ``[-(2^63-1), 2^63-1]``.  The proof is
  :meth:`VecCompiledResult.int64_safe`, an interval-arithmetic walk
  (:func:`~.intervals.interval_eval_within`) over every emitted operation
  — including each partial accumulation of n-ary sums/products and the
  scaled Faulhaber numerators — mirroring the per-category accumulation
  and call-graph merges of the emitted code.  This precheck is mandatory:
  numpy int64 multiplication **wraps silently** (``errstate`` does not
  see it), so runtime detection alone cannot guarantee exactness.
  The walk costs milliseconds, so its verdicts are memoized per *range
  bucket*: each endpoint of the chunk's box is rounded outward to 0 or a
  signed power of two, and the verdict for that widened box is kept on
  the compiled object.  Interval evaluation encloses every point of the
  box it is given (each operation is inclusion-monotone), so a proof for
  the widened box covers every point of the chunk; when the widened box
  is not provably safe, the exact box is checked as well, so bucketing
  never costs a chunk the int64 path.
  Integer-body ``Sum`` closed forms stay integral via the scaled form
  ``_mira_scaled(D * cf, D)`` (``D`` = lcm of the Faulhaber coefficient
  denominators; see :func:`~.pycodegen.sum_lowering`), a ``//`` on int64
  columns, which is exact because the true sum — and the Faulhaber
  polynomial at *every* integer point, masked region included — is an
  integer.

* **object mode** (the exact fallback).  Parameter columns are cast to
  ``dtype=object`` — plain Python ints and ``Fraction``s — and the same
  emitted source evaluates with Python's unbounded exact arithmetic,
  elementwise under numpy broadcasting.  Slower, but still columnar, and
  exact for arbitrarily large values and rational (branch-ratio) counts.
  ``_mira_scaled`` divides a ``Fraction`` cell exactly, so a rational
  binding of an integer-body ``Sum`` is exact too.

* **scalar fallback**.  Anything that cannot be vectorized at all — a
  ``Sum`` whose body is not polynomial in its loop variable, which the
  module runs as a ``_mira_sum`` loop (building the vector evaluator
  raises :class:`~repro.errors.VectorizeError`) — is handled by the
  caller (``core.sweep``) falling back to the per-point scalar evaluator.

Fallback rules, as applied per chunk by the sweep engine:

1. model set ``int64_capable`` *and* all columns int64 *and*
   ``int64_safe`` proves the chunk's ranges → int64 mode;
2. a runtime ``FloatingPointError`` (integer division by zero raises
   under ``errstate(divide='raise')``) → retry the chunk in object mode,
   where Python raises the same ``ZeroDivisionError`` the scalar engine
   would;
3. otherwise → object mode;
4. ``VectorizeError`` anywhere → the whole sweep uses the scalar engine
   (automatic under ``engine="auto"``; surfaced under
   ``engine="vector"``).

The model cache stores no generated code: a restored result emits its
module from the models on first use, once for both evaluators
(:data:`~.compile.CODEGEN_COUNTS` counts it as ``module_emit``), and
emitting it reports whether it wrote a ``Fraction`` literal or a loop.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ..core.model_runtime import _mira_ceil, _mira_floor, _mira_scaled
from ..errors import ModelError, SymbolicError, VectorizeError
from .intervals import _mul_iv, interval_eval_within

__all__ = ["INT64_BOUND", "VecCompiledResult"]

#: Largest magnitude any int64-mode intermediate may reach.  Symmetric on
#: purpose: it forgoes -2**63 itself, which only makes the precheck more
#: conservative.
INT64_BOUND = Fraction(2 ** 63 - 1)

#: Most range-bucket verdicts one :class:`VecCompiledResult` remembers for
#: :meth:`~VecCompiledResult.int64_safe`; the memo starts over when full.
INT64_MEMO_SIZE = 64


def _round_up(x) -> Fraction:
    """``x`` rounded up to 0 or a signed power of two (a bucket's hi)."""
    if x < 0:
        return -_round_down(-x)
    c = math.ceil(x)
    return Fraction(1 << (c - 1).bit_length()) if c else Fraction(0)


def _round_down(x) -> Fraction:
    """``x`` rounded down to 0 or a signed power of two (a bucket's lo)."""
    if x < 0:
        return -_round_up(-x)
    f = math.floor(x)
    return Fraction(1 << (f.bit_length() - 1)) if f else Fraction(0)


# ---------------------------------------------------------------------------
# elementwise runtime helpers referenced by emitted source
# ---------------------------------------------------------------------------

def _vmax(*args):
    """Elementwise ``max``; exact on python scalars, object arrays, int64."""
    if not any(isinstance(a, np.ndarray) for a in args):
        return max(args)
    acc = args[0]
    for a in args[1:]:
        acc = np.maximum(acc, a)
    return acc


def _vmin(*args):
    if not any(isinstance(a, np.ndarray) for a in args):
        return min(args)
    acc = args[0]
    for a in args[1:]:
        acc = np.minimum(acc, a)
    return acc


def _vwhere(cond, a, b):
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


_obj_ceil = np.frompyfunc(_mira_ceil, 1, 1)
_obj_floor = np.frompyfunc(_mira_floor, 1, 1)
_obj_scaled = np.frompyfunc(_mira_scaled, 2, 1)


def _vceil(x):
    if isinstance(x, np.ndarray):
        if x.dtype == object:
            return _obj_ceil(x)
        return x  # int64 values are already integral
    return _mira_ceil(x)


def _vfloor(x):
    if isinstance(x, np.ndarray):
        if x.dtype == object:
            return _obj_floor(x)
        return x
    return _mira_floor(x)


def _vscaled(x, d: int):
    """Elementwise ``_mira_scaled``: ``//`` on an int64 column, the exact
    helper cell by cell on an object one (whose cells may be Fractions)."""
    if isinstance(x, np.ndarray):
        if x.dtype == object:
            return _obj_scaled(x, d)
        return x // d
    return _mira_scaled(x, d)


class _Columns:
    """The vector runtime's ``Metrics``: category -> count column."""

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: dict = {}

    def add(self, vector, times) -> None:
        """Accumulate ``vector × times`` (one model statement)."""
        for cat, w in vector.items():
            self._acc(cat, times if w == 1 else w * times)

    def _acc(self, cat: str, column) -> None:
        cur = self.counts.get(cat)
        self.counts[cat] = column if cur is None else cur + column


def _vmerge(caller: _Columns, callee: _Columns, times) -> None:
    """The vector runtime's ``handle_function_call``: callee columns ×
    call count."""
    for cat, v in callee.counts.items():
        caller._acc(cat, v * times)


def _vfull(v, n: int):
    """Broadcast one category result to a length-``n`` column, exactly."""
    if isinstance(v, np.ndarray):
        if v.shape == (n,):
            return v
        if v.shape == ():
            v = v.item()
        else:
            return np.broadcast_to(v, (n,))
    if isinstance(v, np.integer):
        v = int(v)
    if isinstance(v, int):
        try:
            return np.full(n, v, dtype=np.int64)
        except OverflowError:
            pass
    out = np.empty(n, dtype=object)
    out[:] = v
    return out


def _reject_floats(env, params) -> None:
    """Float bindings are never exact.  Scalars are rejected only for the
    model's own parameters (matching ``CompiledResult.evaluate``); a
    float-dtype array is rejected wherever it appears."""
    for k, v in env.items():
        if isinstance(v, np.ndarray) and v.dtype.kind == "f":
            raise SymbolicError(f"float binding for {k!r}; use int/Fraction")
        if isinstance(v, float) and k in params:
            raise SymbolicError(f"float binding for {k!r}; use int/Fraction")


# ---------------------------------------------------------------------------
# the vector evaluator: the Fig. 5 module over numpy columns
# ---------------------------------------------------------------------------

#: What the vector runtime binds over the generated module's names.  The
#: module's own ``_mira_exact`` and ``_mira_error`` stay: the first passes a
#: column through unchanged, the second raises as it does in the scalar
#: runtime.
_VECTOR_RUNTIME = {
    "Metrics": _Columns,
    "handle_function_call": _vmerge,
    "max": _vmax,
    "min": _vmin,
    "_mira_where": _vwhere,
    "_mira_ceil": _vceil,
    "_mira_floor": _vfloor,
    "_mira_scaled": _vscaled,
}


class VecCompiledResult:
    """Every function model of an analysis, evaluated over numpy arrays.

    ``source`` is the generated Fig. 5 module (``python_source()``), and
    ``uses`` what emitting it reported: a ``Fraction`` literal rules out
    the int64 fast path, and a ``_mira_sum`` loop rules out the vector
    engine (:class:`~repro.errors.VectorizeError`).  The module is exec'd
    with :data:`_VECTOR_RUNTIME` bound over its runtime names, so each
    model function computes per-category count columns operation for
    operation as the scalar evaluator computes counts.

    ``evaluate_grid(qname, env, n)`` takes parameter *columns* and returns
    per-category count columns — same parameter checking and errors as
    ``CompiledResult.evaluate``, values ``Fraction``-equal to
    ``evaluate_model`` at every grid point.  ``int64_capable`` plus
    :meth:`int64_safe` decide when the int64 fast path is sound (see the
    module docstring for the full dtype discipline)."""

    __slots__ = ("models", "source", "int64_capable", "_fns", "_safe_memo")

    def __init__(self, models: dict, source: str, uses) -> None:
        from ..core.model_generator import compile_model

        if "_mira_sum" in uses:
            raise VectorizeError(
                "a Sum has no closed form (a non-polynomial body); "
                "use the scalar engine")
        self.models = models
        self.source = source
        self.int64_capable = "Fraction" not in uses
        self._safe_memo: dict = {}
        ns = compile_model(source)
        ns.update(_VECTOR_RUNTIME)
        self._fns = ns["MODEL_FUNCTIONS"]

    # -- evaluation --------------------------------------------------------

    def evaluate_grid(self, qname: str, env=None, npoints: int | None = None,
                      *, guard_divide: bool = False) -> dict:
        """Evaluate one function over parameter columns.

        ``env`` maps parameter names to equal-length numpy columns or exact
        scalars; returns ``{category: column}`` with every column
        broadcast to length ``npoints``.  ``guard_divide`` runs under
        ``errstate(divide='raise')`` so int64 division by zero surfaces as
        ``FloatingPointError`` (the sweep engine's cue to retry the chunk
        in object mode, where ``ZeroDivisionError`` matches the scalar
        engine)."""
        from ..core.model_generator import bound_model

        env = env or {}
        m = bound_model(self.models, qname, env)
        _reject_floats(env, m.params)
        if npoints is None:
            npoints = 1
            for v in env.values():
                if isinstance(v, np.ndarray) and v.ndim == 1:
                    npoints = v.shape[0]
                    break
        args = [env[p] for p in m.params]
        if guard_divide:
            with np.errstate(divide="raise", over="raise"):
                raw = self._fns[qname](*args)
        else:
            raw = self._fns[qname](*args)
        return {cat: _vfull(v, npoints) for cat, v in raw.counts.items()}

    # -- int64 overflow precheck ------------------------------------------

    def int64_safe(self, qname: str, env_ivs) -> bool:
        """True iff no int64 intermediate can overflow for these ranges.

        ``env_ivs`` maps parameter names to ``(Fraction lo, Fraction hi)``
        covering the chunk's actual values.  The walk mirrors the emitted
        code: term counts, per-category accumulation, callee argument
        expressions, recursive callee evaluation, and call-count merges
        are all bounded in interval arithmetic; any unknown or unbounded
        piece fails closed (returns False → object mode).

        The walk runs on the *range bucket* of ``env_ivs`` — every
        endpoint rounded outward to 0 or a signed power of two — and its
        verdict is memoized per ``(qname, bucket)``, so repeated sweeps
        over similar ranges skip it.  That is sound because interval
        evaluation encloses every point of the box it is given: a proof
        for the bucket covers every point of the smaller actual box.  A
        bucket that is not provably safe falls back to walking the exact
        ``env_ivs``, so the verdict always equals the exact-box one."""
        if not self.int64_capable:
            return False
        if self.models.get(qname) is None:
            return False
        env_ivs = dict(env_ivs)
        bucket = {k: (_round_down(lo), _round_up(hi))
                  for k, (lo, hi) in env_ivs.items()}
        key = (qname, tuple(sorted(bucket.items())))
        safe = self._safe_memo.get(key)
        if safe is None:
            safe = self._cats_iv(qname, bucket) is not None
            if len(self._safe_memo) >= INT64_MEMO_SIZE:
                self._safe_memo.clear()
            self._safe_memo[key] = safe
        return safe or self._cats_iv(qname, env_ivs) is not None

    def _cats_iv(self, qname: str, env_ivs: dict):
        from ..core.model_generator import call_args

        bound = INT64_BOUND
        m = self.models[qname]
        cats: dict = {}

        def acc(cat, iv):
            cur = cats.get(cat)
            if cur is None:
                cats[cat] = iv
                return True
            lo, hi = cur[0] + iv[0], cur[1] + iv[1]
            if lo < -bound or hi > bound:
                return False
            cats[cat] = (lo, hi)
            return True

        for t in m.terms:
            vec = t.vector.as_dict()
            if not vec:
                continue
            civ = interval_eval_within(t.count, env_ivs, bound)
            if civ is None:
                return None
            for cat, w in vec.items():
                wiv = (min(w * civ[0], w * civ[1]),
                       max(w * civ[0], w * civ[1]))
                if wiv[0] < -bound or wiv[1] > bound:
                    return None
                if not acc(cat, wiv):
                    return None
        for c in m.calls:
            try:
                args = call_args(self.models, m, c)
            except ModelError:
                # the call raises the same error in every engine, so the
                # mode choice is irrelevant
                continue
            sub_ivs: dict = {}
            for p, a in zip(self.models[c.callee].params, args):
                iv = interval_eval_within(a, env_ivs, bound)
                if iv is None:
                    return None
                sub_ivs[p] = iv
            callee_cats = self._cats_iv(c.callee, sub_ivs)
            if callee_cats is None:
                return None
            cciv = interval_eval_within(c.count, env_ivs, bound)
            if cciv is None:
                return None
            for cat, iv in callee_cats.items():
                merged = _mul_iv(iv, cciv)
                if merged[0] < -bound or merged[1] > bound:
                    return None
                if not acc(cat, merged):
                    return None
        return cats

    def __repr__(self) -> str:
        return (f"VecCompiledResult({len(self.models)} function(s), "
                f"int64_capable={self.int64_capable})")
