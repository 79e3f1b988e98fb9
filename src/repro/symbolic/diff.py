"""Symbolic model diffing: per-function deltas between two analyses.

``AnalysisResult.diff(other)`` (and ``mira diff``) answers the CI-bot
question "did this commit change the performance model?" symbolically:
each function's per-category instruction count is folded into one
inclusive :class:`~repro.symbolic.expr.Expr` (own terms plus callee
contributions, substituted through each call's ``binding``: the same
``y_16`` rule the parameter and assumption closures use), and
before/after expressions are classified through the polynomial layer:

* equal canonical expressions → no delta,
* polynomial-equal after normalization → reported but flagged cosmetic,
* same degree, proportional leading terms → "degree unchanged, leading
  coeff ×r" (e.g. ``2n^3 + n^2 → 4n^3``),
* different total degree → "degree a → b" (the delta a perf bot should
  block on),
* anything non-polynomial → a generic symbolic change.

**The changed set.**  A function's own model changed when its two models
differ in what the wire format writes for it (name, parameters, warnings,
terms, call sites, assumptions; not the AST, which restored models lack).
Identity is checked first: a watch loop's unchanged functions are the
same objects, from the incremental analyzer's memo.  Every function whose
own model changed, plus every function added or removed, marks all its
transitive callers as changed too, because inclusive counts move with
their callees.  A caller that changed only through its callees is
reported with ``detail="via <callee>"`` (its changed direct callees) and
its inclusive before/after; if those are equal after all, it is
unchanged.  Inclusive counts are built only for the changed set.  A clean
function's counts are taken from the other side, a clean call site's
contribution from a bounded memo, and each result keeps what was built
for it, so a watch loop's next diff starts warm.

This module deliberately imports nothing from :mod:`repro.core` — it
operates on the duck-typed ``AnalysisResult`` surface (``models``,
``arch``, ``source_name``) and never serializes a result, which keeps the
symbolic layer dependency-free.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from fractions import Fraction

from .expr import ZERO, Add, Expr, Int
from .poly import Polynomial, expr_to_poly

__all__ = ["CategoryDelta", "FunctionDelta", "ResultDiff",
           "category_exprs", "classify_change", "diff_results"]

#: Synthetic categories reported alongside the arch's own.
TOTAL = "TOTAL"
FP = "FP_INS"


# ---------------------------------------------------------------------------
# inclusive per-category symbolic counts
# ---------------------------------------------------------------------------

#: Call-site contributions ``count × callee_expr.subs(bindings)``, keyed on
#: the hash-consed callee expression, count and bindings: an unchanged call
#: site costs one lookup on both sides of a diff and in every later diff.
#: Bounded: cleared wholesale when full.
_CONTRIBUTIONS: dict = {}
_CONTRIBUTIONS_MAX = 1 << 12


def _contribution(call, e: Expr) -> Expr:
    """One call site's contribution of one callee category expression."""
    sub = {name: call.binding(name) for name in e.free_symbols()}
    key = (e, call.count, frozenset(sub.items()))
    out = _CONTRIBUTIONS.get(key)
    if out is None:
        out = call.count * e.subs(sub)
        if len(_CONTRIBUTIONS) >= _CONTRIBUTIONS_MAX:
            _CONTRIBUTIONS.clear()
        _CONTRIBUTIONS[key] = out
    return out


#: Polynomial forms (None: not polynomial) of the expressions a diff sums
#: and classifies, keyed on the hash-consed expression.  Bounded: cleared
#: wholesale when full.
_POLYS: dict = {}
_POLYS_MAX = 1 << 12


def _poly(e: Expr):
    try:
        return _POLYS[e]
    except KeyError:
        pass
    if len(_POLYS) >= _POLYS_MAX:
        _POLYS.clear()
    p = _POLYS[e] = expr_to_poly(e)
    return p


def _sum(terms) -> Expr:
    """The sum of ``terms`` in one pass: every polynomial part merged into
    one polynomial, the lazy parts (sums, min/max) kept in order before
    it."""
    coeffs: dict = {}
    rest = []
    for e in terms:
        lazy_sum = isinstance(e, Add) and _poly(e) is None
        for part in e.args if lazy_sum else (e,):
            p = _poly(part)
            if p is None:
                rest.append(part)
                continue
            for m, c in p.terms.items():
                coeffs[m] = coeffs.get(m, 0) + c
    poly = Polynomial(coeffs).to_expr()
    # A lazy term first: Add.make then skips its polynomial attempt.
    return Add.make((*rest, poly)) if rest else poly


def category_exprs(models: dict, qname: str, _memo: dict | None = None,
                   _active: frozenset = frozenset()) -> dict[str, Expr]:
    """Inclusive symbolic instruction count per category for ``qname``.

    Own metric terms contribute ``vector[cat] × count``; each call site
    contributes ``count × callee_expr`` with the callee's free symbols
    rewritten through the call's argument bindings (unbound parameters get
    the call-site line suffix, the same ``y_16`` rule the parameter and
    assumption closures use).  Memoized per result (``_memo`` only ever
    holds finished entries, so it can be shared); recursion-safe (a cycle
    contributes nothing, matching the model layer's refusal to model
    it)."""
    if _memo is None:
        _memo = {}
    out = _memo.get(qname)
    if out is not None:
        return out
    model = models.get(qname)
    if model is None or qname in _active:
        return {}
    active = _active | {qname}
    terms: dict[str, list] = {}
    for t in model.terms:
        for cat, n in t.vector.as_dict().items():
            terms.setdefault(cat, []).append(Int(n) * t.count)
    for c in model.calls:
        for cat, e in category_exprs(models, c.callee, _memo,
                                     active).items():
            terms.setdefault(cat, []).append(_contribution(c, e))
    out = _memo[qname] = {cat: _sum(es) for cat, es in terms.items()}
    return out


# ---------------------------------------------------------------------------
# polynomial classification
# ---------------------------------------------------------------------------

def _poly_profile(e: Expr):
    """(total degree, leading terms {monomial: coeff}) of a polynomial
    expression, or None when it has no polynomial form."""
    p = _poly(e)
    if p is None:
        return None
    terms = {m: c for m, c in p.terms.items() if c != 0}
    if not terms:
        return 0, {(): Fraction(0)}
    deg = max(sum(exp for _v, exp in mono) for mono in terms)
    leading = {m: c for m, c in terms.items()
               if sum(exp for _v, exp in m) == deg}
    return deg, leading


def _fmt_ratio(r: Fraction) -> str:
    return str(r.numerator) if r.denominator == 1 else \
        f"{r.numerator}/{r.denominator}"


def classify_change(before: Expr, after: Expr) -> str:
    """One-line classification of a symbolic count change."""
    if before == after:
        return "unchanged"
    pa, pb = _poly_profile(before), _poly_profile(after)
    if pa is None or pb is None:
        return "non-polynomial change"
    (da, la), (db, lb) = pa, pb
    if _poly(before) == _poly(after):
        return "equal after normalization"
    if da != db:
        return f"degree {da} → {db}"
    if da == 0:
        return "constant change"
    if la == lb:
        return (f"degree {da} and leading terms unchanged; "
                f"lower-order terms changed")
    if set(la) == set(lb):
        ratios = {lb[m] / la[m] for m in la if la[m] != 0}
        if len(ratios) == 1 and all(la[m] != 0 for m in la):
            return (f"degree unchanged, leading coeff "
                    f"×{_fmt_ratio(ratios.pop())}")
    return f"degree {da} unchanged, leading terms changed"


# ---------------------------------------------------------------------------
# the diff product
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CategoryDelta:
    """One category's before→after symbolic counts for one function."""

    category: str
    before: Expr | None
    after: Expr | None
    change: str

    def to_dict(self) -> dict:
        return {"category": self.category,
                "before": str(self.before) if self.before is not None
                else None,
                "after": str(self.after) if self.after is not None
                else None,
                "change": self.change}


@dataclass
class FunctionDelta:
    """One function's delta: status plus per-category symbolic changes."""

    qname: str
    status: str                # "added" | "removed" | "changed"
    categories: list = field(default_factory=list)   # CategoryDelta
    params_before: list = field(default_factory=list)
    params_after: list = field(default_factory=list)
    detail: str = ""           # e.g. "metadata-only change (warnings)"

    def to_dict(self) -> dict:
        out = {"function": self.qname, "status": self.status,
               "categories": [c.to_dict() for c in self.categories],
               "params_before": list(self.params_before),
               "params_after": list(self.params_after)}
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class ResultDiff:
    """The symbolic diff between two analyses."""

    a_name: str
    b_name: str
    added: list = field(default_factory=list)      # FunctionDelta
    removed: list = field(default_factory=list)
    changed: list = field(default_factory=list)
    unchanged: list = field(default_factory=list)  # qnames
    arch_changed: bool = False

    @property
    def identical(self) -> bool:
        return not (self.added or self.removed or self.changed
                    or self.arch_changed)

    def to_dict(self) -> dict:
        return {
            "kind": "ModelDiff",
            "a": self.a_name,
            "b": self.b_name,
            "identical": self.identical,
            "arch_changed": self.arch_changed,
            "added": [d.to_dict() for d in self.added],
            "removed": [d.to_dict() for d in self.removed],
            "changed": [d.to_dict() for d in self.changed],
            "unchanged": list(self.unchanged),
        }

    def format(self) -> str:
        lines = [f"# model diff: {self.a_name} → {self.b_name}"]
        if self.identical:
            lines.append("models are identical")
            return "\n".join(lines)
        if self.arch_changed:
            lines.append("! architecture description changed")
        for d in self.removed:
            lines.append(f"- {d.qname}")
        for d in self.added:
            lines.append(f"+ {d.qname}")
            for c in d.categories:
                lines.append(f"    {c.category}: {c.after}")
        for d in self.changed:
            lines.append(f"~ {d.qname}")
            if d.detail:
                lines.append(f"    {d.detail}")
            if d.params_before != d.params_after:
                lines.append(f"    params: {d.params_before} → "
                             f"{d.params_after}")
            for c in d.categories:
                lines.append(f"    {c.category}: {c.before} → {c.after}  "
                             f"[{c.change}]")
        lines.append(
            f"{len(self.changed)} changed, {len(self.added)} added, "
            f"{len(self.removed)} removed, "
            f"{len(self.unchanged)} unchanged")
        return "\n".join(lines)


#: Per-result inclusive counts (``{qname: {category: Expr}}``), keyed on
#: ``id(result)`` and dropped with the result: a watch loop's next diff
#: reuses what this one computed for its ``b`` side.
_RESULT_MEMOS: dict = {}


def _inclusive_memo(result) -> dict:
    key = id(result)
    entry = _RESULT_MEMOS.get(key)
    if entry is None or entry[0]() is not result:
        try:
            ref = weakref.ref(result,
                              lambda _r: _RESULT_MEMOS.pop(key, None))
        except TypeError:      # not weak-referenceable: no reuse
            return {}
        entry = _RESULT_MEMOS[key] = (ref, {})
    return entry[1]


def _share(src: dict, dst: dict, clean) -> None:
    """Copy ``src``'s inclusive counts of clean functions into ``dst``:
    they are equal on both sides of the diff."""
    for q in clean:
        if q in src and q not in dst:
            dst[q] = src[q]


def _function_exprs(result, qname: str, memo: dict) -> dict[str, Expr]:
    """Per-category inclusive counts plus the synthetic TOTAL and FP_INS
    rows (FP per the result's own arch)."""
    cats = dict(category_exprs(result.models, qname, memo))
    fp_cats = set(result.arch.fp_arith_categories)
    total = _sum(cats.values())
    fp = _sum(e for cat, e in cats.items() if cat in fp_cats)
    cats[TOTAL] = total
    cats[FP] = fp
    return cats


def _own_model(m) -> tuple:
    """The fields of one function's own model that the wire format writes
    (not the AST, which restored models do not have)."""
    return (m.model_name, list(m.params), list(m.warnings),
            [(t.line, t.col, t.desc, t.vector, t.count) for t in m.terms],
            [(c.callee, c.line, c.count, c.arg_exprs) for c in m.calls],
            list(m.assumptions))


def _with_callers(seeds: set, *results) -> set:
    """``seeds`` plus all their transitive callers in either result."""
    callers: dict = {}
    for r in results:
        for q, m in r.models.items():
            for c in m.calls:
                callers.setdefault(c.callee, set()).add(q)
    out = set(seeds)
    todo = list(seeds)
    while todo:
        for caller in callers.get(todo.pop(), ()):
            if caller not in out:
                out.add(caller)
                todo.append(caller)
    return out


def _deltas(ca: dict, cb: dict) -> list:
    """The classified categories whose counts differ."""
    out = []
    for cat in sorted(set(ca) | set(cb)):
        ea, eb = ca.get(cat, ZERO), cb.get(cat, ZERO)
        if ea != eb:
            out.append(CategoryDelta(cat, ea, eb, classify_change(ea, eb)))
    return out


def diff_results(a, b) -> ResultDiff:
    """Diff two ``AnalysisResult``-shaped objects (added/removed/changed
    functions; per-category symbolic before→after with classification)."""
    diff = ResultDiff(a_name=a.source_name, b_name=b.source_name,
                      arch_changed=(a.arch.fingerprint()
                                    != b.arch.fingerprint()))
    removed = [q for q in a.models if q not in b.models]
    added = [q for q in b.models if q not in a.models]
    common = [q for q in b.models if q in a.models]
    own = {q for q in common if a.models[q] is not b.models[q]
           and _own_model(a.models[q]) != _own_model(b.models[q])}
    changed = _with_callers(own | set(removed) | set(added), a, b)
    clean = [q for q in common if q not in changed]
    # a changed arch can move any function's FP row
    dirty = set(common) if diff.arch_changed else changed.intersection(common)

    memo_a, memo_b = _inclusive_memo(a), _inclusive_memo(b)
    _share(memo_b, memo_a, clean)
    before = {q: _function_exprs(a, q, memo_a) for q in [*removed, *dirty]}
    _share(memo_a, memo_b, clean)
    after = {q: _function_exprs(b, q, memo_b) for q in [*added, *dirty]}

    for q in removed:
        diff.removed.append(FunctionDelta(
            qname=q, status="removed",
            params_before=list(a.models[q].params),
            categories=[CategoryDelta(c, e, None, "removed")
                        for c, e in sorted(before[q].items())
                        if e != ZERO]))
    for q in added:
        diff.added.append(FunctionDelta(
            qname=q, status="added",
            params_after=list(b.models[q].params),
            categories=[CategoryDelta(c, None, e, "added")
                        for c, e in sorted(after[q].items())
                        if e != ZERO]))

    for q in common:
        deltas = _deltas(before[q], after[q]) if q in dirty else []
        if not deltas and q not in own:
            # clean; or only the arch changed, or a callee's change left
            # this function's inclusive counts as they were
            diff.unchanged.append(q)
            continue
        delta = FunctionDelta(
            qname=q, status="changed", categories=deltas,
            params_before=list(a.models[q].params),
            params_after=list(b.models[q].params))
        if q in own:
            if not deltas:
                delta.detail = "metadata-only change (warnings/terms layout)"
        elif q in changed:
            via = {c.callee for c in b.models[q].calls} & changed
            delta.detail = "via " + ", ".join(sorted(via))
        diff.changed.append(delta)
    return diff
