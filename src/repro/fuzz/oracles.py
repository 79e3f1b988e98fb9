"""The oracle stack: every independent evaluation path must agree exactly.

Each oracle takes a prepared :class:`FuzzCase` and returns an
:class:`OracleVerdict`.  The contract underlying all of them:

* **Advertised inexactness is legal** — when a model carries warnings
  (heuristic branch ratios, while-loop trip parameters, early loop
  exits), the static-vs-dynamic oracle skips exactness for that program.
  A divergence *without* a warning is a genuine bug.
* **Engine disagreement is never legal** — tree-walk ``Expr.evaluate``,
  scalar-compiled closures, and the vectorized numpy engine implement
  the same mathematical model; they must agree to the bit (Fraction
  equality), warnings or not.  So must a JSON round-trip and a warm
  model-cache hit.

Oracles share one :class:`FuzzCase`, which lazily caches the pipeline
runs (concrete / runtime / symbolic renders) so the stack costs 2-3
analyses per program, not per oracle.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field, replace

from ..core.config import AnalysisConfig
from ..core.pipeline import Pipeline
from ..core.result import AnalysisResult
from ..core.store import ModelCache, payload_from_result, restore
from ..dynamic import TauProfiler
from ..errors import MiraError, VectorizeError
from .generator import GeneratedProgram, StmtSpec

__all__ = ["ORACLE_NAMES", "CaseReport", "FuzzCase", "OracleVerdict",
           "run_oracles"]


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of one oracle on one program."""

    oracle: str
    ok: bool
    skipped: bool = False     # oracle not applicable (e.g. advertised
    detail: str = ""          # heuristic, or no vector form)

    def to_dict(self) -> dict:
        return {"oracle": self.oracle, "ok": self.ok,
                "skipped": self.skipped, "detail": self.detail}


def _exact_counts(metrics) -> dict:
    """Exact per-category counts (ints/Fractions, zero rows dropped) —
    engine comparisons must not go through ``as_dict`` rounding."""
    return {k: v for k, v in metrics.counts.items() if v != 0}


def _diff_counts(a: dict, b: dict, la: str, lb: str) -> str:
    out = []
    for k in sorted(set(a) | set(b), key=str):
        if a.get(k, 0) != b.get(k, 0):
            out.append(f"{k}: {la}={a.get(k, 0)} {lb}={b.get(k, 0)}")
    return "; ".join(out[:6])


def _base_name(param: str, bindings: dict) -> str | None:
    """Resolve a model parameter to its size name, stripping call-site line
    suffixes (``N_12``, and ``N_12_18`` after two bubbling layers)."""
    name = param
    while name not in bindings:
        base, _sep, suffix = name.rpartition("_")
        if not (base and suffix.isdigit()):
            return None
        name = base
    return name


def _bind(result: AnalysisResult, function: str, bindings: dict) -> dict:
    """Bind a model's parameters from size-name bindings.  Unmatched
    parameters bind to 0 (an empty loop, still exactly comparable)."""
    env = {}
    for p in result.parameters(function):
        base = _base_name(p, bindings)
        env[p] = bindings[base] if base is not None else 0
    return env


@dataclass
class FuzzCase:
    """One generated program prepared for the oracle stack, with lazily
    cached analyses (each render mode is analyzed at most once)."""

    program: GeneratedProgram
    base_config: AnalysisConfig | None = None
    _cache: dict = field(default_factory=dict)

    def result(self, mode: str) -> AnalysisResult:
        key = ("result", mode)
        if key not in self._cache:
            cfg = self.program.config(mode, self.base_config)
            self._cache[key] = Pipeline(cfg).run(
                self.program.source(mode), filename=f"<fuzz-{mode}>")
        return self._cache[key]

    def dynamic(self, mode: str) -> dict:
        """Dynamically executed per-category counts of ``main`` (inclusive),
        for a runnable (concrete/runtime) render."""
        key = ("dynamic", mode)
        if key not in self._cache:
            res = self.result(mode)
            rep = TauProfiler(res.processed).profile("main")
            self._cache[key] = dict(rep.function("main").categories)
        return self._cache[key]


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _assumptions_hold(res: AnalysisResult, function: str, env: dict) -> bool:
    """True when the bindings satisfy the model's validity domain (every
    assumption expression evaluates >= 0)."""
    for a in res.assumptions(function):
        vals = {s: env.get(s, 0) for s in a.free_symbols()}
        if a.evaluate(vals) < 0:
            return False
    return True


def oracle_static_dynamic(case: FuzzCase) -> OracleVerdict:
    """Static model counts == dynamically executed counts, exactly, for
    every render that both sides can run — unless the model *advertises*
    a heuristic via warnings, or the bindings land outside the model's
    declared validity domain (``AnalysisResult.assumptions``)."""
    details = []
    checked = 0
    for mode in ("concrete", "runtime"):
        if mode == "runtime" and not case.program.spec.sizes:
            continue
        res = case.result(mode)
        if res.warnings():
            continue  # advertised heuristic: exactness not claimed
        env = _bind(res, "main", case.program.bindings())
        if not _assumptions_hold(res, "main", env):
            continue  # bindings outside the advertised validity domain
        static = res.evaluate("main", env).as_dict()
        dynamic = case.dynamic(mode)
        checked += 1
        if static != dynamic:
            details.append(
                f"[{mode}] {_diff_counts(static, dynamic, 'static', 'dyn')}")
    if details:
        return OracleVerdict("static_dynamic", False,
                             detail=" | ".join(details))
    if not checked:
        return OracleVerdict("static_dynamic", True, skipped=True,
                             detail="model warns: exactness not claimed")
    return OracleVerdict("static_dynamic", True)


def oracle_engines(case: FuzzCase) -> OracleVerdict:
    """Tree-walk vs scalar-compiled vs vectorized evaluation, exact.

    Concrete render: per-point equality.  Symbolic render (when the
    program has size parameters): a full grid sweep, vector vs scalar,
    point by point."""
    details = []
    res = case.result("concrete")
    env = _bind(res, "main", {})
    walk = _exact_counts(res.evaluate("main", env))
    comp = _exact_counts(res.compiled().evaluate(
        res._resolve("main"), env))
    if walk != comp:
        details.append("[concrete] " + _diff_counts(walk, comp,
                                                    "walk", "compiled"))
    grid = case.program.sweep_grid()
    if grid:
        sym = case.result("symbolic")
        qname = sym._resolve("main")
        sweep_grid = {p: grid[_base_name(p, grid)]
                      for p in sym.parameters(qname)
                      if _base_name(p, grid) is not None}
        missing = [p for p in sym.parameters(qname) if p not in sweep_grid]
        base = {p: 0 for p in missing}
        scalar = sym.sweep(qname, sweep_grid, base=base, engine="scalar") \
            if sweep_grid else None
        if scalar is not None:
            # The tree-walk is the slow reference (lazy Sums interpret the
            # whole iteration space): spot-check three grid points; the
            # compiled engines still cross-check on the full grid below.
            pts = list(scalar)
            for pt in {0, len(pts) // 2, len(pts) - 1}:
                pt = pts[pt]
                e = dict(base)
                e.update(pt.env)
                ref = _exact_counts(sym.evaluate(qname, e))
                got = _exact_counts(pt.metrics)
                if ref != got:
                    details.append(f"[sweep scalar {pt.env}] "
                                   + _diff_counts(ref, got, "walk", "scalar"))
                    break
            try:
                vector = sym.sweep(qname, sweep_grid, base=base,
                                   engine="vector")
            except MiraError as exc:
                vector = None
                # A model with no vector closed form is legal; anything
                # else the vector engine raises is a finding.
                no_form = (isinstance(exc, VectorizeError)
                           or "cannot evaluate this sweep" in str(exc))
                if not no_form:
                    details.append(f"[sweep vector] raised {exc}")
            if vector is not None:
                for ps, pv in zip(scalar, vector):
                    a = _exact_counts(ps.metrics)
                    b = _exact_counts(pv.metrics)
                    if a != b or ps.env != pv.env:
                        details.append(f"[sweep vector {ps.env}] "
                                       + _diff_counts(a, b, "scalar",
                                                      "vector"))
                        break
    if details:
        return OracleVerdict("engines", False, detail=" | ".join(details))
    return OracleVerdict("engines", True)


def oracle_serialize(case: FuzzCase) -> OracleVerdict:
    """``AnalysisResult`` JSON wire format round-trips bit-identically and
    the restored result evaluates Fraction-equal."""
    details = []
    modes = ["concrete"] + (["symbolic"] if case.program.spec.sizes else [])
    for mode in modes:
        res = case.result(mode)
        restored = AnalysisResult.from_json(res.to_json())
        if restored.to_dict() != res.to_dict():
            details.append(f"[{mode}] wire format not idempotent")
            continue
        env = _bind(res, "main", case.program.bindings())
        a = _exact_counts(res.evaluate("main", env))
        b = _exact_counts(restored.evaluate("main", env))
        if a != b:
            details.append(f"[{mode}] "
                           + _diff_counts(a, b, "live", "restored"))
    if details:
        return OracleVerdict("serialize", False, detail=" | ".join(details))
    return OracleVerdict("serialize", True)


def oracle_cache(case: FuzzCase) -> OracleVerdict:
    """Cold analysis vs warm ``ModelCache`` hit: the restored payload (its
    evaluator emitted again from the stored models) must evaluate
    identically through both the tree-walk and the compiled path."""
    details = []
    res = case.result("concrete")
    cfg = case.program.config("concrete", case.base_config)
    source = case.program.source("concrete")
    with tempfile.TemporaryDirectory(prefix="mira-fuzz-cache-") as tmp:
        cache = ModelCache(tmp)
        key = cfg.fingerprint(source, filename="<fuzz-concrete>")
        cache.put(key, payload_from_result(cfg, res, "<fuzz-concrete>", 0.0))
        payload = cache.get(key)
        warm = restore(payload)
        if warm is None:
            return OracleVerdict("cache", False,
                                 detail="warm payload failed to restore")
        env = _bind(res, "main", {})
        cold = _exact_counts(res.evaluate("main", env))
        hot = _exact_counts(warm.evaluate("main", env))
        if cold != hot:
            details.append("[tree-walk] "
                           + _diff_counts(cold, hot, "cold", "warm"))
        hotc = _exact_counts(warm.compiled().evaluate(
            warm._resolve("main"), env))
        if cold != hotc:
            details.append("[compiled] "
                           + _diff_counts(cold, hotc, "cold", "warm"))
        if warm.to_dict() != res.to_dict():
            details.append("warm wire format differs from cold")
    if details:
        return OracleVerdict("cache", False, detail=" | ".join(details))
    return OracleVerdict("cache", True)


def _mutate_spec(spec):
    """Deterministically perturb the first (deepest-callee) function's
    body: bump the coefficient of its first int statement, else flip the
    op of its first fp statement, else append an int accumulation.  The
    mutation always changes the rendered source of exactly one function."""
    fn = spec.functions[0]
    body = list(fn.body)
    for i, st in enumerate(body):
        if st.kind in ("int_acc", "int_arr"):
            body[i] = replace(st, coef=st.coef + 1)
            break
        if st.kind in ("fp_scalar", "fp_arr"):
            body[i] = replace(st, op="-" if st.op == "+" else "+")
            break
    else:
        body.append(StmtSpec(kind="int_acc", coef=2))
    return replace(spec, functions=(replace(fn, body=tuple(body)),)
                   + spec.functions[1:])


def oracle_incremental(case: FuzzCase) -> OracleVerdict:
    """Per-function incremental re-analysis == cold full analysis, bit for
    bit.  Analyze the program into a fresh per-function cache, mutate one
    function of the spec, re-analyze incrementally (warm-starting from the
    unmutated functions' cache entries), and demand the result equals a
    cold ``Pipeline`` run of the mutated source on everything but
    ``stage_timings``."""
    from ..core.incremental import IncrementalAnalyzer
    from .generator import render_program

    spec = case.program.spec
    if len(spec.functions) < 2:
        return OracleVerdict("incremental", True, skipped=True,
                             detail="needs a multi-function program")
    mutated = _mutate_spec(spec)
    src_a = render_program(spec, "concrete")
    src_b = render_program(mutated, "concrete")
    cfg = case.program.config("concrete", case.base_config)
    with tempfile.TemporaryDirectory(prefix="mira-fuzz-incr-") as tmp:
        inc = IncrementalAnalyzer(cfg.with_changes(cache_dir=tmp,
                                                   use_cache=True))
        inc.analyze(src_a, filename="<fuzz-concrete>")
        warm = inc.analyze(src_b, filename="<fuzz-concrete>")
    cold = Pipeline(cfg).run(src_b, filename="<fuzz-concrete>")
    details = []
    target = spec.functions[0].name
    if target not in warm.fresh_functions():
        details.append(f"mutated function {target!r} was not re-analyzed "
                       f"(fresh: {warm.fresh_functions()})")
    dw, dc = warm.to_dict(), cold.to_dict()
    dw.pop("stage_timings", None)
    dc.pop("stage_timings", None)
    if dw != dc:
        keys = [k for k in dc if dw.get(k) != dc.get(k)]
        details.append(f"incremental result differs from cold in: {keys}")
    if details:
        return OracleVerdict("incremental", False,
                             detail=" | ".join(details))
    return OracleVerdict("incremental", True)


#: Registry, in execution order.
ORACLES = {
    "static_dynamic": oracle_static_dynamic,
    "engines": oracle_engines,
    "serialize": oracle_serialize,
    "cache": oracle_cache,
    "incremental": oracle_incremental,
}

ORACLE_NAMES = tuple(ORACLES)


@dataclass
class CaseReport:
    """All verdicts for one generated program."""

    program: GeneratedProgram
    verdicts: list = field(default_factory=list)
    error: str = ""            # analysis/interpretation crash, if any

    @property
    def ok(self) -> bool:
        return not self.error and all(v.ok for v in self.verdicts)

    def failed(self) -> list:
        return [v for v in self.verdicts if not v.ok]

    def to_dict(self) -> dict:
        return {
            "seed": self.program.seed,
            "ok": self.ok,
            "error": self.error,
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


def run_oracles(program: GeneratedProgram, oracles=None,
                config: AnalysisConfig | None = None) -> CaseReport:
    """Run the oracle stack on one generated program.

    A crash anywhere in analysis or interpretation is itself a finding
    (the generator stays within the supported grammar by construction),
    reported via ``CaseReport.error``.
    """
    case = FuzzCase(program, base_config=config)
    report = CaseReport(program=program)
    names = list(oracles or ORACLE_NAMES)
    for name in names:
        fn = ORACLES.get(name)
        if fn is None:
            raise MiraError(f"unknown oracle {name!r}; "
                            f"available: {', '.join(ORACLE_NAMES)}")
        try:
            report.verdicts.append(fn(case))
        except Exception as exc:
            report.error = f"{name}: {type(exc).__name__}: {exc}"
            report.verdicts.append(OracleVerdict(
                name, False, detail=report.error))
            break
    return report
