"""Shared helpers for the benchmark harness.

Every bench regenerates one of the paper's tables/figures: it prints the
rows to stdout *and* writes them to ``benchmarks/out/<name>.txt`` so the
artifacts survive pytest's output capture.  Run with ``-s`` to see tables
inline.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction

# Allow running the benches from a fresh checkout without installing the
# package (PYTHONPATH-free `python benchmarks/bench_*.py`).
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core import (AnalysisConfig, AnalysisResult, BatchAnalyzer,
                        BatchReport, ModelEntry, ModelStore, Pipeline,
                        SweepResult, sweep_source)
from repro.dynamic import TauProfiler, TauReport
from repro.workloads import get_source, source_path

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

# Benches sharing a workload/defines/opt-level build it once.  The store
# adopts live results: profiling needs their ``processed`` compiler state,
# which a restored payload does not carry.
_STORE = ModelStore()


def save_table(name: str, text: str) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{name}.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(text)
    print()
    print(text)


def analyze_workload(name: str, defines: dict[str, int] | None = None,
                     opt_level: int = 2) -> AnalysisResult:
    defs = {k: str(v) for k, v in (defines or {}).items()}
    config = AnalysisConfig(opt_level=opt_level, predefined=defs)
    source = get_source(name)
    key = config.fingerprint(source, filename=name)
    entry = _STORE.lookup(key) or _STORE.adopt(
        ModelEntry(key, Pipeline(config).run(source, filename=name)))
    return entry.result


def sweep_workload(name: str, grid: dict, *, function: str = "main",
                   defines: dict[str, int] | None = None,
                   opt_level: int = 2) -> SweepResult:
    """Sweep a bundled workload across a parameter grid.

    Late-binds the swept names so a single analysis serves every grid point
    wherever the frontend allows (the paper's Fig. 7 usage); the on-disk
    cache stays off so benches measure the current code.
    """
    defs = {k: str(v) for k, v in (defines or {}).items()}
    config = AnalysisConfig(opt_level=opt_level, predefined=defs,
                            use_cache=False)
    return sweep_source(get_source(name), grid, function=function,
                        config=config, filename=name)


def batch_corpus(names: list[str] | None = None, jobs: int | None = None,
                 cache_dir: str | None = None, use_cache: bool | None = None,
                 opt_level: int = 2) -> BatchReport:
    """Analyze bundled workloads through the batch engine (all by default).

    Benches must measure the current code, so the on-disk cache is used only
    when a ``cache_dir`` is given explicitly — never the user's global one.
    """
    if use_cache is None:
        use_cache = cache_dir is not None
    config = AnalysisConfig(opt_level=opt_level, cache_dir=cache_dir,
                            use_cache=use_cache)
    analyzer = BatchAnalyzer(config, jobs=jobs)
    if names is None:
        return analyzer.analyze_corpus()
    return analyzer.analyze_paths([source_path(n) for n in names])


def profile_workload(model: AnalysisResult, entry: str = "main") -> TauReport:
    return TauProfiler(model.processed).profile(entry)


def fmt_sci(x) -> str:
    """Format like the paper's tables: 8.239E7."""
    x = float(x)
    if x == 0:
        return "0"
    exp = 0
    m = abs(x)
    while m >= 10:
        m /= 10
        exp += 1
    while m < 1:
        m *= 10
        exp -= 1
    sign = "-" if x < 0 else ""
    return f"{sign}{m:.4g}E{exp}"


def error_pct(measured: float, predicted: float) -> float:
    if measured == 0:
        return 0.0
    return 100.0 * abs(measured - predicted) / measured


def rows_to_text(title: str, header: list[str], rows: list[list],
                 note: str = "") -> str:
    widths = [max(len(str(h)), max((len(str(r[i])) for r in rows),
                                   default=0))
              for i, h in enumerate(header)]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    if note:
        lines.append("")
        lines.append(note)
    return "\n".join(lines)


def minife_env(model: AnalysisResult, fn: str, nx: int, max_iter: int,
               row_nnz: int) -> dict:
    """Parameter bindings for miniFE models, including the call-site
    parameters bubbled up from annotations (the paper's ``y_16``)."""
    nrows = nx ** 3
    env: dict = {}
    for p in model.parameters(fn):
        if p == "nrows" or p.startswith("nrows_"):
            env[p] = nrows
        elif p == "max_iter":
            env[p] = max_iter
        elif p == "row_nnz" or p.startswith("row_nnz_"):
            env[p] = row_nnz
        elif p == "n":
            env[p] = nrows
        elif p == "nx":
            env[p] = nx
    return env


def user_row_nnz_estimate(nx: int) -> int:
    """The 'user annotation' estimate of average nonzeros per row for the
    27-point stencil: floor((3 - 2/nx)^3).  A user would derive this from
    the stencil geometry; flooring loses the fractional part, which is
    exactly the paper's Table V error source (Mira slightly undercounting,
    more so at larger grids)."""
    return int((3 - 2 / nx) ** 3)
