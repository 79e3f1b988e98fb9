"""Command-line interface: the ``mira`` tool.

Every analysis subcommand shares the same configuration surface (``--opt``,
``--arch``, ``-D/--define``) — internally one
:class:`~repro.core.config.AnalysisConfig` — and a ``--json`` flag that
switches the output to a schema-versioned machine-readable document.

Subcommands::

    mira analyze FILE [-o model.py] [--json]
        run the full pipeline; write/print the generated Python model, or
        emit the versioned AnalysisResult JSON with --json
    mira eval FILE FUNCTION [k=v ...]
        analyze and evaluate one function's model with parameter bindings
    mira sweep FILE -p N=1e4..1e8 [--points K] [--function F] [--engine E]
        evaluate a model across a parameter range; sizes are late-bound so
        one analysis serves the whole sweep wherever the frontend allows,
        and the grid is evaluated columnar (numpy vector engine) when the
        model permits
    mira inspect FILE --stage STAGE
        run the pipeline only up to STAGE (parse | compile | disassemble |
        bridge | model) and report what that stage produced + wall times
    mira batch [FILE ...] [--corpus] [--jobs N] [--cache-dir D] [--no-cache]
        analyze a whole corpus in parallel with model caching
    mira disasm FILE
        compile and print the objdump-style listing
    mira coverage FILE [FILE ...]
        loop-coverage report (paper Table I columns)
    mira profile FILE [--entry main]
        run under the dynamic substrate (TAU analog), print category counts
    mira diff FILE_A FILE_B [--json]
        analyze both files incrementally (sharing the per-function model
        cache) and print the symbolic model diff: added/removed/changed
        functions with per-category before → after expressions and a
        polynomial classification (exit 1 when the models differ)
    mira diff FILE --watch [--interval S] [--count N]
        re-analyze FILE whenever it changes and print the model diff
        against the previous version plus incremental-analysis stats
    mira cache info|clear [--cache-dir D] [--json]
        report the on-disk model cache census (entries, bytes, lifetime
        hit/miss counters) or clear it
    mira fuzz [--seed S] [--count N] [--budget-s T] [--oracles a,b]
        differential fuzzing: generate random programs and demand exact
        agreement across every independent evaluation path (static model vs
        interpreter, tree-walk vs compiled vs vectorized, JSON round-trip,
        cold vs warm cache, incremental vs cold); shrink and optionally
        persist any divergence
    mira serve [--host H] [--port P] [--registry-size N] [--cache-dir D]
        run the long-running model-serving HTTP API (REST CRUD over
        analyses and corpora, warm LRU model registry over the disk cache,
        fingerprint ETags); Ctrl-C stops it
    mira client ACTION ... [--url U]
        drive a running server: health | submit FILE | get ID | list |
        evaluate ID FUNCTION [k=v ...] | sweep ID -p N=1e4..1e8 |
        diff ID_A ID_B | corpus [NAME ...] | delete ID — prints the
        server's JSON documents
    mira arch-template
        print a JSON architecture description template to customize

``mira --version`` prints the package version; the same string is stamped
as ``"version"`` on every ``--json`` document and server response.  With
``--json``, failures are machine-readable too: a
``{"error": {"type", "message"}}`` payload (shared with the HTTP API's
4xx/5xx bodies) on stdout and a nonzero exit.

``--arch`` accepts the presets ``arya`` (Haswell-like), ``frankenstein``
(Nehalem-like), and ``generic`` (single-socket default), or a path to a
JSON architecture description file (see ``mira arch-template``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from ._version import __version__
from .binary import disassemble, format_listing
from .compiler.arch import default_arch, load_arch
from .core import (AnalysisConfig, Pipeline, loop_coverage,
                   loop_coverage_source)
from .core.pipeline import STAGES, function_names
from .core.result import RESULT_SCHEMA_VERSION
from .dynamic import TauProfiler
from .errors import MiraError, error_payload

__all__ = ["main"]

#: Schema version stamped on every ``--json`` document the CLI emits.  The
#: AnalysisResult wire format is the anchor; the other documents version in
#: lockstep so consumers check one number.
JSON_SCHEMA_VERSION = RESULT_SCHEMA_VERSION

ARCH_HELP = "arya | frankenstein | generic | path to arch JSON"


def _arch_from_flag(value: str | None):
    if value is None:
        return default_arch()
    if value in ("arya", "frankenstein", "generic"):
        return default_arch(value)
    if os.path.exists(value):
        return load_arch(value)
    raise SystemExit(f"unknown architecture {value!r} (not a preset or file)")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_defines(items: list[str]) -> dict:
    out = {}
    for item in items or []:
        if "=" in item:
            k, v = item.split("=", 1)
            out[k] = v
        else:
            out[item] = "1"
    return out


def _config_from_args(args) -> AnalysisConfig:
    """The one place CLI flags become an AnalysisConfig."""
    return AnalysisConfig(arch=_arch_from_flag(args.arch),
                          opt_level=args.opt,
                          predefined=_parse_defines(args.define))


def _envelope(doc: dict) -> dict:
    """Stamp the shared envelope fields every ``--json`` document carries:
    the schema version and the package version that produced it."""
    doc.setdefault("schema_version", JSON_SCHEMA_VERSION)
    doc.setdefault("version", __version__)
    return doc


def _emit_json(doc: dict) -> int:
    print(json.dumps(_envelope(doc), indent=2))
    return 0


def cmd_analyze(args) -> int:
    result = Pipeline(_config_from_args(args)).run_file(args.file)
    if args.json:
        doc = _envelope(result.to_dict())
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc, indent=2))
            print(f"result written to {args.output}")
            return 0
        return _emit_json(doc)
    text = result.python_source()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"model written to {args.output}")
    else:
        print(text)
    for w in result.warnings():
        print(f"warning: {w}", file=sys.stderr)
    return 0


def _parse_bindings(items: list[str], prog: str) -> dict:
    """``param=value`` arguments as a dict of integer bindings."""
    env = {}
    for b in items:
        k, sep, v = b.partition("=")
        if not sep or not k:
            raise SystemExit(
                f"{prog}: bad binding {b!r} (expected param=value)")
        try:
            env[k] = int(v)
        except ValueError:
            raise SystemExit(
                f"{prog}: bad binding {b!r} "
                f"(value must be an integer, got {v!r})") from None
    return env


def cmd_eval(args) -> int:
    result = Pipeline(_config_from_args(args)).run_file(args.file)
    env = _parse_bindings(args.bindings, "mira eval")
    metrics = result.evaluate(args.function, env)
    fp = metrics.fp_instructions(result.arch.fp_arith_categories)
    if args.json:
        return _emit_json({
            "kind": "Evaluation",
            "file": args.file,
            "function": args.function,
            "bindings": env,
            "counts": metrics.as_dict(),
            "total": metrics.total(),
            "fp_ins": fp,
        })
    print(f"# {args.function} with {env}")
    for cat, n in sorted(metrics.as_dict().items(), key=lambda kv: -kv[1]):
        print(f"{n:>16}  {cat}")
    print(f"{metrics.total():>16}  TOTAL")
    print(f"{fp:>16}  FP_INS")
    return 0


def _parse_sweep_spec(spec: str, points: int) -> tuple[str, list[int]]:
    """Parse one ``-p`` sweep axis.

    ``N=1e4..1e8`` — ``points`` log-spaced integers including both ends;
    ``N=1,2,4``   — an explicit list;
    ``N=64``      — a single value.
    """
    name, sep, values = spec.partition("=")
    if not sep or not name or not values:
        raise SystemExit(
            f"mira sweep: bad sweep spec {spec!r} (expected NAME=SPEC)")

    def as_int(text: str) -> int:
        try:
            return int(text)
        except ValueError:
            try:
                return int(float(text))
            except ValueError:
                raise SystemExit(
                    f"mira sweep: bad value {text!r} in {spec!r}") from None

    if ".." in values:
        lo_s, _, hi_s = values.partition("..")
        lo, hi = as_int(lo_s), as_int(hi_s)
        if lo <= 0 or hi <= 0 or hi < lo:
            raise SystemExit(
                f"mira sweep: bad range {values!r} (need 0 < lo <= hi)")
        if points < 2 or lo == hi:
            return name, [lo] if lo == hi else [lo, hi]
        # Log-spaced candidates snap to integers, which can collide on
        # narrow ranges and — at float-precision magnitudes — even round
        # outside [lo, hi].  Clamp every candidate, pin both endpoints, and
        # keep the strictly increasing subsequence (order-preserving
        # dedupe): the result always contains lo and hi, is sorted and
        # duplicate-free, and has at most ``points`` values.
        ratio = (hi / lo) ** (1 / (points - 1))
        candidates = [lo]
        candidates += [min(max(int(round(lo * ratio ** i)), lo), hi)
                       for i in range(1, points - 1)]
        candidates.append(hi)
        out = []
        for v in candidates:
            if not out or v > out[-1]:
                out.append(v)
        return name, out
    if "," in values:
        return name, [as_int(v) for v in values.split(",") if v]
    return name, [as_int(values)]


def _sweep_grid(args) -> dict:
    """The grid of the ``-p`` axes, in the order given."""
    return dict(_parse_sweep_spec(spec, args.points) for spec in args.param)


def cmd_sweep(args) -> int:
    from .core.sweep import sweep_source

    result = sweep_source(_read(args.file), _sweep_grid(args),
                          function=args.function,
                          config=_config_from_args(args),
                          filename=args.file, engine=args.engine)
    doc = result.to_dict()
    if args.json:
        return _emit_json(doc)
    print(f"# sweep of {result.function} over "
          f"{', '.join(result.param_names)} "
          f"({result.mode}, {result.engine} engine, "
          f"{result.analyses} analysis run(s))")
    header = [*result.param_names, "TOTAL", "FP_INS"]
    cols = doc["columns"]
    rows = [[str(v) for v in row]
            for row in zip(*(cols["params"][n] for n in result.param_names),
                           cols["total"], cols["fp_ins"])]
    widths = [max(len(h), max(len(r[i]) for r in rows))
              for i, h in enumerate(header)]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return 0


def _inspect_artifacts(state) -> dict:
    """Stage-specific summary of what a partial pipeline run produced."""
    out: dict = {}
    if state.tu is not None:
        cov = loop_coverage(state.tu)
        out["parse"] = {"functions": function_names(state.tu),
                        "loops": cov.loops,
                        "statements": cov.statements}
    if state.obj is not None:
        out["compile"] = {"text_bytes": len(state.obj.text),
                          "rodata_bytes": len(state.obj.rodata),
                          "symbols": len(state.obj.symbols)}
    if state.program is not None:
        out["disassemble"] = {
            "functions": {f.name: len(f.instructions)
                          for f in state.program.functions}}
    if state.bridges is not None:
        out["bridge"] = {
            "cost_centers": {q: len(b.centers)
                             for q, b in state.bridges.items()}}
    if state.result is not None:
        out["model"] = {
            "functions": {q: {"params": list(m.params),
                              "warnings": len(m.warnings)}
                          for q, m in state.result.models.items()}}
    return out


def cmd_inspect(args) -> int:
    state = Pipeline(_config_from_args(args)).run_file_until(
        args.stage, args.file)
    artifacts = _inspect_artifacts(state)
    if args.json:
        return _emit_json({
            "kind": "PipelineInspection",
            "file": args.file,
            "stage": args.stage,
            "stage_timings": {k: round(v, 6)
                              for k, v in state.timings.items()},
            "artifacts": artifacts,
        })
    print(f"# pipeline of {args.file}, stopped after stage {args.stage!r}")
    for name in STAGES:
        if name not in state.timings:
            print(f"{name:<12} (not run)")
            continue
        print(f"{name:<12} {state.timings[name] * 1000:>8.2f}ms")
        detail = artifacts.get(name)
        if detail:
            for k, v in detail.items():
                print(f"  {k}: {v}")
    return 0


def cmd_batch(args) -> int:
    from .core.batch import BatchAnalyzer

    config = _config_from_args(args).with_changes(
        cache_dir=args.cache_dir, use_cache=not args.no_cache)
    analyzer = BatchAnalyzer(config, jobs=args.jobs)
    paths = list(args.files)
    if args.corpus or not paths:
        # --corpus, or no files at all → the bundled 15-program corpus.
        from .workloads import available, source_path

        paths.extend(source_path(n) for n in available())
    report = analyzer.analyze_paths(paths)
    if args.json:
        _emit_json(json.loads(report.to_json()))
    else:
        print(report.format_table())
    for r in report.failed():
        print(f"error: {r.name}: {r.error.error_type}: {r.error}",
              file=sys.stderr)
    return 0 if not report.failed() else 1


def cmd_disasm(args) -> int:
    # Through the pipeline, so the selected architecture is threaded into
    # the run instead of silently dropped (config carries it end to end).
    state = Pipeline(_config_from_args(args)).run_file_until(
        "disassemble", args.file)
    listing = format_listing(state.program)
    if args.json:
        return _emit_json({
            "kind": "Disassembly",
            "file": args.file,
            "arch": state.config.arch.name,
            "functions": {f.name: len(f.instructions)
                          for f in state.program.functions},
            "listing": listing,
        })
    print(listing)
    return 0


def cmd_coverage(args) -> int:
    predefined = _parse_defines(args.define)
    reports = [loop_coverage_source(_read(path),
                                    os.path.basename(path).rsplit(".", 1)[0],
                                    predefined=predefined)
               for path in args.files]
    if args.json:
        return _emit_json({
            "kind": "CoverageReport",
            "files": [{"name": rep.name, "loops": rep.loops,
                       "statements": rep.statements,
                       "in_loop_statements": rep.in_loop_statements,
                       "percentage": round(rep.percentage, 2)}
                      for rep in reports],
        })
    print(f"{'Application':<14}{'Loops':>7}{'Stmts':>8}{'InLoop':>8}{'Pct':>6}")
    for rep in reports:
        print(f"{rep.name:<14}{rep.loops:>7}{rep.statements:>8}"
              f"{rep.in_loop_statements:>8}{rep.percentage:>5.0f}%")
    return 0


def cmd_profile(args) -> int:
    result = Pipeline(_config_from_args(args)).run_file(args.file)
    report = TauProfiler(result.processed).profile(args.entry)
    prof = report.function(args.entry)
    if args.json:
        return _emit_json({
            "kind": "DynamicProfile",
            "file": args.file,
            "entry": args.entry,
            "calls": prof.calls,
            "categories": dict(prof.categories),
            "total": sum(prof.categories.values()),
            "fp_ins": report.fp_ins(args.entry),
        })
    print(f"# dynamic profile of {args.entry} ({prof.calls} call(s))")
    for cat, n in sorted(prof.categories.items(), key=lambda kv: -kv[1]):
        print(f"{n:>16}  {cat}")
    print(f"{sum(prof.categories.values()):>16}  TOTAL")
    print(f"{report.fp_ins(args.entry):>16}  PAPI_FP_INS")
    return 0


def cmd_fuzz(args) -> int:
    from .fuzz.oracles import ORACLE_NAMES
    from .fuzz.runner import run_campaign, save_reproducer

    oracles = None
    if args.oracles:
        oracles = [o.strip() for o in args.oracles.split(",") if o.strip()]
        unknown = [o for o in oracles if o not in ORACLE_NAMES]
        if unknown:
            raise SystemExit(
                f"mira fuzz: unknown oracle(s) {', '.join(unknown)} "
                f"(available: {', '.join(ORACLE_NAMES)})")

    def progress(index, case):
        if not case.ok:
            failed = ", ".join(v.oracle for v in case.failed()) or "error"
            print(f"fuzz: program {index} (seed {case.program.seed}) "
                  f"DIVERGED: {failed}", file=sys.stderr)

    report = run_campaign(seed=args.seed, count=args.count,
                          budget_s=args.budget_s, oracles=oracles,
                          shrink=not args.no_shrink,
                          progress=None if args.json else progress)
    saved = []
    if args.out:
        for div in report.divergences:
            saved.append(save_reproducer(args.out, div))
    if args.json:
        doc = report.to_dict()
        if saved:
            doc["reproducers"] = saved
        print(json.dumps(_envelope(doc), indent=2))
        return 0 if report.ok else 1
    print(f"# fuzz campaign: seed {report.seed}, "
          f"{report.executed}/{report.requested} program(s), "
          f"{report.elapsed_s:.1f}s"
          + (" (budget exhausted)" if report.budget_exhausted else ""))
    for name, st in report.oracle_stats.items():
        print(f"{name:>16}  {st['passed']:>5} passed  {st['failed']:>4} "
              f"failed  {st['skipped']:>4} skipped")
    if report.ok:
        print("no divergence found")
    else:
        print(f"{len(report.divergences)} DIVERGENCE(S):")
        for div in report.divergences:
            rep = div.report
            failed = ", ".join(v.oracle for v in rep.failed()) or "error"
            print(f"  seed {rep.program.seed}: {failed}")
            for v in rep.failed():
                if v.detail:
                    print(f"    {v.detail}")
            if div.shrunk is not None:
                print("  minimized reproducer:")
                for line in div.shrunk.source("concrete").splitlines():
                    print(f"    {line}")
    for path in saved:
        print(f"reproducer written to {path}")
    return 0 if report.ok else 1


def _incremental_stats(result) -> dict:
    """How much of an IncrementalAnalyzer result came from the cache."""
    return {"restored": sorted(result.restored_functions),
            "fresh": result.fresh_functions()}


def cmd_diff(args) -> int:
    from .core.incremental import IncrementalAnalyzer

    config = _config_from_args(args).with_changes(
        cache_dir=args.cache_dir, use_cache=not args.no_cache)
    analyzer = IncrementalAnalyzer(config)
    if args.watch:
        if args.file_b:
            raise SystemExit("mira diff: --watch takes a single FILE")
        return _watch_diff(analyzer, args)
    if not args.file_b:
        raise SystemExit("mira diff: need FILE_A FILE_B (or FILE --watch)")
    a = analyzer.analyze_file(args.file)
    b = analyzer.analyze_file(args.file_b)
    diff = a.diff(b)
    if args.json:
        doc = diff.to_dict()
        doc["incremental"] = {"a": _incremental_stats(a),
                              "b": _incremental_stats(b)}
        _emit_json(doc)
    else:
        print(diff.format())
        for side, res in (("a", a), ("b", b)):
            st = _incremental_stats(res)
            print(f"# {side}: {len(st['restored'])} function(s) restored "
                  f"from cache, {len(st['fresh'])} analyzed fresh")
    return 0 if diff.identical else 1


def _watch_diff(analyzer, args) -> int:
    path = args.file
    baseline = analyzer.analyze_file(path)
    st = _incremental_stats(baseline)
    if not args.json:
        print(f"# watching {path} every {args.interval}s "
              f"(Ctrl-C to stop)")
        print(f"# baseline: {len(baseline.models)} function(s), "
              f"{len(st['restored'])} restored, "
              f"{len(st['fresh'])} fresh")
    last = os.stat(path).st_mtime_ns
    remaining = args.count
    try:
        while remaining is None or remaining > 0:
            time.sleep(args.interval)
            try:
                mtime = os.stat(path).st_mtime_ns
            except OSError:
                continue   # editor atomic-replace window: retry next tick
            if mtime == last:
                continue
            last = mtime
            try:
                current = analyzer.analyze_file(path)
            except Exception as exc:   # mid-edit syntax errors, typically
                print(f"mira diff: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                continue
            diff = baseline.diff(current)
            st = _incremental_stats(current)
            if args.json:
                doc = diff.to_dict()
                doc["incremental"] = st
                print(json.dumps(_envelope(doc)), flush=True)
            else:
                print(diff.format())
                print(f"# incremental: {len(st['restored'])} restored, "
                      f"{len(st['fresh'])} re-analyzed "
                      f"({', '.join(st['fresh']) or 'none'})")
            baseline = current
            if remaining is not None:
                remaining -= 1
    except KeyboardInterrupt:
        pass
    return 0


def cmd_cache(args) -> int:
    from .core.store import ModelCache

    cache = ModelCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        if args.json:
            return _emit_json({"kind": "CacheReport",
                               "cache_dir": cache.cache_dir,
                               "cleared": removed})
        print(f"cleared {removed} cached payload(s) from {cache.cache_dir}")
        return 0
    entries = cache.entry_stats()
    lifetime = cache.persisted_stats()
    if args.json:
        return _emit_json({"kind": "CacheReport",
                           "cache_dir": cache.cache_dir,
                           "entries": entries,
                           "lifetime": lifetime})
    print(f"# model cache at {cache.cache_dir}")
    print(f"{entries['file_entries']:>12}  whole-file entries")
    print(f"{entries['function_entries']:>12}  per-function entries")
    print(f"{entries['bytes']:>12}  bytes on disk")
    print(f"{lifetime['hits']:>12}  lifetime hits")
    print(f"{lifetime['misses']:>12}  lifetime misses")
    print(f"{lifetime['stores']:>12}  lifetime stores")
    return 0


def cmd_serve(args) -> int:
    from .serve.app import MiraServer

    config = _config_from_args(args).with_changes(
        cache_dir=args.cache_dir, use_cache=not args.no_cache)
    server = MiraServer(host=args.host, port=args.port, config=config,
                        capacity=args.registry_size, quiet=not args.verbose)
    cache = server.registry.cache
    print(f"mira serve: listening on {server.url} "
          f"(registry capacity {args.registry_size}, cache "
          f"{cache.cache_dir if cache is not None else 'off'})",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def cmd_client(args) -> int:
    from .serve.client import MiraClient

    client = MiraClient(args.url)
    action = args.action
    if action == "health":
        doc = client.health()
    elif action == "submit":
        doc = client.submit(_read(args.file), filename=args.file)
    elif action == "list":
        doc = client.analyses()
    elif action == "get":
        doc = client.analysis(args.id)
    elif action == "delete":
        doc = client.delete(args.id)
    elif action == "evaluate":
        env = _parse_bindings(args.bindings, "mira client evaluate")
        doc = client.evaluate(args.id, args.function, env,
                              engine=args.engine)
    elif action == "sweep":
        doc = client.sweep(args.id, args.function, _sweep_grid(args),
                           engine=args.engine)
        del doc["points"]       # print the columnar document only
    elif action == "diff":
        doc = client.diff(args.id, args.other)
    elif action == "corpus":
        if args.files:
            sources = {os.path.basename(p).rsplit(".", 1)[0]: _read(p)
                       for p in args.files}
            doc = client.submit_corpus(sources, jobs=args.jobs)
        else:
            names = args.workloads or True
            doc = client.submit_corpus(corpus=names, jobs=args.jobs)
    else:  # pragma: no cover - argparse enforces the choices
        raise SystemExit(f"mira client: unknown action {action!r}")
    print(json.dumps(doc, indent=2))
    return 0


def cmd_arch_template(args) -> int:
    print(default_arch().to_json())
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="mira",
        description="Mira: static performance analysis "
                    "(CLUSTER'17 reproduction)")
    ap.add_argument("--version", action="version",
                    version=f"mira {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, defines_only: bool = False):
        p.add_argument("-D", "--define", action="append", default=[],
                       metavar="NAME=VAL", help="predefine a macro")
        p.add_argument("--json", action="store_true",
                       help="emit a schema-versioned JSON document")
        if defines_only:
            return
        p.add_argument("--opt", type=int, default=2,
                       help="optimization level 0-3 (default 2)")
        p.add_argument("--arch", default=None, help=ARCH_HELP)

    p = sub.add_parser("analyze", help="generate the Python model")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("eval", help="evaluate one function's model")
    p.add_argument("file")
    p.add_argument("function")
    p.add_argument("bindings", nargs="*", metavar="param=value")
    common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep",
                       help="evaluate a model across parameter ranges "
                            "(one analysis where possible)")
    p.add_argument("file")
    p.add_argument("-p", "--param", action="append", required=True,
                   metavar="NAME=SPEC",
                   help="sweep axis: N=1e4..1e8 (log-spaced), N=1,2,4, "
                        "or N=64; repeat for a grid")
    p.add_argument("--points", type=int, default=5, metavar="K",
                   help="up to K log-spaced integers per .. range, always "
                        "including both endpoints; candidates that collide "
                        "after integer rounding are dropped, so narrow "
                        "ranges may yield fewer than K points (default 5)")
    p.add_argument("--function", default=None,
                   help="function to evaluate (default: main)")
    p.add_argument("--engine", default="auto",
                   choices=("auto", "vector", "scalar"),
                   help="grid evaluation engine: vector = columnar numpy "
                        "evaluation, scalar = one generated-model call "
                        "per point, auto = vector when possible "
                        "(default: auto)")
    common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("inspect",
                       help="run the pipeline partially and report stages")
    p.add_argument("file")
    p.add_argument("--stage", default="model", choices=STAGES,
                   help="last pipeline stage to run (default: model)")
    common(p)
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("batch",
                       help="analyze many files in parallel with caching")
    p.add_argument("files", nargs="*", metavar="FILE",
                   help="sources to analyze (default: the bundled corpus)")
    p.add_argument("--corpus", action="store_true",
                   help="analyze the bundled 15-program corpus")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker processes (default: cpu count; 1 = serial)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="model cache directory "
                        "(default ~/.cache/mira/models)")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the on-disk model cache")
    common(p)
    p.set_defaults(fn=cmd_batch)

    p = sub.add_parser("disasm", help="print the compiled listing")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_disasm)

    p = sub.add_parser("coverage", help="loop-coverage report (Table I)")
    p.add_argument("files", nargs="+")
    common(p, defines_only=True)
    p.set_defaults(fn=cmd_coverage)

    p = sub.add_parser("profile", help="dynamic profile (TAU analog)")
    p.add_argument("file")
    p.add_argument("--entry", default="main")
    common(p)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("diff",
                       help="symbolic model diff between two sources "
                            "(or one source over time with --watch)")
    p.add_argument("file", metavar="FILE_A")
    p.add_argument("file_b", nargs="?", default=None, metavar="FILE_B",
                   help="the after version (omit with --watch)")
    p.add_argument("--watch", action="store_true",
                   help="poll FILE_A and diff each saved version against "
                        "the previous one")
    p.add_argument("--interval", type=float, default=0.5, metavar="S",
                   help="--watch poll interval in seconds (default 0.5)")
    p.add_argument("--count", type=int, default=None, metavar="N",
                   help="stop --watch after N diffs (default: run until "
                        "Ctrl-C)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="per-function model cache directory "
                        "(default ~/.cache/mira/models)")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the on-disk model cache")
    common(p)
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser("cache",
                       help="inspect or clear the on-disk model cache")
    p.add_argument("action", choices=("info", "clear"),
                   help="info: entry census + lifetime hit/miss counters; "
                        "clear: delete every cached payload")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="cache directory (default ~/.cache/mira/models)")
    p.add_argument("--json", action="store_true",
                   help="emit a schema-versioned JSON document")
    p.set_defaults(fn=cmd_cache)

    p = sub.add_parser("fuzz",
                       help="differential fuzzing: random programs through "
                            "the oracle stack")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (default 0); every program is "
                        "derived deterministically from it")
    p.add_argument("--count", type=int, default=100, metavar="N",
                   help="number of programs to generate (default 100)")
    p.add_argument("--budget-s", type=float, default=None, metavar="T",
                   help="wall-clock budget in seconds; the campaign stops "
                        "early once exceeded")
    p.add_argument("--oracles", default=None, metavar="a,b",
                   help="comma-separated oracle subset (default: all)")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="write a minimized reproducer JSON per divergence "
                        "into DIR (the fuzz-corpus workflow)")
    p.add_argument("--no-shrink", action="store_true",
                   help="report divergences unminimized")
    p.add_argument("--json", action="store_true",
                   help="emit a schema-versioned JSON document")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser("serve",
                       help="run the model-serving HTTP API "
                            "(warm registry over the model cache)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8321,
                   help="bind port; 0 picks a free one (default 8321)")
    p.add_argument("--registry-size", type=int, default=64, metavar="N",
                   help="warm-model LRU capacity (default 64)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="model cache directory "
                        "(default ~/.cache/mira/models)")
    p.add_argument("--no-cache", action="store_true",
                   help="serve without the on-disk model cache "
                        "(warm registry only)")
    p.add_argument("--verbose", action="store_true",
                   help="log every request to stderr")
    common(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("client",
                       help="talk to a running mira serve instance")
    p.add_argument("--url", default="http://127.0.0.1:8321",
                   help="server base URL (default http://127.0.0.1:8321)")
    csub = p.add_subparsers(dest="action", required=True)

    c = csub.add_parser("health", help="GET /v1/health")
    c = csub.add_parser("submit", help="POST a C source for analysis")
    c.add_argument("file")
    c = csub.add_parser("list", help="list warm models")
    c = csub.add_parser("get", help="fetch a stored AnalysisResult")
    c.add_argument("id")
    c = csub.add_parser("delete", help="evict a model from the registry")
    c.add_argument("id")
    c = csub.add_parser("evaluate", help="one-point model evaluation")
    c.add_argument("id")
    c.add_argument("function")
    c.add_argument("bindings", nargs="*", metavar="param=value")
    c.add_argument("--engine", default="auto",
                   choices=("auto", "vector", "scalar"))
    c = csub.add_parser("sweep", help="grid evaluation of a stored model")
    c.add_argument("id")
    c.add_argument("function")
    c.add_argument("-p", "--param", action="append", required=True,
                   metavar="NAME=SPEC",
                   help="sweep axis, same syntax as mira sweep")
    c.add_argument("--points", type=int, default=5, metavar="K")
    c.add_argument("--engine", default="auto",
                   choices=("auto", "vector", "scalar"))
    c = csub.add_parser("diff", help="symbolic diff of two stored models")
    c.add_argument("id")
    c.add_argument("other")
    c = csub.add_parser("corpus", help="batch-submit sources or workloads")
    c.add_argument("files", nargs="*", metavar="FILE",
                   help="sources to submit (default: bundled workloads)")
    c.add_argument("--workloads", nargs="*", default=None, metavar="NAME",
                   help="bundled workload subset (default: all)")
    c.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_client, json=True)

    p = sub.add_parser("arch-template", help="print an arch JSON template")
    p.set_defaults(fn=cmd_arch_template)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except MiraError as exc:
        # One error shape everywhere: the CLI's --json failures carry the
        # same {"error": {"type", "message"}} payload the HTTP API sends.
        # When the failure *is* an HTTP error, pass the server's payload
        # through unchanged rather than re-wrapping it client-side.
        doc = getattr(exc, "payload", None)
        if not (isinstance(doc, dict) and "error" in doc):
            doc = error_payload(exc)
        if getattr(args, "json", False):
            print(json.dumps(_envelope(doc), indent=2))
        else:
            err = doc["error"]
            print(f"mira: {err['type']}: {err['message']}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
