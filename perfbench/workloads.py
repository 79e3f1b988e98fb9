"""The four workloads: set-up, one timed op, its check, and its traced replay.

Each workload is a closed loop with one client.  ``run`` is the timed op;
``check`` compares its output with the hand-written reference (outside the
timed region); ``trace`` runs the same op and then replays it by calling
each layer's public function in a span, so per-layer self times come from
the benchmark's own files and nothing in ``src/`` is instrumented.
"""

from __future__ import annotations

import json
import os
import random
import re
import resource
import shutil
import signal
import subprocess
import sys

import inputs
from reference import Reference, transitive_callers
from tracing import Tracer

from repro.binary import disassemble
from repro.bridge import build_bridge
from repro.compiler import compile_tu
from repro.core import AnalysisConfig, IncrementalAnalyzer, Pipeline
from repro.core.batch import BatchAnalyzer, ModelCache, payload_from_result
from repro.core.input_processor import ProcessedInput
from repro.core.metric_generator import MetricGenerator
from repro.core.pipeline import inject_symbolic_params
from repro.core.result import AnalysisResult, restore_function_model
from repro.core.units import build_units
from repro.errors import MiraError
from repro.frontend import parse_source
from repro.serve.client import MiraClient
from repro.serve.registry import ModelRegistry
from repro.workloads import get_source, source_path


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _compile_both(result: AnalysisResult) -> None:
    """Build the scalar and vector evaluators, as the cache payload does."""
    for engine in ("scalar", "vector"):
        try:
            result.compiled(engine=engine)
        except (MiraError, RecursionError):
            pass


def _without_timings(result: AnalysisResult) -> dict:
    doc = result.to_dict()
    doc.pop("stage_timings", None)
    return doc


class Workload:
    """One workload's inputs and state; subclasses fill in the four steps."""

    def __init__(self, seed: int, workdir: str, trace: bool,
                 root: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.trace_mode = trace
        self.root = root
        self.ref = Reference()
        # Separate streams: op inputs never depend on how often checks ran.
        self.op_rng = random.Random(f"{seed}:ops")
        self.check_rng = random.Random(f"{seed}:check")
        self.config = AnalysisConfig().with_changes(
            cache_dir=os.path.join(workdir, "models"), use_cache=True)

    def setup(self) -> None:
        raise NotImplementedError

    def next_op(self):
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> list[str]:
        raise NotImplementedError

    def trace(self, op, tr):
        raise NotImplementedError

    def run_values(self) -> dict:
        """Run-level (not per-op) layer values, read after the timed loop."""
        return {}

    def describe_op(self, op):
        """A JSON-able rendering of ``op`` for the inputs digest."""
        return op

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# corpus_cold: the `mira batch` path, every op a cache miss
# ---------------------------------------------------------------------------

class CorpusCold(Workload):
    def setup(self) -> None:
        self.paths = {n: source_path(n) for n in self.ref.names()}
        self.replay_cache = ModelCache(os.path.join(self.workdir, "replay"))
        self._ops = inputs.corpus_ops(self.op_rng, self.ref.names())
        self._pass = None
        # Warm-up pass: fills the in-process memos (Expr interning, ...).
        self._empty()
        for name in self.ref.names():
            out = self.run(name)
            problems = self.check(name, out)
            if problems:
                raise RuntimeError(f"warm-up failed: {problems}")

    def _empty(self) -> None:
        for d in (self.config.cache_dir, self.replay_cache.cache_dir):
            shutil.rmtree(d, ignore_errors=True)
            os.makedirs(d)

    def next_op(self):
        n, name = next(self._ops)
        if n != self._pass:
            self._pass = n
            self._empty()
        return name

    def run(self, op):
        return BatchAnalyzer(self.config).analyze_paths([self.paths[op]])

    def check(self, op, out) -> list[str]:
        (r,) = out.results
        if not r.ok:
            return [f"{op}: {r.error}"]
        if r.from_cache:
            return [f"{op}: served from cache, expected a cold analysis"]
        return self.ref.check_analysis(op, r.analysis, self.check_rng)

    def trace(self, op, tr):
        # The replay runs first and its objects die with it, so neither it
        # nor the op sees Expr nodes the other keeps alive.
        self._replay(op, tr)
        with tr.span("batch.analyze_paths"):
            out = self.run(op)
        (r,) = out.results
        # r.elapsed is this op's own Pipeline.run time, as the batch worker
        # recorded it; codegen, payload and the store are the replay's.
        d = tr.duration
        tr.value("batch.unattributed_ms", _ms(
            d("batch.analyze_paths") - r.elapsed - d("codegen.compile")
            - d("result.payload") - d("cache.write")))
        return out

    def _replay(self, op, tr) -> None:
        path = self.paths[op]
        cfg = self.config
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        with tr.span("frontend.parse"):
            tu = parse_source(source, filename=path,
                              predefined=cfg.merged_predefines(None))
            inject_symbolic_params(tu, cfg.symbolic_params)
        with tr.span("compiler.compile"):
            obj = compile_tu(tu, opt_level=cfg.opt_level)
        with tr.span("compiler.encode"):
            data = obj.to_bytes()
        with tr.span("binary.disassemble"):
            program = disassemble(data)
        with tr.span("bridge.bridge"):
            bridges = build_bridge(program)
        with tr.span("model.generate"):
            models = MetricGenerator(tu, bridges, cfg.arch,
                                     cfg.gen_options()).generate()
        key = cfg.fingerprint(source, filename=path)
        result = AnalysisResult(
            models=models, arch=cfg.arch,
            processed=ProcessedInput(tu=tu, obj=obj, program=program,
                                     bridges=bridges, arch=cfg.arch,
                                     opt_level=cfg.opt_level),
            source_name=path, opt_level=cfg.opt_level, fingerprint=key)
        with tr.span("codegen.compile"):
            _compile_both(result)
        with tr.span("result.payload"):
            payload = payload_from_result(cfg, result, path, 0.0)
        with tr.span("result.encode"):
            text = json.dumps(payload)
        with tr.span("cache.write"):
            self.replay_cache.put(key, payload)

        d = tr.duration
        tr.value("compiler.object_bytes", len(data))
        tr.value("model.functions", len(models))
        tr.value("result.payload_bytes", len(text))
        tr.value("result.serialize_ms",
                 _ms(d("result.payload") + d("result.encode")))


# ---------------------------------------------------------------------------
# edit_loop: the `mira diff --watch` path
# ---------------------------------------------------------------------------

class EditLoop(Workload):
    #: Share of ops whose result is also compared with a cold analysis.
    COLD_CHECK_SHARE = 0.08
    WARMUP_EDITS = 10
    #: Edits per watch session.  Each session starts a fresh analyzer over
    #: the same disk cache, so its in-process memo (which never evicts)
    #: stays bounded and a run's memory and GC cost do not grow with the
    #: number of ops the machine's speed allowed.
    SESSION_EDITS = 100

    def setup(self) -> None:
        programs, self.functions, self.calls = {}, {}, {}
        for name in inputs.EDIT_PROGRAMS:
            # Member functions live in the TU context slice (their class),
            # so editing one re-analyzes the whole file: only free
            # functions are edited.
            programs[name] = (get_source(name),
                              [f for f in self.ref.functions(name)
                               if "::" not in f])
            self.functions[name] = self.ref.functions(name)
            self.calls[name] = self.ref.calls(name)
        gen_rng = random.Random(f"{self.seed}:generated")
        source, fns, calls, editable = inputs.generated_program(gen_rng)
        programs["generated"] = (source, editable)
        self.functions["generated"] = fns
        self.calls["generated"] = calls
        self.edits = inputs.EditStream(self.op_rng, programs)
        self.analyzer = IncrementalAnalyzer(self.config)
        self._session_edits = 0
        self.prev = {name: self.analyzer.analyze(self.edits.source(name),
                                                 filename=f"{name}.c")
                     for name in sorted(programs)}
        for _ in range(self.WARMUP_EDITS):
            op = self.next_op()
            problems = self.check(op, self.run(op), cold=True)
            if problems:
                raise RuntimeError(f"warm-up failed: {problems}")

    def next_op(self):
        if self._session_edits == self.SESSION_EDITS:
            self._session_edits = 0
            self.analyzer = IncrementalAnalyzer(self.config)
        self._session_edits += 1
        return self.edits.next()

    def describe_op(self, op):
        program, function, source = op
        return [program, function, inputs.digest([source])]

    def run(self, op):
        program, _function, source = op
        result = self.analyzer.analyze(source, filename=f"{program}.c")
        diff = self.prev[program].diff(result)
        self.prev[program] = result
        return result, diff

    def check(self, op, out, cold: bool | None = None) -> list[str]:
        program, function, source = op
        result, diff = out
        errors = []
        if sorted(result.models) != sorted(self.functions[program]):
            errors.append(f"{program}: functions {sorted(result.models)}")
        want = sorted({function} | transitive_callers(self.calls[program],
                                                      function))
        # The diff must name the edited function and nothing outside its
        # transitive callers.  (It currently names callers only when their
        # own model document changed, which a callee edit never does.)
        named = sorted(d.qname for d in diff.changed)
        if function not in named or not set(named) <= set(want) \
                or diff.added or diff.removed:
            errors.append(f"{program}: diff after editing {function} names "
                          f"{named}, expected {function} within {want}")
        if sorted(result.fresh_functions()) != want:
            errors.append(f"{program}: re-analyzed "
                          f"{result.fresh_functions()}, expected {want}")
        if cold is None:
            cold = self.check_rng.random() < self.COLD_CHECK_SHARE
        if cold:
            reference = Pipeline(self.config).run(source,
                                                  filename=f"{program}.c")
            if _without_timings(result) != _without_timings(reference):
                errors.append(f"{program}: incremental result differs from "
                              f"a cold analysis after editing {function}")
        return errors

    def trace(self, op, tr):
        program, _function, source = op
        filename = f"{program}.c"
        # The lookups must see the analyzer's memo as the op will find it,
        # so the replay runs first; it adds nothing to the memo.
        self._replay(source, filename, tr)
        prev = self.prev[program]
        with tr.span("incremental.analyze"):
            result = self.analyzer.analyze(source, filename=filename)
        with tr.span("diff.diff"):
            diff = prev.diff(result)
        self.prev[program] = result
        tr.value("cache.hit_ratio",
                 len(result.restored_functions) / len(result.models))
        tr.value("incremental.functions_reanalyzed",
                 len(result.fresh_functions()))
        return result, diff

    def _replay(self, source: str, filename: str, tr) -> None:
        """The op's parse, unit split and per-unit lookups, in the order
        ``IncrementalAnalyzer.analyze`` makes them: its in-process model
        memo first; the disk cache, and a restore on a disk hit, only on a
        memo miss (the edited function and its callers on every op, every
        unit on the first op of a session)."""
        cfg = self.config
        merged = cfg.merged_predefines(None)
        with tr.span("frontend.parse"):
            tu = parse_source(source, filename=filename, predefined=merged)
            inject_symbolic_params(tu, cfg.symbolic_params)
        with tr.span("units.build"):
            units = build_units(tu, cfg, merged)
        memo, cache = self.analyzer._model_memo, self.analyzer.cache
        with tr.span("cache.read"):
            for qname, unit in units.items():
                if memo.get(unit.fingerprint) is not None:
                    continue
                payload = cache.get_function(unit.fingerprint)
                if payload is not None:
                    with tr.span("result.restore"):
                        restore_function_model(qname, payload)


# ---------------------------------------------------------------------------
# the served workloads: `mira serve` in its own process
# ---------------------------------------------------------------------------

class Server:
    """``mira serve`` on loopback with a private cache directory."""

    def __init__(self, root: str, workdir: str) -> None:
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(root, "src"),
                   XDG_CACHE_HOME=os.path.join(workdir, "xdg"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--host",
             "127.0.0.1", "--port", "0", "--cache-dir",
             os.path.join(workdir, "server-models")],
            stdout=subprocess.PIPE, text=True, env=env, cwd=root)
        line = self.proc.stdout.readline()
        found = re.search(r"http://127\.0\.0\.1:\d+", line)
        if found is None:
            self.close()
            raise RuntimeError(f"mira serve did not start: {line!r}")
        self.url = found.group(0)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Served(Workload):
    server = None
    client = None

    def start(self) -> None:
        self.server = Server(self.root, self.workdir)
        self.client = MiraClient(self.server.url)

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.server is not None:
            self.server.close()


class ServedSweep(Served):
    """``POST /v1/analyses/{id}/sweep`` over two registered models."""

    WARMUP_SWEEPS = 4
    #: target -> (program, function, swept parameter, submit config)
    TARGETS = {
        "dgemm": ("dgemm", "dgemm_kernel", "n", None),
        "stream": ("stream", "main", "STREAM_ARRAY_SIZE",
                   {"predefined": {"STREAM_ARRAY_SIZE": "STREAM_ARRAY_SIZE"},
                    "symbolic_params": ["STREAM_ARRAY_SIZE"]}),
    }

    def setup(self) -> None:
        self.start()
        self.ids = {}
        for target, (program, _fn, _p, config) in self.TARGETS.items():
            handle = self.client.submit(get_source(program),
                                        filename=f"{program}.c",
                                        config=config)
            self.ids[target] = handle["id"]
        self._ops = inputs.sweep_ops(self.op_rng)
        warm = inputs.sweep_ops(random.Random(f"{self.seed}:warm-up"))
        if self.trace_mode:
            self.local = {t: AnalysisResult.from_dict(self.client.analysis(i))
                          for t, i in self.ids.items()}
        for _ in range(self.WARMUP_SWEEPS):
            op = next(warm)
            out = (self.trace(op, Tracer()) if self.trace_mode
                   else self.run(op))
            problems = self.check(op, out)
            if problems:
                raise RuntimeError(f"warm-up failed: {problems}")

    def next_op(self):
        return next(self._ops)

    def _request(self, op) -> dict:
        target, values = op
        _program, fn, param, _config = self.TARGETS[target]
        return {"function": fn, "grid": {param: values}, "engine": "auto"}

    def run(self, op):
        doc = self._request(op)
        return self.client.sweep(self.ids[op[0]], doc["function"],
                                 doc["grid"], engine=doc["engine"])

    def check(self, op, out) -> list[str]:
        target, values = op
        program, fn, param, _config = self.TARGETS[target]
        points = out.get("points", [])
        if len(points) != len(values):
            return [f"{target}: {len(points)} points for a grid of "
                    f"{len(values)}"]
        for point in points:
            v = point["params"][param]
            want = self.ref.expected_fp(program, fn, {param: v})
            if point["fp_ins"] != want:
                return [f"{target}: FP_INS {point['fp_ins']} at "
                        f"{param}={v}, expected {want}"]
        return []

    def trace(self, op, tr):
        target, values = op
        key = self.ids[target]
        request = self._request(op)
        with tr.span("serve.sweep"):
            resp = self.client.request(
                "POST", f"/v1/analyses/{key}/sweep", request)
            resp.raise_for_status()
        with tr.span("client.decode"):
            out = json.loads(resp.body)
        local = self.local[target]
        with tr.span("sweep.eval"):
            sweep = local.sweep(request["function"], request["grid"],
                                engine=request["engine"])
        with tr.span("sweep.to_dict"):
            doc = sweep.to_dict()
        doc["id"] = key
        doc.setdefault("schema_version", out.get("schema_version"))
        doc.setdefault("version", out.get("version"))
        with tr.span("wire.encode"):
            json.dumps(doc, indent=2).encode("utf-8")

        d = tr.duration
        stats = sweep.vector_stats or {}
        tr.value("wire.bytes_per_point", len(resp.body) / len(values))
        tr.value("sweep.int64_chunk_ratio",
                 stats.get("int64_chunks", 0) / stats["chunks"]
                 if stats.get("chunks") else 0.0)
        tr.value("client.points_per_s",
                 len(values) / (d("serve.sweep") + d("client.decode")))
        tr.value("serve.overhead_ms", _ms(
            d("serve.sweep") - d("sweep.eval") - d("sweep.to_dict")
            - d("wire.encode")))
        return out


class ServedSubmit(Served):
    """Registry hits, one-point evaluations and a few cold submissions."""

    ROUTE_SPANS = {"warm": "serve.warm_submit", "cold": "serve.cold_submit",
                   "evaluate": "serve.evaluate"}

    def setup(self) -> None:
        self.start()
        names = self.ref.names()
        self.sources = {n: get_source(n) for n in names}
        self.ids = {}
        for name in names:
            handle = self.client.submit(self.sources[name],
                                        filename=f"{name}.c")
            self.ids[name] = handle["id"]
        self.evaluable = [(p, f) for p in ("dgemm", "stream")
                          for f in sorted(self.ref.fp_forms(p))]
        self._ops = inputs.submit_ops(self.op_rng, names, self.evaluable,
                                      self.seed)
        if self.trace_mode:
            self.local_registry = ModelRegistry(
                AnalysisConfig().with_changes(use_cache=False))
            self.replay_cache = ModelCache(
                os.path.join(self.workdir, "replay"))
        # Warm-up: every route once per model it will see.
        warm = [("warm", n, None, None) for n in names]
        warm += [("evaluate", p, f, self.ref.draw_bindings(
            p, f, random.Random(f"{self.seed}:warm-up")))
            for p, f in self.evaluable]
        for op in warm:
            problems = self.check(op, self.run(op))
            if problems:
                raise RuntimeError(f"warm-up failed: {problems}")
        self._stats0 = self.client.health()["registry"]

    def next_op(self):
        kind, program, extra = next(self._ops)
        bindings = (self.ref.draw_bindings(program, extra, self.op_rng)
                    if kind == "evaluate" else None)
        return kind, program, extra, bindings

    def _source(self, op) -> str:
        kind, program, extra, _bindings = op
        return self.sources[program] + (extra if kind == "cold" else "")

    def run(self, op):
        kind, program, extra, bindings = op
        if kind == "evaluate":
            return self.client.evaluate(self.ids[program], extra, bindings)
        return self.client.submit(self._source(op), filename=f"{program}.c")

    def check(self, op, out) -> list[str]:
        kind, program, extra, bindings = op
        if kind == "evaluate":
            want = self.ref.expected_fp(program, extra, bindings)
            return [] if out["fp_ins"] == want else [
                f"{program}:{extra}{bindings} FP_INS {out['fp_ins']} "
                f"!= {want}"]
        errors = self.ref.check_function_set(program, out["functions"])
        expected_origin = "cold" if kind == "cold" else "registry"
        if out["origin"] != expected_origin:
            errors.append(f"{program}: {kind} submit served from "
                          f"{out['origin']}")
        return errors

    def trace(self, op, tr):
        kind, program, _extra, _bindings = op
        route = self.ROUTE_SPANS[kind]
        with tr.span(route):
            out = self.run(op)
        if kind == "evaluate":
            return out
        source, filename = self._source(op), f"{program}.c"
        with tr.span("registry.fingerprint"):
            key = self.local_registry.fingerprint(source, filename=filename)
        if kind == "cold":
            cfg = self.local_registry.config
            with tr.span("pipeline.run"):
                result = Pipeline(cfg).run(source, filename=filename)
            with tr.span("codegen.compile"):
                _compile_both(result)
            with tr.span("result.payload"):
                payload = payload_from_result(cfg, result, filename, 0.0)
            with tr.span("cache.write"):
                self.replay_cache.put(key, payload)
            d = tr.duration
            tr.value("serve.cold_overhead_ms", _ms(
                d(route) - d("pipeline.run") - d("codegen.compile")
                - d("result.payload") - d("cache.write")))
        return out

    def run_values(self) -> dict:
        s0, s1 = self._stats0, self.client.health()["registry"]
        delta = {k: s1[k] - s0[k]
                 for k in ("registry_hits", "disk_hits", "analyses")}
        lookups = sum(delta.values())
        return {"registry.hit_ratio":
                delta["registry_hits"] / lookups if lookups else 0.0}


WORKLOADS = {
    "corpus_cold": CorpusCold,
    "edit_loop": EditLoop,
    "served_sweep": ServedSweep,
    "served_submit": ServedSubmit,
}
