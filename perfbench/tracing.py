"""Spans for the traced benchmark run.

A :class:`Tracer` records one span per call the benchmark makes into a
layer's public function: name, start, end, parent span and op id.  Spans
stay in memory and are written once, at the end of the run, as Chrome
trace-event JSON (open it in Perfetto or ``chrome://tracing``).  Per-op
values that are not durations (byte counts, ratios, "latency minus the
layers") are recorded with :meth:`Tracer.value` against the current op.

Layer metrics are per-op self times: a span's duration minus the time its
child spans cover, summed per (op, layer) and reduced to a median over the
ops that entered the layer.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.op = None
        # [name, start, end, parent index or -1, op id]
        self._spans: list[list] = []
        self._op_first = 0               # index of the current op's 1st span
        self._stack: list[int] = []
        self._values: dict = {}          # op id -> {name: value}

    def begin_op(self, op) -> None:
        """Attribute the spans and values that follow to ``op``."""
        self.op = op
        self._op_first = len(self._spans)

    @contextmanager
    def span(self, name: str):
        idx = len(self._spans)
        parent = self._stack[-1] if self._stack else -1
        self._spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self._spans[idx][2] = time.perf_counter()

    def duration(self, name: str) -> float:
        """Seconds spent in the current op's spans named ``name``."""
        return sum(s[2] - s[1] for s in self._spans[self._op_first:]
                   if s[0] == name and s[2] is not None)

    def value(self, name: str, value: float) -> None:
        self._values.setdefault(self.op, {})[name] = value

    @property
    def span_count(self) -> int:
        return len(self._spans)

    # -- reductions --------------------------------------------------------------
    def self_times(self) -> dict:
        """op id -> {span name: self seconds}."""
        covered = [0.0] * len(self._spans)
        for name, start, end, parent, _op in self._spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _parent, op) in enumerate(self._spans):
            per_op = out.setdefault(op, {})
            per_op[name] = per_op.get(name, 0.0) + (end - start) - covered[i]
        return out

    @staticmethod
    def median_self_ms(self_times: dict, name: str) -> float:
        """Median over the ops that entered ``name`` of its self time (from
        :meth:`self_times`), in ms; 0.0 when no op entered it."""
        vals = [per[name] * 1e3 for per in self_times.values()
                if name in per]
        return statistics.median(vals) if vals else 0.0

    def median_value(self, name: str) -> float:
        """Median over the ops that recorded ``name``; 0.0 when none did."""
        vals = [per[name] for per in self._values.values() if name in per]
        return statistics.median(vals) if vals else 0.0

    # -- export ------------------------------------------------------------------
    def write_chrome_trace(self, path: str, process_name: str) -> None:
        t0 = self._spans[0][1] if self._spans else 0.0
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
                   "args": {"name": process_name}}]
        for i, (name, start, end, parent, op) in enumerate(self._spans):
            events.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "pid": 1, "tid": 1,
                "ts": round((start - t0) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"span": i, "parent": parent, "op": op},
            })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
