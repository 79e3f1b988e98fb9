"""The benchmark's metric declarations.

``BENCHMARK.json`` names every metric with its unit and direction.
``layers.json`` adds, per per-layer metric, only what ``BENCHMARK.json``
cannot hold: how the traced run takes the value, the layer call, the
workloads that load it, and the end-to-end metrics it should (not) move.
"""

from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def units(trace: bool) -> dict:
    """Metric name -> unit, in declaration order: the per-layer metrics
    when ``trace``, else the end-to-end ones."""
    bench = _load(os.path.join(ROOT, "BENCHMARK.json"))
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def layer_sources() -> dict:
    """Per-layer metric name -> how the traced run takes it ('span',
    'value' or 'run'; see layers.json)."""
    layers = _load(os.path.join(HERE, "layers.json"))["metrics"]
    declared = units(trace=True)
    if set(layers) != set(declared):
        raise ValueError("layers.json and BENCHMARK.json per_layer differ "
                         f"in {sorted(set(layers) ^ set(declared))}")
    return {name: layers[name]["source"] for name in declared}
