"""Function units: the incremental engine's unit of work and identity.

The file-granular pipeline re-analyzes everything on any edit.  This module
splits a parsed translation unit into per-function **units**, each carrying
a content-addressed fingerprint that folds together everything the
post-parse stages can observe about that function:

* the function's source slice (:mod:`repro.frontend.slicing`): unparsed
  body + absolute coordinates + annotations — macro expansion has already
  happened, so reachable ``#define``s are baked in,
* the TU context slice (classes, globals, prototype set),
* the *fingerprints* of every direct callee — so a callee edit transitively
  changes every caller's fingerprint (the invalidation frontier falls out
  of content addressing; no dirty-bit bookkeeping),
* :meth:`AnalysisConfig.identity_fingerprint` (arch, opt level, branch
  ratio, predefines, symbolic params, ``PIPELINE_VERSION``).

Filenames are deliberately **not** folded in: the same function text in
``A.c`` and ``B.c`` shares cache entries, which is what makes
``mira diff A.c B.c`` warm-start its second analysis from the first.

Units are returned callees-first, in the call-graph order the model stage
uses (:func:`~repro.core.metric_generator.topo_order`), so callee
fingerprints fold bottom-up.  A recursive call graph raises that order's
:class:`~repro.errors.ModelError` — the model stage cannot handle it
either, and the incremental analyzer falls back to the cold pipeline for
the identical error surface.

When the incremental analyzer splices one re-parsed function into the
previous TU, ``build_units(..., reuse=previous_units)`` slices only that
function: every other function is the *same node* as before, so it keeps
its unit's slice hash and callee list, and the TU context hash carries
over.  Reuse by node identity is not only faster but required: compiling a
TU constant-folds its nodes in place, so a kept node no longer slices as
its source does.  Every fingerprint is still recomputed, since a callee's
new fingerprint changes its callers'.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..frontend import ast_nodes as A
from ..frontend.slicing import (function_slice, slice_fingerprint,
                                tu_context_slice)
from .config import AnalysisConfig
from .metric_generator import direct_callees, topo_order

__all__ = ["FunctionUnit", "build_units"]


@dataclass(frozen=True)
class FunctionUnit:
    """One function's identity within an incremental analysis."""

    qname: str
    fn: A.FunctionDef
    fingerprint: str          # content-addressed cache key
    slice_hash: str           # hash of the function slice alone
    callees: tuple            # direct callee qnames, first-call order
    context_hash: str         # hash of the TU context slice


def build_units(tu: A.TranslationUnit, config: AnalysisConfig,
                predefined: dict | None = None,
                reuse: dict | None = None) -> dict[str, FunctionUnit]:
    """Per-function units for a parsed TU, callees before callers.

    ``reuse`` holds the units of the TU this one was spliced from (same
    context and functions, but for re-parsed ones): a function that is the
    same node as a reused unit's keeps that unit's slice hash and callees.

    Raises :class:`ModelError` on recursive call graphs (fingerprints of a
    cycle are not well-founded; neither is the model)."""
    config_id = config.identity_fingerprint(predefined)
    # AST nodes hash and compare by identity.
    kept = {u.fn: u for u in (reuse or {}).values()}
    if kept:
        context_hash = next(iter(kept.values())).context_hash
    else:
        context_hash = slice_fingerprint(tu_context_slice(tu))
    fns = {f.qualified_name: f for f in tu.all_functions()
           if not f.info.get("prototype_only")}
    slices, callees = {}, {}
    for q, f in fns.items():
        old = kept.get(f)
        if old is not None:
            slices[q], callees[q] = old.slice_hash, old.callees
        else:
            slices[q] = slice_fingerprint(function_slice(f))
            callees[q] = tuple(c for c in direct_callees(tu, f) if c in fns)

    units: dict[str, FunctionUnit] = {}
    for q in topo_order(callees):
        material = "\n".join([
            "mira-function-unit",
            config_id,
            context_hash,
            slices[q],
            *sorted(units[c].fingerprint for c in callees[q]),
        ])
        units[q] = FunctionUnit(
            qname=q, fn=fns[q],
            fingerprint=hashlib.sha256(
                material.encode("utf-8")).hexdigest(),
            slice_hash=slices[q],
            callees=callees[q],
            context_hash=context_hash)
    return units
