"""Differential fuzzing: industrialized static-vs-dynamic validation.

The paper's own validation method is differential — static model
predictions checked against dynamically executed counts (Tables III-V).
This package turns that one-off check into a correctness harness for the
whole framework:

* :mod:`repro.fuzz.generator` — a seeded, deterministic random program
  generator over the exactly-analyzable C fragment (deep triangular
  nests, affine/modular guards, mixed int/double kernels, multi-function
  call graphs, symbolic-size variants),
* :mod:`repro.fuzz.oracles` — the oracle stack: every generated program
  runs through every independent evaluation path (static model vs
  interpreter, tree-walk vs scalar-compiled vs vectorized, JSON
  round-trip, cold vs warm model cache) and exact agreement is demanded,
* :mod:`repro.fuzz.shrink` — a delta-debugging shrinker that minimizes
  any diverging program spec,
* :mod:`repro.fuzz.runner` — seeded campaigns with budgets and a
  schema-versioned report (the ``mira fuzz`` CLI subcommand).

Every divergence between two paths is, by construction, a genuine bug in
one of them.
"""

from .runner import run_campaign

__all__ = ["run_campaign"]
