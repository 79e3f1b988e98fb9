"""Seeded inputs: everything a workload feeds the program comes from here.

Every generator takes a ``random.Random`` seeded from ``--seed`` and is
deterministic: the same seed gives byte-identical sources, edits, grids
and bindings (see :func:`digest`), another seed gives different ones.  The
program under test only ever sees the generated sources, grids and
bindings.
"""

from __future__ import annotations

import hashlib
import json
import re

#: Multi-function corpus programs the edit loop edits.
EDIT_PROGRAMS = ("listings", "minife", "stream", "mgrid")

#: Points in every served sweep grid.
SWEEP_POINTS = 2048

#: One served_submit block: ops per kind, shuffled within the block.  The
#: fixed mix keeps the median and p90 inside the warm-resubmit mode.
SUBMIT_BLOCK = {"cold": 1, "evaluate": 8, "warm": 16}

#: Loop-nest depths of the generated file's heavy functions (shuffled).
HEAVY_DEPTHS = (10, 10, 11, 11, 12, 12, 13, 13)


def balanced(rng, items):
    """Endless stream over ``items``: each round a fresh seeded
    permutation, so every item recurs at the same rate for every seed."""
    items = sorted(items)
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def corpus_ops(rng, names):
    """Endless ``(pass, program)`` stream: each pass is a fresh seeded
    permutation of the corpus."""
    stream = balanced(rng, names)
    n = 0
    while True:
        for _ in names:
            yield n, next(stream)
        n += 1


# -- edit loop ------------------------------------------------------------------

def _heavy_fn(i: int, depth: int, coef: int) -> str:
    """A triangular ``depth``-deep loop nest: cheap to parse, expensive to
    model (the closed forms reach degree ``depth``)."""
    loops = "\n".join(
        "  " * (d + 1) + f"for (int i{d + 1} = 0; i{d + 1} < "
        f"{'n' if d == 0 else f'i{d}'}; i{d + 1}++)" for d in range(depth))
    pad = "  " * (depth + 1)
    terms = " + ".join(f"i{d + 1}" for d in range(depth))
    return (f"int work{i}(int n)\n{{\n  int s = {i};\n{loops}\n"
            f"{pad}s = s + ({terms}) * {coef};\n  return s;\n}}")


def generated_program(rng, light: int = 3):
    """A many-function file: model-heavy functions (one per
    ``HEAVY_DEPTHS`` entry, in seeded order), ``light`` trivial leaves and
    a ``main`` calling them all.

    Returns ``(source, functions, calls, editable)``.  Only the light
    leaves are edited, so a re-analysis restores every heavy model (and
    ``main``'s own model never changes: diffing an edited ``main`` would
    fold every heavy callee into its inclusive counts).
    """
    parts, heavy_names, light_names = [], [], []
    depths = list(HEAVY_DEPTHS)
    rng.shuffle(depths)
    for i, depth in enumerate(depths):
        parts.append(_heavy_fn(i, depth, rng.randint(2, 9)))
        heavy_names.append(f"work{i}")
    for j in range(light):
        c = rng.randint(2, 9)
        parts.append(f"int leaf{j}(int n)\n{{\n  int s = 0;\n"
                     f"  for (int i = 0; i < n; i++)\n"
                     f"    s = s + i * {c};\n  return s;\n}}")
        light_names.append(f"leaf{j}")
    callees = heavy_names + light_names
    args = [rng.randint(8, 40) for _ in callees]
    parts.append("int main()\n{\n  return "
                 + " + ".join(f"{f}({a})" for f, a in zip(callees, args))
                 + ";\n}")
    source = "\n".join(parts) + "\n"
    return source, callees + ["main"], {"main": callees}, light_names


def body_start(source: str, qname: str) -> int:
    """Offset just past the ``{`` opening ``qname``'s body."""
    name = qname.rsplit("::", 1)[-1]
    pattern = rf"(?<![\w:]){re.escape(name)}\s*\([^;{{}}]*\)\s*\{{"
    found = list(re.finditer(pattern, source))
    if len(found) != 1:
        raise ValueError(f"cannot locate the body of {qname!r} "
                         f"({len(found)} candidates)")
    return found[0].end()


class EditStream:
    """Seeded, never-repeated, line-preserving function edits.

    Each function of each program carries an inserted run of ``m`` local
    declarations on the line of its opening brace.  An edit picks one
    function and gives it a new ``m`` (so its counts change) under a fresh
    op number ``k`` (so its text never repeats); every other function's
    text is left exactly as it was.
    """

    def __init__(self, rng, programs: dict) -> None:
        # programs: name -> (base source, editable qnames)
        self.rng = rng
        self._base = {}
        self._inserts = {}
        self._targets = {}
        for name, (source, editable) in sorted(programs.items()):
            anchors = {q: body_start(source, q) for q in editable}
            self._base[name] = (source, anchors)
            self._inserts[name] = {q: (0, "") for q in editable}
            self._targets[name] = balanced(rng, editable)
        self._programs = balanced(rng, programs)
        self.k = 0

    def source(self, program: str) -> str:
        base, anchors = self._base[program]
        out, last = [], 0
        for pos, q in sorted((p, q) for q, p in anchors.items()):
            out.append(base[last:pos])
            out.append(self._inserts[program][q][1])
            last = pos
        out.append(base[last:])
        return "".join(out)

    def next(self) -> tuple[str, str, str]:
        """Apply one edit; returns ``(program, function, new source)``."""
        program = next(self._programs)
        function = next(self._targets[program])
        m_now = self._inserts[program][function][0]
        m = self.rng.choice([v for v in (1, 2, 3) if v != m_now])
        self.k += 1
        text = "".join(f" int bench_e{self.k}_{j} = {self.k};"
                       for j in range(m))
        self._inserts[program][function] = (m, text)
        return program, function, self.source(program)


# -- served workloads -------------------------------------------------------------

#: Sweep target -> inclusive range of the swept parameter.
SWEEP_RANGES = {"dgemm": (1, 4000), "stream": (1, 10 ** 6)}


def sweep_ops(rng):
    """Endless ``(target, values)`` stream of served sweep grids, the two
    targets in balanced seeded order."""
    for target in balanced(rng, SWEEP_RANGES):
        lo, hi = SWEEP_RANGES[target]
        yield target, sorted(rng.sample(range(lo, hi + 1), SWEEP_POINTS))


def submit_ops(rng, names, evaluable, seed: int):
    """Endless served_submit op stream, in blocks of ``SUBMIT_BLOCK``.

    Yields ``("warm", program, None)``, ``("evaluate", program, function)``
    or ``("cold", program, tag)``; a cold op's ``tag`` is a unique trailing
    comment that makes the source new to the server.
    """
    warm, cold = balanced(rng, names), balanced(rng, names)
    evaluate = balanced(rng, evaluable)
    block = [kind for kind, n in sorted(SUBMIT_BLOCK.items())
             for _ in range(n)]
    k = 0
    while True:
        rng.shuffle(block)
        for kind in block:
            if kind == "cold":
                k += 1
                yield "cold", next(cold), f"\n/* bench {seed}-{k} */\n"
            elif kind == "warm":
                yield "warm", next(warm), None
            else:
                yield ("evaluate", *next(evaluate))


def digest(items) -> str:
    """sha256 over a JSON rendering of generated inputs."""
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, sort_keys=True, default=str).encode())
    return h.hexdigest()
