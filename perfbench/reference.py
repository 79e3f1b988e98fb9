"""Checks of analysis outputs against ``expected_counts.json``.

The expected file is written by hand from the corpus sources and their
documented closed forms; nothing here derives a reference from the code
under test.  Each check returns a list of human-readable mismatches (empty
when the output is correct).
"""

from __future__ import annotations

import json
import os

_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "expected_counts.json")


def transitive_callers(calls: dict, qname: str) -> set:
    """Every function that reaches ``qname`` through ``calls``."""
    out: set = set()
    frontier = {qname}
    while frontier:
        nxt = {caller for caller, callees in calls.items()
               if frontier & set(callees)} - out
        out |= nxt
        frontier = nxt
    return out


class Reference:
    def __init__(self, path: str = _PATH) -> None:
        with open(path, "r", encoding="utf-8") as fh:
            self.programs = json.load(fh)["programs"]
        self._compiled: dict = {}

    def names(self) -> list[str]:
        return sorted(self.programs)

    def functions(self, program: str) -> list[str]:
        return list(self.programs[program]["functions"])

    def calls(self, program: str) -> dict:
        return dict(self.programs[program].get("calls", {}))

    def fp_forms(self, program: str) -> dict:
        return dict(self.programs[program].get("fp_ins", {}))

    def draw_bindings(self, program: str, function: str, rng) -> dict:
        form = self.programs[program]["fp_ins"][function]
        return {name: rng.randint(lo, hi)
                for name, (lo, hi) in sorted(form["bind"].items())}

    def expected_fp(self, program: str, function: str, bindings: dict) -> int:
        prog = self.programs[program]
        env = dict(prog.get("macros", {}))
        env.update(bindings)
        text = prog["fp_ins"][function]["formula"]
        code = self._compiled.get(text)
        if code is None:
            code = self._compiled[text] = compile(text, "<closed form>",
                                                  "eval")
        # Closed forms are trusted, hand-written integer arithmetic.
        return int(eval(code, {"__builtins__": {}}, env))  # noqa: S307

    # -- whole-analysis checks ---------------------------------------------------
    def check_function_set(self, program: str, names) -> list[str]:
        want, got = sorted(self.functions(program)), sorted(names)
        return [] if want == got else [
            f"{program}: functions {got} != expected {want}"]

    def check_analysis(self, program: str, analysis, rng) -> list[str]:
        """Function set, FP closed forms at seeded bindings, and lattice
        statement counts of an :class:`AnalysisResult`."""
        errors = self.check_function_set(program, analysis.models)
        for fn in sorted(self.fp_forms(program)):
            bindings = self.draw_bindings(program, fn, rng)
            want = self.expected_fp(program, fn, bindings)
            got = analysis.fp_instructions(fn, bindings)
            if got != want:
                errors.append(f"{program}:{fn}{bindings} FP_INS {got} "
                              f"!= {want}")
        for fn, want in sorted(
                self.programs[program].get("stmt_counts", {}).items()):
            counts = [t.count.evaluate({}) for t in analysis.models[fn].terms
                      if t.desc == "stmt"]
            if want not in counts:
                errors.append(f"{program}:{fn} statement counts {counts} "
                              f"lack the lattice count {want}")
        return errors
