"""Tests for the disassembler, line-table bridge, and category vectors."""

import json

import numpy as np
import pytest

from repro.binary import disassemble, format_listing
from repro.bridge import CategoryVector, build_bridge, vector_for_center
from repro.bridge.metrics import NCAT
from repro.compiler import (CAT_INT_CTRL, CAT_SSE2_ARITH, CAT_SSE2_DATA,
                            compile_tu, default_arch)
from repro.compiler.arch import CATEGORY_NAMES
from repro.errors import DisasmError
from repro.frontend import parse_source

SRC = """double a[64];
double b[64];
void scale(double *x, double *y, double s, int n) {
  for (int i = 0; i < n; i++)
    x[i] = y[i] * s;
}
int main() { scale(a, b, 3.0, 64); return 0; }
"""


@pytest.fixture(scope="module")
def prog():
    return disassemble(compile_tu(parse_source(SRC), opt_level=2).to_bytes())


@pytest.fixture(scope="module")
def bridges(prog):
    return build_bridge(prog)


class TestDisassemble:
    def test_functions_found(self, prog):
        assert {f.name for f in prog.functions} == {"scale", "main"}

    def test_every_instruction_has_line(self, prog):
        for ins in prog.all_instructions():
            assert ins.line > 0

    def test_addresses_monotone(self, prog):
        for fn in prog.functions:
            addrs = [i.address for i in fn.instructions]
            assert addrs == sorted(addrs)
            assert addrs[0] == fn.address

    def test_sizes_tile_function(self, prog):
        for fn in prog.functions:
            assert sum(i.size for i in fn.instructions) == fn.size

    def test_listing_renders(self, prog):
        text = format_listing(prog)
        assert "<scale>" in text and "mulsd" in text

    def test_corrupt_text_rejected(self):
        obj = compile_tu(parse_source(SRC))
        data = bytearray(obj.to_bytes())
        # truncate .text by rewriting a function symbol is hard; instead
        # corrupt the magic
        data[:8] = b"XXXXXXXX"
        with pytest.raises(DisasmError):
            disassemble(bytes(data))

    def test_prologue_idioms(self, prog):
        scale = prog.find_function("scale")
        mns = [i.mnemonic for i in scale.instructions[:3]]
        assert mns[0] == "push" and mns[1] == "mov" and mns[2] == "sub"

    def test_loop_body_uses_sib_and_sse2(self, prog):
        scale = prog.find_function("scale")
        body = [i for i in scale.instructions if i.line == 5]
        mns = [i.mnemonic for i in body]
        assert "mulsd" in mns and "movsd" in mns


class TestBridge:
    def test_centers_partition_instructions(self, prog, bridges):
        for fn in prog.functions:
            assert bridges[fn.name].total_instructions() == len(fn)

    def test_loop_cost_centers_separated(self, bridges):
        b = bridges["scale"]
        line4 = b.centers_on_line(4)
        # loop init, condition, increment are distinct centers on line 4
        assert len(line4) == 3

    def test_body_center_vector(self, bridges):
        b = bridges["scale"]
        (body,) = b.centers_on_line(5)
        vec = vector_for_center(body, default_arch())
        assert vec.get(CAT_SSE2_ARITH) == 1
        assert vec.get(CAT_SSE2_DATA) == 2

    def test_cond_center_is_control(self, bridges):
        b = bridges["scale"]
        centers = b.centers_on_line(4)
        ctrl = [vector_for_center(c, default_arch()).get(CAT_INT_CTRL)
                for c in centers]
        assert any(n >= 1 for n in ctrl)

    def test_lines_query(self, bridges):
        assert {4, 5}.issubset(bridges["scale"].lines())


class TestCategoryVector:
    def test_zero(self):
        assert CategoryVector.zero().total() == 0

    def test_add_and_scale(self):
        arch = default_arch()
        v = CategoryVector()
        v.add_mnemonic("mulsd", arch)
        v.add_mnemonic("movsd", arch, 3)
        w = v + v.scaled(2)
        assert w.get(CAT_SSE2_ARITH) == 3
        assert w.get(CAT_SSE2_DATA) == 9

    def test_fp_instructions(self):
        arch = default_arch()
        v = CategoryVector()
        v.add_mnemonic("addsd", arch, 5)
        v.add_mnemonic("mov", arch, 100)
        assert v.fp_instructions(arch) == 5

    def test_as_dict_nonzero(self):
        arch = default_arch()
        v = CategoryVector()
        v.add_mnemonic("jmp", arch)
        d = v.as_dict()
        assert list(d.values()) == [1]

    def test_as_dict_values_are_builtin_ints_in_category_order(self):
        v = CategoryVector(np.arange(NCAT, dtype=np.int64) * 3)
        d = v.as_dict()
        assert list(d) == [c for c in CATEGORY_NAMES if c != CATEGORY_NAMES[0]]
        assert all(type(n) is int for n in d.values())
        assert json.loads(json.dumps(d)) == d

    def test_as_dict_all_categories(self):
        d = CategoryVector().as_dict(nonzero_only=False)
        assert list(d) == list(CATEGORY_NAMES) and len(d) == 64
        assert set(d.values()) == {0}

    @pytest.mark.parametrize("seed", range(5))
    def test_as_dict_matches_the_scalar_loop(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(-2**40, 2**40, NCAT, dtype=np.int64)
        counts[rng.random(NCAT) < 0.7] = 0     # mostly sparse, like models
        v = CategoryVector(counts)
        for nonzero_only in (True, False):
            expected = {}
            for i, name in enumerate(CATEGORY_NAMES):
                n = int(v.counts[i])
                if n or not nonzero_only:
                    expected[name] = n
            got = v.as_dict(nonzero_only=nonzero_only)
            assert got == expected and list(got) == list(expected)

    def test_equality(self):
        arch = default_arch()
        a = CategoryVector()
        b = CategoryVector()
        a.add_mnemonic("mov", arch)
        assert a != b
        b.add_mnemonic("mov", arch)
        assert a == b
