"""Unit tests for the compiler backend: ISA, encoding, arch, optimizer,
object files, DWARF line tables."""

import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import (
    ArchDescription, CATEGORY_NAMES, CAT_INT_ARITH, CAT_SSE2_ARITH,
    Imm, Instruction, Label, Mem, MNEMONICS, ObjectFile, Reg, Xmm,
    compile_tu, decode_instruction, default_arch, encode_instruction,
)
from repro.compiler.dwarf import (LineRow, encode_line_program, read_sleb,
                                  read_uleb, write_sleb, write_uleb)
from repro.binary import disassemble
from repro.binary.dwarf_reader import decode_line_program
from repro.errors import CompileError, DisasmError, MiraError
from repro.frontend import parse_source
from repro.workloads import source_path


class TestISA:
    def test_mnemonics_unique(self):
        assert len(MNEMONICS) == len(set(MNEMONICS))

    def test_bad_register_rejected(self):
        with pytest.raises(CompileError):
            Reg("r99")
        with pytest.raises(CompileError):
            Xmm("xmm77")

    def test_bad_scale_rejected(self):
        with pytest.raises(CompileError):
            Mem(base="rax", index="rcx", scale=3)

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(CompileError):
            Instruction("vfmadd999")

    def test_str_formats(self):
        ins = Instruction("movsd", (Xmm("xmm0"), Mem(base="rax", index="rcx",
                                                     scale=8, disp=-16)))
        s = str(ins)
        assert "movsd" in s and "rcx*8" in s and "- 16" in s

    def _roundtrip(self, ins, syms=("foo", "bar")):
        symidx = {name: i for i, name in enumerate(syms)}
        data = encode_instruction(ins, symidx)
        out, nxt = decode_instruction(data, 0, list(syms))
        assert nxt == len(data)
        assert out.mnemonic == ins.mnemonic
        assert out.operands == ins.operands
        return out

    def test_roundtrip_reg_reg(self):
        self._roundtrip(Instruction("mov", (Reg("rax"), Reg("rbx"))))

    def test_roundtrip_imm(self):
        self._roundtrip(Instruction("mov", (Reg("rax"), Imm(-123456789))))

    def test_roundtrip_mem_sib(self):
        self._roundtrip(Instruction(
            "movsd", (Xmm("xmm3"), Mem(base="rbp", index="r12", scale=8,
                                       disp=-40))))

    def test_roundtrip_mem_symbol(self):
        self._roundtrip(Instruction("lea", (Reg("rdi"), Mem(symbol="bar"))))

    def test_roundtrip_label(self):
        self._roundtrip(Instruction("call", (Label("foo"),)))

    def test_decode_bad_mnemonic_id(self):
        with pytest.raises(DisasmError):
            decode_instruction(struct.pack("<HBB", 9999, 0, 0), 0, [])

    def test_out_of_range_operands_are_compile_errors(self):
        for op in (Imm(2 ** 63), Imm(-(2 ** 63) - 1), Mem(disp=2 ** 31)):
            with pytest.raises(CompileError, match="cannot encode"):
                encode_instruction(Instruction("mov", (Reg("rax"), op)), {})

    def test_loop_bound_beyond_int64_is_a_compile_error(self):
        tu = parse_source("double a[10]; void f() { "
                          "for (long i = 0; i < 99999999999999999999; i++) "
                          "a[0] += 1.0; }")
        with pytest.raises(CompileError, match="cannot encode"):
            compile_tu(tu)

    def test_decode_truncated(self):
        with pytest.raises(DisasmError):
            decode_instruction(b"\x01", 0, [])

    @pytest.mark.parametrize("operand,message", [
        (bytes((0x00, 200)), "bad GP register id 200"),
        (bytes((0x01, 99)), "bad XMM register id 99"),
        (bytes((0x04,)) + struct.pack("<H", 7), "bad symbol index 7"),
        (struct.pack("<BBBBiH", 0x03, 0xFF, 0xFF, 3, 0, 0xFFFF),
         "bad scale 3"),
        (struct.pack("<BBBBiH", 0x03, 200, 0xFF, 1, 0, 0xFFFF),
         "bad memory register id"),
        (struct.pack("<BBBBiH", 0x03, 0xFF, 16, 1, 0, 0xFFFF),
         "bad memory register id"),
        (struct.pack("<BBBBiH", 0x03, 0xFF, 0xFF, 1, 0, 9),
         "bad symbol index 9"),
        (bytes((0x03, 0xFF)), "truncated operand"),
    ])
    def test_decode_rejects_out_of_range_operands(self, operand, message):
        # one instruction at offset 4, so its operand starts at offset 8
        data = b"\0" * 4 + struct.pack("<HBB", 0, 1, 0) + operand
        with pytest.raises(DisasmError, match=f"{message} at (offset )?8"):
            decode_instruction(data, 4, ["foo"])

    @pytest.mark.parametrize("name", ["fig5", "dgemm"])
    def test_disassemble_is_total_on_corrupt_operand_bytes(self, name):
        """Every operand byte of a compiled corpus object, set to an
        out-of-range value, either still decodes or is a DisasmError."""
        with open(source_path(name), encoding="utf-8") as fh:
            obj = compile_tu(parse_source(fh.read(), f"{name}.c"))
        operand_bytes = []
        pos = 0
        while pos < len(obj.text):
            _, nxt = decode_instruction(obj.text, pos, obj.strings)
            operand_bytes.extend(range(pos + 4, nxt))
            pos = nxt
        outcomes = {"decoded": 0, "rejected": 0}
        for i in operand_bytes:
            for value in (200, 0xFF):
                if obj.text[i] == value:
                    continue
                text = obj.text[:i] + bytes((value,)) + obj.text[i + 1:]
                try:
                    disassemble(replace(obj, text=text).to_bytes())
                except DisasmError:
                    outcomes["rejected"] += 1
                else:
                    outcomes["decoded"] += 1
        assert outcomes["decoded"] and outcomes["rejected"], outcomes

    @given(st.integers(min_value=-(2**62), max_value=2**62))
    @settings(max_examples=50, deadline=None)
    def test_property_imm_roundtrip(self, v):
        self._roundtrip(Instruction("cmp", (Reg("rax"), Imm(v))))


class TestArch:
    def test_64_categories(self):
        assert len(CATEGORY_NAMES) == 64

    def test_every_mnemonic_classified(self):
        arch = default_arch()
        for m in MNEMONICS:
            assert arch.category_of(m) in CATEGORY_NAMES

    def test_fp_classification(self):
        arch = default_arch()
        assert arch.category_of("mulsd") == CAT_SSE2_ARITH
        assert arch.is_fp_arith(CAT_SSE2_ARITH)
        assert not arch.is_fp_arith(CAT_INT_ARITH)

    def test_json_roundtrip(self):
        arch = default_arch("arya")
        arch2 = ArchDescription.from_json(arch.to_json())
        assert arch2.name == arch.name
        assert arch2.categories == arch.categories
        assert arch2.vector_bits == 256

    def test_presets(self):
        assert not default_arch("arya").has_fp_counters
        assert default_arch("frankenstein").has_fp_counters

    def test_unknown_category_rejected(self):
        with pytest.raises(MiraError):
            ArchDescription(categories={"mov": "Bogus category"})

    def test_unknown_mnemonic_lookup_rejected(self):
        with pytest.raises(MiraError):
            default_arch().category_of("vtotallymadeup")


class TestDwarf:
    @given(st.lists(st.integers(min_value=0, max_value=2**30), min_size=1,
                    max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_property_uleb_roundtrip(self, values):
        buf = bytearray()
        for v in values:
            write_uleb(v, buf)
        pos = 0
        for v in values:
            got, pos = read_uleb(bytes(buf), pos)
            assert got == v

    @given(st.lists(st.integers(min_value=-(2**30), max_value=2**30),
                    min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_property_sleb_roundtrip(self, values):
        buf = bytearray()
        for v in values:
            write_sleb(v, buf)
        pos = 0
        for v in values:
            got, pos = read_sleb(bytes(buf), pos)
            assert got == v

    def test_line_program_roundtrip(self):
        rows = [LineRow(0, 3, 6), LineRow(8, 4, 8), LineRow(20, 4, 21),
                LineRow(33, 5, 5), LineRow(50, 4, 27)]
        data = encode_line_program(rows)
        decoded = decode_line_program(data)
        assert decoded == [(r.address, r.line, r.col) for r in rows]

    def test_unsorted_rows_rejected(self):
        with pytest.raises(CompileError):
            encode_line_program([LineRow(10, 1, 1), LineRow(0, 1, 1)])

    def test_bad_opcode(self):
        with pytest.raises(DisasmError):
            decode_line_program(b"\x77\x00")

    def test_missing_terminator(self):
        with pytest.raises(DisasmError):
            decode_line_program(b"\x04")


SRC = """
double g[64];
double h[64];
void axpy(double *x, double *y, double a, int n) {
  for (int i = 0; i < n; i++)
    y[i] = y[i] + a * x[i];
}
int main() { axpy(g, h, 2.0, 64); return 0; }
"""


class TestCompileTu:
    def test_object_roundtrip(self):
        obj = compile_tu(parse_source(SRC), opt_level=2)
        data = obj.to_bytes()
        obj2 = ObjectFile.from_bytes(data)
        assert obj2.text == obj.text
        assert [s.name for s in obj2.functions()] == \
            [s.name for s in obj.functions()]
        assert obj2.debug_line == obj.debug_line

    def test_bad_magic(self):
        with pytest.raises(DisasmError):
            ObjectFile.from_bytes(b"NOTANOBJ" + b"\0" * 100)

    def test_function_symbols_tile_text(self):
        obj = compile_tu(parse_source(SRC))
        fns = sorted(obj.functions(), key=lambda s: s.address)
        pos = 0
        for f in fns:
            assert f.address == pos
            pos += f.size
        assert pos == len(obj.text)

    def test_opt_levels_change_size(self):
        tu0 = parse_source(SRC)
        tu2 = parse_source(SRC)
        o0 = compile_tu(tu0, opt_level=0)
        o2 = compile_tu(tu2, opt_level=2)
        # O2 (SIB + promotion) emits fewer instructions than O0
        assert len(o2.text) < len(o0.text)

    def test_bad_opt_level(self):
        with pytest.raises(CompileError):
            compile_tu(parse_source(SRC), opt_level=7)

    def test_rodata_holds_float_pool(self):
        obj = compile_tu(parse_source(SRC))
        assert len(obj.rodata) >= 8  # the 2.0 literal
        (v,) = struct.unpack_from("<d", obj.rodata, 0)
        assert v == 2.0

    def test_globals_in_symtab(self):
        obj = compile_tu(parse_source(SRC))
        g = obj.find_symbol("g")
        assert g is not None and g.size == 64 * 8

    def test_save_load(self, tmp_path):
        obj = compile_tu(parse_source(SRC))
        path = str(tmp_path / "out.mo")
        obj.save(path)
        obj2 = ObjectFile.load(path)
        assert obj2.text == obj.text


class TestOptimizer:
    def test_constant_folding(self):
        from repro.compiler import fold_constants
        from repro.frontend import ast_nodes as A

        tu = parse_source("int main() { int x = 2 * 3 + 4; return x; }")
        fold_constants(tu)
        init = tu.functions[0].body.stmts[0].decls[0].init
        assert isinstance(init, A.IntLit) and init.value == 10

    def test_identity_elimination(self):
        from repro.compiler import fold_constants
        from repro.frontend import ast_nodes as A

        tu = parse_source("int f(int a) { return a * 1 + 0; }")
        fold_constants(tu)
        ret = tu.functions[0].body.stmts[0]
        assert isinstance(ret.expr, A.Ident)

    def test_ternary_folding(self):
        from repro.compiler import fold_constants
        from repro.frontend import ast_nodes as A

        tu = parse_source("int f() { return 1 ? 5 : 7; }")
        fold_constants(tu)
        assert tu.functions[0].body.stmts[0].expr.value == 5

    def test_vectorizable_detection(self):
        from repro.compiler import mark_vectorizable_loops

        tu = parse_source("""
        void k(double *x, double *y, double s, int n) {
          for (int i = 0; i < n; i++)
            x[i] = y[i] * s;
        }""")
        assert mark_vectorizable_loops(tu.functions[0]) == 1
        loop = tu.functions[0].body.stmts[0]
        assert loop.info["vectorized"] == 2

    def test_nonvectorizable_call(self):
        from repro.compiler import mark_vectorizable_loops

        tu = parse_source("""
        void k(double *x, int n) {
          for (int i = 0; i < n; i++)
            x[i] = sqrt(x[i]);
        }""")
        assert mark_vectorizable_loops(tu.functions[0]) == 0

    def test_nonvectorizable_index_use(self):
        from repro.compiler import mark_vectorizable_loops

        tu = parse_source("""
        void k(double *x, int n) {
          for (int i = 0; i < n; i++)
            x[i] = x[i] + i;
        }""")
        assert mark_vectorizable_loops(tu.functions[0]) == 0

    def test_strength_reduction_shl(self):
        from repro.binary import disassemble

        tu = parse_source("int f(int a) { return a * 8; }")
        obj = compile_tu(tu, opt_level=2)
        prog = disassemble(obj.to_bytes())
        mns = [i.mnemonic for i in prog.find_function("f").instructions]
        assert "shl" in mns and "imul" not in mns

    def test_division_uses_idiv_cdq(self):
        from repro.binary import disassemble

        tu = parse_source("int f(int a, int b) { return a / b; }")
        obj = compile_tu(tu, opt_level=2)
        prog = disassemble(obj.to_bytes())
        mns = [i.mnemonic for i in prog.find_function("f").instructions]
        assert "idiv" in mns and "cdq" in mns
