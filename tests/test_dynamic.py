"""Tests for the dynamic-execution substrate: semantics, counting, TAU/PAPI
interfaces, and static-vs-dynamic agreement on analyzable programs."""

import pytest

from repro.compiler import default_arch
from repro.core import Pipeline
from repro.dynamic import (Interpreter, TauProfiler, c_div, c_mod,
                           count_preset, preset_categories, printf_cost)
from repro.dynamic.values import Ptr, alloc_array
from repro.errors import InterpError, MiraError
from repro.frontend.types import Type


def run_program(src: str, entry: str = "main"):
    model = Pipeline().run(src)
    interp = Interpreter(model.processed)
    rv = interp.run(entry)
    return model, interp, rv


class TestValues:
    def test_ptr_arithmetic(self):
        buf = [1, 2, 3, 4]
        p = Ptr(buf, 1)
        assert p.load(0) == 2
        q = p + 2
        assert q.load(0) == 4
        q.store(0, 9)
        assert buf[3] == 9

    def test_alloc_array_types(self):
        a = alloc_array(Type("double"), (4,))
        assert a == [0.0] * 4
        b = alloc_array(Type("int"), (2, 3))
        assert b == [0] * 6

    def test_c_div_truncates_toward_zero(self):
        assert c_div(7, 2) == 3
        assert c_div(-7, 2) == -3
        assert c_div(7, -2) == -3

    def test_c_mod_sign_follows_dividend(self):
        assert c_mod(7, 4) == 3
        assert c_mod(-7, 4) == -3

    def test_c_div_by_zero(self):
        with pytest.raises(InterpError):
            c_div(1, 0)


class TestSemantics:
    def test_return_value(self):
        _, _, rv = run_program("int main() { return 42; }")
        assert rv == 42

    def test_arithmetic(self):
        _, _, rv = run_program(
            "int main() { int a = 7; int b = 3; return a * b + a / b - a % b; }")
        assert rv == 7 * 3 + 7 // 3 - 7 % 3

    def test_float_math(self):
        _, _, rv = run_program(
            "double main() { double x = 1.5; return x * 4.0 - 1.0; }")
        assert rv == 5.0

    def test_loop_sum(self):
        _, _, rv = run_program("""
        int main() { int s = 0; for (int i = 1; i <= 10; i++) s += i;
                     return s; }""")
        assert rv == 55

    def test_while_and_break(self):
        _, _, rv = run_program("""
        int main() {
          int i = 0;
          while (1) { i++; if (i == 7) break; }
          return i;
        }""")
        assert rv == 7

    def test_continue(self):
        _, _, rv = run_program("""
        int main() {
          int s = 0;
          for (int i = 0; i < 10; i++) { if (i % 2 == 0) continue; s += i; }
          return s;
        }""")
        assert rv == 1 + 3 + 5 + 7 + 9

    def test_do_while(self):
        _, _, rv = run_program("""
        int main() { int i = 0; do { i++; } while (i < 5); return i; }""")
        assert rv == 5

    def test_global_arrays_and_functions(self):
        _, _, rv = run_program("""
        double v[10];
        double total(double *x, int n) {
          double s = 0.0;
          for (int i = 0; i < n; i++) s += x[i];
          return s;
        }
        int main() {
          for (int i = 0; i < 10; i++) v[i] = 2.0;
          return (int)total(v, 10);
        }""")
        assert rv == 20

    def test_multidim_array(self):
        _, _, rv = run_program("""
        int m[3][4];
        int main() {
          for (int i = 0; i < 3; i++)
            for (int j = 0; j < 4; j++)
              m[i][j] = i * 10 + j;
          return m[2][3];
        }""")
        assert rv == 23

    def test_class_method_and_field(self):
        _, _, rv = run_program("""
        class Acc {
        public:
          int total;
          void bump(int k) { total = total + k; }
        };
        int main() {
          Acc a;
          a.total = 0;
          for (int i = 0; i < 5; i++) a.bump(i);
          return a.total;
        }""")
        assert rv == 10

    def test_functor(self):
        _, _, rv = run_program("""
        struct Mul {
          int factor;
          int operator()(int x) { return x * factor; }
        };
        int main() { Mul m; m.factor = 6; return m(7); }""")
        assert rv == 42

    def test_builtin_sqrt(self):
        _, _, rv = run_program(
            "int main() { return (int)sqrt(81.0); }")
        assert rv == 9

    def test_ternary_and_logical(self):
        _, _, rv = run_program("""
        int main() {
          int a = 5;
          int b = (a > 3 && a < 10) ? 1 : 0;
          int c = (a < 3 || a == 5) ? 10 : 20;
          return b + c;
        }""")
        assert rv == 11

    def test_prefix_postfix(self):
        _, _, rv = run_program("""
        int main() { int i = 5; int a = i++; int b = ++i; return a * 100 + b; }""")
        assert rv == 507

    def test_pointer_param_writeback(self):
        _, _, rv = run_program("""
        double buf[4];
        void fill(double *p, int n) { for (int i = 0; i < n; i++) p[i] = 1.5; }
        int main() { fill(buf, 4); return (int)(buf[3] * 2.0); }""")
        assert rv == 3

    def test_unknown_function(self):
        with pytest.raises((InterpError, Exception)):
            run_program("int main() { return mystery(); }")

    def test_exit_builtin(self):
        with pytest.raises(InterpError):
            run_program("int main() { exit(1); return 0; }")


class TestCounting:
    def test_static_equals_dynamic_for_affine_program(self):
        src = """
        double x[200]; double y[200];
        void axpy(double *a, double *b, double s, int n) {
          for (int i = 0; i < n; i++)
            b[i] = b[i] + s * a[i];
        }
        int main() { axpy(x, y, 2.0, 200); return 0; }
        """
        model = Pipeline().run(src)
        rep = TauProfiler(model.processed).profile("main")
        static = model.evaluate("main").as_dict()
        dynamic = rep.function("main").categories
        assert static == dynamic

    def test_branchy_program_dynamic_exact(self):
        src = """
        int acc;
        void f(int n) {
          for (int i = 1; i <= n; i++)
            if (i % 4 != 0)
              acc = acc + 1;
        }
        int main() { f(8); return 0; }
        """
        model = Pipeline().run(src)
        rep = TauProfiler(model.processed).profile("main")
        static = model.evaluate("main").as_dict()
        dynamic = rep.function("main").categories
        assert static == dynamic  # complement trick is exact

    def test_library_cost_only_dynamic(self):
        src = """
        double v;
        int main() { v = sqrt(2.0); return 0; }
        """
        model = Pipeline().run(src)
        rep = TauProfiler(model.processed).profile("main")
        s = model.evaluate("main")
        static_fp = s.fp_instructions(model.arch.fp_arith_categories)
        dyn_fp = rep.fp_ins("main")
        assert dyn_fp == static_fp + 1  # sqrtsd inside libm

    def test_call_counts(self):
        src = """
        int g;
        void inc() { g++; }
        int main() { for (int i = 0; i < 12; i++) inc(); return 0; }
        """
        model = Pipeline().run(src)
        rep = TauProfiler(model.processed).profile("main")
        assert rep.function("inc").calls == 12

    def test_per_function_inclusive(self):
        src = """
        double s;
        void leaf(int n) { for (int i = 0; i < n; i++) s = s + 1.0; }
        void mid(int n) { leaf(n); leaf(n); }
        int main() { mid(50); return 0; }
        """
        model = Pipeline().run(src)
        rep = TauProfiler(model.processed).profile("main")
        assert rep.fp_ins("mid") == 100
        assert rep.fp_ins("leaf") == 50  # mean per call

    def test_data_dependent_loop_counts_truth(self):
        src = """
        int bounds[4];
        int acc;
        void f() {
          for (int i = 0; i < 4; i++) {
            #pragma @Annotation {iters:est}
            for (int k = 0; k < bounds[i]; k++)
              acc = acc + 1;
          }
        }
        int main() {
          bounds[0] = 1; bounds[1] = 5; bounds[2] = 2; bounds[3] = 0;
          f();
          return acc;
        }
        """
        model = Pipeline().run(src)
        rep = TauProfiler(model.processed).profile("main")
        assert rep.return_value == 8
        # static with annotation est=2: 4*2 = 8 — matches by luck of avg;
        # with est=3 it diverges exactly as expected
        s2 = model.evaluate("f", {"est": 3}).as_dict()
        s1 = model.evaluate("f", {"est": 2}).as_dict()
        assert s2 != s1


class TestPapi:
    def test_fp_ins_preset(self):
        arch = default_arch()
        cats = preset_categories("PAPI_FP_INS", arch)
        assert "SSE2 packed arithmetic instruction" in cats

    def test_tot_ins_preset(self):
        arch = default_arch()
        assert preset_categories("PAPI_TOT_INS", arch) is None
        assert count_preset({"a": 3, "b": 4}, "PAPI_TOT_INS", arch) == 7

    def test_haswell_has_no_fp_counters(self):
        arya = default_arch("arya")
        with pytest.raises(MiraError):
            preset_categories("PAPI_FP_INS", arya)

    def test_unknown_preset(self):
        with pytest.raises(MiraError):
            preset_categories("PAPI_MADE_UP", default_arch())

    def test_printf_cost_scales_with_conversions(self):
        c1 = printf_cost("%f\n")
        c2 = printf_cost("%f %f\n")
        assert c2["SSE2 packed arithmetic instruction"] == \
            2 * c1["SSE2 packed arithmetic instruction"]
        c3 = printf_cost("no conversions")
        assert "SSE2 packed arithmetic instruction" not in c3
