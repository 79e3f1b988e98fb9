"""Tests for the PBound baseline and the command-line interface."""

import os

import pytest

from repro.baselines import PBoundAnalyzer
from repro.cli import main as cli_main
from repro.errors import ModelError
from repro.workloads import source_path


class TestPBound:
    def test_simple_loop_flops(self):
        pb = PBoundAnalyzer("""
        void f(double *x, int n) {
          for (int i = 0; i < n; i++)
            x[i] = x[i] * 2.0 + 1.0;
        }""")
        c = pb.analyze_function("f").evaluate({"n": 100})
        assert c["flops"] == 200  # mul + add per element

    def test_index_arithmetic_counted(self):
        pb = PBoundAnalyzer("""
        void f(double *x, int n) {
          for (int i = 0; i < n; i++)
            x[i * n + 3] = 0.0;
        }""")
        c = pb.analyze_function("f").evaluate({"n": 10})
        # explicit i*n+3 (2 int ops) + PBound's address arithmetic (2)
        # + loop increments
        assert c["int_ops"] >= 40

    def test_stores_and_loads(self):
        pb = PBoundAnalyzer("""
        void f(double *a, double *b, int n) {
          for (int i = 0; i < n; i++)
            a[i] = b[i];
        }""")
        c = pb.analyze_function("f").evaluate({"n": 50})
        assert c["stores"] >= 50
        assert c["loads"] >= 50

    def test_parametric_result(self):
        pb = PBoundAnalyzer("""
        void f(double *x, int n) {
          for (int i = 0; i < n; i++)
            x[i] = x[i] + 1.0;
        }""")
        counts = pb.analyze_function("f")
        assert counts.evaluate({"n": 10})["flops"] == 10
        assert counts.evaluate({"n": 1000})["flops"] == 1000

    def test_branch_heuristic(self):
        pb = PBoundAnalyzer("""
        void f(double *x, int n) {
          for (int i = 0; i < n; i++)
            if (x[i] > 0.0)
              x[i] = x[i] - 1.0;
        }""")
        c = pb.analyze_function("f").evaluate({"n": 100})
        # data-dependent branch: 1/2 heuristic → 50 subs (+100 compares)
        assert c["flops"] == 100 + 50
        assert c["branches"] >= 100

    def test_affine_branch_polyhedral(self):
        pb = PBoundAnalyzer("""
        int g;
        void f(int n) {
          for (int i = 0; i < n; i++)
            if (i < 10)
              g = g + 1;
        }""")
        c = pb.analyze_function("f").evaluate({"n": 100})
        # exactly 10 then-executions (polyhedral): 10 adds + 100 loop
        # conds + 100 incs + 100 branch compares
        assert c["int_ops"] == 10 + 100 + 100 + 100

    def test_unknown_function(self):
        with pytest.raises(ModelError):
            PBoundAnalyzer("void f() { }").analyze_function("g")

    def test_analyze_all(self):
        pb = PBoundAnalyzer("void f() { } void g() { }")
        assert set(pb.analyze_all()) == {"f", "g"}

    def test_nested_loops(self):
        pb = PBoundAnalyzer("""
        void f(double *x, int n) {
          for (int i = 0; i < n; i++)
            for (int j = 0; j <= i; j++)
              x[j] = x[j] + 1.0;
        }""")
        c = pb.analyze_function("f").evaluate({"n": 10})
        assert c["flops"] == 55

    def test_while_with_annotation(self):
        pb = PBoundAnalyzer("""
        void f(double x) {
          #pragma @Annotation {iters:20}
          while (x > 0.0)
            x = x - 1.0;
        }""")
        c = pb.analyze_function("f").evaluate({})
        assert c["flops"] >= 20


class TestCLI:
    def test_eval(self, capsys):
        rc = cli_main(["eval", source_path("dgemm"), "dgemm_kernel",
                       "n=16", "-D", "DGEMM_N=8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "FP_INS" in out
        assert str(2 * 16 ** 3 + 16 ** 2) in out

    def test_analyze_to_file(self, tmp_path, capsys):
        out_file = str(tmp_path / "model.py")
        rc = cli_main(["analyze", source_path("fig5"), "-o", out_file])
        assert rc == 0
        text = open(out_file).read()
        assert "def A_foo_2(y):" in text

    def test_analyze_stdout(self, capsys):
        rc = cli_main(["analyze", source_path("listings")])
        assert rc == 0
        assert "def listing2_0():" in capsys.readouterr().out

    def test_disasm(self, capsys):
        rc = cli_main(["disasm", source_path("dgemm"), "-D", "DGEMM_N=4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "<dgemm_kernel>" in out and "mulsd" in out

    def test_coverage(self, capsys):
        rc = cli_main(["coverage", source_path("swim"),
                       source_path("mgrid")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "swim" in out and "mgrid" in out and "%" in out

    def test_profile(self, capsys):
        rc = cli_main(["profile", source_path("dgemm"),
                       "-D", "DGEMM_N=4", "-D", "DGEMM_NREP=1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PAPI_FP_INS" in out

    def test_arch_template(self, capsys):
        rc = cli_main(["arch-template"])
        assert rc == 0
        out = capsys.readouterr().out
        assert '"cache_line_bytes"' in out

    def test_arch_presets(self, capsys):
        rc = cli_main(["eval", source_path("dgemm"), "dgemm_kernel",
                       "n=4", "--arch", "frankenstein", "-D", "DGEMM_N=4"])
        assert rc == 0

    def test_bad_arch(self):
        with pytest.raises(SystemExit):
            cli_main(["eval", source_path("dgemm"), "dgemm_kernel",
                      "--arch", "no-such-machine"])

    def test_eval_binding_missing_equals(self):
        # a malformed binding must exit cleanly, not dump a ValueError
        with pytest.raises(SystemExit, match="expected param=value"):
            cli_main(["eval", source_path("dgemm"), "dgemm_kernel",
                      "n16", "-D", "DGEMM_N=8"])

    def test_eval_binding_non_integer_value(self):
        with pytest.raises(SystemExit, match="must be an integer"):
            cli_main(["eval", source_path("dgemm"), "dgemm_kernel",
                      "n=lots", "-D", "DGEMM_N=8"])

    def test_eval_binding_empty_name(self):
        with pytest.raises(SystemExit, match="expected param=value"):
            cli_main(["eval", source_path("dgemm"), "dgemm_kernel",
                      "=4", "-D", "DGEMM_N=8"])

    def test_client_evaluate_binding_messages_match_eval(self):
        # The client connects lazily, so a bad binding exits before any
        # request is made.
        with pytest.raises(SystemExit, match="expected param=value"):
            cli_main(["client", "evaluate", "some-id", "f", "n16"])
        with pytest.raises(SystemExit, match="must be an integer"):
            cli_main(["client", "evaluate", "some-id", "f", "n=lots"])

    def test_opt_flag(self, capsys):
        rc = cli_main(["disasm", source_path("dgemm"), "--opt", "0",
                       "-D", "DGEMM_N=4"])
        assert rc == 0
        # O0: explicit address arithmetic → imul present in the listing
        assert "imul" in capsys.readouterr().out
