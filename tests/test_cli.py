import csv
import dataclasses
import json
import math
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hermquad import cli, kernel, quadrature, verify
from hermquad.cli import main
from hermquad.exactmath import parse_rational
from hermquad.expressions import MAX_CONSTANT_BITS, MAX_LITERAL_DIGITS, MAX_NESTING
from hermquad.oracle import reference_integrate
from hermquad.quadrature import Partition
from hermquad.weights import apply_rule, compute_weights


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWeightsCommand:
    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "weights", "--n", "2", "--a", "0", "--b", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["w_a"] == ["1/2", "1/12"]
        assert doc["w_b"] == ["1/2", "-1/12"]

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "weights", "--n", "5", "--a", "1/3", "--b", "7/2", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        rule = compute_weights(5, "1/3", "7/2")
        assert doc["n"] == rule.n
        assert (parse_rational(doc["a"]), parse_rational(doc["b"])) == (rule.a, rule.b)
        assert tuple(map(parse_rational, doc["w_a"])) == rule.w_a
        assert tuple(map(parse_rational, doc["w_b"])) == rule.w_b

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "weights", "--n", "2", "--a", "0", "--b", "1", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "j,w_a,w_b"
        assert lines[1] == "0,1/2,1/2"
        assert lines[2] == "1,1/12,-1/12"

    def test_decimal_endpoints_are_exact(self, capsys):
        code, out, _ = run(
            capsys, "weights", "--n", "1", "--a", "0", "--b", "0.1", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["w_a"] == ["1/20"]

    def test_rejects_pi(self, capsys):
        code, _, err = run(capsys, "weights", "--n", "2", "--a", "0", "--b", "pi")
        assert code == 1
        assert "pi" in err


class TestKernelCommand:
    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "kernel", "--n", "2", "--a", "0", "--b", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["coeffs"] == ["1/12", "-1/2", "1/2"]
        assert doc["params"] == {"c": "-1/2", "deltas": ["-1/24"]}

    def test_text_mentions_polynomial(self, capsys):
        code, out, _ = run(capsys, "kernel", "--n", "1", "--a", "0", "--b", "1")
        assert code == 0
        assert "x - 1/2" in out

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_the_kernel_is_built_once(self, capsys, monkeypatch, fmt):
        argv = ("kernel", "--n", "4", "--a", "1/3", "--b", "2", "--format", fmt)
        want = run(capsys, *argv)
        member = kernel.KernelSet.member
        built = []

        def counted(self, k):
            built.append(k)
            return member(self, k)

        monkeypatch.setattr(kernel.KernelSet, "member", counted)
        assert run(capsys, *argv) == want
        assert built == [0]


class TestIntegrateCommand:
    def test_motivating_example_json(self, capsys):
        code, out, _ = run(
            capsys,
            "integrate", "--n", "2", "--a", "0", "--b", "pi",
            "--fn", "x^2*sin(x)", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["quadrature"] == pytest.approx(math.pi ** 4 / 12, abs=1e-10)
        assert doc["reference"] == pytest.approx(math.pi ** 2 - 4, abs=1e-10)
        assert doc["error"] == pytest.approx(math.pi ** 4 / 12 - (math.pi ** 2 - 4), abs=1e-8)

    def test_csv_columns(self, capsys):
        code, out, _ = run(
            capsys,
            "integrate", "--n", "2", "--a", "0", "--b", "1",
            "--fn", "exp(x)", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,m,h,quadrature,reference,error,observed_order,bound_uniform,bound_l2"
        assert len(lines) == 2

    def test_domain_error_exits_2(self, capsys):
        code, _, err = run(capsys, "integrate", "--n", "2", "--a", "0", "--b", "1", "--fn", "log(x)")
        assert code == 2
        assert "log" in err

    def test_unconverged_reference_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            "integrate", "--n", "2", "--a", "-1", "--b", "1",
            "--fn", "1/(1+25*x^2)", "--tol", "1e-30",
        )
        assert code == 2
        assert "converge" in err

    def test_syntax_error_exits_1(self, capsys):
        code, _, err = run(capsys, "integrate", "--n", "2", "--a", "0", "--b", "1", "--fn", "2*+x")
        assert code == 1
        assert "position 2" in err


class TestCompositeCommand:
    def test_error_table_with_orders(self, capsys):
        code, out, _ = run(
            capsys,
            "composite", "--n", "2", "--a", "0", "--b", "1",
            "--fn", "exp(x)", "--m", "2,4,8,16", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        last = lines[-1].split(",")
        assert int(last[1]) == 16
        assert float(last[6]) == pytest.approx(4.0, abs=0.2)

    def test_single_m_text(self, capsys):
        code, out, _ = run(
            capsys, "composite", "--n", "1", "--a", "0", "--b", "1", "--fn", "x^2", "--m", "4"
        )
        assert code == 0
        assert "reference" in out

    def test_bad_m_exits_1(self, capsys):
        code, _, _ = run(
            capsys, "composite", "--n", "1", "--a", "0", "--b", "1", "--fn", "x", "--m", "0"
        )
        assert code == 1

    @staticmethod
    def counting_provider(monkeypatch):
        """Patch cli.jet_provider to record the points its jets are asked for:
        returns (the points handed to the batch, the points asked one at a time)."""
        provider = cli.jet_provider
        batch, single = [], []

        def counting_provider(expr):
            jets = provider(expr)

            def counted(x, m):
                single.append(x)
                return jets(x, m)

            def many(xs, m):
                batch.extend(xs)
                return jets.many(xs, m)

            counted.many = many
            return counted

        monkeypatch.setattr(cli, "jet_provider", counting_provider)
        return batch, single

    def test_each_distinct_node_jet_is_built_once(self, capsys, monkeypatch):
        # Nodes of m = 1, 2, 4, 3: 2 + 3 + 5 + 4 = 14 in the rows, 7 distinct,
        # all handed to one batch before the rows run.  Order 29 is above the
        # order up to which ``many`` walks the expression once; the call is the same.
        for n in ("3", "30"):
            argv = ("composite", "--n", n, "--a", "0", "--b", "1", "--fn", "exp(x)",
                    "--m", "1,2,4,3", "--format", "json")
            want = run(capsys, *argv)
            with monkeypatch.context() as patch:
                batch, single = self.counting_provider(patch)
                assert run(capsys, *argv) == want
            assert len(batch) == len(set(batch)) == 7
            assert single == []

    def test_nodes_that_round_to_one_double_share_one_jet(self, capsys, monkeypatch):
        # The 1 + 2 + 4 panels have 5 distinct rational nodes but 2 distinct doubles,
        # 1 and 1 + 2^-52; the table is the one the per-node memo printed.
        batch, single = self.counting_provider(monkeypatch)
        code, out, err = run(capsys, "composite", "--n", "2", "--a", "1", "--b", "1.0000000000000002",
                             "--fn", "exp(x)", "--m", "1,2,4", "--format", "csv")
        assert (code, err) == (0, "")
        assert out == (
            "n,m,h,quadrature,reference,error,observed_order,bound_uniform,bound_l2\n"
            "2,1,2e-16,5.436563656918091e-16,6.035798146750804e-16,-5.992344898327126e-17,,,\n"
            "2,2,1e-16,5.43656365691809e-16,6.035798146750804e-16,-5.992344898327136e-17,"
            "-2.40256987786119e-15,,\n"
            "2,4,5e-17,5.43656365691809e-16,6.035798146750804e-16,-5.992344898327136e-17,0.0,,\n"
        )
        assert [float(x) for x in batch] == [1.0, 1.0 + 2.0 ** -52]
        assert single == []

    @pytest.mark.parametrize("argv,code,err", [
        # The rule order is checked before any node jet; a jet would meet sqrt at 0.
        (("--n", "70", "--a=-1", "--b=2", "--fn", "sqrt(x^2)", "--m", "1,3"), 1,
         "hermquad: error: rule order 70 exceeds the cap 64\n"),
        (("--n", "3", "--a=-1", "--b=2", "--fn", "sqrt(x^2)", "--m", "1,3"), 2,
         "hermquad: numerical failure: sqrt of a non-positive value in 'sqrt((x ^ 2))'\n"),
        (("--n", "0", "--a", "0", "--b", "1", "--fn", "x", "--m", "1,3"), 1,
         "hermquad: error: rule order must be a positive integer, got 0\n"),
        # One walk over all the nodes fails first at 1/4 (the left term); the
        # rows meet 1/2 (m = 2) before 1/4 (m = 4), at either order.
        *((("--n", n, "--a", "0", "--b", "1", "--fn", "sqrt((x-0.25)^2)+sqrt((x-0.5)^2)",
            "--m", "1,2,4"), 2,
           "hermquad: numerical failure: sqrt of a non-positive value in 'sqrt(((x - 0.5) ^ 2))'\n")
          for n in ("3", "30")),
    ])
    def test_errors_are_the_ones_the_rows_meet_first(self, capsys, argv, code, err):
        # Each expected error was recorded before node jets were batched, except
        # --n 0, which now reads as the rule-order error integrate and bounds give.
        assert run(capsys, "composite", *argv) == (code, "", err)

    def test_orders_of_counts_that_do_not_double(self, capsys):
        # Each order compares a row with the one before it, whatever their ratio.
        code, out, _ = run(capsys, "composite", "--n", "2", "--a", "0", "--b", "1",
                           "--fn", "exp(x)", "--m", "1,2,4,3,6,5,10", "--format", "json")
        assert code == 0
        orders = [row["observed_order"] for row in json.loads(out)["rows"]]
        assert orders[0] is None
        assert all(3.9 <= order <= 4.1 for order in orders[1:])
        assert [round(orders[3], 3), round(orders[5], 3)] == [3.996, 3.998]

    def test_each_row_is_the_same_whatever_the_row_order(self, capsys):
        # A row's value and error depend on its m alone; its observed order
        # compares it with the row before it, so that column differs.
        def rows(m):
            code, out, err = run(capsys, "composite", "--n", "3", "--a=-0.3141", "--b", "pi",
                                 "--fn", "exp(0.5*x)*cos(2*x)", "--m", m, "--format", "json")
            assert (code, err) == (0, "")
            return {row["m"]: row for row in json.loads(out)["rows"]}

        shuffled, ordered = rows("4,1,2"), rows("1,2,4")
        assert sorted(shuffled) == sorted(ordered) == [1, 2, 4]
        for m in (1, 2, 4):
            for column in ("h", "quadrature", "reference", "error"):
                assert shuffled[m][column] == ordered[m][column]
        assert shuffled[4]["observed_order"] is None is ordered[1]["observed_order"]
        assert shuffled[2]["observed_order"] == ordered[2]["observed_order"]
        assert shuffled[1]["observed_order"] != ordered[4]["observed_order"]

    def test_nodes_never_become_fractions(self, capsys, monkeypatch):
        # A table reads its nodes as ticks over one denominator: the only
        # Fraction the composite path builds is each row's panel width.
        built, rounded = [], []
        real = quadrature.Fraction
        to_float = Fraction.__float__

        def counted(*args):
            built.append(args)
            return real(*args)

        def counted_float(self):
            rounded.append(self)
            return to_float(self)

        counts = [2 ** i for i in range(11)]
        argv = ("composite", "--n", "4", "--a=-0.3141", "--b", "pi", "--fn", "exp(0.5*x)*cos(2*x)",
                "--m", ",".join(map(str, counts)), "--format", "csv")
        want = run(capsys, *argv)
        monkeypatch.setattr(quadrature, "Fraction", counted)
        monkeypatch.setattr(Fraction, "__float__", counted_float)
        assert run(capsys, *argv) == want
        partitions = [Partition.uniform("-0.3141", math.pi, m) for m in counts]
        assert built == [(p.ticks[1] - p.ticks[0], p.den) for p in partitions]
        # Per row, the 4 weights and h; then the endpoints and the integrand's
        # constants: a few dozen roundings against 2058 nodes.
        assert len(rounded) <= 5 * len(counts) + 6

    @pytest.mark.parametrize("m", ["100000000", "65536,1"])
    def test_panel_total_above_the_cap_exits_1_at_once(self, capsys, monkeypatch, m):
        # 10^8 panels once built 10^8 exact nodes with no end in sight.
        def no_reference(*args):
            raise AssertionError("the reference integral must not run")

        monkeypatch.setattr(cli, "reference_integrate", no_reference)
        code, out, err = run(capsys, "composite", "--n", "2", "--a", "0", "--b", "1",
                             "--fn", "exp(x)", "--m", m)
        assert (code, out) == (1, "")
        assert err == "hermquad: error: --m values may total at most 65536 panels\n"

    def test_panel_cap_admits_its_total_and_is_not_an_option(self, capsys):
        assert cli._parse_panel_counts("65535,1") == [65535, 1]
        with pytest.raises(SystemExit):
            main(["composite", "--help"])
        options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert options == {"--help", "--n", "--a", "--b", "--fn", "--tol", "--m", "--format"}


class TestBoundsCommand:
    def test_default_order_bounds_hold(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds", "--n", "2", "--a", "0", "--b", "1",
            "--fn", "exp(x)", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["derivative_order_used"] == 2
        assert doc["bound_kind"] == "midrange"
        assert abs(doc["error"]) <= doc["bound_uniform"]
        assert abs(doc["error"]) <= doc["bound_l2"]

    def test_third_derivative_bounds(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds", "--n", "2", "--a", "0", "--b", "1",
            "--fn", "exp(x)", "--bound-order", "3", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["derivative_order_used"] == 3
        assert abs(doc["error"]) <= doc["bound_uniform"]
        assert abs(doc["error"]) <= doc["bound_l2"]

    def test_fourth_derivative_error(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds", "--n", "2", "--a", "0", "--b", "1",
            "--fn", "exp(x)", "--bound-order", "4", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["error_via_f4"] == pytest.approx(-doc["error"], rel=1e-6)

    def test_wide_interval_whose_squared_kernel_norm_overflows(self, capsys):
        # integral(K^2) ~ 1e347 once overflowed in its conversion to a float.
        code, out, err = run(
            capsys,
            "bounds", "--n", "2", "--a", "0", "--b", "1e70",
            "--fn", "sin(x*1e-70)", "--format", "json",
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["bound_l2"] == pytest.approx(9.231144198690197e67, rel=1e-12)
        assert abs(doc["error"]) <= doc["bound_uniform"]
        assert abs(doc["error"]) <= doc["bound_l2"]

    @pytest.mark.parametrize("extra,what", [
        ((), "integral(|K^(0)|)"),
        (("--bound-order", "2"), "a coefficient of K^(1)"),
    ])
    def test_kernel_constant_beyond_the_double_range_is_named(self, capsys, extra, what):
        # h^2 / 4 = 4e308 and the constant -h^2 / 8 = -2e308 of K^(1) overflow
        # in their rounding to doubles, although the integrand is 0.
        code, out, err = run(capsys, "bounds", "--n", "1", "--a=-2e154", "--b=2e154",
                             "--fn", "0*x", *extra)
        assert (code, out) == (2, "")
        assert err == (f"hermquad: numerical failure: {what} of the order-1 kernel on "
                       "[-2e+154, 2e+154] lies beyond the double range\n")

    def test_bad_bound_order_exits_1(self, capsys):
        for order in ("2", "7"):
            code, _, err = run(
                capsys,
                "bounds", "--n", "3", "--a", "0", "--b", "1",
                "--fn", "exp(x)", "--bound-order", order,
            )
            assert code == 1
            assert "bound-order" in err

    @pytest.mark.parametrize("n", [1, 3])
    def test_every_bound_order_from_n_to_2n(self, capsys, n):
        for order in range(n, 2 * n + 1):
            code, out, _ = run(
                capsys,
                "bounds", "--n", str(n), "--a", "0", "--b", "1",
                "--fn", "exp(x)", "--bound-order", str(order), "--format", "json",
            )
            assert code == 0
            doc = json.loads(out)
            assert doc["derivative_order_used"] == order
            if order < 2 * n:
                assert doc["bound_kind"] == "midrange"
                assert doc["bound_stable"] is True
                assert abs(doc["error"]) <= doc["bound_uniform"]
                assert abs(doc["error"]) <= doc["bound_l2"]
            else:
                assert doc["bound_uniform"] is None and doc["bound_l2"] is None
                assert doc[f"error_via_f{2 * n}"] == pytest.approx(-doc["error"], rel=1e-6)


@pytest.mark.parametrize("n,err", [
    ("0", "rule order must be a positive integer, got 0"),
    ("65", "rule order 65 exceeds the cap 64"),
    ("200", "rule order 200 exceeds the cap 64"),
])
@pytest.mark.parametrize("command", ["integrate", "bounds", "composite"])
def test_rule_order_errors_are_the_same_in_every_float_command(capsys, command, n, err):
    extra = ("--m", "1,2") if command == "composite" else ()
    got = run(capsys, command, "--n", n, "--a", "0", "--b", "1", "--fn", "exp(x)", *extra)
    assert got == (1, "", f"hermquad: error: {err}\n")


class TestVerifyCommand:
    def test_order_six_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("ok") for line in lines[:-1])
        assert lines[-1].endswith("checks passed")

    def test_custom_interval(self, capsys):
        # Negative rationals need the --a=value spelling.
        code, out, _ = run(capsys, "verify", "--n", "3", "--a=-2/3", "--b", "5/4")
        assert code == 0

    @pytest.mark.parametrize("n", [1, 4])
    def test_one_rule_value_per_monomial_feeds_both_checks(self, monkeypatch, n):
        # x^d for d < 2n, then x^(2n) for the first failure.  The interpolant
        # is checked against the weights, so a wrong rule value leaves it alone.
        calls = []

        def off_by_one(rule, jet_a, jet_b):
            calls.append(jet_a)
            return apply_rule(rule, jet_a, jet_b) + 1

        monkeypatch.setattr(verify, "apply_rule", off_by_one)
        failed = [check.name for check in verify.run_checks(n) if not check.passed]
        assert len(calls) == 2 * n + 1
        assert failed == [
            f"exact on monomials x^d, d <= {2 * n - 1}",
            "error on x^(2n) equals (-1)^n (n!)^2 (b-a)^(2n+1) / (2n+1)!",
        ]

    @pytest.mark.parametrize("n", [1, 5])
    def test_interpolant_is_built_once_per_unit_jet(self, monkeypatch, n):
        calls = []
        real = verify.build_hermite

        def spy(a, b, jet_a, jet_b):
            calls.append((jet_a, jet_b))
            return real(a, b, jet_a, jet_b)

        monkeypatch.setattr(verify, "build_hermite", spy)
        assert all(check.passed for check in verify.run_checks(n, "-2/3", "5/4"))
        assert len(calls) == 2 * n
        entries = [tuple(jet_a) + tuple(jet_b) for jet_a, jet_b in calls]
        assert all(sum(v != 0 for v in jets) == 1 for jets in entries)
        assert sorted(jets.index(1) for jets in entries) == list(range(2 * n))

    @pytest.mark.parametrize("side,j", [(side, j) for side in ("a", "b") for j in range(3)])
    def test_interpolant_check_sees_each_unit_jet(self, monkeypatch, side, j):
        real = verify.build_hermite
        unit = tuple(int(i == j) for i in range(3))

        def off_at_one_jet(a, b, jet_a, jet_b):
            jet = jet_a if side == "a" else jet_b
            return real(a, b, jet_a, jet_b) + int(tuple(jet) == unit)

        monkeypatch.setattr(verify, "build_hermite", off_at_one_jet)
        failed = [check.name for check in verify.run_checks(3, "-2/3", "5/4") if not check.passed]
        assert failed == ["interpolant integral equals the weighted rule"]

    def test_every_kernel_parameter_is_checked(self, monkeypatch, capsys):
        # delta_0 of order 8 lies below the three leading parameters.
        real = verify.solve_params

        def perturbed(n, a, b):
            params = real(n, a, b)
            return dataclasses.replace(params, deltas=(params.deltas[0] + 1, *params.deltas[1:]))

        monkeypatch.setattr(verify, "solve_params", perturbed)
        code, out, _ = run(capsys, "verify", "--n", "8", "--a=0.3141593", "--b=1.4142136")
        assert code == 2
        assert re.search(r"^FAIL  leading kernel parameters match their closed forms", out, re.M)


    def test_sign_change_check_fails_without_sign_changes(self, monkeypatch, capsys):
        # |K_3| <= 1/3! on [0, 1], so K_3 + 1 is positive there.
        real = verify.kernel_from_params
        monkeypatch.setattr(verify, "kernel_from_params", lambda params: real(params) + 1)
        code, out, _ = run(capsys, "verify", "--n", "3")
        assert code == 2
        assert re.search(r"^FAIL  kernel has exactly 3 sign changes in \(a, b\)", out, re.M)

    def test_isolates_no_roots(self, monkeypatch, capsys):
        calls = []
        real = kernel._isolate_roots_exact

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(kernel, "_isolate_roots_exact", counted)
        kernel._unit_abs_integral.cache_clear()
        code, out, _ = run(capsys, "verify", "--n", "12", "--a=-3/2", "--b=3/2")
        assert code == 0
        assert "ok   kernel has exactly 12 sign changes in (a, b)" in out
        assert calls == []


class TestParser:
    def test_two_runs_share_one_parser(self, capsys):
        cli.build_parser.cache_clear()
        argv = ("weights", "--n", "2", "--a", "0", "--b", "1", "--format", "csv")
        first = run(capsys, *argv)
        # A failed parse in between leaves nothing behind in the shared parser.
        with pytest.raises(SystemExit):
            main(["weights", "--n", "2", "--a", "0"])
        assert run(capsys, "weights", "--n", "0", "--a", "0", "--b", "1")[0] == 1
        assert run(capsys, *argv) == first
        assert first == (0, "j,w_a,w_b\n0,1/2,1/2\n1,1/12,-1/12\n", "")
        assert cli.build_parser.cache_info().misses == 1
        assert cli.build_parser() is cli.build_parser()


class TestDemoCommand:
    def test_three_way_comparison(self, capsys):
        code, out, _ = run(capsys, "demo")
        assert code == 0
        assert "5.86960440108936" in out
        assert "8.11742425283354" in out
        assert "2.24781985174418" in out

    def test_trapezoid_line_is_zero(self, capsys):
        _, out, _ = run(capsys, "demo")
        line = next(l for l in out.splitlines() if "n=1" in l)
        value = float(line.split(":")[1].strip())
        assert value == pytest.approx(0.0, abs=1e-12)


def _nested(shape: str, depth: int) -> str:
    """An integrand on [1, 2] that nests ``depth`` levels deep."""
    if shape == "parens":
        return "(" * depth + "x" + ")" * depth
    if shape == "calls":
        return "sqrt(" * depth + "x" + ")" * depth
    if shape == "minus":
        return "-" * depth + "x"
    if shape == "powers":
        return "x" + "^1" * depth
    return "+".join(["x"] * (depth + 1))  # a chain of depth operators


class TestNestingLimit:
    SHAPES = ["parens", "calls", "minus", "powers", "chain"]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_deepest_accepted_nesting_runs(self, capsys, shape):
        code, out, err = run(
            capsys, "bounds", "--n", "2", "--a", "1", "--b", "2",
            f"--fn={_nested(shape, MAX_NESTING)}", "--format", "json",
        )
        assert code == 0, err
        assert math.isfinite(json.loads(out)["error"])

    @pytest.mark.parametrize("shape", SHAPES)
    def test_one_level_deeper_exits_1(self, capsys, shape):
        code, _, err = run(
            capsys, "bounds", "--n", "2", "--a", "1", "--b", "2",
            f"--fn={_nested(shape, MAX_NESTING + 1)}",
        )
        assert code == 1
        assert f"nests deeper than {MAX_NESTING} levels (at position" in err


class TestSizeLimits:
    """Literals and folded constants too large for exact arithmetic fail with a reason."""

    @pytest.mark.parametrize("fn,subexpr", [
        ("x^((7^100000)^30)", "((7 ^ 100000) ^ 30)"),
        ("x^((7^100000)^1000000)", "((7 ^ 100000) ^ 1000000)"),
        ("(7^100000)^30*x", "((7 ^ 100000) ^ 30)"),
        ("(10^400000)^0*x", "(10 ^ 400000)"),
    ])
    def test_wide_constant_exits_2(self, capsys, fn, subexpr):
        code, _, err = run(capsys, "integrate", "--n", "2", "--a", "1", "--b", "2", "--fn", fn)
        assert code == 2
        assert err.strip() == (
            f"hermquad: numerical failure: exact constant wider than {MAX_CONSTANT_BITS} bits"
            f" in '{subexpr}'"
        )

    def test_huge_integer_exponent_exits_2(self, capsys):
        code, _, err = run(capsys, "integrate", "--n", "2", "--a", "1", "--b", "2", "--fn", "x^(10^5000)")
        assert code == 2
        assert err.strip() == (
            "hermquad: numerical failure: integer exponent exceeds 1048576 in magnitude"
            " in '(x ^ (10 ^ 5000))'"
        )

    def test_huge_fractional_literal_is_named_in_the_message(self, capsys):
        fn = "x^(" + "9" * 400 + ".5*2)"
        code, _, err = run(capsys, "integrate", "--n", "2", "--a", "1", "--b", "2", "--fn", fn)
        assert code == 2
        assert err.strip() == (
            "hermquad: numerical failure: integer exponent exceeds 1048576 in magnitude"
            f" in '(x ^ (({2 * 10 ** 400 - 1} / 2) * 2))'"
        )

    @pytest.mark.parametrize("fn,position", [
        ("1e10000000*x", 0),
        ("x+" + "1" * 5000, 2),
        ("x*1e" + "9" * 5000, 2),
    ])
    def test_long_literal_exits_1_with_position(self, capsys, fn, position):
        code, _, err = run(capsys, "integrate", "--n", "2", "--a", "1", "--b", "2", "--fn", fn)
        assert code == 1
        assert err.strip() == (
            f"hermquad: error: number literal exceeds {MAX_LITERAL_DIGITS} digits"
            f" (at position {position})"
        )

    def test_literals_within_the_limit_keep_their_behaviour(self, capsys):
        code, _, err = run(capsys, "integrate", "--n", "2", "--a", "1", "--b", "2", "--fn", "1e4000*x")
        assert code == 2 and "numerical failure" in err
        code, out, _ = run(capsys, "integrate", "--n", "2", "--a", "1", "--b", "2",
                           "--fn", "x^(1e4000/1e3999)", "--format", "json")
        assert code == 0
        assert json.loads(out)["reference"] == pytest.approx(2047 / 11, rel=1e-12)

    @pytest.mark.parametrize("fn,subexpr", [
        ("1e4000*x", str(10 ** 4000)),
        ("x^(1e400/3)", f"({10 ** 400} / 3)"),
    ])
    def test_literal_beyond_the_double_range_is_named(self, capsys, fn, subexpr):
        code, _, err = run(capsys, "integrate", "--n", "2", "--a", "1", "--b", "2", "--fn", fn)
        assert code == 2
        assert err.strip() == (
            f"hermquad: numerical failure: constant beyond the double range in '{subexpr}'"
        )


class TestNonFiniteIntegrand:
    def test_overflow_everywhere_exits_2_at_once(self, capsys):
        # Every reference sample is infinite; this once split panels to the
        # depth limit (about 2^49 of them) instead of ending.
        code, _, err = run(capsys, "integrate", "--n", "2", "--a", "0", "--b", "1", "--fn", "10^400*x")
        assert code == 2
        assert "did not converge" in err

    def test_overflowing_rule_sums_exit_2_at_once(self, capsys, monkeypatch):
        # Samples below 1.8e308 are finite, but the rule sums over them
        # overflow: this once split every panel to the depth limit, and an
        # infinite value then passed the tolerance test.
        results = []

        def spy(*args):
            results.append(reference_integrate(*args))
            return results[-1]

        monkeypatch.setattr(cli, "reference_integrate", spy)
        code, out, err = run(capsys, "integrate", "--n", "2", "--a", "1", "--b", "2",
                             "--fn", "1e308*x")
        assert (code, out) == (2, "")
        assert err == (
            "hermquad: numerical failure: reference integral did not converge"
            " (value=inf, err=inf)\n"
        )
        assert results[0].panels < 1000

    def test_unresolvable_reference_exits_2_within_its_budget(self, capsys):
        # sin(1/x) oscillates faster than any panel near 0: before the panel
        # budget the reference bisection ran for minutes.
        start = time.perf_counter()
        code, out, err = run(capsys, "bounds", "--n", "2", "--a=1/1000000", "--b=1",
                             "--fn", "sin(1/x)")
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (2, "")
        assert err.startswith("hermquad: numerical failure: reference integral did not converge")

    @pytest.mark.parametrize("fn,reason", [
        ("exp(1000*x)", "exp beyond the double range in 'exp((1000 * x))'"),
        ("x^(1000*x)", "exp beyond the double range in '(x ^ (1000 * x))'"),
        ("sin(1e308*x^2)", f"sin of an infinite value in 'sin(({10 ** 308} * (x ^ 2)))'"),
        ("cos(1e308*x^2)", f"cos of an infinite value in 'cos(({10 ** 308} * (x ^ 2)))'"),
    ])
    def test_float_range_failures_exit_2_naming_the_node(self, capsys, fn, reason):
        code, out, err = run(capsys, "integrate", "--n", "2", "--a", "1", "--b", "2", "--fn", fn)
        assert (code, out) == (2, "")
        assert err == f"hermquad: numerical failure: {reason}\n"


class TestUsageErrors:
    def test_missing_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["weights", "--n", "2", "--a", "0"])
        assert exit_info.value.code == 1

    def test_bad_order(self, capsys):
        code, _, err = run(capsys, "weights", "--n", "0", "--a", "0", "--b", "1")
        assert code == 1

    def test_reversed_interval(self, capsys):
        code, _, _ = run(capsys, "integrate", "--n", "2", "--a", "1", "--b", "0", "--fn", "x")
        assert code == 1

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-10"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, monkeypatch, tol):
        # NaN once passed the check and split every panel to the depth limit.
        def no_reference(*args):
            raise AssertionError("the reference integral must not run")

        monkeypatch.setattr(cli, "reference_integrate", no_reference)
        for command in ("integrate", "bounds"):
            code, _, err = run(capsys, command, "--n", "2", "--a", "0", "--b", "1",
                               "--fn", "exp(x)", f"--tol={tol}")
            assert code == 1
            assert err == "hermquad: error: --tol must be finite and positive\n"

    @pytest.mark.parametrize("a,b,reason", [
        ("0", "1e-400", "endpoints must be distinct doubles; both round to 0.0"),
        ("1", "1.00000000000000000001", "endpoints must be distinct doubles; both round to 1.0"),
        ("0", "1e400", "endpoints must lie within the double range"),
        ("-1e400", "0", "endpoints must lie within the double range"),
    ])
    @pytest.mark.parametrize("command", ["integrate", "bounds", "composite"])
    def test_endpoints_must_be_distinct_finite_doubles(self, capsys, command, a, b, reason):
        extra = ["--m", "2"] if command == "composite" else []
        code, out, err = run(capsys, command, "--n", "3", f"--a={a}", f"--b={b}",
                             "--fn", "x", *extra)
        assert (code, out) == (1, "")
        assert err == f"hermquad: error: {reason}\n"

    def test_bad_rational(self, capsys):
        code, _, err = run(capsys, "weights", "--n", "2", "--a", "zero", "--b", "1")
        assert code == 1
        assert "rational" in err

    def test_bad_rational_message(self, capsys):
        code, out, err = run(capsys, "weights", "--n", "2", "--a=1/0", "--b", "1")
        assert (code, out) == (1, "")
        assert err == "hermquad: error: invalid rational literal '1/0'\n"


CONTRACT = json.loads((Path(__file__).parent / "data" / "cli_contract.json").read_text())


def _refined_fields(argv):
    """Fields that --bound-order 3 may change, and fields it may add.

    It now runs the refinement pass that every other bound runs: the bounds
    come from the doubled sampling grid, and the document gains
    ``bound_stable``.
    """
    if "--bound-order" in argv and argv[argv.index("--bound-order") + 1] == "3":
        return {"bound_uniform", "bound_l2"}, {"bound_stable"}
    return set(), set()


@pytest.mark.parametrize("case", CONTRACT, ids=lambda case: " ".join(case["argv"]))
def test_output_contract(capsys, case):
    """JSON and CSV output of integrate, bounds and composite, and the demo
    text, match the output recorded before the single-record refactor."""
    argv = case["argv"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    changed, added = _refined_fields(argv)
    if argv[-1] == "json":
        want = json.loads(case["stdout"])
        got = json.loads(out)
        docs = [(want, got)]
        if "rows" in want:
            assert want["fn"] == got["fn"] and len(want["rows"]) == len(got["rows"])
            docs = list(zip(want["rows"], got["rows"]))
        for want_doc, got_doc in docs:
            assert set(got_doc) == set(want_doc) | added
            for key, value in want_doc.items():
                if key in changed:
                    continue
                if isinstance(value, float):
                    assert got_doc[key] == pytest.approx(value, rel=1e-12), key
                else:
                    assert got_doc[key] == value, key
    elif argv[-1] == "csv" and changed:
        want_rows = list(csv.DictReader(case["stdout"].splitlines()))
        got_rows = list(csv.DictReader(out.splitlines()))
        assert out.splitlines()[0] == case["stdout"].splitlines()[0]
        for want_row, got_row in zip(want_rows, got_rows, strict=True):
            assert {k: v for k, v in got_row.items() if k not in changed} == {
                k: v for k, v in want_row.items() if k not in changed
            }
    else:
        assert out == case["stdout"]
