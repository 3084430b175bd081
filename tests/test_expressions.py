import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermquad import expressions
from hermquad.expressions import (
    BinOp,
    Call,
    EvalDomainError,
    MAX_CONSTANT_BITS,
    MAX_JET_ORDER,
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    Num,
    ParseError,
    Var,
    derivative_function,
    evaluator,
    jet_eval,
    jet_provider,
    parse,
)
from hermquad.quadrature import integrate_single

CORPUS = ("exp(x)", "sin(x)", "x^2*sin(x)", "1/(1+x^2)")


def central_difference(f, x, k, h):
    if k == 0:
        return f(x)
    if k == 1:
        return (f(x + h) - f(x - h)) / (2 * h)
    if k == 2:
        return (f(x + h) - 2 * f(x) + f(x - h)) / h ** 2
    if k == 3:
        return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (2 * h ** 3)
    if k == 4:
        return (
            f(x + 2 * h) - 4 * f(x + h) + 6 * f(x) - 4 * f(x - h) + f(x - 2 * h)
        ) / h ** 4
    raise ValueError(k)


def richardson(f, x, k, h):
    coarse = central_difference(f, x, k, h)
    fine = central_difference(f, x, k, h / 2)
    return (4 * fine - coarse) / 3


class TestParse:
    def test_structure(self):
        e = parse("x^2*sin(x)")
        assert isinstance(e, BinOp) and e.op == "*"
        assert isinstance(e.left, BinOp) and e.left.op == "^"
        assert isinstance(e.right, Call) and e.right.name == "sin"

    def test_division_structure(self):
        e = parse("1/(1+x^2)")
        assert isinstance(e, BinOp) and e.op == "/"
        assert isinstance(e.left, Num)

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("2*+x")
        assert err.value.position == 2

    def test_error_hints(self):
        with pytest.raises(ParseError, match="expected '\\)'"):
            parse("sin(x")
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("tan(x)")
        with pytest.raises(ParseError, match="unexpected character"):
            parse("x @ 2")
        with pytest.raises(ParseError, match="trailing"):
            parse("x 2")

    def test_unparse_of_literals(self):
        assert parse("2.5*x").unparse() == "(2.5 * x)"
        assert parse("1e300*x").unparse() == "(1" + "0" * 300 + " * x)"
        assert parse("1.5e-300").unparse() == "1.5e-300"
        # Beyond the double range a non-integer literal is written exactly.
        huge = parse("9" * 400 + ".5")
        assert huge.unparse() == f"({2 * 10 ** 400 - 1} / 2)"
        assert parse(huge.unparse()).compiled.exact == huge.compiled.exact

    def test_whitespace_insensitive(self):
        assert parse(" x ^ 2 + 1 ") == parse("x^2+1")

    def test_precedence(self):
        # ^ binds tighter than unary minus; * tighter than +.
        assert evaluator(parse("-x^2"))(3.0) == -9.0
        assert evaluator(parse("2+3*4"))(0.0) == 14.0
        assert evaluator(parse("2^-2"))(0.0) == 0.25
        # right-associative power: 2^(3^2) = 512
        assert evaluator(parse("2^3^2"))(0.0) == 512.0

    @pytest.mark.parametrize("text,position", [
        ("(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1), MAX_NESTING + 1),
        ("-" * (MAX_NESTING + 1) + "x", MAX_NESTING + 1),
        ("*".join(["x"] * (MAX_NESTING + 2)), 2 * MAX_NESTING + 1),
    ])
    def test_nesting_limit_position(self, text, position):
        with pytest.raises(ParseError, match="nests deeper") as err:
            parse(text)
        assert err.value.position == position

    @pytest.mark.parametrize("text", ["(" * 5000 + "x" + ")" * 5000, "sin(" * 5000 + "x", "-" * 5000 + "x"])
    def test_far_too_deep_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="nests deeper"):
            parse(text)

    def test_height(self):
        assert parse("x").height == 1
        assert parse("((x))").height == 1
        assert parse("x+x+x").height == 3
        assert parse("-sin(x)^2").height == 4

    @pytest.mark.parametrize("text", [
        "1" * MAX_LITERAL_DIGITS, f"1e{MAX_LITERAL_DIGITS - 1}", f"1e-{MAX_LITERAL_DIGITS - 1}",
        f"0.5e-{MAX_LITERAL_DIGITS - 2}", "1e0000004299", "1E+4299",
    ])
    def test_literal_at_the_limit(self, text):
        node = parse(text)
        assert isinstance(node, Num) and node.value == Fraction(text)

    @pytest.mark.parametrize("text,position", [
        ("1" * (MAX_LITERAL_DIGITS + 1), 0),
        (f"x+1e{MAX_LITERAL_DIGITS}", 2),
        (f"x*1e-{MAX_LITERAL_DIGITS}", 2),
        (f"(0.5e-{MAX_LITERAL_DIGITS - 1})", 1),
        ("2^1e" + "9" * 5000, 2),
    ])
    def test_literal_beyond_the_limit(self, text, position):
        with pytest.raises(ParseError, match=f"number literal exceeds {MAX_LITERAL_DIGITS} digits") as err:
            parse(text)
        assert err.value.position == position

    def test_decimal_literals_exact(self):
        node = parse("0.1")
        assert isinstance(node, Num)
        assert node.value == Fraction(1, 10)


class TestJetEval:
    def test_exp_series_at_zero(self):
        jet = jet_eval(parse("exp(x)"), 0.0, 4)
        for k, t in enumerate(jet.coeffs):
            assert t == pytest.approx(1.0 / math.factorial(k), rel=1e-15)

    def test_x2_sinx_at_pi(self):
        jet = jet_eval(parse("x^2*sin(x)"), math.pi, 1)
        assert jet.derivative(0) == pytest.approx(0.0, abs=1e-12)
        assert jet.derivative(1) == pytest.approx(-math.pi ** 2, abs=1e-12)

    def test_cubic_feeds_order2_rule_exactly(self):
        value = integrate_single(jet_provider(parse("x^3")), 2, 0, 1)
        assert float(value) == 0.25

    def test_pi_constant(self):
        jet = jet_eval(parse("sin(pi/2)"), 0.3, 2)
        assert jet.coeffs == (1.0, 0.0, 0.0)

    def test_sqrt_and_log(self):
        jet = jet_eval(parse("sqrt(x)"), 4.0, 2)
        assert jet.derivative(0) == pytest.approx(2.0)
        assert jet.derivative(1) == pytest.approx(0.25)
        assert jet.derivative(2) == pytest.approx(-1.0 / 32.0)
        jet = jet_eval(parse("log(x)"), 2.0, 3)
        assert jet.derivative(1) == pytest.approx(0.5)
        assert jet.derivative(3) == pytest.approx(2.0 / 8.0)

    def test_non_integer_power(self):
        jet = jet_eval(parse("x^(3/2)"), 4.0, 1)
        assert jet.derivative(0) == pytest.approx(8.0)
        assert jet.derivative(1) == pytest.approx(3.0)

    def test_non_constant_exponent(self):
        jet = jet_eval(parse("x^x"), 2.0, 1)
        assert jet.derivative(0) == pytest.approx(4.0)
        assert jet.derivative(1) == pytest.approx(4.0 * (math.log(2.0) + 1.0))

    def test_domain_errors_name_the_subexpression(self):
        with pytest.raises(EvalDomainError, match="log"):
            jet_eval(parse("log(x)"), -1.0, 2)
        with pytest.raises(EvalDomainError, match="sqrt"):
            jet_eval(parse("sqrt(x-2)"), 1.0, 2)
        with pytest.raises(EvalDomainError, match="division by zero"):
            jet_eval(parse("1/x"), 0.0, 2)
        with pytest.raises(EvalDomainError):
            jet_eval(parse("x^(1/2)"), -1.0, 1)

    @pytest.mark.parametrize("text,x0,message", [
        ("exp(1000*x)", 2.0, "exp beyond the double range in 'exp((1000 * x))'"),
        ("x^(1000*x)", 2.0, "exp beyond the double range in '(x ^ (1000 * x))'"),
        ("sin(2*x)", 1e308, "sin of an infinite value in 'sin((2 * x))'"),
        ("cos(2*x)", 1e308, "cos of an infinite value in 'cos((2 * x))'"),
    ])
    def test_float_range_failures_name_the_node(self, text, x0, message):
        with pytest.raises(EvalDomainError) as err:
            jet_eval(parse(text), x0, 3)
        assert str(err.value) == message

    def test_nan_argument_of_sin_passes_through(self):
        # inf - inf is nan; like log, sqrt and exp, sin does not reject it.
        assert math.isnan(jet_eval(parse("sin(2*x - 2*x)"), 1e308, 0).value)

    def test_order_cap(self):
        jet_eval(parse("x"), 0.0, MAX_JET_ORDER)
        with pytest.raises(ValueError):
            jet_eval(parse("x"), 0.0, MAX_JET_ORDER + 1)
        with pytest.raises(ValueError):
            jet_eval(parse("x"), 0.0, -1)


class TestConstantFolding:
    @pytest.mark.parametrize("text,value", [
        ("3/2", Fraction(3, 2)),
        ("0.1+0.2", Fraction(3, 10)),
        ("0.5*4", Fraction(2)),
        ("2^-1", Fraction(1, 2)),
        ("-(2/3)^3", Fraction(-8, 27)),
    ])
    def test_exact_rationals_fold(self, text, value):
        folded = parse(text).compiled.exact
        assert type(folded) is Fraction and folded == value

    @pytest.mark.parametrize("text", [
        "x", "pi", "sin(1)", "2^0.5", "(-8)^(1/3)", "1/0", "0^-1", "2^(2^30)", "x-x",
    ])
    def test_everything_else_is_left_to_the_jets(self, text):
        assert parse(text).compiled.exact is None

    def test_wide_power_is_not_built(self):
        assert parse("7^100000").compiled.exact == Fraction(7) ** 100000
        assert parse("(7^100000)^30").compiled.exact is None
        assert parse("2^(2^20)").compiled.exact is None
        assert parse("(-1)^(2^20)").compiled.exact == 1
        assert parse("0^(2^20)").compiled.exact == 0

    def test_wide_chain_is_not_built(self):
        # 7^300000 has 842207 bits: one fits the budget, two operands of it do not.
        big = "(7^300000)"
        assert parse(f"{big}+3").compiled.exact == Fraction(7) ** 300000 + 3
        for op in "+-*/":
            assert parse(f"{big}{op}{big}").compiled.exact is None

    @pytest.mark.parametrize("text,subexpr", [
        ("(7^100000)^30*x", "((7 ^ 100000) ^ 30)"),
        ("x^((7^100000)^30)", "((7 ^ 100000) ^ 30)"),
        ("(10^400000)^0*x", "(10 ^ 400000)"),
        ("sin((7^300000)/(5^300000))", "((7 ^ 300000) / (5 ^ 300000))"),
    ])
    @pytest.mark.parametrize("m", [0, 3])
    def test_wide_constant_is_a_domain_error(self, text, subexpr, m):
        with pytest.raises(EvalDomainError) as err:
            jet_eval(parse(text), 1.5, m)
        assert str(err.value) == f"exact constant wider than {MAX_CONSTANT_BITS} bits in '{subexpr}'"

    def test_errors_of_the_node_itself_come_first(self):
        # 2^(10^400) is too wide, but its exponent is already too large for the jets.
        with pytest.raises(EvalDomainError, match=r"^integer exponent exceeds 1048576 in magnitude in '\(2 \^"):
            jet_eval(parse("2^(10^400)+x"), 1.5, 2)
        # log(-x) in the base is met before the wide exponent.
        with pytest.raises(EvalDomainError, match="^log of a non-positive value"):
            jet_eval(parse("log(-x)^((7^100000)^30)"), 1.5, 2)

    def test_integer_exponent_message_has_no_digits(self):
        with pytest.raises(EvalDomainError) as err:
            jet_eval(parse("x^(10^5000)"), 1.5, 2)
        assert str(err.value) == "integer exponent exceeds 1048576 in magnitude in '(x ^ (10 ^ 5000))'"


class TestCompileOnce:
    def test_repeated_evaluation_reuses_one_compiled_form(self, monkeypatch):
        roots = []
        compile_ = expressions._compile

        def counting(node):
            if node is expr:
                roots.append(node)
            return compile_(node)

        monkeypatch.setattr(expressions, "_compile", counting)
        expr = parse("exp(x)*sin(2*x)+x^(3/2)")
        compiled = expr.compiled
        f = evaluator(expr)
        jets = jet_provider(expr)
        d2 = derivative_function(expr, 2)
        for x in (0.5, 0.75, 1.25):
            jet_eval(expr, x, 4)
            f(x)
            jets(x, 3)
            d2(x)
        assert len(roots) == 1
        assert expr.compiled is compiled


class TestFiniteDifferenceCrossCheck:
    @pytest.mark.parametrize("text,x0", [
        ("exp(x)", 0.7),
        ("sin(x)", 1.0),
        ("x^2*sin(x)", 1.0),
        ("1/(1+x^2)", 0.5),
    ])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_jets_match_richardson_fd(self, text, x0, k):
        expr = parse(text)
        jet_value = jet_eval(expr, x0, k).derivative(k)
        fd_value = richardson(evaluator(expr), x0, k, 1e-2)
        assert jet_value == pytest.approx(fd_value, rel=1e-5)


class TestCompositionConsistency:
    PAIRS = [
        ("exp(x)", "sin(x)"),
        ("x^2*sin(x)", "1/(1+x^2)"),
        ("sqrt(1+x^2)", "cos(x)"),
    ]

    @settings(max_examples=30)
    @given(
        st.sampled_from(PAIRS),
        st.floats(min_value=-1.5, max_value=1.5),
        st.integers(min_value=0, max_value=6),
    )
    def test_sum_and_product_jets(self, pair, x0, m):
        f = parse(pair[0])
        g = parse(pair[1])
        jf = jet_eval(f, x0, m).coeffs
        jg = jet_eval(g, x0, m).coeffs
        jsum = jet_eval(BinOp("+", f, g), x0, m).coeffs
        jprod = jet_eval(BinOp("*", f, g), x0, m).coeffs
        for k in range(m + 1):
            assert jsum[k] == pytest.approx(jf[k] + jg[k], rel=1e-12, abs=1e-12)
            cauchy = sum(jf[j] * jg[k - j] for j in range(k + 1))
            assert jprod[k] == pytest.approx(cauchy, rel=1e-12, abs=1e-12)
