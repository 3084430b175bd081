"""Degree-priced jet rules and the batch order-0 form, bit for bit.

``dense_jet`` below evaluates an expression with the dense rules the
compiled jets had before they were priced by degree: every product is the
full Cauchy sum and every recurrence runs over all of its terms.  Compiled
jets must equal it entry by entry through ``float.hex``, signed zeros and
inf/nan entries included, and raise the same errors.  ``evaluator(e).many``
must give, point by point, what the order-0 jet gives, and raise the error
that the first failing point raises.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hermquad import cli, expressions
from hermquad.expressions import (
    FUNCTIONS, BinOp, Call, EvalDomainError, Neg, Num, Pi, Var, derivative_function, evaluator,
    jet_eval, jet_provider, parse,
)
from hermquad.oracle import reference_integrate

from test_jet_contract import EXPRESSIONS, SHAPES, SHAPE_POINTS

# -- the dense rules -----------------------------------------------------


def dense_mul(u, v):
    out = []
    for k in range(len(u)):
        acc = 0.0  # left to right: sum() of floats is compensated from Python 3.12
        for j in range(k + 1):
            acc += u[j] * v[k - j]
        out.append(acc)
    return out


def dense_div(u, v, node):
    if v[0] == 0.0:
        raise EvalDomainError("division by zero", node)
    out = [0.0] * len(u)
    out[0] = u[0] / v[0]
    for k in range(1, len(u)):
        acc = u[k]
        for j in range(k):
            acc -= out[j] * v[k - j]
        out[k] = acc / v[0]
    return out


def dense_exp(u, node):
    out = [0.0] * len(u)
    try:
        out[0] = math.exp(u[0])
    except OverflowError:
        raise EvalDomainError("exp beyond the double range", node) from None
    for k in range(1, len(u)):
        acc = 0.0
        for j in range(1, k + 1):
            acc += j * u[j] * out[k - j]
        out[k] = acc / k
    return out


def dense_log(u, node):
    if u[0] <= 0.0:
        raise EvalDomainError("log of a non-positive value", node)
    out = [0.0] * len(u)
    out[0] = math.log(u[0])
    for k in range(1, len(u)):
        acc = 0.0
        for j in range(1, k):
            acc += j * out[j] * u[k - j]
        out[k] = (u[k] - acc / k) / u[0]
    return out


def dense_sqrt(u, node):
    if u[0] <= 0.0:
        raise EvalDomainError("sqrt of a non-positive value", node)
    out = [0.0] * len(u)
    out[0] = math.sqrt(u[0])
    for k in range(1, len(u)):
        acc = u[k]
        for j in range(1, k):
            acc -= out[j] * out[k - j]
        out[k] = acc / (2.0 * out[0])
    return out


def dense_sin_cos(u, node):
    if math.isinf(u[0]):
        raise EvalDomainError(f"{node.name} of an infinite value", node)
    s, c = [0.0] * len(u), [0.0] * len(u)
    s[0], c[0] = math.sin(u[0]), math.cos(u[0])
    for k in range(1, len(u)):
        sa = ca = 0.0
        for j in range(1, k + 1):
            sa += j * u[j] * c[k - j]
            ca += j * u[j] * s[k - j]
        s[k], c[k] = sa / k, -ca / k
    return s, c


def dense_powi(u, exponent, node):
    limit = 1 << 20
    if abs(exponent) > limit:
        raise EvalDomainError(f"integer exponent exceeds {limit} in magnitude", node)
    one = [1.0] + [0.0] * (len(u) - 1)
    if exponent == 0:
        return one
    e, result, base = abs(exponent), one, list(u)
    while e:
        if e & 1:
            result = dense_mul(result, base)
        e >>= 1
        if e:
            base = dense_mul(base, base)
    return dense_div(one, result, node) if exponent < 0 else result


DENSE_CALLS = {
    "sin": lambda u, node: dense_sin_cos(u, node)[0],
    "cos": lambda u, node: dense_sin_cos(u, node)[1],
    "exp": dense_exp,
    "log": dense_log,
    "sqrt": dense_sqrt,
}

DENSE_BINARY = {
    "+": lambda u, v, node: [p + q for p, q in zip(u, v)],
    "-": lambda u, v, node: [p - q for p, q in zip(u, v)],
    "*": lambda u, v, node: dense_mul(u, v),
    "/": dense_div,
}


def exact(node):
    """The folded exact value of a subtree (None if it has none)."""
    match node:
        case Num(value):
            return value
        case Neg(arg):
            value = exact(arg)
            return None if value is None else -value
        case BinOp(op, left, right):
            value = expressions._fold(op, exact(left), exact(right))
            return None if value is expressions._TOO_WIDE else value
    return None


def double(node, value):
    try:
        return float(value)
    except OverflowError:
        raise EvalDomainError("constant beyond the double range", node) from None


def dense_jet(node, x0, m):
    """Taylor coefficients by the dense rules, operands left to right."""
    match node:
        case Num(value):
            return [double(node, value)] + [0.0] * m
        case Pi():
            return [math.pi] + [0.0] * m
        case Var():
            return ([x0, 1.0] + [0.0] * m)[:m + 1]
        case Neg(arg):
            return [-t for t in dense_jet(arg, x0, m)]
        case Call(name, arg):
            return DENSE_CALLS[name](dense_jet(arg, x0, m), node)
        case BinOp(op, left, right):
            if op == "^":
                jet = dense_power(node, x0, m)
            else:
                jet = DENSE_BINARY[op](dense_jet(left, x0, m), dense_jet(right, x0, m), node)
            if expressions._fold(op, exact(left), exact(right)) is expressions._TOO_WIDE:
                bits = expressions.MAX_CONSTANT_BITS
                raise EvalDomainError(f"exact constant wider than {bits} bits", node)
            return jet


def dense_power(node, x0, m):
    value = exact(node.right)
    if value is not None and value.denominator == 1:
        return dense_powi(dense_jet(node.left, x0, m), value.numerator, node)
    b = dense_jet(node.left, x0, m)
    e = dense_jet(node.right, x0, m) if value is None else None
    if b[0] <= 0.0:
        raise EvalDomainError("non-integer power of a non-positive base", node)
    log_b = dense_log(b, node)
    if value is None:
        return dense_exp(dense_mul(e, log_b), node)
    scale = double(node.right, value)
    return dense_exp([scale * t for t in log_b], node)


def outcome(evaluate):
    """Hex entries of a jet, or the type and message of the error it raised."""
    try:
        return [t.hex() for t in evaluate()]
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


# -- random trees over the integrand grammar ----------------------------

LEAVES = st.sampled_from([
    "x", "pi", "0", "1", "2", "0.5", "3.25", "-0", "(x-x)", "cos(pi)",
    "1e308*10", "(1e308*10-1e308*10)", "1e400",
])
EXPONENTS = st.sampled_from(["0", "1", "2", "3", "5", "-1", "-2", "0.5", "(3/2)", "x", "pi", "(2^20)"])


def _extend(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
        st.tuples(children, EXPONENTS).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(st.sampled_from(FUNCTIONS), children).map(lambda t: f"{t[0]}({t[1]})"),
        children.map(lambda text: f"-{text}"),
    )


TREES = st.recursive(LEAVES, _extend, max_leaves=8)
POINTS = st.sampled_from([0.0, -0.0, 0.7, -0.4, 1.3, 3.0, 1e200, -1e200, 5e-324,
                          math.inf, -math.inf, math.nan])

# Zero entries whose sign a -0.0 product term or a constant's -0.0 tail
# decides, and operands with inf or nan entries, where a skipped 0 * inf
# would be nan.
SIGNED_ZERO_CASES = [("cos(pi)*x^2", 0.7, 12), ("-1+-x", 0.7, 3), ("-2*(x-x)", 0.7, 3),
                     ("(x-x)*-2", 0.0, 3), ("-1/(1+x^2)", 0.0, 3)]
NON_FINITE_CASES = [("x^(2^20)", 1.3, 3), ("x^(1e400/1e399)", 1e200, 12),
                    ("(1e308*10-1e308*10)*x^2", 0.7, 3), ("x^2*exp(1e308*10*x)", 0.7, 3),
                    ("exp(x)*x^2", math.inf, 3), ("sin(1e200*x)", 0.7, 12),
                    ("cos(1e200*x)", 0.7, 12), ("exp(1e30*x)", 0.0, 12), ("log(1+1e200*x)", 1e-200, 12)]


class TestDegreePricedJets:
    @settings(max_examples=400, deadline=None)
    @given(TREES, POINTS, st.integers(0, 12))
    @example(*SIGNED_ZERO_CASES[0])
    @example(*SIGNED_ZERO_CASES[1])
    @example(*NON_FINITE_CASES[0])
    @example(*NON_FINITE_CASES[1])
    def test_compiled_jets_equal_the_dense_rules(self, text, x0, m):
        expr = parse(text)
        want = outcome(lambda: dense_jet(expr, x0, m))
        assert outcome(lambda: jet_eval(expr, x0, m).coeffs) == want

    @pytest.mark.parametrize("text, x0, m", SIGNED_ZERO_CASES + NON_FINITE_CASES)
    def test_edge_cases_equal_the_dense_rules(self, text, x0, m):
        expr = parse(text)
        assert outcome(lambda: jet_eval(expr, x0, m).coeffs) == outcome(lambda: dense_jet(expr, x0, m))

    def test_edge_cases_hold_what_they_are_named_for(self):
        for text, x0, m in SIGNED_ZERO_CASES:
            got = outcome(lambda: dense_jet(parse(text), x0, m))
            assert "0x0.0p+0" in got or "-0x0.0p+0" in got, text
        for text, x0, m in NON_FINITE_CASES:
            got = outcome(lambda: dense_jet(parse(text), x0, m))
            assert any(h in ("inf", "-inf", "nan") for h in got), text

    def test_polynomial_products_skip_the_dense_sum_while_finite(self, monkeypatch):
        bands = []
        band = expressions._band

        def spy(u, v, du, dv):
            bands.append((du, dv, len(u) - 1))
            return band(u, v, du, dv)

        monkeypatch.setattr(expressions, "_band", spy)
        expr = parse("3*x^2*(x+1)^3 - x*2")
        jet_eval(expr, 0.7, 12)
        assert bands and all(du < top or dv < top for du, dv, top in bands)
        bands.clear()
        jet_eval(expr, 1e200, 12)  # x^2 overflows: the products after it sum the full band
        assert (12, 12, 12) in bands


# -- the batch form ------------------------------------------------------


def pointwise(expr, xs):
    """Order-0 jet values one point at a time, or the first point's error."""
    try:
        return [jet_eval(expr, x, 0).value.hex() for x in xs]
    except EvalDomainError as exc:
        return "EvalDomainError", str(exc)


def batch(expr, xs):
    try:
        return [v.hex() for v in evaluator(expr).many(xs)]
    except EvalDomainError as exc:
        return "EvalDomainError", str(exc)


class TestBatchForm:
    @pytest.mark.parametrize("text", sorted(set(EXPRESSIONS + SHAPES)))
    def test_many_equals_the_order_0_jets_on_the_contract(self, text):
        expr = parse(text)
        xs = list(SHAPE_POINTS) + [-0.0, 2.5]
        for points in (xs, xs[::-1], xs[:1], []):
            assert batch(expr, points) == pointwise(expr, points)

    @pytest.mark.parametrize("text, x", [
        ("sqrt(x)", 0.0), ("sqrt(x)", -0.0), ("sqrt(x)", -1.0), ("log(x)", 0.0), ("log(x)", -2.0),
        ("1/x", 0.0), ("1/x", -0.0), ("x^-1", 0.0), ("x^0.5", 0.0), ("x^x", -1.0), ("exp(x)", 1000.0),
        ("sin(x)", math.inf), ("cos(x)", -math.inf), ("2*x^(2^21)", 0.5), ("1e400*x", 0.5),
    ])
    def test_each_batch_check_fails_where_the_jet_rule_does(self, text, x):
        expr = parse(text)
        want = pointwise(expr, [x])
        assert want[0] == "EvalDomainError"
        assert outcome(lambda: jet_eval(expr, x, 3).coeffs) == want
        assert batch(expr, [1.5, x, 2.5]) == want
        assert batch(expr, [1.5, 2.5]) == pointwise(expr, [1.5, 2.5])

    @settings(max_examples=300, deadline=None)
    @given(TREES, st.lists(POINTS, max_size=6))
    def test_many_equals_the_order_0_jets_on_random_trees(self, text, xs):
        expr = parse(text)
        assert batch(expr, xs) == pointwise(expr, xs)

    def test_scalar_evaluation_is_one_batch_of_one(self):
        f = evaluator(parse("sin(1/x) + 2"))
        assert f(0.25) == f.many([0.25])[0] == jet_eval(parse("sin(1/x) + 2"), 0.25, 0).value
        assert evaluator(parse("pi*2")).many([0.0, 1.0, 2.0]) == [2 * math.pi] * 3

    def test_domain_error_names_the_first_failing_point(self, capsys):
        # The second term fails at the first sample (the center, 0.5); the
        # first term fails at the outermost Kronrod node of [0, 1].
        code = cli.main(["integrate", "--n", "2", "--a", "0", "--b", "1",
                         "--fn", "1/(x-0.004272314439593694) + 1/(x-0.5)"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "hermquad: numerical failure: division by zero in '(1 / (x - 0.5))'\n"

    def test_cli_reference_samples_each_panel_in_one_batch(self, monkeypatch, capsys):
        scalar_calls, batch_sizes, results = [], [], []
        make_evaluator, reference_integrate = cli.evaluator, cli.reference_integrate

        def counting_evaluator(expr):
            f = make_evaluator(expr)

            def value(x):
                scalar_calls.append(x)
                return f(x)

            def many(xs):
                batch_sizes.append(len(xs))
                return f.many(xs)

            value.many = many
            return value

        def recording_reference(*args):
            results.append(reference_integrate(*args))
            return results[-1]

        monkeypatch.setattr(cli, "evaluator", counting_evaluator)
        monkeypatch.setattr(cli, "reference_integrate", recording_reference)
        code = cli.main(["integrate", "--n", "3", "--a", "0", "--b", "2", "--fn", "sqrt(x+0.01)"])
        capsys.readouterr()
        assert code == 0
        (result,) = results
        assert result.panels > 1
        # The first panel samples its 15 points, and each split both halves' 30.
        assert batch_sizes == [15] + [30] * ((result.panels - 1) // 2)
        assert scalar_calls == []

    @pytest.mark.parametrize("text", ["sqrt(x)", "sin(1/x)", "exp(-100*(x-0.3)^2) + x^3"])
    def test_scalar_callables_give_the_same_reference(self, text):
        # A wrapper without ``many``, such as a traced evaluator, is sampled
        # one point at a time, in the order of the batch.
        f = evaluator(parse(text))
        points = []

        def wrapped(x):
            points.append(x)
            return f(x)

        got = reference_integrate(wrapped, 1e-3, 1.0)
        assert got == reference_integrate(f, 1e-3, 1.0)
        assert len(points) == 15 * got.panels


# -- batches of jets -----------------------------------------------------


def jets_one_at_a_time(expr, xs, m):
    """Each point's derivatives as hex, or the first failing point's error."""
    try:
        return [[t.hex() for t in jet_eval(expr, x, m).derivatives()] for x in xs]
    except EvalDomainError as exc:
        return "EvalDomainError", str(exc)


def jets_in_one_batch(expr, xs, m):
    try:
        return [[t.hex() for t in jet] for jet in jet_provider(expr).many(xs, m)]
    except EvalDomainError as exc:
        return "EvalDomainError", str(exc)


class TestBatchJets:
    # Orders run past the batch order, where each point gets its own jet.
    @settings(max_examples=200, deadline=None)
    @given(TREES, st.lists(POINTS | st.floats(), min_size=1, max_size=40), st.integers(0, 30))
    def test_a_batch_equals_its_points_jets(self, text, xs, m):
        expr = parse(text)
        assert jets_in_one_batch(expr, xs, m) == jets_one_at_a_time(expr, xs, m)

    # Orders run past the batch order here too.
    @settings(max_examples=200, deadline=None)
    @given(TREES, st.lists(POINTS | st.floats(), min_size=1, max_size=40), st.integers(0, 30))
    def test_a_derivative_batch_equals_its_scalar_calls(self, text, xs, k):
        f = derivative_function(parse(text), k)
        assert outcome(lambda: f.many(xs)) == outcome(lambda: [f(x) for x in xs])

    def test_a_failing_derivative_batch_raises_the_first_failing_points_error(self):
        f = derivative_function(parse("sqrt(x) + log(x - 1)"), 2)
        want = ("EvalDomainError", "log of a non-positive value in 'log((x - 1))'")
        assert outcome(lambda: f.many([0.5, -1.0])) == outcome(lambda: [f(0.5)]) == want

    @pytest.mark.parametrize("m", [0, 1, 7, expressions._BATCH_ORDER, expressions._BATCH_ORDER + 1])
    def test_one_walk_up_to_the_batch_order(self, monkeypatch, m):
        calls = []
        one_jet = expressions.jet_eval

        def spy(*args):
            calls.append(args)
            return one_jet(*args)

        monkeypatch.setattr(expressions, "jet_eval", spy)
        expr = parse("exp(x)*sin(x) + 1/(2+x^2)")
        xs = [0.5, 1.5, -2.5]
        got = jet_provider(expr).many(xs, m)
        assert len(calls) == (0 if m <= expressions._BATCH_ORDER else 3)
        assert got == [one_jet(expr, x, m).derivatives() for x in xs]
        assert all(type(jet) is tuple for jet in got)

    def test_a_failing_batch_raises_the_first_failing_points_error(self):
        # One walk meets sqrt at -1 first; the first point, 0.5, fails in log.
        expr = parse("sqrt(x) + log(x - 1)")
        want = jets_one_at_a_time(expr, [0.5, -1.0], 3)
        assert want == ("EvalDomainError", "log of a non-positive value in 'log((x - 1))'")
        assert jets_in_one_batch(expr, [0.5, -1.0], 3) == want
        assert jets_in_one_batch(expr, [2.0, 3.0], 3) == jets_one_at_a_time(expr, [2.0, 3.0], 3)

    def test_points_operate_point_by_point(self):
        u, v = expressions._Points([1.0, 2.0]), expressions._Points([4.0, 8.0])
        acc = u
        acc += v
        acc -= 0.5
        acc *= 2
        assert u == [1.0, 2.0]  # in place, a list would extend or repeat
        assert (acc, 1 - u, 3 / v, -u, u / 2) == ([9.0, 19.0], [0.0, -1.0], [0.75, 0.375],
                                                 [-1.0, -2.0], [0.5, 1.0])
        assert all(type(t) is expressions._Points for t in (acc, 1 - u, 3 / v, -u, u * v))
