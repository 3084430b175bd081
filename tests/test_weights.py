import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermquad.exactmath import Polynomial, X, parse_rational
from hermquad.interpolant import build_hermite
from hermquad.weights import HermiteRule, apply_rule, compute_weights, omega_coeffs

from conftest import coeff_lists, intervals, monomial_jets


class TestComputeWeights:
    def test_n1_is_trapezoid(self):
        rule = compute_weights(1, Fraction(1, 3), Fraction(7, 2))
        half = (Fraction(7, 2) - Fraction(1, 3)) / 2
        assert rule.w_a == (half,)
        assert rule.w_b == (half,)

    def test_n2_unit_interval(self):
        rule = compute_weights(2, 0, 1)
        assert rule.w_a == (Fraction(1, 2), Fraction(1, 12))
        assert rule.w_b == (Fraction(1, 2), Fraction(-1, 12))

    def test_n3_against_interpolant_oracle(self):
        # Independent route: integrate the interpolant of each monomial jet
        # basis vector exactly; the coefficient it recovers must be the weight.
        n = 3
        rule = compute_weights(n, 0, 1)
        assert rule.w_a == (Fraction(1, 2), Fraction(1, 10), Fraction(1, 120))
        for side in ("a", "b"):
            for j in range(n):
                jet = [Fraction(0)] * n
                jet[j] = Fraction(1)
                zero = [Fraction(0)] * n
                jets = (jet, zero) if side == "a" else (zero, jet)
                weight = build_hermite(0, 1, *jets).integrate(0, 1)
                expected = rule.w_a[j] if side == "a" else rule.w_b[j]
                assert weight == expected

    def test_rejects_bad_order_and_interval(self):
        with pytest.raises(ValueError):
            compute_weights(0, 0, 1)
        with pytest.raises(ValueError):
            compute_weights(-2, 0, 1)
        with pytest.raises(ValueError):
            compute_weights(2, 1, 1)
        with pytest.raises(ValueError):
            compute_weights(2, 2, 1)

    def test_order_cap_is_64(self):
        assert compute_weights(64, 0, 1).n == 64
        with pytest.raises(ValueError, match=r"^rule order 65 exceeds the cap 64$"):
            compute_weights(65, 0, 1)


class TestOmegaCoeffs:
    def test_small_orders(self):
        assert omega_coeffs(1) == (Fraction(1, 2),)
        assert omega_coeffs(2) == (Fraction(1, 2), Fraction(1, 12))

    @given(st.integers(min_value=1, max_value=10), intervals())
    def test_consistency_with_weights(self, n, interval):
        a, b = interval
        rule = compute_weights(n, a, b)
        omegas = omega_coeffs(n)
        for j in range(n):
            assert rule.w_a[j] == omegas[j] * (b - a) ** (j + 1)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            omega_coeffs(0)

    def test_equals_the_sum_form(self):
        # The n-j term sum omega[j] = n sum_{k=j}^{n-1} C(k,j) (n+k-j-1)! / (n+k+1)!.
        for n in range(1, 65):
            expected = tuple(
                n * sum(
                    Fraction(math.comb(k, j) * math.factorial(n + k - j - 1),
                             math.factorial(n + k + 1))
                    for k in range(j, n)
                )
                for j in range(n)
            )
            assert omega_coeffs(n) == expected


class TestApplyRule:
    def test_quartic_by_hand(self):
        # f = x^4 on [0, 1]: jets (0, 0) and (1, 4); 1/2 - 4/12 = 1/6.
        rule = compute_weights(2, 0, 1)
        assert apply_rule(rule, (0, 0), (1, 4)) == Fraction(1, 6)

    @given(st.integers(min_value=1, max_value=6), intervals())
    def test_constant_gives_interval_length(self, n, interval):
        a, b = interval
        rule = compute_weights(n, a, b)
        c = Fraction(3, 7)
        jets = (c,) + (Fraction(0),) * (n - 1)
        assert apply_rule(rule, jets, jets) == c * (b - a)

    def test_x2_sinx_on_0_pi(self):
        rule = compute_weights(2, 0, Fraction(math.pi))
        value = apply_rule(rule, (0.0, 0.0), (0.0, -math.pi ** 2))
        assert value == pytest.approx(math.pi ** 4 / 12, abs=1e-12)

    def test_rejects_short_jets(self):
        rule = compute_weights(3, 0, 1)
        with pytest.raises(ValueError):
            apply_rule(rule, (1, 0), (1, 0, 0))


class TestExactness:
    @settings(max_examples=60)
    @given(st.integers(min_value=1, max_value=10), coeff_lists, intervals())
    def test_exact_below_degree_2n(self, n, coeffs, interval):
        a, b = interval
        p = Polynomial(coeffs[: 2 * n])  # degree <= 2n - 1
        rule = compute_weights(n, a, b)
        jet_a = tuple(p.derivative(j)(a) for j in range(n))
        jet_b = tuple(p.derivative(j)(b) for j in range(n))
        assert apply_rule(rule, jet_a, jet_b) == p.integrate(a, b)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_first_failure_degree(self, n):
        # Error on x^(2n) over [a, b] is (-1)^n (n!)^2 (b-a)^(2n+1) / (2n+1)!,
        # which also equals the exact integral of (x-a)^n (x-b)^n.
        a, b = Fraction(-1, 3), Fraction(5, 4)
        rule = compute_weights(n, a, b)
        rule_value = apply_rule(
            rule, monomial_jets(2 * n, n, a), monomial_jets(2 * n, n, b)
        )
        error = Polynomial.monomial(2 * n).integrate(a, b) - rule_value
        closed_form = (
            Fraction((-1) ** n * math.factorial(n) ** 2, math.factorial(2 * n + 1))
            * (b - a) ** (2 * n + 1)
        )
        assert error == closed_form
        assert error == ((X - a) ** n * (X - b) ** n).integrate(a, b)

    def test_first_failure_value_n2_unit(self):
        rule = compute_weights(2, 0, 1)
        value = apply_rule(rule, monomial_jets(4, 2, Fraction(0)), monomial_jets(4, 2, Fraction(1)))
        assert Fraction(1, 5) - value == Fraction(1, 30)


class TestJsonRoundTrip:
    @given(st.integers(min_value=1, max_value=8), intervals())
    def test_round_trip(self, n, interval):
        a, b = interval
        rule = compute_weights(n, a, b)
        doc = json.loads(json.dumps(rule.to_json_dict()))
        assert doc["n"] == rule.n == n
        assert (parse_rational(doc["a"]), parse_rational(doc["b"])) == (rule.a, rule.b)
        assert tuple(map(parse_rational, doc["w_a"])) == rule.w_a
        assert tuple(map(parse_rational, doc["w_b"])) == rule.w_b

    def test_rejects_corrupted_weights(self):
        rule = compute_weights(2, 0, 1)
        with pytest.raises(ValueError, match="interval length"):
            HermiteRule(rule.a, rule.b, (Fraction(1, 3),) + rule.w_a[1:])


class TestRuleRecord:
    """A rule holds a, b and w_a; n and w_b are derived from w_a."""

    def test_order_and_endpoint_weights_are_derived(self):
        rule = HermiteRule(Fraction(0), Fraction(1), (Fraction(1, 2), Fraction(1, 12)))
        assert rule.n == 2
        assert rule.w_b == (Fraction(1, 2), Fraction(-1, 12))
        assert rule == compute_weights(2, 0, 1)
        assert rule.w_b is rule.w_b  # built once, on first read

    def test_stored_copies_are_not_accepted(self):
        rule = {"a": Fraction(0), "b": Fraction(1), "w_a": (Fraction(1, 2), Fraction(1, 12))}
        copies = {"n": 2, "w_b": (Fraction(1, 2), Fraction(-1, 12))}
        for extra in ({"n": 2}, {"w_b": copies["w_b"]}, copies):
            with pytest.raises(TypeError):
                HermiteRule(**rule, **extra)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="order"):
            HermiteRule(Fraction(0), Fraction(1), ())
        with pytest.raises(ValueError, match="a < b"):
            HermiteRule(Fraction(1), Fraction(0), (Fraction(-1, 2),))
