import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hermquad.exactmath import (
    Polynomial,
    X,
    format_rational,
    parse_rational,
    rational,
    rational_interval,
)

from conftest import coeff_lists, intervals, rationals


class TestRationalHelpers:
    def test_parse_forms(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-7") == Fraction(-7)
        assert parse_rational("0.25") == Fraction(1, 4)
        assert parse_rational(" 5/10 ") == Fraction(1, 2)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("three halves")
        with pytest.raises(ValueError):
            parse_rational("1/0")

    def test_float_conversion_is_binary_exact(self):
        assert rational(0.5) == Fraction(1, 2)
        assert rational(0.1) == Fraction(0.1)  # the double's exact value, not 1/10
        with pytest.raises(ValueError):
            rational(float("inf"))

    def test_interval(self):
        assert rational_interval("1/3", 0.5) == (Fraction(1, 3), Fraction(1, 2))
        for a, b in (("1", "1"), ("2", "1/2")):
            with pytest.raises(ValueError, match=r"interval must satisfy a < b, got \["):
                rational_interval(a, b)

    def test_format(self):
        assert format_rational(Fraction(3, 4)) == "3/4"
        assert format_rational(Fraction(-8, 2)) == "-4"
        assert format_rational(Fraction(0)) == "0"


class TestPolynomialBasics:
    def test_zero_representation(self):
        zero = Polynomial((0, 0, 0))
        assert zero.coeffs == ()
        assert zero.degree == -1
        assert zero.is_zero()
        assert zero(Fraction(7)) == 0
        assert zero(1.5) == 0.0

    def test_difference_of_squares(self):
        assert (X - 1) * (X + 1) == X ** 2 - 1

    def test_zero_annihilates(self):
        p = Polynomial((1, 2, 3))
        assert p * Polynomial() == Polynomial()

    @pytest.mark.parametrize("exponent,products", [(0, 0), (1, 1), (2, 2), (3, 3), (8, 4), (12, 5)])
    def test_power_squares_only_while_bits_remain(self, monkeypatch, exponent, products):
        p = X - Fraction(1, 3)
        want = Polynomial((1,))
        for _ in range(exponent):
            want = want * p
        calls = []
        multiply = Polynomial.__mul__

        def counted(self, other):
            calls.append(other)
            return multiply(self, other)

        monkeypatch.setattr(Polynomial, "__mul__", counted)
        assert p ** exponent == want
        assert len(calls) == products

    def test_binomial_square_product(self):
        p = X ** 2 * (X - 1) ** 2
        assert p == Polynomial((0, 0, 1, -2, 1))

    def test_product_degree_adds(self):
        p = Polynomial((1, 0, 2))
        q = Polynomial((Fraction(1, 3), 5))
        assert (p * q).degree == p.degree + q.degree

    def test_derivatives(self):
        assert (X ** 2).derivative() == 2 * X
        assert (X ** 4 / 24).derivative(2) == X ** 2 / 2
        assert Polynomial((5,)).derivative() == Polynomial()
        assert (X ** 2).derivative(5) == Polynomial()

    def test_eval(self):
        assert (X ** 2 - 1)(Fraction(2)) == 3
        assert (X / 2 + Fraction(1, 3))(Fraction(1, 6)) == Fraction(5, 12)
        assert (X ** 2)(0.5) == 0.25
        assert isinstance((X ** 2)(0.5), float)

    def test_definite_integrals(self):
        assert X.integrate(0, 1) == Fraction(1, 2)
        assert (X ** 2 * (X - 1)).integrate(0, 1) == Fraction(-1, 12)
        assert (X ** 2 * (X - 1) ** 2).integrate(0, 1) == Fraction(1, 30)

    def test_compose_affine(self):
        p = X ** 2 + 1
        # p(1 - x) = x^2 - 2x + 2
        assert p.compose_affine(1, -1) == X ** 2 - 2 * X + 2

    def test_str(self):
        assert str(X ** 2 / 2 - X / 2 + Fraction(1, 12)) == "1/2*x^2 - 1/2*x + 1/12"
        assert str(Polynomial()) == "0"


class TestPolynomialProperties:
    @given(coeff_lists, coeff_lists, intervals())
    def test_integral_linearity_and_reversal(self, cp, cq, interval):
        a, b = interval
        p, q = Polynomial(cp), Polynomial(cq)
        assert (p + q).integrate(a, b) == p.integrate(a, b) + q.integrate(a, b)
        assert p.integrate(a, b) == -p.integrate(b, a)

    @given(coeff_lists, rationals)
    def test_derivative_undoes_antiderivative(self, coeffs, lower):
        p = Polynomial(coeffs)
        anti = p.antiderivative(lower)
        assert anti.derivative() == p
        assert anti(lower) == 0

    @given(coeff_lists, coeff_lists)
    def test_product_commutes(self, cp, cq):
        p, q = Polynomial(cp), Polynomial(cq)
        assert p * q == q * p


class TestIntBeta:
    @pytest.mark.parametrize("p", range(1, 11))
    @pytest.mark.parametrize("q", range(1, 11))
    def test_matches_polynomial_integral(self, p, q):
        # B(p, q) = (p-1)! (q-1)! / (p+q-1)! at positive integers.
        beta = Fraction(
            math.factorial(p - 1) * math.factorial(q - 1), math.factorial(p + q - 1)
        )
        integrand = X ** (p - 1) * (1 - X) ** (q - 1)
        assert beta == integrand.integrate(0, 1)
