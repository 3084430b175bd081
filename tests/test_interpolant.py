import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermquad.exactmath import Polynomial, X
from hermquad.interpolant import build_hermite, leibniz_coeffs
from hermquad.weights import apply_rule, compute_weights

from conftest import coeff_lists, intervals, rationals


def polynomial_jets(p, x, n):
    return tuple(p.derivative(j)(x) for j in range(n))


class TestLeibnizCoeffs:
    # Each endpoint's jets go with its signed distance to the other endpoint:
    # a - b for the A_k, b - a for the B_k.
    def test_n1_value_over_width(self):
        # f(0) = 5 and f(2) = 7 on [0, 2].
        assert leibniz_coeffs((Fraction(7),), Fraction(2)) == (Fraction(7, 2),)
        assert leibniz_coeffs((Fraction(5),), Fraction(-2)) == (Fraction(-5, 2),)

    def test_constant_function_n2(self):
        # f = 1 on [0, 3]: A_0 = 1/(a-b)^2 = B_0 = 1/(b-a)^2 = 1/9.
        jets = (Fraction(1), Fraction(0))
        assert leibniz_coeffs(jets, Fraction(-3))[0] == Fraction(1, 9)
        assert leibniz_coeffs(jets, Fraction(3))[0] == Fraction(1, 9)

    def test_cubic_at_left_endpoint(self):
        # f = x^3 on [0, 1]: both A_0 and A_1 vanish because f(0) = f'(0) = 0
        # and every term of the expanded derivative carries one of them.
        assert leibniz_coeffs((Fraction(0), Fraction(0)), Fraction(-1)) == (Fraction(0), Fraction(0))

    @staticmethod
    def fraction_formula(jets, base):
        """B_k (or A_k) term by term in Fractions, with base ** e per term."""
        n = len(jets)
        jets = [Fraction(v) for v in jets]
        return tuple(
            sum(
                jets[j] * math.comb(k, j) * (-1) ** (k - j)
                * Fraction(math.factorial(n + k - j - 1), math.factorial(n - 1))
                / base ** (n + k - j)
                for j in range(k + 1)
            )
            for k in range(n)
        )

    @settings(max_examples=60)
    @given(st.integers(min_value=1, max_value=10), st.data(), intervals(max_denominator=1000))
    def test_matches_the_fraction_formula(self, n, data, interval):
        floats = st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False)
        for values in (rationals, floats):
            a, b = interval
            for base in (a - b, b - a):
                jets = tuple(data.draw(values) for _ in range(n))
                got = leibniz_coeffs(jets, base)
                assert got == self.fraction_formula(jets, base)
                assert all(isinstance(c, Fraction) for c in got)


class TestBuildHermite:
    def test_validates_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            build_hermite(0, 1, (1, 2), (3,))
        with pytest.raises(ValueError, match="at least the function value"):
            build_hermite(0, 1, (), ())

    def test_requires_increasing_endpoints(self):
        for a, b in ((1, 1), ("1/2", 0.5), (1, 0)):
            with pytest.raises(ValueError, match="a < b"):
                build_hermite(a, b, (1,), (1,))

    def test_n1_is_the_chord(self):
        assert build_hermite(0, 2, (Fraction(1),), (Fraction(5),)) == 2 * X + 1

    def test_x2_sinx_example(self):
        # Jets of x^2 sin(x) on [0, pi] with n = 2 give pi*x^2 - x^3.
        h = build_hermite(0, Fraction(math.pi), (0.0, 0.0), (0.0, -math.pi ** 2))
        assert h.degree == 3
        expected = [0.0, 0.0, math.pi, -1.0]
        for power, want in enumerate(expected):
            assert float(h.coeffs[power]) == pytest.approx(want, abs=1e-12)

    @settings(max_examples=40)
    @given(st.integers(min_value=1, max_value=6), coeff_lists, intervals())
    def test_reproduces_low_degree_polynomials(self, n, coeffs, interval):
        a, b = interval
        p = Polynomial(coeffs[: 2 * n])
        assert build_hermite(a, b, polynomial_jets(p, a, n), polynomial_jets(p, b, n)) == p

    @settings(max_examples=40)
    @given(
        st.integers(min_value=1, max_value=6),
        st.data(),
        intervals(),
    )
    def test_matches_jets_exactly(self, n, data, interval):
        a, b = interval
        jet_a = tuple(data.draw(rationals) for _ in range(n))
        jet_b = tuple(data.draw(rationals) for _ in range(n))
        h = build_hermite(a, b, jet_a, jet_b)
        assert h.degree <= 2 * n - 1
        for j in range(n):
            assert h.derivative(j)(a) == jet_a[j]
            assert h.derivative(j)(b) == jet_b[j]

    @settings(max_examples=30)
    @given(
        st.integers(min_value=1, max_value=8),
        st.data(),
        intervals(),
    )
    def test_integral_matches_weighted_rule(self, n, data, interval):
        a, b = interval
        jet_a = tuple(data.draw(rationals) for _ in range(n))
        jet_b = tuple(data.draw(rationals) for _ in range(n))
        h = build_hermite(a, b, jet_a, jet_b)
        rule = compute_weights(n, a, b)
        assert h.integrate(a, b) == apply_rule(rule, jet_a, jet_b)
