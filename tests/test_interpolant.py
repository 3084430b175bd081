import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermquad.exactmath import Polynomial, X
from hermquad.interpolant import JetPair, build_hermite, leibniz_coeffs
from hermquad.weights import apply_rule, compute_weights

from conftest import coeff_lists, intervals, rationals


def polynomial_jets(p, x, n):
    return tuple(p.derivative(j)(x) for j in range(n))


class TestJetPair:
    def test_validates_lengths(self):
        with pytest.raises(ValueError):
            JetPair(0, 1, (1, 2), (3,))
        with pytest.raises(ValueError):
            JetPair(0, 1, (), ())
        with pytest.raises(ValueError):
            JetPair(1, 1, (1,), (1,))

    def test_order(self):
        assert JetPair(0, 1, (1, 2), (3, 4)).order == 2


class TestLeibnizCoeffs:
    def test_n1_value_over_width(self):
        pair = JetPair(0, 2, (Fraction(5),), (Fraction(7),))
        assert leibniz_coeffs("b", pair) == (Fraction(7, 2),)
        assert leibniz_coeffs("a", pair) == (Fraction(-5, 2),)

    def test_constant_function_n2(self):
        # f = 1 on [0, 3]: A_0 = 1/(a-b)^2 = B_0 = 1/(b-a)^2 = 1/9.
        pair = JetPair(0, 3, (Fraction(1), Fraction(0)), (Fraction(1), Fraction(0)))
        assert leibniz_coeffs("a", pair)[0] == Fraction(1, 9)
        assert leibniz_coeffs("b", pair)[0] == Fraction(1, 9)

    def test_cubic_at_left_endpoint(self):
        # f = x^3 on [0, 1]: both A_0 and A_1 vanish because f(0) = f'(0) = 0
        # and every term of the expanded derivative carries one of them.
        pair = JetPair(0, 1, (Fraction(0), Fraction(0)), (Fraction(1), Fraction(3)))
        assert leibniz_coeffs("a", pair) == (Fraction(0), Fraction(0))

    @staticmethod
    def fraction_formula(side, pair):
        """B_k (or A_k) term by term in Fractions, with base ** e per term."""
        n = pair.order
        jets = [Fraction(v) for v in (pair.jet_a if side == "a" else pair.jet_b)]
        base = pair.a - pair.b if side == "a" else pair.b - pair.a
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
            jet_a = tuple(data.draw(values) for _ in range(n))
            jet_b = tuple(data.draw(values) for _ in range(n))
            pair = JetPair(*interval, jet_a, jet_b)
            for side in ("a", "b"):
                got = leibniz_coeffs(side, pair)
                assert got == self.fraction_formula(side, pair)
                assert all(isinstance(c, Fraction) for c in got)

    def test_rejects_bad_side(self):
        pair = JetPair(0, 1, (1,), (1,))
        with pytest.raises(ValueError):
            leibniz_coeffs("c", pair)


class TestBuildHermite:
    def test_n1_is_the_chord(self):
        pair = JetPair(0, 2, (Fraction(1),), (Fraction(5),))
        assert build_hermite(pair) == 2 * X + 1

    def test_x2_sinx_example(self):
        # Jets of x^2 sin(x) on [0, pi] with n = 2 give pi*x^2 - x^3.
        pair = JetPair(
            0, Fraction(math.pi), (0.0, 0.0), (0.0, -math.pi ** 2)
        )
        h = build_hermite(pair)
        assert h.degree == 3
        expected = [0.0, 0.0, math.pi, -1.0]
        for power, want in enumerate(expected):
            assert float(h.coeffs[power]) == pytest.approx(want, abs=1e-12)

    @settings(max_examples=40)
    @given(st.integers(min_value=1, max_value=6), coeff_lists, intervals())
    def test_reproduces_low_degree_polynomials(self, n, coeffs, interval):
        a, b = interval
        p = Polynomial(coeffs[: 2 * n])
        pair = JetPair(a, b, polynomial_jets(p, a, n), polynomial_jets(p, b, n))
        assert build_hermite(pair) == p

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
        h = build_hermite(JetPair(a, b, jet_a, jet_b))
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
        h = build_hermite(JetPair(a, b, jet_a, jet_b))
        rule = compute_weights(n, a, b)
        assert h.integrate(a, b) == apply_rule(rule, jet_a, jet_b)

    def test_requires_increasing_endpoints(self):
        with pytest.raises(ValueError):
            build_hermite(JetPair(1, 0, (1,), (1,)))
