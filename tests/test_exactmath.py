import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
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


# A plain list-of-Fraction polynomial: the reference for the integer form.


def ref_trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(p, q):
    out = [Fraction(0)] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return ref_trim(out)


def ref_mul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, ci in enumerate(p):
        for j, cj in enumerate(q):
            out[i + j] += ci * cj
    return ref_trim(out)


def ref_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def ref_eval_float(p, x):
    acc = 0.0
    for c in reversed(p):
        acc = acc * x + float(c)
    return acc


def ref_derivative(p, k):
    return ref_trim(p[i] * math.perm(i, k) for i in range(k, len(p)))


def ref_antiderivative(p, lower):
    raw = (Fraction(0),) + tuple(c / (i + 1) for i, c in enumerate(p))
    return ref_add(raw, (-ref_eval(raw, lower),))


def ref_compose(p, offset, scale):
    out = ()
    for c in reversed(p):
        out = ref_add(ref_mul(out, (offset, scale)), (c,))
    return out


#: Wider denominators than ``rationals``, so the common denominator does work.
wide_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 6)
wide_coeff_lists = st.lists(st.one_of(rationals, wide_rationals), min_size=0, max_size=9)


def assert_canonical(p: Polynomial):
    nums, den = p._nums, p._den
    assert isinstance(den, int) and den > 0
    assert all(isinstance(c, int) for c in nums)
    if nums:
        assert nums[-1] != 0
        assert math.gcd(den, *nums) == 1
    else:
        assert den == 1
    assert p.coeffs == tuple(Fraction(c, den) for c in nums)


class TestIntegerFormAgainstFractionReference:
    @settings(max_examples=100)
    @given(wide_coeff_lists, wide_coeff_lists, st.one_of(rationals, wide_rationals))
    def test_ring_operations(self, cp, cq, s):
        p, q = Polynomial(cp), Polynomial(cq)
        rp, rq = ref_trim(cp), ref_trim(cq)
        results = {
            "p": (p, rp),
            "p + q": (p + q, ref_add(rp, rq)),
            "p - q": (p - q, ref_add(rp, tuple(-c for c in rq))),
            "-p": (-p, tuple(-c for c in rp)),
            "s - p": (s - p, ref_add((s,), tuple(-c for c in rp))),
            "p + s": (p + s, ref_add(rp, (s,))),
            "p * q": (p * q, ref_mul(rp, rq)),
            "p * s": (p * s, ref_trim(c * s for c in rp)),
            "s * p": (s * p, ref_trim(c * s for c in rp)),
            "p ** 3": (p ** 3, ref_mul(rp, ref_mul(rp, rp))),
            "p ** 0": (p ** 0, (Fraction(1),)),
        }
        if s:
            results["p / s"] = (p / s, ref_trim(c / s for c in rp))
        for name, (got, want) in results.items():
            assert got.coeffs == want, name
            assert_canonical(got)
            assert got.degree == len(want) - 1
            assert got.is_zero() == (not want)
            assert got.leading_coefficient == (want[-1] if want else 0)

    @settings(max_examples=80)
    @given(wide_coeff_lists, st.integers(min_value=0, max_value=10), wide_rationals)
    def test_calculus(self, cp, k, lower):
        p, rp = Polynomial(cp), ref_trim(cp)
        for got, want in (
            (p.derivative(k), ref_derivative(rp, k)),
            (p.antiderivative(lower), ref_antiderivative(rp, lower)),
        ):
            assert got.coeffs == want
            assert_canonical(got)
        raw = ref_antiderivative(rp, 0)
        assert p.integrate(lower, 2) == ref_eval(raw, Fraction(2)) - ref_eval(raw, lower)

    @settings(max_examples=80)
    @given(wide_coeff_lists, wide_rationals, wide_rationals)
    def test_compose_affine(self, cp, offset, scale):
        got = Polynomial(cp).compose_affine(offset, scale)
        assert got.coeffs == ref_compose(ref_trim(cp), offset, scale)
        assert_canonical(got)

    @settings(max_examples=100)
    @given(wide_coeff_lists, st.one_of(wide_rationals, st.integers(-9, 9)),
           st.floats(min_value=-8, max_value=8))
    def test_evaluation(self, cp, x, xf):
        p, rp = Polynomial(cp), ref_trim(cp)
        value = p(x)
        assert isinstance(value, Fraction)
        assert value == ref_eval(rp, x)
        assert p.sign(x) == (value > 0) - (value < 0)
        # num / den is correctly rounded, as float(Fraction) is: bit for bit.
        assert p(xf).hex() == ref_eval_float(rp, xf).hex()

    @given(wide_coeff_lists, wide_coeff_lists)
    def test_equality_and_hash(self, cp, cq):
        p, q = Polynomial(cp), Polynomial(cq)
        assert (p == q) == (ref_trim(cp) == ref_trim(cq))
        twin = Polynomial(list(cp) + [0, 0])
        assert twin == p and hash(twin) == hash(p)
        assert p + q - q == p and hash(p + q - q) == hash(p)

    def test_zero_polynomial(self):
        zero = Polynomial()
        for z in (zero, Polynomial((0, Fraction(0), 0.0)), X - X, X * 0, zero.derivative(),
                  Polynomial((3,)).derivative(), zero.antiderivative(Fraction(1, 3)),
                  zero.compose_affine(Fraction(1, 2), 3), zero ** 2):
            assert z == zero and hash(z) == hash(zero)
            assert z.coeffs == ()
            assert_canonical(z)
        assert zero(Fraction(5, 7)) == 0 and isinstance(zero(Fraction(5, 7)), Fraction)
        assert zero(2.5) == 0.0 and zero.sign(3) == 0
        assert zero ** 0 == Polynomial((1,))
        assert zero.integrate(0, 1) == 0

    def test_coeffs_are_read_only(self):
        p = X / 3 + 1
        with pytest.raises(AttributeError):
            p.coeffs = (Fraction(1),)
        assert p.coeffs == (Fraction(1), Fraction(1, 3))

    def test_float_evaluation_overflows_as_fraction_does(self):
        huge = Polynomial((Fraction(10 ** 400, 3),))
        with pytest.raises(OverflowError):
            float(huge.coeffs[0])
        with pytest.raises(OverflowError):
            huge(1.0)


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
