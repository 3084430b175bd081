import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hermquad import kernel, quadrature
from hermquad.exactmath import Polynomial, X
from hermquad.expressions import EvalDomainError, derivative_function, evaluator, jet_provider, parse
from hermquad.kernel import kernel_set
from hermquad.oracle import reference_integrate
from hermquad.quadrature import (
    ErrorReport,
    Partition,
    bound_l2,
    bound_uniform,
    e2_bound_f3,
    e2_classical_f4,
    error_exact,
    integrate_composite,
    integrate_single,
    observed_orders,
    refined_bounds,
    sample_uniform,
)
from hermquad.weights import apply_rule, compute_weights, omega_coeffs

from conftest import monomial_jets

TIGHT = 1e-13

CORPUS = ("exp(x)", "sin(x)", "x^2*sin(x)", "1/(1+x^2)")


def composite(jets, n, partition):
    """integrate_composite on the jets a provider gives at the partition's nodes."""
    return integrate_composite([jets(x, n - 1) for x in partition.nodes], n, partition)


def poly_jets(p):
    def jets(x, m):
        return tuple(p.derivative(j)(x) for j in range(m + 1))

    return jets


def kink_antiderivative(x, c):
    # d/dt [(t-c) log|t-c| - t] = log|t-c| on both sides of the kink.
    u = x - c
    if u == 0.0:
        return -x
    return u * math.log(abs(u)) - x


def make_kink(c):
    """f(x) = integral_0^x log|t - c| dt, its value and first derivative."""

    def f(x):
        return kink_antiderivative(x, c) - kink_antiderivative(0.0, c)

    def fprime(x):
        u = x - c
        return math.log(abs(u)) if u != 0.0 else float("-inf")

    return f, fprime


#: Endpoints as the CLI reads them: fractions, decimals, doubles and pi's 2^-51 denominator.
ENDPOINTS = st.one_of(
    st.fractions(min_value=-8, max_value=8, max_denominator=10 ** 6),
    st.decimals(min_value=-100, max_value=100, places=6).map(Fraction),
    st.floats(min_value=-1e6, max_value=1e6).map(Fraction),
    st.sampled_from([Fraction(math.pi), -Fraction(math.pi), Fraction("-0.3141")]),
)


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((0,))
        with pytest.raises(ValueError):
            Partition((0, 0))
        with pytest.raises(ValueError):
            Partition((0, 2, 1))
        # Nodes are stored, and their order checked, as exact values, not as
        # the objects given: as strings "1/3" > "1/2" and "10" < "9".
        nodes = Partition(("0", "1/3", "1/2")).nodes
        assert nodes == (0, Fraction(1, 3), Fraction(1, 2))
        assert all(type(x) is Fraction for x in nodes)
        assert Partition(("0", "1")) == Partition((0, 1))
        assert Partition((0.5, 1)) == Partition((Fraction(1, 2), "1"))
        with pytest.raises(ValueError, match="strictly increasing"):
            Partition(("0", "10", "9"))
        for a, b in [(1, 1), (2, 1), ("1/3", "0.333")]:
            with pytest.raises(ValueError, match="strictly increasing"):
                Partition.uniform(a, b, 4)

    def test_a_partition_is_its_integer_grid(self):
        # Node i is ticks[i] / den over the nodes' least common denominator;
        # the order is checked on the ticks: 1/3 < 1/2 is 2 < 3 in sixths.
        part = Partition(("0", "1/3", "1/2"))
        assert [f.name for f in dataclasses.fields(Partition)] == ["den", "ticks"]
        assert (part.den, part.ticks) == (6, (0, 2, 3))
        assert repr(part) == "Partition(den=6, ticks=(0, 2, 3))"
        assert Partition((Fraction(-7, 2), 0.25, 5)).ticks == (-14, 1, 20)
        with pytest.raises(ValueError, match="strictly increasing"):
            Partition(("0", "10", "9"))
        # Neighbours 1/300000 apart, over denominators 3 and 100000.
        assert Partition(("0.33333", "1/3")).nodes == (Fraction(33333, 100000), Fraction(1, 3))
        for nodes in [("1/3", "0.33333"), ("1/3", "2/6"), ("-1/3", "1/2", "0.5")]:
            with pytest.raises(ValueError, match="strictly increasing"):
                Partition(nodes)
        # The nodes of a uniform partition are equally spaced ticks.
        part = Partition.uniform("-0.3141", Fraction(math.pi), 7)
        assert len({t1 - t0 for t0, t1 in zip(part.ticks, part.ticks[1:])}) == 1
        assert Fraction(part.ticks[-1] - part.ticks[0], part.den) == (
            Fraction(math.pi) + Fraction("0.3141"))

    @pytest.mark.parametrize("nodes,uniform", [
        (("0", "2/4", "1"), (0, 1, 2)),
        ((0, Fraction(1, 3), Fraction(2, 3), 1), (0, 1, 3)),
        (("1/6", "1/3", "1/2"), ("1/6", "1/2", 2)),
        ((-1.5, "-0.5", 0.5, "3/2"), (-1.5, 1.5, 3)),
        ((Fraction(2, 3), 2), (Fraction(2, 3), 2, 1)),
    ])
    def test_the_grid_is_canonical(self, nodes, uniform):
        # den is the least common denominator, however the nodes were given,
        # so equal nodes give equal partitions, hashes and reprs.
        part, built = Partition(nodes), Partition.uniform(*uniform)
        assert part == built and hash(part) == hash(built) and repr(part) == repr(built)
        assert part.den == math.lcm(*(x.denominator for x in part.nodes))
        assert part == Partition(part.nodes)

    def test_uniform_is_exact(self):
        part = Partition.uniform(0, 1, 3)
        assert part.nodes == (0, Fraction(1, 3), Fraction(2, 3), 1)
        assert len(part.nodes) - 1 == 3
        intervals = [(Fraction(-3, 2), Fraction(math.pi)), ("-0.3141", Fraction(math.pi)),
                     (Fraction(math.pi), "7.25")]
        for a, b in intervals:
            a, b = Fraction(a), Fraction(b)
            for m in (1, 3, 64, 1024):
                nodes = Partition.uniform(a, b, m).nodes
                assert nodes == tuple(a + k * (b - a) / m for k in range(m + 1))
                assert all(type(x) is Fraction for x in nodes)
                assert nodes[-1] == b

    @settings(max_examples=60, deadline=None)
    @given(ENDPOINTS, ENDPOINTS, st.integers(min_value=1, max_value=1024))
    @example(Fraction("-0.3141"), Fraction(math.pi), 1024)
    def test_uniform_nodes_and_their_doubles(self, a, b, m):
        a, b = min(a, b), max(a, b)
        if a == b:
            b += 1
        part = Partition.uniform(a, b, m)
        nodes = part.nodes
        assert nodes == tuple(a + k * (b - a) / m for k in range(m + 1))
        assert part.den == math.lcm(*(x.denominator for x in nodes))
        assert [t / part.den for t in part.ticks] == [float(x) for x in nodes]


class TestIntegrateSingle:
    def test_x2_sinx_motivating_value(self):
        value = integrate_single(
            jet_provider(parse("x^2*sin(x)")), 2, 0, Fraction(math.pi)
        )
        assert float(value) == pytest.approx(math.pi ** 4 / 12, abs=1e-12)

    def test_constant_any_order(self):
        for n in range(1, 6):
            jets = poly_jets(Polynomial((Fraction(5, 7),)))
            value = integrate_single(jets, n, Fraction(-1, 2), Fraction(9, 4))
            assert value == Fraction(5, 7) * Fraction(11, 4)

    def test_quartic_value(self):
        value = integrate_single(poly_jets(X ** 4), 2, 0, 1)
        assert value == Fraction(1, 6)


class TestIntegrateComposite:
    def test_single_panel_reduces_to_single(self):
        jets = jet_provider(parse("exp(x)"))
        single = integrate_single(jets, 3, 0, 1)
        value = composite(jets, 3, Partition.uniform(0, 1, 1))
        assert float(value) == pytest.approx(float(single), rel=1e-15)

    def test_one_jet_per_node(self):
        part = Partition.uniform(0, 1, 4)
        jets = [jet_provider(parse("exp(x)"))(x, 2) for x in part.nodes]
        for node_jets in (jets[:-1], jets + jets[:1], []):
            with pytest.raises(ValueError, match=f"{len(node_jets)} node jets for a "
                                                 "partition of 5 nodes"):
                integrate_composite(node_jets, 3, part)

    def test_exp_four_panels(self):
        jets = jet_provider(parse("exp(x)"))
        value = composite(jets, 2, Partition.uniform(0, 1, 4))
        assert abs(float(value) - (math.e - 1)) < 2e-5
        assert abs(float(value) - (math.e - 1)) > 1e-7

    def test_exact_for_low_degree_with_rational_nodes(self):
        p = Polynomial((Fraction(1, 3), -2, Fraction(7, 5), 1, Fraction(-1, 4), 2))
        part = Partition(
            (Fraction(-1), Fraction(-1, 3), Fraction(1, 2), Fraction(6, 5))
        )
        value = composite(poly_jets(p), 3, part)
        assert value == p.integrate(Fraction(-1), Fraction(6, 5))

    def test_convergence_order(self):
        jets = jet_provider(parse("exp(x)"))
        for n in (1, 2, 3):
            errors = [
                abs(float(composite(jets, n, Partition.uniform(0, 1, m))) - (math.e - 1))
                for m in (2, 4, 8, 16, 32)
            ]
            order = observed_orders(errors, (2, 4, 8, 16, 32))[-1]
            assert order == pytest.approx(2 * n, abs=0.15)

    #: Panel widths 2/3, 5/6, 7/10 and 4/5.
    NODES = (Fraction(-1), Fraction(-1, 3), Fraction(1, 2), Fraction(6, 5), Fraction(2))

    @staticmethod
    def omega_formula(jets, n, nodes):
        """The composite sum with the weights omega_j h^(j+1) formed inline, panel by panel."""
        omegas = omega_coeffs(n)
        node_jets = [jets(x, n - 1) for x in nodes]
        total = 0
        for i in range(len(nodes) - 1):
            h = nodes[i + 1] - nodes[i]
            left = node_jets[i]
            right = node_jets[i + 1]
            hp = h
            for j in range(n):
                total += hp * omegas[j] * (left[j] + (-1) ** j * right[j])
                hp = hp * h
        return total

    @pytest.mark.parametrize("nodes,rules", [
        (Partition.uniform(0, 1, 8).nodes, 1),
        ((0, Fraction(1, 4), Fraction(1, 2), 1), 2),
    ])
    def test_one_rule_per_run_of_equal_widths(self, monkeypatch, nodes, rules):
        widths = []

        def spy(n, a, b):
            widths.append(b - a)
            return compute_weights(n, a, b)

        monkeypatch.setattr(quadrature, "compute_weights", spy)
        composite(jet_provider(parse("exp(x)")), 3, Partition(nodes))
        assert len(widths) == rules

    def test_uniform_step_gives_the_value_of_its_nodes(self, monkeypatch):
        widths = []

        def spy(n, a, b):
            widths.append(b - a)
            return compute_weights(n, a, b)

        monkeypatch.setattr(quadrature, "compute_weights", spy)
        jets = jet_provider(parse("exp(0.5*x)*cos(2*x)+sqrt(2+x)"))
        step = (Fraction(math.pi) + Fraction(3, 2)) / 24
        uniform = Partition.uniform(Fraction(-3, 2), Fraction(math.pi), 24)
        assert uniform == Partition(uniform.nodes)
        with pytest.raises(TypeError):
            Partition(uniform.nodes, step / 2)
        with pytest.raises(TypeError):
            Partition(uniform.nodes, step=step / 2)
        got = composite(jets, 4, uniform)
        assert widths == [step]
        assert got.hex() == composite(jets, 4, Partition(uniform.nodes)).hex()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_float_jets_match_the_omega_formula_bit_for_bit(self, n):
        jets = jet_provider(parse("exp(0.5*x)*cos(2*x)+sqrt(2+x)"))
        value = composite(jets, n, Partition(self.NODES))
        assert value.hex() == self.omega_formula(jets, n, self.NODES).hex()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exact_jets_give_the_sum_of_panel_rules(self, n):
        jets = poly_jets(Polynomial((Fraction(1, 3), -2, Fraction(7, 5), 1, Fraction(-1, 4), 2,
                                     Fraction(5, 9), -1, Fraction(2, 7), 3)))
        panels = zip(self.NODES, self.NODES[1:])
        want = sum(apply_rule(compute_weights(n, a, b), jets(a, n - 1), jets(b, n - 1))
                   for a, b in panels)
        got = composite(jets, n, Partition(self.NODES))
        assert isinstance(got, Fraction)
        assert got == want

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_a_mixed_table_follows_its_first_value(self, n):
        part = Partition(self.NODES)
        jets = jet_provider(parse("exp(0.5*x)*cos(2*x)+sqrt(2+x)"))
        floats = [jets(x, n - 1) for x in part.nodes]
        exact = [tuple(map(Fraction, jet)) for jet in floats]
        all_floats = integrate_composite(floats, n, part)
        # A float first value rounds the weights for the whole table: the
        # exact entries that follow give the all-float value bit for bit.
        got = integrate_composite(floats[:1] + exact[1:], n, part)
        assert got.hex() == all_floats.hex()
        # An exact first value keeps the exact weights: the panels before the
        # float last node sum exactly, and the result is rounded from there.
        got = integrate_composite(exact[:-1] + floats[-1:], n, part)
        prefix = integrate_composite(exact[:-1], n, Partition(self.NODES[:-1]))
        assert isinstance(prefix, Fraction)
        left, right = exact[-2], floats[-1]
        want = prefix
        for j, w in enumerate(compute_weights(n, 0, self.NODES[-1] - self.NODES[-2]).w_a):
            want += w * (left[j] - right[j] if j & 1 else left[j] + right[j])
        assert got.hex() == want.hex()

    def test_integer_jets_keep_the_exact_weights(self):
        p = Polynomial((1, -2, 3, 0, 5))

        def jets(x, m):
            return tuple(int(p.derivative(j)(x)) for j in range(m + 1))

        nodes = (Fraction(-1), Fraction(0), Fraction(2), Fraction(3))
        got = composite(jets, 3, Partition(nodes))
        assert isinstance(got, Fraction)
        assert got == p.integrate(-1, 3)

    def test_string_nodes_integrate_as_their_values(self):
        jets = jet_provider(parse("exp(x)"))
        value = composite(jets, 2, Partition(("0", "1/3", "1/2")))
        exact = composite(jets, 2, Partition((0, Fraction(1, 3), Fraction(1, 2))))
        assert value.hex() == exact.hex()

    def test_float_nodes_are_read_exactly(self):
        nodes = (0.0, 0.1, 0.30000000000000004, 1.0)
        jets = jet_provider(parse("exp(x)"))
        value = composite(jets, 3, Partition(nodes))
        exact = composite(jets, 3, Partition(tuple(Fraction(x) for x in nodes)))
        assert value.hex() == exact.hex()


class TestErrorExact:
    def test_x2_sinx(self):
        expr = parse("x^2*sin(x)")
        ks = kernel_set(2, 0, Fraction(math.pi))
        value = error_exact(derivative_function(expr, 2), ks)
        expected = (math.pi ** 2 - 4) - math.pi ** 4 / 12
        assert value == pytest.approx(expected, abs=1e-9)

    def test_zero_for_low_degree_polynomials(self):
        p = X ** 3 - 2 * X + 1
        ks = kernel_set(2, 0, 1)
        f2 = lambda x: float(p.derivative(2)(x))
        assert error_exact(f2, ks) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_monomial_first_failure(self, n):
        p = Polynomial.monomial(2 * n)
        ks = kernel_set(n, 0, 1)
        fn = lambda x: float(p.derivative(n)(x))
        expected = (-1) ** n * math.factorial(n) ** 2 / math.factorial(2 * n + 1)
        assert error_exact(fn, ks) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("text", CORPUS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_reference_minus_quadrature(self, text, n):
        expr = parse(text)
        quad = float(integrate_single(jet_provider(expr), n, 0, 1))
        ref = reference_integrate(evaluator(expr), 0.0, 1.0, TIGHT)
        assert ref.converged
        exact = error_exact(derivative_function(expr, n), kernel_set(n, 0, 1))
        assert ref.value - quad == pytest.approx(exact, abs=1e-9)

    def test_claim_ii_at_k0_for_an_integrand_that_is_only_c2(self):
        # f = |x - c|^3 has f''' = 6 sign(x - c), so the classical formula through
        # f^(6) does not apply; the k = 0 representation needs only f'''.
        expr = parse("sqrt((x-0.31415)^2)^3")
        exact = error_exact(derivative_function(expr, 3), kernel_set(3, 0, 1), k=0)
        assert exact == pytest.approx(1.66548011017475e-3, abs=5e-18)
        ref = reference_integrate(evaluator(expr), 0.0, 1.0)
        assert ref.converged
        quad = float(integrate_single(jet_provider(expr), 3, 0, 1))
        assert abs(ref.value - quad - exact) <= ref.err_estimate


class TestMildRegularity:
    def test_centered_log_kink(self):
        # f' = log|x - 1/2| is unbounded, yet the order-1 error identity holds.
        f, fprime = make_kink(0.5)
        jets = lambda x, m: (f(float(x)),)
        quad = float(integrate_single(jets, 1, 0, 1))
        ref = reference_integrate(f, 0.0, 1.0, 1e-11)
        assert ref.converged
        exact = error_exact(fprime, kernel_set(1, 0, 1), 1e-10)
        assert (ref.value - quad) == pytest.approx(exact, abs=1e-6)

    def test_off_center_log_kink(self):
        # Same identity with the singularity off the midpoint, where the
        # error no longer vanishes by symmetry.
        f, fprime = make_kink(1.0 / 3.0)
        jets = lambda x, m: (f(float(x)),)
        quad = float(integrate_single(jets, 1, 0, 1))
        ref = reference_integrate(f, 0.0, 1.0, 1e-11)
        assert ref.converged
        exact = error_exact(fprime, kernel_set(1, 0, 1), 1e-10)
        assert abs(exact) > 1e-3
        assert (ref.value - quad) == pytest.approx(exact, abs=1e-6)


class TestBounds:
    def test_zero_when_derivative_constant(self):
        ks = kernel_set(2, 0, 1)
        samples = [7.25] * 33
        assert bound_uniform(samples, ks) == 0.0
        assert bound_l2(samples, ks) == pytest.approx(0.0, abs=1e-15)

    def test_quartic_uniform_bound(self):
        # f = x^4: f'' = 12 x^2 has midrange deviation 6 on [0, 1].
        ks = kernel_set(2, 0, 1)
        samples = sample_uniform(lambda x: 12 * x * x, 0, 1, 257)
        bound = bound_uniform(samples, ks)
        assert bound == pytest.approx(6 * math.sqrt(3) / 54, rel=1e-12)
        assert bound >= 1 / 30

    def test_quartic_l2_bound(self):
        # ||12x^2 - 4||_2 = sqrt(12.8), so the bound is sqrt(12.8/720) = 2/15.
        ks = kernel_set(2, 0, 1)
        samples = sample_uniform(lambda x: 12 * x * x, 0, 1, 257)
        bound = bound_l2(samples, ks)
        assert bound == pytest.approx(2 / 15, rel=1e-3)
        assert bound >= 1 / 30

    @pytest.mark.parametrize("q", [
        Fraction(1, 720), Fraction(1, 30240), Fraction(2), Fraction(4), Fraction(10 ** 300, 7),
        Fraction(3, 2 ** 1000), Fraction(2 ** 53 - 1) * 2 ** 971, Fraction(1, 3 * 10 ** 307),
    ])
    def test_sqrt_is_the_float_sqrt_in_range(self, q):
        assert quadrature._sqrt(q).hex() == math.sqrt(float(q)).hex()

    def test_sqrt_beyond_the_double_range(self):
        assert quadrature._sqrt(Fraction(10) ** 400 * 2) == pytest.approx(math.sqrt(2) * 1e200,
                                                                          rel=1e-15)
        assert quadrature._sqrt(Fraction(1, 10 ** 400)) == pytest.approx(1e-200, rel=1e-15)
        assert quadrature._sqrt(Fraction(0)) == 0.0

    def test_l2_bound_on_an_interval_whose_squared_norm_overflows(self):
        # integral(K^2) = 1e350 / 720 is beyond the double range, its root is not.
        # The samples deviate from their mean 1/2 by 1/2 everywhere: norm 5e34.
        ks = kernel_set(2, 0, 10 ** 70)
        samples = [0.0, 1.0, 0.0]
        assert bound_l2(samples, ks) == pytest.approx(5e34 * 1e175 / math.sqrt(720), rel=1e-14)

    def test_l2_bound_sums_its_samples_left_to_right(self):
        # The trapezoid sum of the samples is 1e16 + 1 - 1e16: 0 when added
        # left to right, 1 when compensated.  Recorded on Python 3.11, whose
        # sum() of floats adds left to right.
        ks = kernel_set(2, 0, 1)
        assert bound_l2([0.0, 1e16, 1.0, -1e16, 3e8], ks).hex() == "0x1.df58861a42c9ep+47"

    def test_kernel_factor_n2(self):
        # With ||Phi||_2 = 1 the L2 bound reduces to 1/sqrt(720).
        ks = kernel_set(2, 0, 1)
        assert math.sqrt(float(ks.l2sq())) == pytest.approx(1 / math.sqrt(720), rel=1e-14)

    def test_chain_index_is_keyword_only(self):
        # A positional third argument was once a root-isolation tolerance.
        with pytest.raises(TypeError):
            bound_uniform([1.0, 2.0], kernel_set(2, 0, 1), 1e-12)

    def test_needs_two_samples(self):
        ks = kernel_set(2, 0, 1)
        with pytest.raises(ValueError):
            bound_uniform([1.0], ks)
        with pytest.raises(ValueError):
            bound_l2([], ks)

    def test_refined_bounds_stable_for_smooth(self):
        ks = kernel_set(2, 0, 1)
        uniform, l2, stable = refined_bounds(derivative_function(parse("exp(x)"), 2), ks)
        assert stable
        assert uniform > 0 and l2 > 0


class TestErrorEngine:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_chain_member_gives_the_same_error(self, n):
        expr = parse("exp(x)")
        ks = kernel_set(n, 0, 1)
        base = error_exact(derivative_function(expr, n), ks)
        for k in range(1, n + 1):
            via_k = error_exact(derivative_function(expr, n + k), ks, k=k)
            assert via_k == pytest.approx(base, rel=1e-8)

    @pytest.mark.parametrize("text", CORPUS)
    def test_chain_bounds_dominate_for_n3(self, text):
        n = 3
        expr = parse(text)
        quad = float(integrate_single(jet_provider(expr), n, 0, 1))
        ref = reference_integrate(evaluator(expr), 0.0, 1.0, TIGHT)
        assert ref.converged
        actual = abs(quad - ref.value)
        ks = kernel_set(n, 0, 1)
        for k in range(1, n):
            samples = sample_uniform(derivative_function(expr, n + k), 0, 1, 257)
            assert actual <= bound_uniform(samples, ks, k=k)
            assert actual <= bound_l2(samples, ks, k=k)

    def test_chain_index_range(self):
        ks = kernel_set(2, 0, 1)
        assert ks.member(0) == ks.kernel
        assert ks.member(2) == X ** 2 * (X - 1) ** 2 / 24
        for bad in (-1, 3):
            with pytest.raises(ValueError):
                ks.member(bad)
        with pytest.raises(ValueError):
            error_exact(lambda x: 0.0, ks, k=3)
        # The bounds stop at k = n-1: integral(K^(n)) is not zero.
        with pytest.raises(ValueError):
            bound_uniform([1.0, 2.0], ks, k=2)
        with pytest.raises(ValueError):
            bound_l2([1.0, 2.0], ks, k=2)
        with pytest.raises(ValueError):
            refined_bounds(math.exp, ks, k=2)

    @pytest.mark.parametrize("k", [0, 1])
    def test_refined_bounds_samples_and_integrates_once(self, monkeypatch, k):
        # |K^(k)| is integrated once per (n, k) on [0, 1]: a cold order
        # isolates roots once, and a warm one on another interval not at all.
        isolations = []
        real = kernel._isolate_roots_exact

        def counted(*args):
            isolations.append(args)
            return real(*args)

        monkeypatch.setattr(kernel, "_isolate_roots_exact", counted)
        kernel._unit_abs_integral.cache_clear()
        points = []

        def f(x):
            points.append(x)
            return math.exp(3 * x)

        refined_bounds(f, kernel_set(3, 0, 1), 33, k=k)
        assert len(points) == 2 * 33 - 1
        assert len(isolations) == 1
        refined_bounds(f, kernel_set(3, Fraction(-2, 3), Fraction(5, 4)), 33, k=k)
        assert len(points) == 2 * (2 * 33 - 1)
        assert len(isolations) == 1

    @pytest.mark.parametrize("count", [5, 257])
    def test_refined_bounds_match_two_separate_grids(self, count):
        # The coarse pass reuses the even points of the fine grid; on [0, pi]
        # they are bit-identical to a separately sampled grid.
        f = derivative_function(parse("exp(x)*sin(3*x)"), 3)
        ks = kernel_set(2, 0, Fraction(math.pi))
        coarse = sample_uniform(f, ks.a, ks.b, count)
        fine = sample_uniform(f, ks.a, ks.b, 2 * count - 1)
        assert fine[::2] == coarse
        pairs = [(bound_uniform(s, ks, k=1), bound_l2(s, ks, k=1)) for s in (coarse, fine)]
        moved = any(abs(new - old) > 0.01 * abs(new) for old, new in zip(*pairs))
        assert refined_bounds(f, ks, count, k=1) == (*pairs[1], not moved)


def spied(f, calls):
    """f with its ``many``, each call of either recorded in ``calls``."""

    def value(x):
        calls.append(("scalar", x))
        return f(x)

    def many(xs):
        calls.append(("many", len(xs)))
        return f.many(xs)

    value.many = many
    return value


def hexed(values):
    return [v.hex() for v in values]


class TestBatchSampling:
    """Bounds and the order-2n error sample f^(n+k) through ``many``, bit for bit."""

    @pytest.mark.parametrize("text, k", [("exp(x)*sin(3*x)", 3), ("1/(1+25*x^2)", 24),
                                         ("sqrt(2+x)", 0), ("x^7 - 2*x^3", 9)])
    @pytest.mark.parametrize("a, b, count", [(0, Fraction(math.pi), 513), (Fraction(-1, 2), 1, 5),
                                             ("-0.3141", "1.4142", 257)])
    def test_sample_uniform_is_the_same_with_and_without_many(self, text, k, a, b, count):
        f = derivative_function(parse(text), k)
        want = sample_uniform(lambda x: f(x), a, b, count)
        assert hexed(sample_uniform(f, a, b, count)) == hexed(want)

    def test_sample_uniform_raises_the_first_failing_points_error(self):
        # The walk meets sqrt first, which fails at 2; the first point, 0, fails in log.
        f = derivative_function(parse("sqrt(1 - x) + log(x - 0.25)"), 3)
        for g in (f, lambda x: f(x)):
            with pytest.raises(EvalDomainError, match="log of a non-positive value"):
                sample_uniform(g, 0, 2, 3)

    @pytest.mark.parametrize("count", [33, 257])
    def test_refined_bounds_sample_a_derivative_in_one_batch(self, count):
        f = derivative_function(parse("exp(x)*sin(3*x)"), 4)
        ks = kernel_set(3, 0, 1)
        calls = []
        got = refined_bounds(spied(f, calls), ks, count, k=1)
        assert calls == [("many", 2 * count - 1)]
        assert got == refined_bounds(lambda x: f(x), ks, count, k=1)

    @pytest.mark.parametrize("text", CORPUS + ("sqrt(2+x)",))
    @pytest.mark.parametrize("n", [1, 2, 3, 12])
    def test_error_exact_is_the_same_with_and_without_many(self, text, n):
        f = derivative_function(parse(text), 2 * n)
        ks = kernel_set(n, Fraction(-1, 2), 1)
        calls = []
        got = error_exact(spied(f, calls), ks, TIGHT, k=n)
        assert got.hex() == error_exact(lambda x: f(x), ks, TIGHT, k=n).hex()
        assert calls and all(kind == "many" for kind, _ in calls)

    def test_error_exact_raises_what_the_scalar_integrand_raises(self):
        # K^(1) = (x^2 - h^2) / 2 of n = 1 on [-h, h] with h = 2e154 has a
        # constant beyond the double range, so its first evaluation raises.
        # f^(2) fails only right of the center, the first sample: point by
        # point the kernel's error comes first.
        ks = kernel_set(1, -Fraction(2e154), Fraction(2e154))

        def f2(x):
            if x > 0.0:
                raise EvalDomainError("right of the center", parse("x"))
            return 1.0

        f2.many = lambda xs: [f2(x) for x in xs]
        for f in (f2, lambda x: f2(x)):
            with pytest.raises(OverflowError):
                error_exact(f, ks, k=1)

    def test_error_exact_raises_the_domain_error_of_a_point_inside(self):
        # f^(4) of log(x - 1/4) fails left of 1/4, inside [0, 1], while the
        # first panel's center passes.
        f = derivative_function(parse("log(x - 0.25)"), 4)
        ks = kernel_set(2, 0, 1)
        raised = []
        for g in (f, lambda x: f(x)):
            with pytest.raises(EvalDomainError) as info:
                error_exact(g, ks, TIGHT, 2)
            raised.append(str(info.value))
        assert raised == ["log of a non-positive value in 'log((x - 0.25))'"] * 2


class TestE2SpecificBounds:
    def test_f3_zero_for_quadratics(self):
        ks = kernel_set(2, 0, 1)
        uniform, l2 = e2_bound_f3([5.0] * 17, ks)
        assert uniform == 0.0
        assert l2 == pytest.approx(0.0, abs=1e-15)

    def test_f3_constants_on_unit_interval(self):
        # Unit-deviation constants: integral(|G|) = 1/192, ||G||_2 = 1/sqrt(30240).
        ks = kernel_set(2, 0, 1)
        g = ks.member(1)
        from hermquad.kernel import kernel_abs_integral, kernel_l2sq

        assert kernel_abs_integral(g, 0, 1) == pytest.approx(1 / 192, rel=1e-12)
        assert math.sqrt(float(kernel_l2sq(g, 0, 1))) == pytest.approx(
            1 / math.sqrt(30240), rel=1e-14
        )

    def test_f3_quartic_bounds(self):
        # f = x^4: f''' = 24x - 12, midrange deviation 12 -> 12/192 = 1/16.
        ks = kernel_set(2, 0, 1)
        samples = sample_uniform(lambda x: 24 * x - 12, 0, 1, 257)
        uniform, l2 = e2_bound_f3(samples, ks)
        assert uniform == pytest.approx(1 / 16, rel=1e-12)
        assert l2 == pytest.approx(math.sqrt(48 / 30240), rel=1e-3)
        assert uniform >= 1 / 30
        assert l2 >= 1 / 30

    def test_f3_requires_order_two(self):
        with pytest.raises(ValueError):
            e2_bound_f3([1.0, 2.0], kernel_set(3, 0, 1))


class TestE2ClassicalF4:
    def test_quartic_recovers_exact_error(self):
        value = e2_classical_f4(lambda x: 24.0, 0, 1)
        assert value == pytest.approx(1 / 30, abs=1e-11)

    def test_cubic_gives_zero(self):
        assert e2_classical_f4(lambda x: 0.0, 0, 1) == pytest.approx(0.0, abs=1e-14)

    def test_weight_polynomial_mass(self):
        h = X ** 2 * (X - 1) ** 2 / 24
        assert h.integrate(0, 1) == Fraction(1, 720)

    def test_matches_error_exact_for_smooth(self):
        expr = parse("exp(x)")
        via_f4 = e2_classical_f4(derivative_function(expr, 4), 0, 1)
        via_f2 = error_exact(derivative_function(expr, 2), kernel_set(2, 0, 1))
        assert via_f4 == pytest.approx(via_f2, rel=1e-8)


class TestErrorReport:
    def test_bound_dominates_actual_error(self):
        expr = parse("exp(x)")
        n = 2
        quad = float(integrate_single(jet_provider(expr), n, 0, 1))
        ref = reference_integrate(evaluator(expr), 0.0, 1.0, TIGHT)
        ks = kernel_set(n, 0, 1)
        samples = sample_uniform(derivative_function(expr, n), 0, 1, 257)
        report = ErrorReport(
            quadrature_value=quad,
            reference_value=ref.value,
            bound_uniform=bound_uniform(samples, ks),
            bound_l2=bound_l2(samples, ks),
            derivative_order_used=n,
        )
        assert report.bound_kind == "midrange"
        slack = 1.01
        assert abs(report.actual_error) <= report.bound_uniform * slack
        assert abs(report.actual_error) <= report.bound_l2 * slack

    def test_actual_error_is_derived(self):
        assert ErrorReport(0.1, 0.3).actual_error.hex() == (0.1 - 0.3).hex()
        assert ErrorReport(0.1).actual_error is None
        assert ErrorReport(0.1, 0.3).to_json_dict()["error"] == 0.1 - 0.3
        with pytest.raises(TypeError):
            ErrorReport(0.1, 0.3, actual_error=0.0)

    def test_bound_kind_is_derived_from_the_order(self):
        assert ErrorReport(0.1, n=2, derivative_order_used=4).bound_kind == "mean"
        assert ErrorReport(0.1, n=2, derivative_order_used=3).bound_kind == "midrange"
        assert ErrorReport(0.1, n=2, derivative_order_used=2).bound_kind == "midrange"
        assert ErrorReport(0.1, derivative_order_used=4).bound_kind == "midrange"
        assert ErrorReport(0.1, n=2, m=8, h=0.125).bound_kind == "midrange"
        with pytest.raises(TypeError):
            ErrorReport(0.1, bound_kind="mean")


class TestObservedOrders:
    def test_ratios(self):
        orders = observed_orders([1.0, 0.25, 0.0625], [1, 2, 4])
        assert orders[0] is None
        assert orders[1] == pytest.approx(2.0)
        assert orders[2] == pytest.approx(2.0)

    def test_zero_errors_give_none(self):
        assert observed_orders([1.0, 0.0], [1, 2])[1] is None

    def test_counts_that_do_not_double(self):
        # e = m^-4 exactly, visited out of order: every order is 4.
        counts = [1, 2, 4, 3, 6, 5, 10]
        orders = observed_orders([m ** -4 for m in counts], counts)
        assert orders[0] is None
        assert orders[1:] == pytest.approx([4.0] * 6, abs=1e-12)

    def test_doubling_divides_by_exactly_one(self):
        errors = [0.3, 0.021, 0.0013]
        orders = observed_orders(errors, [5, 10, 20])
        assert orders[1:] == [math.log2(0.3 / 0.021), math.log2(0.021 / 0.0013)]

    def test_equal_counts_give_none(self):
        assert observed_orders([1.0, 0.5, 0.25], [4, 4, 8]) == [None, None, 1.0]
