import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermquad import cli, kernel, verify
from hermquad.exactmath import Polynomial, X
from hermquad.kernel import (
    KernelParams,
    KernelSet,
    RootIsolationError,
    _isolate_roots_exact,
    antiderivative_chain,
    kernel_abs_integral,
    kernel_from_params,
    kernel_l2sq,
    kernel_set,
    peano_kernel,
    rodrigues_kernel,
    solve_params,
)
from hermquad.weights import compute_weights

from conftest import intervals

INTERVALS = [
    (Fraction(0), Fraction(1)),
    (Fraction(-1), Fraction(1)),
    (Fraction(1, 3), Fraction(7, 2)),
]


class TestSolveParams:
    def test_n1_has_no_deltas(self):
        params = solve_params(1, 0, 1)
        assert params.c == Fraction(-1, 2)
        assert params.deltas == ()

    @pytest.mark.parametrize("a,b", INTERVALS)
    def test_closed_forms_n2_to_n5(self, a, b):
        w = b - a
        s = a + b
        assert solve_params(2, a, b).deltas == (-(w ** 2) / 24,)
        assert solve_params(3, a, b).deltas == (s * w ** 2 / 80, -(w ** 2) / 40)
        assert solve_params(4, a, b).deltas == (
            w ** 2 * (w ** 2 - 10 * s ** 2) / 4480,
            s * w ** 2 / 112,
            -(w ** 2) / 56,
        )
        assert solve_params(5, a, b).deltas[1:] == (
            w ** 2 * (w ** 2 - 14 * s ** 2) / 8064,
            s * w ** 2 / 144,
            -(w ** 2) / 72,
        )

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("a,b", INTERVALS)
    def test_general_order_leading_deltas(self, n, a, b):
        w = b - a
        s = a + b
        params = solve_params(n, a, b)
        assert params.c == -s / 2
        assert params.deltas[n - 2] == -(w ** 2) / Fraction(8 * (2 * n - 1))
        if n >= 3:
            assert params.deltas[n - 3] == s * w ** 2 / Fraction(16 * (2 * n - 1))
        if n >= 4:
            assert params.deltas[n - 4] == w ** 2 * (
                w ** 2 + (6 - 4 * n) * s ** 2
            ) / Fraction(128 * (2 * n - 3) * (2 * n - 1))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_order_is_one_more_than_the_deltas(self, n):
        params = solve_params(n, Fraction(1, 3), Fraction(7, 2))
        assert params.n == n
        assert len(params.deltas) == n - 1

    def test_order_is_not_stored(self):
        with pytest.raises(TypeError):
            KernelParams(n=2, c=Fraction(-1, 2), deltas=(Fraction(-1, 24),))
        assert KernelParams(Fraction(-1, 2), (Fraction(-1, 24),)) == solve_params(2, 0, 1)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            solve_params(0, 0, 1)
        with pytest.raises(ValueError):
            solve_params(2, 1, 0)


class TestKernelConstruction:
    def test_n2_unit_interval(self):
        k = kernel_from_params(solve_params(2, 0, 1))
        assert k == X ** 2 / 2 - X / 2 + Fraction(1, 12)
        assert rodrigues_kernel(2, 0, 1) == k

    def test_n1_kernels(self):
        assert kernel_from_params(solve_params(1, 0, 1)) == X - Fraction(1, 2)
        assert rodrigues_kernel(1, -1, 1) == X

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("a,b", INTERVALS)
    def test_triple_equality(self, n, a, b):
        matched = kernel_from_params(solve_params(n, a, b))
        assert matched == rodrigues_kernel(n, a, b)
        chain = antiderivative_chain(matched, a, n)
        closed = (X - a) ** n * (X - b) ** n / math.factorial(2 * n)
        assert chain[-1] == closed
        assert peano_kernel(compute_weights(n, a, b)) == closed

    @settings(max_examples=25)
    @given(st.integers(min_value=1, max_value=12), intervals())
    def test_triple_equality_random_intervals(self, n, interval):
        a, b = interval
        matched = kernel_from_params(solve_params(n, a, b))
        assert matched == rodrigues_kernel(n, a, b)
        chain = antiderivative_chain(matched, a, n)
        assert chain[-1] == (X - a) ** n * (X - b) ** n / math.factorial(2 * n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_normalization_orthogonality_symmetry(self, n):
        a, b = Fraction(1, 3), Fraction(7, 2)
        k = rodrigues_kernel(n, a, b)
        assert k.leading_coefficient == Fraction(1, math.factorial(n))
        for m in range(n):
            assert (Polynomial.monomial(m) * k).integrate(a, b) == 0
        assert k.compose_affine(a + b, -1) == k * ((-1) ** n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_boundary_vanishing(self, n):
        a, b = Fraction(-1), Fraction(2)
        chain = antiderivative_chain(rodrigues_kernel(n, a, b), a, n)
        assert len(chain) == n
        for p in chain:
            assert p(a) == 0
            assert p(b) == 0

    def test_peano_small_cases(self):
        assert peano_kernel(compute_weights(1, 0, 1)) == X * (X - 1) / 2
        assert peano_kernel(compute_weights(2, 0, 1)) == X ** 2 * (X - 1) ** 2 / 24
        closed = X ** 3 * (X - 2) ** 3 / 720
        assert peano_kernel(compute_weights(3, 0, 2)) == closed


class TestAntiderivativeChain:
    def test_g_and_h_on_unit_interval(self):
        ks = kernel_set(2, 0, 1)
        g = ks.member(1)
        assert g == X ** 3 / 6 - X ** 2 / 4 + X / 12
        assert ks.member(2) == X ** 2 * (X - 1) ** 2 / 24


class TestKernelNorms:
    def test_l2sq_values(self):
        ks = kernel_set(2, 0, 1)
        assert ks.l2sq() == Fraction(1, 720)
        assert kernel_l2sq(ks.member(1), 0, 1) == Fraction(1, 30240)
        assert kernel_l2sq(Polynomial(), 0, 1) == 0

    def test_l2sq_scales_with_width(self):
        # ||K_2||^2 = (b-a)^5 / 720 and ||G||^2 = (b-a)^7 / 30240.
        a, b = Fraction(-2), Fraction(3, 2)
        w = b - a
        ks = kernel_set(2, a, b)
        assert ks.l2sq() == w ** 5 / 720
        assert kernel_l2sq(ks.member(1), a, b) == w ** 7 / 30240

    def test_abs_integral_values(self):
        ks = kernel_set(2, 0, 1)
        assert ks.abs_integral() == pytest.approx(math.sqrt(3) / 54, abs=1e-13)
        g = ks.member(1)
        assert kernel_abs_integral(g, 0, 1) == pytest.approx(1 / 192, abs=1e-13)

    def test_abs_integral_n1(self):
        k1 = kernel_set(1, 0, 1).kernel
        assert kernel_abs_integral(k1, 0, 1) == pytest.approx(0.25, abs=1e-14)

    def test_abs_integral_scales_with_width(self):
        a, b = Fraction(-1, 2), Fraction(5, 2)
        w = float(b - a)
        ks = kernel_set(2, a, b)
        assert ks.abs_integral() == pytest.approx(w ** 3 * math.sqrt(3) / 54, rel=1e-12)
        assert kernel_abs_integral(ks.member(1), a, b) == pytest.approx(
            w ** 4 / 192, rel=1e-12
        )

    def test_abs_integral_of_signless_polynomial(self):
        # Nonnegative integrand: no roots, |integral| equals the plain integral.
        h = X ** 2 * (X - 1) ** 2 / 24
        assert kernel_abs_integral(h, 0, 1) == pytest.approx(1 / 720, rel=1e-13)


class TestRootIsolation:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_root_count_matches_order(self, n):
        a, b = Fraction(1, 3), Fraction(7, 2)
        roots = _isolate_roots_exact(rodrigues_kernel(n, a, b), a, b)
        assert len(roots) == n
        assert all(a < r < b for r in roots)

    def test_n2_roots_are_symmetric(self):
        roots = [float(r) for r in _isolate_roots_exact(kernel_set(2, 0, 1).kernel, 0, 1)]
        expected = [0.5 - 0.5 / math.sqrt(3), 0.5 + 0.5 / math.sqrt(3)]
        assert roots == pytest.approx(expected, abs=1e-12)

    def test_exact_grid_zero_is_tolerated(self):
        # G vanishes at the exact interval midpoint, which is a scan point
        # candidate; the integral still comes out right.
        g = kernel_set(2, 0, 1).member(1)
        assert kernel_abs_integral(g, 0, 1) == pytest.approx(1 / 192, rel=1e-12)

    def test_high_degree_signs_are_exact(self):
        # Float Horner on the monomial basis loses all significance around
        # degree ~40; the exact-sign scan must still count n roots.
        k = rodrigues_kernel(24, 0, 1)
        assert len(_isolate_roots_exact(k, Fraction(0), Fraction(1))) == 24
        assert kernel_abs_integral(k, 0, 1) > 0.0


class TestKernelSetCache:
    def test_json_dump_shape(self):
        doc = kernel_set(2, 0, 1).to_json_dict()
        assert doc == {
            "n": 2,
            "a": "0",
            "b": "1",
            "coeffs": ["1/12", "-1/2", "1/2"],
            "params": {"c": "-1/2", "deltas": ["-1/24"]},
        }


class TestAffineImage:
    """Every interval's chain is the [0, 1] chain of the order, scaled."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=12), st.data(), intervals())
    def test_norms_and_members_scale_from_the_unit_interval(self, n, data, interval):
        k = data.draw(st.integers(min_value=0, max_value=n - 1))
        a, b = interval
        h = b - a
        ks = kernel_set(n, a, b)
        member = ks.member(k)
        unit_member = kernel_set(n, 0, 1).member(k)
        assert member == unit_member.compose_affine(-a / h, 1 / h) * h ** (n + k)
        assert ks.l2sq(k) == kernel_l2sq(member, a, b)
        assert ks.abs_integral(k) == pytest.approx(
            kernel_abs_integral(member, a, b), rel=1e-13
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=8), intervals())
    def test_members_equal_the_independent_chain(self, n, interval):
        # The chain built on [a, b] itself, from the matched parameters.
        a, b = interval
        kern = kernel_from_params(solve_params(n, a, b))
        chain = (kern,) + antiderivative_chain(kern, a, n)
        ks = kernel_set(n, a, b)
        assert ks.kernel == kern
        for k in range(n + 1):
            assert ks.member(k) == chain[k]

    def test_unit_interval_values_are_the_constants(self):
        for n in range(1, 7):
            ks = kernel_set(n, 0, 1)
            for k in range(n + 1):
                member = ks.member(k)
                assert ks.abs_integral(k) == kernel_abs_integral(member, 0, 1)
                assert ks.l2sq(k) == kernel_l2sq(member, 0, 1)

    def test_second_interval_isolates_no_roots(self, monkeypatch):
        calls = []
        real = kernel._isolate_roots_exact

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(kernel, "_isolate_roots_exact", counted)
        kernel._unit_abs_integral.cache_clear()
        first = kernel_set(5, Fraction(1, 3), Fraction(7, 2))
        first.abs_integral(0)
        first.abs_integral(2)
        assert len(calls) == 2
        second = kernel_set(5, Fraction(-9, 4), Fraction(6, 5))
        second.abs_integral(0)
        second.abs_integral(2)
        assert len(calls) == 2

    def test_sets_off_the_unit_interval_are_not_retained(self):
        a, b = Fraction(2, 7), Fraction(13, 5)
        assert kernel_set(4, a, b) is not kernel_set(4, a, b)
        assert kernel_set(4, a, b) == kernel_set(4, a, b)

    def test_a_set_holds_only_n_a_b(self):
        for a, b in [(0, 1), (Fraction(1, 2), Fraction(9, 4))]:
            ks = kernel_set(3, a, b)
            assert ks == kernel_set(3, Fraction(a), Fraction(b))
            ks.kernel, ks.params, ks.to_json_dict()
            for k in range(4):
                ks.member(k), ks.l2sq(k), ks.abs_integral(k)
            assert vars(ks) == {"n": 3, "a": Fraction(a), "b": Fraction(b)}
            assert not hasattr(ks, "antiderivatives")

    def test_unit_chain_is_built_once_per_order(self):
        kernel._unit_chain.cache_clear()
        for a, b in [(0, 1), (Fraction(1, 3), Fraction(7, 2)), (Fraction(-9, 4), 2)]:
            ks = kernel_set(6, a, b)
            for k in range(7):
                ks.member(k), ks.l2sq(k)
            ks.abs_integral(0)
        assert kernel._unit_chain.cache_info().misses == 1
        kernel_set(5, 0, 1).member(1)
        assert kernel._unit_chain.cache_info().misses == 2

    def test_sign_check_still_raises(self, monkeypatch):
        # K_2's two roots replaced by the midpoint: both segments are negative.
        monkeypatch.setattr(kernel, "_isolate_roots_exact", lambda poly, a, b: [(a + b) / 2])
        kernel._unit_abs_integral.cache_clear()
        with pytest.raises(RootIsolationError):
            kernel_set(2, Fraction(1, 3), 2).abs_integral()

    def test_rejects_bad_order_and_interval(self):
        with pytest.raises(ValueError):
            kernel_set(0, 0, 1)
        with pytest.raises(ValueError):
            kernel_set(2, 1, 1)
        for bad in (-1, 3):
            # A negative index must not wrap around to the end of the chain.
            with pytest.raises(ValueError, match="chain index"):
                kernel_set(2, 0, 1).abs_integral(bad)
            with pytest.raises(ValueError, match="chain index"):
                kernel_set(2, Fraction(1, 3), 2).l2sq(bad)


class TestClosedForms:
    """The chain, the parameters and verify's separators come from closed
    forms; the matching route is their independent witness."""

    def test_unit_chain_equals_the_matching_route(self):
        for n in range(1, 65):
            matched = kernel_from_params(solve_params(n, 0, 1))
            assert kernel._unit_chain(n) == (matched,) + antiderivative_chain(matched, 0, n)

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from([32, 48, 64]), intervals())
    def test_params_equal_the_solved_ones(self, n, interval):
        a, b = interval
        assert KernelSet(n, a, b).params == solve_params(n, a, b)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=64), intervals())
    def test_verify_closed_deltas_equal_the_solved_and_read_ones(self, n, interval):
        a, b = interval
        closed = verify._closed_deltas(n, a, b)
        assert closed == solve_params(n, a, b).deltas == kernel_set(n, a, b).params.deltas

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 64])
    def test_params_on_a_symmetric_interval(self, n):
        # a + b = 0 gives K the parity of n: delta_i is 0 exactly for odd n - i.
        a, b = Fraction(-3, 2), Fraction(3, 2)
        params = KernelSet(n, a, b).params
        assert params == solve_params(n, a, b)
        assert len(params.deltas) == n - 1
        assert [d == 0 for d in params.deltas] == [(n - i) % 2 == 1 for i in range(n - 1)]

    def test_separators_alternate_on_the_unit_interval(self):
        for n in range(1, 65):
            points = verify._separators(n, Fraction(0), Fraction(1))
            assert len(points) == n + 1
            assert all(x < y for x, y in zip(points, points[1:]))
            signs = [kernel_set(n, 0, 1).kernel.sign(x) for x in points]
            assert all(s * t < 0 for s, t in zip(signs, signs[1:])), n

    def test_kernel_and_bounds_never_solve_the_matching_system(self, monkeypatch, capsys):
        calls = []

        def spy(name, real):
            def counted(*args):
                calls.append(name)
                return real(*args)
            return counted

        for name in ("solve_params", "kernel_from_params", "antiderivative_chain"):
            monkeypatch.setattr(kernel, name, spy(name, getattr(kernel, name)))
        for cache in (kernel._unit_chain, kernel._unit_abs_integral, kernel._unit_l2sq):
            cache.cache_clear()
        interval = ("--n", "7", "--a=-2/3", "--b=5/4")
        for fmt in ("json", "csv", "text"):
            assert cli.main(["kernel", *interval, "--format", fmt]) == 0
        assert cli.main(["bounds", *interval, "--fn", "exp(x)", "--format", "json"]) == 0
        capsys.readouterr()
        assert calls == []
