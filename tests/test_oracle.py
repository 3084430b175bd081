import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermquad import oracle
from hermquad.exactmath import Polynomial
from hermquad.expressions import EvalDomainError, evaluator, parse
from hermquad.oracle import _panel, reference_integrate

from conftest import coeff_lists, intervals


class TestEmbeddedPair:
    def test_kronrod_exact_to_degree_22(self):
        for d in range(23):
            kron, _, _, tainted = _panel(lambda x, d=d: x ** d, 0.0, 1.0)
            assert not tainted
            assert kron == pytest.approx(1.0 / (d + 1), rel=5e-14)

    def test_gauss_exact_to_degree_13(self):
        for d in range(14):
            _, gauss, _, _ = _panel(lambda x, d=d: x ** d, 0.0, 1.0)
            assert gauss == pytest.approx(1.0 / (d + 1), rel=5e-14)

    def test_absurd_tolerance_returns_quickly_unconverged(self):
        # The noise floor stops refinement at float precision instead of
        # splitting to the depth limit everywhere.
        res = reference_integrate(
            lambda x: 1.0 / (1.0 + 25.0 * x * x),
            -1.0,
            1.0,
            1e-30,
        )
        assert not res.converged
        assert res.value == pytest.approx(2.0 / 5.0 * math.atan(5.0), rel=1e-13)
        assert res.panels < 10_000


class TestReferenceIntegrate:
    def test_x2_sinx(self):
        res = reference_integrate(
            lambda x: x * x * math.sin(x), 0.0, math.pi,
            1e-13,
        )
        assert res.converged
        assert res.value == pytest.approx(math.pi ** 2 - 4, abs=1e-12)
        assert abs(res.value - (math.pi ** 2 - 4)) <= max(1e-13, res.err_estimate)

    def test_linear(self):
        res = reference_integrate(lambda x: x, 0.0, 1.0)
        assert res.converged
        assert res.value == pytest.approx(0.5, abs=1e-14)

    def test_exponential(self):
        res = reference_integrate(math.exp, 0.0, 1.0)
        assert res.converged
        assert res.value == pytest.approx(math.e - 1, rel=1e-13)

    def test_reversed_and_empty_limits(self):
        forward = reference_integrate(math.exp, 0.0, 1.0)
        backward = reference_integrate(math.exp, 1.0, 0.0)
        assert backward.value == -forward.value
        assert reference_integrate(math.exp, 2.0, 2.0).value == 0.0

    @settings(max_examples=40)
    @given(coeff_lists, intervals())
    def test_polynomials_to_1e13_relative(self, coeffs, interval):
        a, b = interval
        p = Polynomial(coeffs[:11])  # degree <= 10
        exact = float(p.integrate(a, b))
        res = reference_integrate(lambda x: p(x), float(a), float(b))
        assert res.converged
        scale = max(abs(exact), 1.0)
        assert abs(res.value - exact) <= 1e-13 * scale

    @pytest.mark.parametrize(
        "f,a,b",
        [
            (lambda x: math.exp(-x * x), -3.0, 3.0),
            (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0),
            (lambda x: math.sin(40.0 * x), 0.0, 1.0),
        ],
    )
    def test_self_consistency_under_tightening(self, f, a, b):
        loose = reference_integrate(f, a, b, 1e-8)
        tight = reference_integrate(f, a, b, 1e-9)
        assert loose.converged and tight.converged
        assert abs(loose.value - tight.value) <= max(loose.err_estimate, 1e-15)

    def test_integrable_singularity_is_split_not_crashed(self):
        # log|x - 1/2| hits -inf at the first panel's center node.
        def f(x):
            return math.log(abs(x - 0.5)) if x != 0.5 else float("-inf")

        res = reference_integrate(f, 0.0, 1.0, 1e-9)
        assert res.converged
        assert res.value == pytest.approx(-math.log(2) - 1, abs=1e-8)

    def test_unconverged_is_flagged(self, monkeypatch):
        def f(x):
            return math.log(abs(x - 0.5)) if x != 0.5 else float("-inf")

        monkeypatch.setattr(oracle, "_MAX_DEPTH", 3)
        res = reference_integrate(f, 0.0, 1.0, 1e-13)
        assert not res.converged

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_no_finite_sample_stops_at_once(self, value):
        calls = []

        def f(x):
            calls.append(x)
            return value

        res = reference_integrate(f, 0.0, 1.0)
        assert not res.converged
        assert res.err_estimate == math.inf
        assert (res.value, res.panels, len(calls)) == (0.0, 1, 15)

    def test_void_region_is_unconverged_not_endless(self):
        # Finite on [0, 1/2], overflowing beyond: the void panels end the
        # refinement there instead of splitting to the depth limit.
        res = reference_integrate(lambda x: 1.0 if x <= 0.5 else math.inf, 0.0, 1.0)
        assert not res.converged
        assert res.err_estimate == math.inf
        assert res.panels < 1000

    def test_overflowing_rule_sums_stop_at_once(self):
        # Every sample is finite, but the weighted sums overflow: splitting
        # cannot help, so the panel stops like a void one, and an infinite
        # value is never converged.
        calls = []

        def f(x):
            calls.append(x)
            return 1.7e308

        res = reference_integrate(f, 1.0, 2.0)
        assert not res.converged
        assert res.err_estimate == math.inf
        assert res.value == math.inf
        assert (res.panels, len(calls)) == (1, 15)

    def test_overflow_beside_finite_region_is_unconverged(self):
        res = reference_integrate(lambda x: 1e308 * x, 1.0, 2.0)
        assert not res.converged
        assert res.err_estimate == math.inf
        assert res.panels < 1000

    def test_integrand_is_called_at_one_stack_depth(self):
        # The first panel and every panel after a split evaluate f from the
        # same frame, however deep the bisection goes.
        depths = set()

        def f(x):
            frame, depth = sys._getframe(), 0
            while frame is not None:
                frame, depth = frame.f_back, depth + 1
            depths.add(depth)
            return math.sqrt(x)

        res = reference_integrate(f, 0.0, 1.0)
        assert res.panels > 50
        assert len(depths) == 1

    def test_panel_budget_stops_splitting(self, monkeypatch):
        full = reference_integrate(math.sqrt, 0.0, 1.0)
        assert full.converged
        # A budget the integral stays under changes nothing.
        monkeypatch.setattr(oracle, "_PANEL_BUDGET", full.panels + 1)
        assert reference_integrate(math.sqrt, 0.0, 1.0) == full
        # A spent budget splits no more panels and is never converged.
        monkeypatch.setattr(oracle, "_PANEL_BUDGET", 9)
        cut = reference_integrate(math.sqrt, 0.0, 1.0)
        assert (cut.converged, cut.panels) == (False, 9)

    def test_config_validation(self):
        f = lambda x: 1.0 / (1.0 + 25.0 * x * x)
        default = reference_integrate(f, -1.0, 1.0)
        explicit = reference_integrate(f, -1.0, 1.0, 1e-12)
        assert default == explicit
        assert (default.value.hex(), default.err_estimate.hex()) == (
            explicit.value.hex(), explicit.err_estimate.hex())
        for tol in (0.0, -1e-10):
            self.assert_rejected_before_sampling(tol)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerances_are_rejected(self, tol):
        self.assert_rejected_before_sampling(tol)

    @staticmethod
    def assert_rejected_before_sampling(tol):
        calls = []

        def f(x):
            calls.append(x)
            return x

        for a, b in ((0.0, 1.0), (1.0, 1.0)):
            with pytest.raises(ValueError, match="tol must be finite and positive"):
                reference_integrate(f, a, b, tol)
        assert calls == []


def loop_panel(f, lo, hi):
    """The panel as a loop over the Kronrod nodes, sampling f one point at a
    time: the reference for the samples' order and the sums' addition order."""
    center, half, bad = 0.5 * (lo + hi), 0.5 * (hi - lo), 0

    def sample(x):
        nonlocal bad
        v = float(f(x))
        if not math.isfinite(v):
            bad += 1
            return 0.0
        return v

    fc = sample(center)
    kron, kron_abs, gauss = oracle._WGK_CENTER * fc, oracle._WGK_CENTER * abs(fc), oracle._WG_CENTER * fc
    for i, xi in enumerate(oracle._XGK):
        dx = half * xi
        left, right = sample(center - dx), sample(center + dx)
        kron += oracle._WGK[i] * (left + right)
        kron_abs += oracle._WGK[i] * (abs(left) + abs(right))
        if i % 2 == 1:
            gauss += oracle._WG[i // 2] * (left + right)
    return half * kron, half * gauss, half * kron_abs, bad


SAMPLE_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324]),
)


class TestPanelOrder:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(SAMPLE_VALUES, min_size=15, max_size=15),
           st.floats(-10, 10), st.floats(1e-9, 10))
    def test_panel_equals_the_loop_bit_for_bit(self, values, lo, width):
        hi = lo + width

        def recorder(points):
            table = iter(values)

            def f(x):
                points.append(x)
                return next(table)

            return f

        want_points, got_points, batches = [], [], []
        want = loop_panel(recorder(want_points), lo, hi)
        scalar = _panel(recorder(got_points), lo, hi)

        class Batch:
            def many(self, xs):
                batches.append(list(xs))
                return list(values)

        batched = _panel(Batch(), lo, hi)
        hexed = [v.hex() for v in want[:3]] + [want[3]]
        assert [v.hex() for v in scalar[:3]] + [scalar[3]] == hexed
        assert [v.hex() for v in batched[:3]] + [batched[3]] == hexed
        assert got_points == want_points and batches == [want_points]


def outcome(integrate):
    try:
        return integrate()
    except EvalDomainError as exc:
        return "EvalDomainError", str(exc)


class TestSiblingBatch:
    """A split samples both halves in one ``many`` call, and the result is
    the one an integrand without ``many`` gets one point at a time."""

    @pytest.mark.parametrize("text, a, b, panels", [
        ("sin(1/x)", 1e-6, 1.0, oracle._PANEL_BUDGET + 1),  # spends the panel budget
        ("sqrt(1e308*x*4)", 0.0, 1.0, 189),  # inf right of 0.45: tainted panels
        ("1e308*x", 0.0, 4.0, 3),  # finite samples whose rule sums overflow
    ])
    def test_results_are_the_same_with_and_without_many(self, text, a, b, panels):
        f = evaluator(parse(text))
        batched = reference_integrate(f, a, b)
        assert batched == reference_integrate(lambda x: f(x), a, b)
        assert batched.panels == panels and not batched.converged

    @pytest.mark.parametrize("text, message", [
        # Only the right half of the first split samples 0.75.
        ("log((x-0.75)^2)", "log of a non-positive value in 'log(((x - 0.75) ^ 2))'"),
        # Both halves fail; the walk meets the right half's log first, and
        # the left half's center, the first failing point, names the sqrt.
        ("log((x-0.75)^2) + sqrt((x-0.25)^2)",
         "sqrt of a non-positive value in 'sqrt(((x - 0.25) ^ 2))'"),
    ])
    def test_a_failing_split_raises_the_first_failing_points_error(self, text, message):
        f = evaluator(parse(text))
        assert _panel(f, 0.0, 1.0)[3] == 0  # the first panel samples neither point
        want = ("EvalDomainError", message)
        assert outcome(lambda: reference_integrate(f, 0.0, 1.0)) == want
        assert outcome(lambda: reference_integrate(lambda x: f(x), 0.0, 1.0)) == want
