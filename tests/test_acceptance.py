"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; a pytest failure on any test is the corresponding FAIL signal.
All tolerances are pinned here, not configurable.
"""

import math
import time
from fractions import Fraction

import pytest

from hermquad.exactmath import Polynomial, X
from hermquad.expressions import (
    derivative_function,
    evaluator,
    jet_eval,
    jet_provider,
    parse,
)
from hermquad.kernel import (
    antiderivative_chain,
    kernel_abs_integral,
    kernel_from_params,
    kernel_l2sq,
    kernel_set,
    peano_kernel,
    rodrigues_kernel,
    solve_params,
)
from hermquad.oracle import reference_integrate
from hermquad.quadrature import (
    Partition,
    bound_l2,
    bound_uniform,
    e2_bound_f3,
    error_exact,
    integrate_composite,
    integrate_single,
    observed_orders,
    sample_uniform,
)
from hermquad.weights import apply_rule, compute_weights

from conftest import monomial_jets

TIGHT = 1e-12

CORPUS = ("exp(x)", "sin(x)", "x^2*sin(x)", "1/(1+x^2)")

KERNEL_INTERVALS = (
    (Fraction(0), Fraction(1)),
    (Fraction(-1), Fraction(1)),
    (Fraction(1, 3), Fraction(7, 2)),
)


def report(number, text):
    print(f"ACCEPTANCE {number:02d}: PASS - {text}")


def test_01_single_interval_x2_sinx():
    started = time.perf_counter()
    expr = parse("x^2*sin(x)")
    quadrature = float(integrate_single(jet_provider(expr), 2, 0, Fraction(math.pi)))
    reference = reference_integrate(evaluator(expr), 0.0, math.pi, TIGHT)
    elapsed = time.perf_counter() - started

    assert abs(quadrature - math.pi ** 4 / 12) <= 1e-10
    assert reference.converged
    assert abs(reference.value - (math.pi ** 2 - 4)) <= 1e-10
    error = quadrature - reference.value
    # The value forced by the two clauses above: pi^4/12 - (pi^2 - 4) = 2.2478199...
    assert abs(error - (math.pi ** 4 / 12 - (math.pi ** 2 - 4))) <= 1e-6
    assert elapsed < 1.0
    report(1, f"quadrature pi^4/12, reference pi^2-4, error {error:.6f} in {elapsed:.3f}s")


def test_02_weight_table_and_exactness():
    started = time.perf_counter()
    rule = compute_weights(2, 0, 1)
    assert rule.w_a == (Fraction(1, 2), Fraction(1, 12))
    assert rule.w_b == (Fraction(1, 2), Fraction(-1, 12))

    for a, b in ((Fraction(0), Fraction(1)), (Fraction(-2, 3), Fraction(5, 4))):
        for n in range(1, 11):
            rule = compute_weights(n, a, b)
            for d in range(2 * n):
                value = apply_rule(
                    rule, monomial_jets(d, n, a), monomial_jets(d, n, b)
                )
                assert value == Polynomial.monomial(d).integrate(a, b)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(2, f"n=2 weights exact; monomial exactness n=1..10 in {elapsed:.3f}s")


def test_03_kernel_triple_identity():
    for a, b in KERNEL_INTERVALS:
        for n in range(1, 13):
            params = solve_params(n, a, b)
            matched = kernel_from_params(params)
            assert matched == rodrigues_kernel(n, a, b)
            chain = antiderivative_chain(matched, a, n)
            closed = (X - a) ** n * (X - b) ** n / math.factorial(2 * n)
            assert chain[-1] == closed
            assert peano_kernel(compute_weights(n, a, b)) == closed

            # Closed-form parameter checks implied by the identity.
            w = b - a
            s = a + b
            assert params.c == -s / 2
            if n >= 2:
                assert params.deltas[n - 2] == -(w ** 2) / Fraction(8 * (2 * n - 1))
            if n >= 3:
                assert params.deltas[n - 3] == s * w ** 2 / Fraction(16 * (2 * n - 1))
            if n >= 4:
                assert params.deltas[n - 4] == w ** 2 * (
                    w ** 2 + (6 - 4 * n) * s ** 2
                ) / Fraction(128 * (2 * n - 3) * (2 * n - 1))
    report(3, "matched = Rodrigues = Peano/chain for n=1..12 on three intervals, exact")


def test_04_orthogonality_and_symmetry():
    for a, b in KERNEL_INTERVALS:
        for n in range(1, 13):
            kern = rodrigues_kernel(n, a, b)
            for m in range(n):
                assert (Polynomial.monomial(m) * kern).integrate(a, b) == 0
            assert (kern.compose_affine(a + b, -1) - kern * ((-1) ** n)).is_zero()
    report(4, "kernel orthogonal to x^m (m < n) and (-1)^n-symmetric, n <= 12, exact")


def test_05_kernel_norm_constants():
    ks = kernel_set(2, 0, 1)
    g = ks.member(1)
    assert ks.l2sq() == Fraction(1, 720)
    assert kernel_l2sq(g, 0, 1) == Fraction(1, 30240)
    assert abs(ks.abs_integral() - math.sqrt(3) / 54) <= 1e-12
    assert abs(kernel_abs_integral(g, 0, 1) - 1 / 192) <= 1e-12
    report(5, "1/720 and 1/30240 exact; sqrt(3)/54 and 1/192 within 1e-12")


def test_06_first_failure_error():
    for n in range(1, 7):
        rule = compute_weights(n, 0, 1)
        value = apply_rule(
            rule,
            monomial_jets(2 * n, n, Fraction(0)),
            monomial_jets(2 * n, n, Fraction(1)),
        )
        error = Fraction(1, 2 * n + 1) - value
        assert error == Fraction(
            (-1) ** n * math.factorial(n) ** 2, math.factorial(2 * n + 1)
        )
    report(6, "error on x^(2n) equals (-1)^n (n!)^2/(2n+1)! exactly for n=1..6")


def test_07_composite_convergence_order():
    started = time.perf_counter()
    jets = jet_provider(parse("exp(x)"))
    exact = math.e - 1
    finest_orders = {}
    for n in (1, 2, 3):
        errors = []
        for m in (2, 4, 8, 16, 32):
            part = Partition.uniform(0, 1, m)
            node_jets = [jets(x, n - 1) for x in part.nodes]
            errors.append(abs(float(integrate_composite(node_jets, n, part)) - exact))
        order = observed_orders(errors, (2, 4, 8, 16, 32))[-1]
        assert order is not None
        assert abs(order - 2 * n) <= 0.15
        finest_orders[n] = order
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    orders_text = ", ".join(f"n={n}: {o:.3f}" for n, o in finest_orders.items())
    report(7, f"observed orders {orders_text} in {elapsed:.3f}s")


def test_08_bound_validity_on_corpus():
    cases = 0
    for text in CORPUS:
        expr = parse(text)
        reference = reference_integrate(evaluator(expr), 0.0, 1.0, TIGHT)
        assert reference.converged
        for n in (2, 3):
            quadrature = float(integrate_single(jet_provider(expr), n, 0, 1))
            actual = abs(quadrature - reference.value)
            ks = kernel_set(n, 0, 1)
            samples = sample_uniform(derivative_function(expr, n), 0, 1, 257)
            assert actual <= bound_uniform(samples, ks)
            assert actual <= bound_l2(samples, ks)
            cases += 1
            if n == 2:
                f3_samples = sample_uniform(derivative_function(expr, 3), 0, 1, 257)
                uniform, l2 = e2_bound_f3(f3_samples, ks)
                assert actual <= uniform
                assert actual <= l2
    report(8, f"uniform/L2 bounds dominate the true error in all {cases} cases + f''' pairs")


def test_09_mild_regularity_log_kink():
    def antiderivative(x):
        u = x - 0.5
        if u == 0.0:
            return -x
        return u * math.log(abs(u)) - x

    def f(x):
        return antiderivative(x) - antiderivative(0.0)

    def fprime(x):
        u = x - 0.5
        return math.log(abs(u)) if u != 0.0 else float("-inf")

    jets = lambda x, m: (f(float(x)),)
    quadrature = float(integrate_single(jets, 1, 0, 1))
    reference = reference_integrate(f, 0.0, 1.0, 1e-11)
    assert reference.converged
    via_kernel = error_exact(fprime, kernel_set(1, 0, 1), 1e-10)
    assert abs((reference.value - quadrature) - via_kernel) <= 1e-6
    report(9, "integral(f' K_1) matches reference - quadrature despite unbounded f''")


def test_10_jet_derivatives_vs_finite_differences():
    def central(f, x, k, h):
        if k == 1:
            return (f(x + h) - f(x - h)) / (2 * h)
        if k == 2:
            return (f(x + h) - 2 * f(x) + f(x - h)) / h ** 2
        if k == 3:
            return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (
                2 * h ** 3
            )
        return (
            f(x + 2 * h) - 4 * f(x + h) + 6 * f(x) - 4 * f(x - h) + f(x - 2 * h)
        ) / h ** 4

    points = {"exp(x)": 0.7, "sin(x)": 1.0, "x^2*sin(x)": 1.0, "1/(1+x^2)": 0.5}
    checks = 0
    for text, x0 in points.items():
        expr = parse(text)
        f = evaluator(expr)
        for k in (1, 2, 3, 4):
            jet_value = jet_eval(expr, x0, k).derivative(k)
            coarse = central(f, x0, k, 1e-2)
            fine = central(f, x0, k, 5e-3)
            richardson = (4 * fine - coarse) / 3
            assert jet_value == pytest.approx(richardson, rel=1e-5)
            checks += 1
    report(10, f"jet derivatives match Richardson differences in all {checks} cases")
