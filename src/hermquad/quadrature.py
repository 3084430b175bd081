"""Single-interval and composite quadrature, exact error, and error bounds.

Jets feed the rules: a jet at x is the sequence f, f', ..., f^(m) there.
``integrate_single`` asks a provider, a callable ``(x, m) -> jet``, for
the jets at its two endpoints; ``integrate_composite`` takes the jets at
the nodes of its partition, whose nodes are integer ticks over one
denominator.  With rational jets everything stays exact; float jets flow
through as floats.

The error of the order-n rule is E_n = integral((-1)^n f^(n) K_n), which
needs only the n-th derivative of the integrand.  Each member K^(k) of the
kernel's antiderivative chain (``KernelSet.member``) vanishes at a and b
for k <= n, so k integrations by parts give E_n = integral((-1)^(n+k)
f^(n+k) K^(k)) for every k = 0..n.  ``error_exact`` evaluates it with the
reference integrator.  The bound estimators replace f^(n+k) by its
deviation from the midrange (uniform norm) or from the mean (L2 norm),
paired with the exact norms of K^(k); extrema and means come from
sampling, so the bounds are estimates rather than rigorous enclosures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

from .exactmath import rational
from .kernel import KernelSet, kernel_set
from .oracle import _DEFAULT_TOL, ConvergenceError, reference_integrate
from .weights import apply_rule, compute_weights

__all__ = [
    "Partition",
    "ErrorReport",
    "integrate_single",
    "integrate_composite",
    "error_exact",
    "bound_uniform",
    "bound_l2",
    "e2_bound_f3",
    "e2_classical_f4",
    "sample_uniform",
    "refined_bounds",
    "observed_orders",
]


@dataclass(frozen=True, init=False)
class Partition:
    """Nodes x_0 < ... < x_m covering [x_0, x_m]; a partition is its integer grid.

    Node i is ``ticks[i] / den``, where ``den`` is the least common
    denominator of the nodes, so two partitions are equal when their nodes
    are.  ``Partition(nodes)`` reads each node as ``rational`` does (int,
    Fraction, finite float or a decimal or "p/q" string), and ``nodes``
    rebuilds the exact ``Fraction`` values on demand.
    """

    den: int
    ticks: tuple

    def __init__(self, nodes):
        nodes = [rational(x) for x in nodes]
        den = math.lcm(*(x.denominator for x in nodes))
        self._set(den, tuple(x.numerator * (den // x.denominator) for x in nodes))

    def _set(self, den: int, ticks: tuple) -> "Partition":
        """Check the ticks and store the grid; the one place a partition is filled in."""
        if len(ticks) < 2:
            raise ValueError("a partition needs at least two nodes")
        if not all(t0 < t1 for t0, t1 in zip(ticks, ticks[1:])):
            raise ValueError("partition nodes must be strictly increasing")
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "ticks", ticks)
        return self

    @property
    def nodes(self) -> tuple:
        """The exact nodes, ``Fraction(t, den)`` for each tick."""
        return tuple(Fraction(t, self.den) for t in self.ticks)

    @classmethod
    def uniform(cls, a, b, m: int) -> "Partition":
        """m equal subintervals with exact rational nodes a + k*(b-a)/m.

        With a = p/q and b = r/s, node k is (p*s*m + k*(r*q - p*s)) / (q*s*m),
        an arithmetic progression of integer ticks; dividing out the common
        factor of the first tick, the step and q*s*m makes ``den`` the least
        common denominator.  No node becomes a ``Fraction``, and node m is b.
        """
        if m < 1:
            raise ValueError("subinterval count must be >= 1")
        p, q = rational(a).as_integer_ratio()
        r, s = rational(b).as_integer_ratio()
        start, span, den = p * s * m, r * q - p * s, q * s * m
        g = math.gcd(start, span, den)
        return cls.__new__(cls)._set(den // g, tuple((start + k * span) // g for k in range(m + 1)))


@dataclass(frozen=True)
class ErrorReport:
    """Quadrature outcome with optional reference, error, and bound estimates.

    ``actual_error`` is derived, not stored: quadrature_value -
    reference_value, or None without a reference.  Bounds are sampling-based
    estimates; ``derivative_order_used`` records which derivative f^(n+k)
    fed them (0: no bounds requested).  At order 2n,
    ``error_via_derivative`` holds the exact error through that derivative
    in place of bounds, and ``bound_kind``, derived from the order, is
    "mean" there and "midrange" otherwise.  ``to_json_dict`` and
    ``csv_cells`` serialize the record (docs/json-schemas.md).
    """

    #: Serialized column name -> field, in CSV column order.
    _COLUMN_FIELDS: ClassVar[dict] = {
        "n": "n",
        "m": "m",
        "h": "h",
        "quadrature": "quadrature_value",
        "reference": "reference_value",
        "error": "actual_error",
        "observed_order": "observed_order",
        "bound_uniform": "bound_uniform",
        "bound_l2": "bound_l2",
    }
    CSV_COLUMNS: ClassVar[tuple] = tuple(_COLUMN_FIELDS)

    quadrature_value: float
    reference_value: float | None = None
    bound_uniform: float | None = None
    bound_l2: float | None = None
    derivative_order_used: int = 0
    n: int | None = None
    m: int = 1
    h: float | None = None
    observed_order: float | None = None
    fn: str | None = None
    reference_err_estimate: float | None = None
    bound_stable: bool | None = None
    error_via_derivative: float | None = None

    @property
    def actual_error(self) -> float | None:
        if self.reference_value is None:
            return None
        return self.quadrature_value - self.reference_value

    @property
    def bound_kind(self) -> str:
        order_2n = self.n is not None and self.derivative_order_used == 2 * self.n
        return "mean" if order_2n else "midrange"

    def csv_cells(self) -> list:
        """The ``CSV_COLUMNS`` values, empty where a value does not apply."""
        values = (getattr(self, field) for field in self._COLUMN_FIELDS.values())
        return ["" if value is None else value for value in values]

    def to_json_dict(self) -> dict:
        """The CSV columns (null where absent), then the extras that are set."""
        doc = {column: getattr(self, field) for column, field in self._COLUMN_FIELDS.items()}
        extras = {"reference_err_estimate": self.reference_err_estimate, "fn": self.fn}
        order = self.derivative_order_used
        if order:
            extras["bound_kind"] = self.bound_kind
            extras["bound_stable"] = self.bound_stable
            extras[f"error_via_f{order}"] = self.error_via_derivative
            extras["derivative_order_used"] = order
        doc.update((key, value) for key, value in extras.items() if value is not None)
        return doc


def integrate_single(jets, n: int, a, b):
    """Apply the order-n rule on [a, b] using jets from ``jets(x, n-1)``."""
    rule = compute_weights(n, a, b)
    jet_a = jets(a, n - 1)
    jet_b = jets(b, n - 1)
    return apply_rule(rule, jet_a, jet_b)


def integrate_composite(node_jets, n: int, partition: Partition):
    """Composite order-n rule over a partition, from the jets at its nodes.

    ``node_jets[i]`` holds f, f', ..., f^(n-1) at node i; adjacent panels
    share the jet at their common node.  A panel [x_i, x_{i+1}] of width h
    adds, with w_a from ``compute_weights(n, 0, h)``,

        sum_j w_a[j] * (f^(j)(x_i) + (-1)^j f^(j)(x_{i+1})).

    Each width is the exact difference of two ticks over ``den``, so the
    value depends on the nodes alone.  Consecutive panels of equal width
    share one rule, and only a new width becomes a ``Fraction``.  A table's
    jets come from one source, so its first value decides for the whole
    table, a mixed one too: when it is a float, each rule's weights are
    rounded to doubles once, which is what ``Fraction * float`` would do
    on every panel; otherwise the weights stay exact.
    """
    den, ticks = partition.den, partition.ticks
    if len(node_jets) != len(ticks):
        raise ValueError(f"{len(node_jets)} node jets for a partition of {len(ticks)} nodes")
    floats = isinstance(node_jets[0][0], float)
    width = None
    total = 0
    for t0, t1, left, right in zip(ticks, ticks[1:], node_jets, node_jets[1:]):
        if t1 - t0 != width:
            width = t1 - t0
            rule = compute_weights(n, 0, Fraction(width, den))
            weights = tuple(map(float, rule.w_a)) if floats else rule.w_a
        for j, w in enumerate(weights):
            total += w * (left[j] - right[j] if j & 1 else left[j] + right[j])
    return total


def error_exact(f_n, kernel: KernelSet, tol: float = _DEFAULT_TOL, k: int = 0) -> float:
    """The exact error integral E_n = integral((-1)^(n+k) f^(n+k)(x) K^(k)(x)).

    E_n is the signed defect of the rule: true integral = rule value + E_n.
    ``f_n`` evaluates the (n+k)-th derivative.  Every 0 <= k <= n gives the
    same E_n: each K^(j) with j <= n vanishes at a and b, so the k
    integrations by parts leave no boundary terms.  Raises
    :class:`~hermquad.oracle.ConvergenceError` if the reference integrator
    cannot meet ``tol``.

    When ``f_n`` has a ``many`` attribute (as ``derivative_function``
    gives it), the integrand has one too, so the reference samples f^(n+k)
    a batch of points at a time.  Each value is the scalar integrand's,
    sign * f^(n+k)(x) * K^(k)(x).  K^(k)'s coefficients are rounded before
    any sample, so only f^(n+k) can fail at a point, and ``many`` raises
    the first failing point's error, as the scalar integrand does.
    """
    sign = -1.0 if (kernel.n + k) % 2 else 1.0
    kern = kernel.float_member(k)

    def integrand(x):
        return sign * f_n(x) * kern(x)

    many = getattr(f_n, "many", None)
    if many is not None:
        integrand.many = lambda xs: [sign * v * kern(x) for v, x in zip(many(xs), xs)]
    result = reference_integrate(integrand, float(kernel.a), float(kernel.b), tol)
    if not result.converged:
        raise ConvergenceError("error integral did not converge", result)
    return result.value


def _spread_half(samples) -> float:
    if len(samples) < 2:
        raise ValueError("need at least two derivative samples")
    return 0.5 * (max(samples) - min(samples))


def _trapezoid(samples, a: float, b: float) -> float:
    h = (b - a) / (len(samples) - 1)
    inner = 0.0
    for s in samples[1:-1]:  # left to right: sum() of floats is compensated from Python 3.12
        inner += s
    return h * (0.5 * samples[0] + inner + 0.5 * samples[-1])


def _l2_deviation(samples, a: float, b: float) -> float:
    if len(samples) < 2:
        raise ValueError("need at least two derivative samples")
    mean = _trapezoid(samples, a, b) / (b - a)
    squares = [(s - mean) ** 2 for s in samples]
    return math.sqrt(max(_trapezoid(squares, a, b), 0.0))


def _check_bound_index(kernel: KernelSet, k: int) -> None:
    if not 0 <= k < kernel.n:
        raise ValueError(f"bounds need 0 <= k <= n-1 = {kernel.n - 1}, got k = {k}")


def bound_uniform(f_n_samples, kernel: KernelSet, *, k: int = 0) -> float:
    """|E_n| <= sup|f^(n+k) - midrange| * integral(|K^(k)|), from sampled extrema.

    Needs 0 <= k <= n-1: only then is integral(K^(k)) = K^(k+1)(b) -
    K^(k+1)(a) = 0, so subtracting the midrange from f^(n+k) leaves the
    error unchanged.
    """
    _check_bound_index(kernel, k)
    return _spread_half(f_n_samples) * kernel.abs_integral(k)


def bound_l2(f_n_samples, kernel: KernelSet, k: int = 0) -> float:
    """|E_n| <= ||f^(n+k) - mean||_2 * ||K^(k)||_2, deviation norm by trapezoid.

    Samples must lie on a uniform grid over [a, b] including both endpoints.
    Needs 0 <= k <= n-1, as ``bound_uniform`` explains.
    """
    _check_bound_index(kernel, k)
    a = float(kernel.a)
    b = float(kernel.b)
    return _l2_deviation(f_n_samples, a, b) * _sqrt(kernel.l2sq(k))


def _sqrt(q) -> float:
    """sqrt(q) = sqrt(r) * 2^e for an exact q = r * 4^e >= 0 with r near 1: finite beyond
    the double range, and bit for bit sqrt(float(q)) where q is a normal double."""
    e = (q.numerator.bit_length() - q.denominator.bit_length()) // 2
    return math.ldexp(math.sqrt(float(q / 4 ** e if e >= 0 else q * 4 ** -e)), e)


def e2_bound_f3(f3_samples, kernel: KernelSet) -> tuple:
    """Third-derivative bounds for the n = 2 rule: the k = 1 (uniform, l2) pair.

    For G = K^(1), integral(|G|) = (b-a)^4/192 and ||G||_2^2 = (b-a)^7/30240.
    """
    if kernel.n != 2:
        raise ValueError("third-derivative bounds apply to the order-2 rule only")
    return bound_uniform(f3_samples, kernel, k=1), bound_l2(f3_samples, kernel, k=1)


def e2_classical_f4(f4, a, b, tol: float = _DEFAULT_TOL) -> float:
    """E_2 through the fourth derivative: ``error_exact`` with n = 2, k = 2.

    The weight K^(2) = (x-a)^2 (x-b)^2 / 24 is nonnegative, so for constant
    f'''' = c this equals c (b-a)^5 / 720.
    """
    return error_exact(f4, kernel_set(2, a, b), tol, k=2)


def sample_uniform(f, a, b, count: int = 257) -> list:
    """f on a uniform grid over [a, b], endpoints included.

    The grid is built first and sampled in one call of ``f.many`` when f
    has it (as ``derivative_function`` gives it), else f at each point in
    turn; either way the values, and the error of the first failing point,
    are the same.
    """
    if count < 2:
        raise ValueError("need at least two sample points")
    a = float(a)
    b = float(b)
    step = (b - a) / (count - 1)
    points = [a + i * step for i in range(count)]
    many = getattr(f, "many", None)
    return [f(x) for x in points] if many is None else many(points)


def refined_bounds(f_deriv, kernel: KernelSet, count: int = 257, k: int = 0):
    """Midrange/mean bounds on f^(n+k) with one sampling refinement pass.

    Samples f once on 2*count - 1 points, one batch through
    ``sample_uniform`` when f has ``many``, whose even points form the
    ``count``-point grid, and takes both grids' bounds from ``bound_uniform``
    and ``bound_l2``.  The result is stable when neither bound moved by
    more than 1%.  Returns (uniform, l2, stable) of the finer grid.  Needs
    0 <= k <= n-1, as ``bound_uniform`` explains.
    """
    fine = sample_uniform(f_deriv, kernel.a, kernel.b, 2 * count - 1)
    pairs = [(bound_uniform(s, kernel, k=k), bound_l2(s, kernel, k)) for s in (fine[::2], fine)]
    stable = all(abs(f - c) <= 0.01 * max(abs(f), 1e-300) for c, f in zip(*pairs))
    return (*pairs[1], stable)


def observed_orders(errors, counts) -> list:
    """Observed convergence orders of a table of errors for panel counts ``counts``.

    Between consecutive rows, log2(e_prev / e) / log2(m / m_prev): the p in
    e ~ C m^-p.  When m doubles the divisor is exactly 1.  None in the first
    row, and where either error is 0 or the two counts are equal.
    """
    orders = [None]
    for e0, e1, m0, m1 in zip(errors, errors[1:], counts, counts[1:]):
        if e0 > 0 and e1 > 0 and m0 != m1:
            orders.append(math.log2(e0 / e1) / math.log2(m1 / m0))
        else:
            orders.append(None)
    return orders
