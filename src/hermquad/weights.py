"""Closed-form quadrature weights for endpoint-derivative rules.

The order-n rule integrates the unique degree <= 2n-1 polynomial matching
f, f', ..., f^(n-1) at both endpoints, and takes the form

    integral(f, a, b)  ~  sum_j  w_a[j] f^(j)(a) + w_b[j] f^(j)(b)

with exact rational weights, the classical two-point Obreshkov weights,

    w_a[j] = (b-a)^(j+1) * n! (2n-j-1)! / ((2n)! (n-j-1)! (j+1)!)
    w_b[j] = (-1)^j * w_a[j].

The dimensionless coefficients ``omega_coeffs`` are the interval-free part,
w_a[j] = omega[j] * (b-a)^(j+1); the composite rule reuses them per panel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exactmath import format_rational, rational_interval

__all__ = [
    "HermiteRule",
    "omega_coeffs",
    "compute_weights",
    "apply_rule",
]

#: Cap on the rule order; weights for much larger n are still exact but
#: kernel degrees and factorial sizes grow without practical payoff.
_ORDER_CAP = 64


def _check_order(n) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"rule order must be a positive integer, got {n!r}")
    if n > _ORDER_CAP:
        raise ValueError(f"rule order {n} exceeds the cap {_ORDER_CAP}")


@dataclass(frozen=True)
class HermiteRule:
    """An order-n rule on [a, b], held as its weights at a.

    Immutable.  The weights are exact rationals; n = len(w_a), and the
    weights at b follow from w_b[j] = (-1)^j w_a[j], so w_a[0] + w_b[0] =
    2 w_a[0] must equal b - a.
    """

    a: Fraction
    b: Fraction
    w_a: tuple

    def __post_init__(self):
        if not self.w_a:
            raise ValueError("rule order must be >= 1")
        if self.a >= self.b:
            raise ValueError("rule interval must satisfy a < b")
        if 2 * self.w_a[0] != self.b - self.a:
            raise ValueError("zeroth weights must sum to the interval length")

    @property
    def n(self) -> int:
        return len(self.w_a)

    @cached_property
    def w_b(self) -> tuple:
        return tuple((-1) ** j * w for j, w in enumerate(self.w_a))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "a": format_rational(self.a),
            "b": format_rational(self.b),
            "w_a": [format_rational(w) for w in self.w_a],
            "w_b": [format_rational(w) for w in self.w_b],
        }


def omega_coeffs(n: int) -> tuple:
    """Interval-free weight coefficients: omega[j] = w_a[j] / (b-a)^(j+1).

    omega[j] = n! (2n-j-1)! / ((2n)! (n-j-1)! (j+1)!), one term per weight.
    omega[0] is always 1/2, so the n = 1 rule is the trapezoidal rule.
    """
    _check_order(n)
    f = math.factorial
    return tuple(
        Fraction(f(n) * f(2 * n - j - 1), f(2 * n) * f(n - j - 1) * f(j + 1)) for j in range(n)
    )


def compute_weights(n: int, a, b) -> HermiteRule:
    """Exact rule of order n on [a, b].  Rejects n < 1, n above the cap, a >= b."""
    _check_order(n)
    a, b = rational_interval(a, b)
    h = b - a
    omegas = omega_coeffs(n)
    return HermiteRule(a, b, tuple(w * h ** (j + 1) for j, w in enumerate(omegas)))


def apply_rule(rule: HermiteRule, jet_a, jet_b):
    """Weighted sum of endpoint derivatives.

    ``jet_a[j]`` and ``jet_b[j]`` must supply f^(j) at a and b for
    j = 0..n-1 (longer jets are fine; the tail is ignored).  Exact when the
    jets are rational; float jets give a float result.
    """
    if len(jet_a) < rule.n or len(jet_b) < rule.n:
        raise ValueError(
            f"order-{rule.n} rule needs derivatives 0..{rule.n - 1} at both endpoints, "
            f"got jets of length {len(jet_a)} and {len(jet_b)}"
        )
    total = 0
    for j in range(rule.n):
        total += rule.w_a[j] * jet_a[j] + rule.w_b[j] * jet_b[j]
    return total
