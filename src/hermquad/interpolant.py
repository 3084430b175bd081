"""Two-point interpolating polynomial from endpoint derivative jets.

The degree <= 2n-1 interpolant matching f^(j) at both endpoints for
j = 0..n-1 is assembled in product form,

    H(x) = (x-a)^n sum_k B_k (x-b)^k / k!  +  (x-b)^n sum_k A_k (x-a)^k / k!,

where A_k and B_k are the k-th derivatives of f(x)/(x-b)^n at a and of
f(x)/(x-a)^n at b.  Expanding those derivatives with the general Leibniz
rule gives closed forms in the endpoint jets:

    B_k = sum_{j=0}^{k} f^(j)(b) C(k,j) (-1)^{k-j} (n+k-j-1)! / ((n-1)! (b-a)^{n+k-j})

and A_k the same with a and b swapped (so with powers of a-b).

All arithmetic is exact; float jet entries are converted to rationals via
their exact binary expansion, so the returned polynomial reproduces the
given jets bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactmath import Polynomial, rational

__all__ = ["JetPair", "leibniz_coeffs", "build_hermite"]


@dataclass(frozen=True)
class JetPair:
    """Derivatives 0..n-1 of an integrand at the two endpoints of [a, b]."""

    a: Fraction
    b: Fraction
    jet_a: tuple
    jet_b: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", rational(self.a))
        object.__setattr__(self, "b", rational(self.b))
        object.__setattr__(self, "jet_a", tuple(self.jet_a))
        object.__setattr__(self, "jet_b", tuple(self.jet_b))
        if len(self.jet_a) != len(self.jet_b):
            raise ValueError("endpoint jets must have equal length")
        if not self.jet_a:
            raise ValueError("jets must carry at least the function value")
        if self.a == self.b:
            raise ValueError("endpoints must be distinct")

    @property
    def order(self) -> int:
        """Number of matched derivatives per endpoint (n)."""
        return len(self.jet_a)


def leibniz_coeffs(side: str, pair: JetPair) -> tuple:
    """The coefficients A_0..A_{n-1} (side "a") or B_0..B_{n-1} (side "b").

    Exact for rational jets; float jets are converted exactly first.  With
    base = p/q and the jets over one denominator S as R_j / S, each B_k is
    one integer sum over S p^(n+k):

        B_k = sum_j C(k,j) R_j p^j (-1)^(k-j) (n+k-j-1)!/(n-1)! q^(n+k-j) / (S p^(n+k))
    """
    if side not in ("a", "b"):
        raise ValueError(f"side must be 'a' or 'b', got {side!r}")
    n = pair.order
    if side == "a":
        jets = [rational(v) for v in pair.jet_a]
        base = pair.a - pair.b
    else:
        jets = [rational(v) for v in pair.jet_b]
        base = pair.b - pair.a
    p, q = base.numerator, base.denominator
    den = math.lcm(*(v.denominator for v in jets))
    # jet[j] = R_j p^j and tail[m] = (-1)^m (n+m-1)!/(n-1)! q^(n+m).
    jet = [v.numerator * (den // v.denominator) * p ** j for j, v in enumerate(jets)]
    tail = [(-1) ** m * math.perm(n + m - 1, m) * q ** (n + m) for m in range(n)]
    return tuple(
        Fraction(
            sum(math.comb(k, j) * jet[j] * tail[k - j] for j in range(k + 1) if jet[j]),
            den * p ** (n + k),
        )
        for k in range(n)
    )


def build_hermite(pair: JetPair) -> Polynomial:
    """The degree <= 2n-1 polynomial matching both endpoint jets exactly."""
    if pair.a >= pair.b:
        raise ValueError("endpoints must satisfy a < b")
    n = pair.order
    # sum_a = sum_k A_k (x-a)^k / k!: the Taylor polynomial in t, shifted to t = x - a.
    sum_a, sum_b = (
        Polynomial(
            c / math.factorial(k) for k, c in enumerate(leibniz_coeffs(side, pair))
        ).compose_affine(-point, 1)
        for side, point in (("a", pair.a), ("b", pair.b))
    )
    result = Polynomial((-pair.a, 1)) ** n * sum_b + Polynomial((-pair.b, 1)) ** n * sum_a
    assert result.degree <= 2 * n - 1
    return result
