"""Two-point interpolating polynomial from endpoint derivative jets.

The degree <= 2n-1 interpolant matching f^(j) at both endpoints for
j = 0..n-1 is assembled in product form,

    H(x) = (x-a)^n sum_k B_k (x-b)^k / k!  +  (x-b)^n sum_k A_k (x-a)^k / k!,

where A_k and B_k are the k-th derivatives of f(x)/(x-b)^n at a and of
f(x)/(x-a)^n at b.  Expanding those derivatives with the general Leibniz
rule gives closed forms in the endpoint jets:

    B_k = sum_{j=0}^{k} f^(j)(b) C(k,j) (-1)^{k-j} (n+k-j-1)! / ((n-1)! (b-a)^{n+k-j})

and A_k the same with a and b swapped (so with powers of a-b).

``build_hermite(a, b, jet_a, jet_b)`` takes the interval and the two
endpoint jets; ``leibniz_coeffs`` forms one endpoint's A_k or B_k from
its jets and its signed distance to the other endpoint.  All
arithmetic is exact; float jet entries are converted to rationals via
their exact binary expansion, so the returned polynomial reproduces the
given jets bit-for-bit.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactmath import Polynomial, rational, rational_interval

__all__ = ["leibniz_coeffs", "build_hermite"]


def leibniz_coeffs(jets, base) -> tuple:
    """The coefficients A_0..A_{n-1} (jets at a, base = a - b) or B_0..B_{n-1}
    (jets at b, base = b - a): one endpoint's jets and its signed distance
    to the other endpoint.

    Exact for rational jets; float jets are converted exactly first.  With
    base = p/q and the jets over one denominator S as R_j / S, each B_k is
    one integer sum over S p^(n+k):

        B_k = sum_j C(k,j) R_j p^j (-1)^(k-j) (n+k-j-1)!/(n-1)! q^(n+k-j) / (S p^(n+k))
    """
    jets = [rational(v) for v in jets]
    n = len(jets)
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


def build_hermite(a, b, jet_a, jet_b) -> Polynomial:
    """The degree <= 2n-1 polynomial matching f, f', ..., f^(n-1) at a and at b.

    ``jet_a`` and ``jet_b`` hold the n derivatives at each endpoint; they
    must have the same length, at least 1, and a < b.
    """
    a, b = rational_interval(a, b)
    if len(jet_a) != len(jet_b):
        raise ValueError("endpoint jets must have equal length")
    if not jet_a:
        raise ValueError("jets must carry at least the function value")
    n = len(jet_a)
    # sum_a = sum_k A_k (x-a)^k / k!: the Taylor polynomial in t, shifted to t = x - a.
    sum_a, sum_b = (
        Polynomial(
            c / math.factorial(k) for k, c in enumerate(leibniz_coeffs(jets, point - other))
        ).compose_affine(-point, 1)
        for jets, point, other in ((jet_a, a, b), (jet_b, b, a))
    )
    result = Polynomial((-a, 1)) ** n * sum_b + Polynomial((-b, 1)) ** n * sum_a
    assert result.degree <= 2 * n - 1
    return result
