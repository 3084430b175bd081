"""Exact identity checks tying the weight, interpolant, and kernel routes together.

Everything here runs in rational arithmetic, so a check either holds
exactly or fails; there are no tolerances.  Each identity is checked once,
on the basis that defines it: the rule on x^0..x^(2n) in one pass, the
interpolant on the 2n unit jets, whose integrals are the weights, and
every kernel parameter against its closed form.  The CLI ``verify``
subcommand prints one line per check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactmath import Polynomial, X, rational, rational_interval
from .interpolant import build_hermite
from .kernel import (
    antiderivative_chain,
    kernel_from_params,
    kernel_set,
    peano_kernel,
    rodrigues_kernel,
    solve_params,
)
from .weights import apply_rule, compute_weights

__all__ = ["Check", "run_checks"]


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool


def _monomial_jets(d: int, n: int, x: Fraction) -> tuple:
    """Derivatives 0..n-1 of x**d at a rational point (perm(d, j) = 0 for j > d)."""
    return tuple(math.perm(d, j) * x ** max(d - j, 0) for j in range(n))


def _separators(n: int, a: Fraction, b: Fraction) -> list:
    """a, one exact rational between each two adjacent roots of K_n, and b.

    Bruns' inequality puts the j-th zero angle of the Legendre polynomial
    P_n strictly between (j-1/2)pi/(n+1/2) and j pi/(n+1/2) (Szego,
    Orthogonal Polynomials, 6.21), so the images of cos(j pi/(n+1/2)),
    j = 1..n-1, under t -> a + (b-a)(1-t)/2 separate the roots.  The
    float cosines are converted exactly; only the signs taken at these
    points, not the points themselves, carry the proof.
    """
    cuts = (rational(math.cos(j * math.pi / (n + 0.5))) for j in range(1, n))
    return [a, *(a + (b - a) * (1 - t) / 2 for t in cuts), b]


def _closed_deltas(n: int, a: Fraction, b: Fraction) -> tuple:
    """The matched kernel parameters delta_0..delta_{n-2}, read off the Rodrigues form.

    With m = (a+b)/2 and r = (b-a)/2 the Rodrigues form expands about the
    midpoint as

        K = D^n ((x-m)^2 - r^2)^n / (2n)!
          = sum_i C(n,i) (-r^2)^(n-i) (2i)! / ((2n)! (2i-n)!) (x-m)^(2i-n),

    whose i = n term is (x+c)^n / n!.  So delta_l = l! [x^l] (K - (x+c)^n / n!)
    is the l-th derivative at 0 of the terms i < n:

        delta_l = sum_{i=ceil((n+l)/2)}^{n-1}
                  C(n,i) (2i)! / (2i-n-l)! (-r^2)^(n-i) (-m)^(2i-n-l) / (2n)!.

    Nothing here uses the weights or the matching system.
    """
    m, r2 = Fraction(a + b, 2), Fraction(b - a, 2) ** 2
    return tuple(
        sum(
            math.comb(n, i) * math.perm(2 * i, n + l) * (-r2) ** (n - i)
            * (-m) ** (2 * i - n - l)
            for i in range((n + l + 1) // 2, n)
        ) / math.factorial(2 * n)
        for l in range(n - 1)
    )


def run_checks(n: int, a=0, b=1) -> list:
    """Run the exact identity suite for order n on [a, b].

    The rule's defects on x^0..x^(2n) come from one ``apply_rule`` call per
    monomial: the first 2n vanish and the last is the first failure.  The
    interpolant of each unit jet pair (a 1 at index j of one endpoint, 0
    elsewhere) integrates to the matching weight, which by linearity proves
    the identity for every jet pair.  All n-1 solved kernel parameters equal
    their closed forms.
    """
    a, b = rational_interval(a, b)
    checks = []
    rule = compute_weights(n, a, b)
    params = solve_params(n, a, b)
    kern = kernel_from_params(params)
    width = b - a

    checks.append(
        Check(
            "weight symmetry w_b[j] = (-1)^j w_a[j]",
            all(rule.w_b[j] == (-1) ** j * rule.w_a[j] for j in range(n)),
        )
    )
    checks.append(
        Check("weight sum w_a[0] + w_b[0] = b - a", rule.w_a[0] + rule.w_b[0] == width)
    )

    # One pass over x^0..x^(2n): defects[d] = integral of x^d minus its rule value.
    defects = [
        Polynomial.monomial(d).integrate(a, b)
        - apply_rule(rule, _monomial_jets(d, n, a), _monomial_jets(d, n, b))
        for d in range(2 * n + 1)
    ]
    checks.append(Check(f"exact on monomials x^d, d <= {2 * n - 1}", not any(defects[:-1])))
    # The interpolant is linear in its jets, so the 2n unit jet pairs prove
    # it for every pair: each weight is the integral of one cardinal function.
    zero = (0,) * n
    units = [zero[:j] + (1,) + zero[j + 1:] for j in range(n)]
    cardinal = (
        tuple(build_hermite(a, b, e, zero).integrate(a, b) for e in units),
        tuple(build_hermite(a, b, zero, e).integrate(a, b) for e in units),
    )
    checks.append(
        Check("interpolant integral equals the weighted rule", cardinal == (rule.w_a, rule.w_b))
    )

    rod = rodrigues_kernel(n, a, b)
    checks.append(Check("matched kernel equals its Rodrigues form", kern == rod))
    unit = kernel_set(n, 0, 1).kernel
    checks.append(
        Check(
            "kernel is the image of [0, 1]: K(x) = h^n K_[0,1]((x-a)/h)",
            kern == unit.compose_affine(-a / width, 1 / width) * width ** n,
        )
    )
    checks.append(
        Check(
            "kernel leading coefficient is 1/n!",
            kern.leading_coefficient == Fraction(1, math.factorial(n)),
        )
    )

    chain = antiderivative_chain(kern, a, n)
    closed = (X - a) ** n * (X - b) ** n / math.factorial(2 * n)
    checks.append(
        Check("n-th antiderivative equals (x-a)^n (x-b)^n / (2n)!", chain[-1] == closed)
    )
    checks.append(
        Check(
            "Peano kernel of the rule equals the same closed form",
            peano_kernel(rule) == closed,
        )
    )
    checks.append(
        Check(
            "antiderivatives vanish at both endpoints",
            all(p(a) == 0 and p(b) == 0 for p in chain),
        )
    )

    checks.append(
        Check(
            "kernel orthogonal to x^m for m < n",
            all(
                (Polynomial.monomial(m) * kern).integrate(a, b) == 0 for m in range(n)
            ),
        )
    )
    reflected = kern.compose_affine(a + b, -1)
    checks.append(
        Check(
            "kernel symmetry K(a+b-x) = (-1)^n K(x)",
            reflected == kern * ((-1) ** n),
        )
    )

    if n >= 2:
        name = "leading kernel parameters match their closed forms"
        checks.append(Check(name, params.deltas == _closed_deltas(n, a, b)))

    first_failure = Fraction(
        (-1) ** n * math.factorial(n) ** 2, math.factorial(2 * n + 1)
    ) * width ** (2 * n + 1)
    checks.append(
        Check(
            "error on x^(2n) equals (-1)^n (n!)^2 (b-a)^(2n+1) / (2n+1)!",
            defects[-1] == first_failure,
        )
    )

    # n+1 alternating exact signs of a degree-n polynomial prove exactly n
    # simple roots in (a, b).
    signs = [kern.sign(x) for x in _separators(n, a, b)]
    alternate = all(s * t < 0 for s, t in zip(signs, signs[1:]))
    checks.append(Check(f"kernel has exactly {n} sign changes in (a, b)", alternate))

    return checks
