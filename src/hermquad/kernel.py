"""Error kernels of the endpoint-derivative quadrature rules.

The order-n rule commits the error

    E_n = integral( (-1)^n f^(n)(x) K_n(x) , a, b )

where K_n is a degree-n polynomial with leading coefficient 1/n! -- a
shifted, unnormalized Legendre polynomial on [a, b].  This module gives
K_n in closed form and keeps the independent constructions that
``verify`` checks it against:

* ``rodrigues_kernel``: K_n = (1/(2n)!) d^n/dx^n [(x-a)^n (x-b)^n], the
  form every ``KernelSet`` is built from;
* ``kernel_from_params``: K_n(x) = (x+c)^n/n! + sum_i delta_i x^i/i!, with
  the parameters fixed by matching repeated reverse integration by parts
  against the rule weights (``solve_params``);
* ``peano_kernel``: the Peano kernel of the rule's error functional, a
  degree-2n polynomial equal to (x-a)^n (x-b)^n / (2n)!, which must also
  equal the n-th antiderivative of K_n (``antiderivative_chain``).

Every interval is an affine image of [0, 1].  With x = a + h t and
h = b - a, (x-a)^n (x-b)^n = h^(2n) t^n (t-1)^n, so each member of the
chain satisfies K^(k)_[a,b](x) = h^(n+k) K^(k)_[0,1](t).  Hence

    integral(|K^(k)|) over [a, b] = h^(n+k+1) C(n, k)
    integral((K^(k))^2) over [a, b] = h^(2n+2k+1) L(n, k)

with C and L taken on [0, 1].  The module builds one chain K^(0..n) on
[0, 1] per order, straight from the Rodrigues form
K^(k)_[0,1] = d^(n-k)/dt^(n-k) [t^n (t-1)^n] / (2n)!, and C(n, k) and
L(n, k) once per (n, k); a ``KernelSet`` holds only (n, a, b) and maps
that chain and those constants onto [a, b] when they are read.  The
matching route (``solve_params``, ``kernel_from_params``,
``antiderivative_chain``) is ``verify``'s independent witness, not a
step of the construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .exactmath import Polynomial, X, format_rational, rational, rational_interval
from .weights import HermiteRule, _check_order, compute_weights

__all__ = [
    "KernelParams",
    "KernelSet",
    "RootIsolationError",
    "solve_params",
    "kernel_from_params",
    "rodrigues_kernel",
    "antiderivative_chain",
    "peano_kernel",
    "kernel_l2sq",
    "kernel_abs_integral",
    "kernel_set",
]


class RootIsolationError(RuntimeError):
    """Sign-change scanning produced an inconsistent root set."""


@dataclass(frozen=True)
class KernelParams:
    """Matched free parameters of the reverse-integration-by-parts kernel.

    For the parameter set that reproduces the quadrature weights,
    c = -(a+b)/2 and every delta has a closed form from the Rodrigues form
    about the midpoint m = (a+b)/2, with r = (b-a)/2:

        deltas[l] = sum_{i=ceil((n+l)/2)}^{n-1}
                    C(n,i) (2i)! / (2i-n-l)! (-r^2)^(n-i) (-m)^(2i-n-l) / (2n)!,

    so deltas[n-2] = -(b-a)^2 / (8(2n-1)) for n >= 2.  The order is
    n = len(deltas) + 1.
    """

    c: Fraction
    deltas: tuple

    @property
    def n(self) -> int:
        return len(self.deltas) + 1


@dataclass(frozen=True)
class KernelSet:
    """The matched kernel of order n on [a, b] and its antiderivative chain.

    A plain value holding only (n, a, b).  ``member(k)`` is the k-th
    repeated integral of the kernel from a (the kernel for k = 0); every
    member with k >= 1 vanishes at both endpoints and the last equals
    (x-a)^n (x-b)^n / (2n)!.  Members and norms are the order's [0, 1]
    Rodrigues chain and constants mapped by x = a + h t, h = b - a, and
    the parameters are read off the mapped kernel; nothing here solves
    the matching system.
    """

    n: int
    a: Fraction
    b: Fraction

    def __post_init__(self):
        _check_order(self.n)
        a, b = rational_interval(self.a, self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def h(self) -> Fraction:
        return self.b - self.a

    @property
    def params(self) -> KernelParams:
        """The matched parameters on [a, b], read off the kernel.

        c = -(a+b)/2 and delta_i = i! [x^i] (K - (x+c)^n/n!).  The
        remainder has degree at most n-2 (K is even or odd about the
        midpoint), and its trailing zero coefficients are padded back.
        """
        return self._params(self.kernel)

    def _params(self, kernel: Polynomial) -> KernelParams:
        """``params``, read off ``kernel``, this set's kernel built by the caller."""
        n = self.n
        c = -(self.a + self.b) / 2
        rest = (kernel - (X + c) ** n / math.factorial(n)).coeffs
        rest += (Fraction(0),) * (n - 1 - len(rest))
        return KernelParams(c, tuple(math.factorial(i) * d for i, d in enumerate(rest)))

    @property
    def kernel(self) -> Polynomial:
        return self.member(0)

    def _check_index(self, k: int) -> None:
        if not 0 <= k <= self.n:
            raise ValueError(f"chain index must be in 0..{self.n}, got {k}")

    def member(self, k: int) -> Polynomial:
        """K^(k): the kernel for k = 0, its k-th repeated integral for 1 <= k <= n."""
        self._check_index(k)
        h = self.h
        unit = _unit_chain(self.n)[k]
        return unit.compose_affine(-self.a / h, 1 / h) * h ** (self.n + k)

    def float_member(self, k: int) -> Polynomial:
        """``member(k)`` with its coefficients rounded to doubles, as float evaluation needs."""
        kern = self.member(k)
        # A polynomial rounds its coefficients on its first float evaluation and keeps them.
        self._in_double_range(f"a coefficient of K^({k})", kern, 0.0)
        return kern

    def l2sq(self, k: int = 0) -> Fraction:
        """Exact integral of (K^(k))^2 over [a, b]: h^(2n+2k+1) L(n, k)."""
        self._check_index(k)
        return _unit_l2sq(self.n, k) * self.h ** (2 * (self.n + k) + 1)

    def abs_integral(self, k: int = 0) -> float:
        """Integral of |K^(k)| over [a, b]: h^(n+k+1) C(n, k), rounded once."""
        self._check_index(k)
        value = _unit_abs_integral(self.n, k) * self.h ** (self.n + k + 1)
        return self._in_double_range(f"integral(|K^({k})|)", float, value)

    def _in_double_range(self, what: str, rounding, *args):
        """``rounding(*args)``, which rounds a kernel quantity to doubles; an
        OverflowError naming the quantity and the interval when it cannot."""
        try:
            return rounding(*args)
        except OverflowError:
            raise OverflowError(f"{what} of the order-{self.n} kernel on [{float(self.a):.15g}, "
                                f"{float(self.b):.15g}] lies beyond the double range") from None

    def to_json_dict(self) -> dict:
        kernel = self.kernel
        params = self._params(kernel)
        return {
            "n": self.n,
            "a": format_rational(self.a),
            "b": format_rational(self.b),
            "coeffs": [format_rational(c) for c in kernel.coeffs],
            "params": {
                "c": format_rational(params.c),
                "deltas": [format_rational(d) for d in params.deltas],
            },
        }


def solve_params(n: int, a, b) -> KernelParams:
    """Solve the triangular matching system for the kernel parameters.

    c comes from the zeroth matching condition and is always -(a+b)/2;
    the j-th condition (j = 1..n-1) then determines delta_{n-1-j}:

        delta_{n-1-j} = (-1)^{j+1} w_a[j] - (a+c)^{j+1}/(j+1)!
                        - sum_{i=1}^{j-1} delta_{i+n-1-j} a^i / i!

    The i = 0 term of the tail sum is the unknown itself, which is why the
    sum starts at i = 1.  For n = 1 there are no deltas.
    """
    _check_order(n)
    a, b = rational_interval(a, b)
    c = -(a + b) / 2
    rule = compute_weights(n, a, b)
    ac = a + c
    taylor = [a ** i / math.factorial(i) for i in range(n)]
    deltas = [None] * (n - 1)
    for j in range(1, n):
        tail = sum(deltas[i + n - 1 - j] * taylor[i] for i in range(1, j))
        deltas[n - 1 - j] = (
            (-1) ** (j + 1) * rule.w_a[j]
            - ac ** (j + 1) / math.factorial(j + 1)
            - tail
        )
    return KernelParams(c, tuple(deltas))


def kernel_from_params(params: KernelParams) -> Polynomial:
    """K_n(x) = (x+c)^n / n! + sum_{i=0}^{n-2} deltas[i] x^i / i!."""
    tail = Polynomial([d / math.factorial(i) for i, d in enumerate(params.deltas)])
    return (X + params.c) ** params.n / math.factorial(params.n) + tail


def rodrigues_kernel(n: int, a, b) -> Polynomial:
    """K_n via the Rodrigues-style derivative form, (1/(2n)!) d^n [(x-a)^n (x-b)^n]."""
    _check_order(n)
    a, b = rational_interval(a, b)
    w = (X - a) ** n * (X - b) ** n
    return w.derivative(n) / math.factorial(2 * n)


def antiderivative_chain(kernel: Polynomial, a, n: int) -> tuple:
    """Repeated integrals K^1..K^n of the kernel, each vanishing at a."""
    if n < 1:
        raise ValueError("chain length must be >= 1")
    chain = [kernel]
    for _ in range(n):
        chain.append(chain[-1].antiderivative(a))
    return tuple(chain[1:])


def peano_kernel(rule: HermiteRule) -> Polynomial:
    """Peano kernel of the error functional of the order-n rule on [a, b].

    K(x) = (b-x)^{2n}/(2n)! - sum_{k=0}^{n-1} w_b[k] (b-x)^{2n-1-k}/(2n-1-k)!

    For the exact rule weights this collapses to (x-a)^n (x-b)^n / (2n)!.
    """
    n = rule.n
    bx = Polynomial((rule.b, -1))
    # Running power (b-x)^j for j = 2n-1-k, from n up to 2n.
    power = bx ** n
    result = Polynomial()
    for j in range(n, 2 * n):
        result = result - power * (rule.w_b[2 * n - 1 - j] / math.factorial(j))
        power = power * bx
    return result + power / math.factorial(2 * n)


def kernel_l2sq(kernel: Polynomial, a, b) -> Fraction:
    """Exact squared L2 norm, integral of K^2 over [a, b]."""
    return (kernel * kernel).integrate(a, b)


#: Bisection brackets shrink to this fraction of the interval width.
_ROOT_REL_WIDTH = Fraction(1, 10 ** 14)


def _isolate_roots_exact(poly: Polynomial, a: Fraction, b: Fraction) -> list:
    """Sign-change roots of ``poly`` in (a, b) as exact dyadic brackets.

    Scans 8*deg points placed at Chebyshev angles (interior, denser toward
    the endpoints, where Legendre-type roots cluster), then bisects each
    sign-change bracket down to 1e-14 of the interval width.  Scan points
    and bisection midpoints are rationals, so every sign is evaluated
    exactly; float cancellation cannot fake or hide a sign change even for
    high-degree kernels.  Roots of even multiplicity do not change sign
    and are invisible here; they also do not affect integrals of |poly|,
    which is what this feeds.
    """
    if poly.degree <= 0:
        return []
    count = 8 * poly.degree
    mid = (a + b) / 2
    half = (b - a) / 2
    offsets = sorted(rational(math.cos(math.pi * (k + 0.5) / count)) for k in range(count))
    points = [a] + [mid + half * t for t in offsets] + [b]
    signs = [poly.sign(x) for x in points]
    target = _ROOT_REL_WIDTH * (b - a)
    roots = []
    for i in range(len(points) - 1):
        v0, v1 = signs[i], signs[i + 1]
        if v0 == 0:
            # Interior scan point landing exactly on a root.
            if 0 < i:
                roots.append(points[i])
            continue
        if v1 == 0 or (v0 > 0) == (v1 > 0):
            continue
        x0, x1 = points[i], points[i + 1]
        positive = v0 > 0
        while x1 - x0 > target:
            xm = (x0 + x1) / 2
            fm = poly.sign(xm)
            if fm == 0:
                x0 = x1 = xm
                break
            if (fm > 0) == positive:
                x0 = xm
            else:
                x1 = xm
        roots.append((x0 + x1) / 2)
    return sorted(roots)


def kernel_abs_integral(kernel: Polynomial, a, b) -> float:
    """Numerically accurate integral of |K| over [a, b].

    Isolates the sign-change roots of K in (a, b) and sums the absolute
    values of exact antiderivative differences over the resulting
    subintervals, all in rational arithmetic.  Root placement is the only
    approximate step; the antiderivative is stationary at each root, so
    its effect is second order in the 1e-14 bracket width.

    Raises :class:`RootIsolationError` if the segment signs fail to
    alternate, which would indicate missed sign changes.
    """
    a, b = rational_interval(a, b)
    return float(_abs_integral_exact(kernel, a, b))


def _abs_integral_exact(kernel: Polynomial, a: Fraction, b: Fraction) -> Fraction:
    if kernel.is_zero():
        return Fraction(0)
    cuts = [a] + _isolate_roots_exact(kernel, a, b) + [b]
    anti = kernel.antiderivative(a)
    total = Fraction(0)
    previous_sign = 0
    for i in range(len(cuts) - 1):
        lo, hi = cuts[i], cuts[i + 1]
        segment = anti(hi) - anti(lo)
        sign = kernel.sign((lo + hi) / 2)
        if sign == 0 or (previous_sign and sign == previous_sign):
            raise RootIsolationError(
                f"inconsistent sign pattern while integrating |K| on "
                f"[{float(lo)}, {float(hi)}]"
            )
        previous_sign = sign
        total += abs(segment)
    return total


# One entry per order or per (n, k): the order cap bounds these caches.


@cache
def _unit_chain(n: int) -> tuple:
    """K^(0..n) on [0, 1] from the Rodrigues form.

    K^(k) = w^(n-k) for w = t^n (t-1)^n / (2n)!: the kernel for k = 0,
    and for k >= 1 its k-th repeated integral from 0 (t^k divides it).
    """
    w = X ** n * (X - 1) ** n / math.factorial(2 * n)
    return tuple(w.derivative(n - k) for k in range(n + 1))


@cache
def _unit_abs_integral(n: int, k: int) -> Fraction:
    """C(n, k), exact up to the root brackets of ``kernel_abs_integral``."""
    return _abs_integral_exact(_unit_chain(n)[k], Fraction(0), Fraction(1))


@cache
def _unit_l2sq(n: int, k: int) -> Fraction:
    """L(n, k), exact."""
    return kernel_l2sq(_unit_chain(n)[k], 0, 1)


def kernel_set(n: int, a, b) -> KernelSet:
    """The matched kernel and its antiderivative chain on [a, b], as a value."""
    return KernelSet(n, a, b)
