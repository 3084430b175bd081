"""Exact rational scalars and dense polynomial algebra.

Weight and kernel computations in this package run on arbitrary-precision
rationals so that algebraic identities can be checked exactly, with no
floating-point slack.  The scalar type is :class:`fractions.Fraction`;
:class:`Polynomial` is a dense univariate polynomial over it.

Floats enter exact arithmetic only through their exact binary expansion
(``Fraction(0.1)`` is the value the double already holds, not 1/10).  The
reverse rounding happens to a polynomial's coefficients on its first float
evaluation, to each rule weight times a float jet (``apply_rule``,
``integrate_composite``), and to the kernel norms in the error bounds.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "Polynomial",
    "X",
    "rational",
    "rational_interval",
    "parse_rational",
    "format_rational",
]


def rational(value) -> Fraction:
    """Convert a number or string to an exact ``Fraction``.

    Floats convert via their exact binary expansion; strings accept
    "p/q", integer, and decimal literals (``parse_rational``).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot convert {value!r} to a rational")
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def rational_interval(a, b) -> tuple:
    """(a, b) as exact rationals; raises ValueError unless a < b."""
    a = rational(a)
    b = rational(b)
    if a >= b:
        raise ValueError(f"interval must satisfy a < b, got [{a}, {b}]")
    return a, b


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", an integer, or a decimal literal ("0.25" -> 1/4, exactly)."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational literal {text!r}") from exc


def format_rational(value) -> str:
    """Render as "p/q", or just "p" when the denominator is 1."""
    v = rational(value)
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


class Polynomial:
    """Dense univariate polynomial with exact rational coefficients.

    ``coeffs[i]`` is the coefficient of x**i and the leading entry is
    nonzero; the zero polynomial is represented by an empty coefficient
    tuple and reports ``degree == -1``.  Instances are immutable and
    hashable, hence safe to share across threads and use as cache keys.
    """

    __slots__ = ("coeffs", "_floats")

    def __init__(self, coeffs=()):
        cs = [rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self._floats = None

    @classmethod
    def monomial(cls, power: int, coeff=1) -> "Polynomial":
        """coeff * x**power"""
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls((0,) * power + (coeff,))

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial((other,))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            scalar = rational(other)
            return Polynomial(tuple(c * scalar for c in self.coeffs))
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            for j, cj in enumerate(other.coeffs):
                out[i + j] += ci * cj
        return Polynomial(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        s = rational(scalar)
        if s == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return Polynomial(tuple(c / s for c in self.coeffs))

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result = Polynomial((1,))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    # -- calculus -----------------------------------------------------

    def derivative(self, order: int = 1) -> "Polynomial":
        """Exact ``order``-th derivative (zero polynomial once order > degree)."""
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        if order == 0:
            return self
        if order > self.degree:
            return Polynomial()
        out = [self.coeffs[i] * math.perm(i, order) for i in range(order, len(self.coeffs))]
        return Polynomial(out)

    def _raw_antiderivative(self) -> "Polynomial":
        return Polynomial((0,) + tuple(c / (i + 1) for i, c in enumerate(self.coeffs)))

    def antiderivative(self, lower=0) -> "Polynomial":
        """The antiderivative that vanishes at ``lower``."""
        raw = self._raw_antiderivative()
        return raw - raw(rational(lower))

    def integrate(self, a, b) -> Fraction:
        """Exact definite integral over [a, b]."""
        raw = self._raw_antiderivative()
        return raw(rational(b)) - raw(rational(a))

    def compose_affine(self, offset, scale) -> "Polynomial":
        """The polynomial x -> p(offset + scale * x)."""
        inner = Polynomial((offset, scale))
        result = Polynomial()
        for c in reversed(self.coeffs):
            result = result * inner + c
        return result

    # -- evaluation ---------------------------------------------------

    def _float_coeffs(self):
        if self._floats is None:
            self._floats = tuple(float(c) for c in self.coeffs)
        return self._floats

    def __call__(self, x):
        """Horner evaluation; exact for rational input, double for float input."""
        if isinstance(x, float):
            acc = 0.0
            for c in reversed(self._float_coeffs()):
                acc = acc * x + c
            return acc
        xr = rational(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * xr + c
        return acc

    # -- display ------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for power in range(self.degree, -1, -1):
            c = self.coeffs[power]
            if c == 0:
                continue
            mag = format_rational(abs(c))
            if power == 0:
                term = mag
            else:
                var = "x" if power == 1 else f"x^{power}"
                term = var if abs(c) == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({[format_rational(c) for c in self.coeffs]})"


#: The identity polynomial x.
X = Polynomial((0, 1))
