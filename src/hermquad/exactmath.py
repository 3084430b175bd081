"""Exact rational scalars and dense polynomial algebra.

Weight and kernel computations in this package run on arbitrary-precision
rationals so that algebraic identities can be checked exactly, with no
floating-point slack.  The scalar type is :class:`fractions.Fraction`.
:class:`Polynomial` is a dense univariate polynomial with rational
coefficients, stored as integer numerators over one common denominator
(as FLINT's ``fmpq_poly`` does), so its arithmetic, calculus and exact
evaluation run on ``int`` and reduce once per result.

Floats enter exact arithmetic only through their exact binary expansion
(``Fraction(0.1)`` is the value the double already holds, not 1/10).  The
reverse rounding happens to a polynomial's coefficients on its first float
evaluation (``num / den``, correctly rounded, so the same double as
``float(Fraction)``), to each rule weight times a float jet
(``apply_rule``; ``integrate_composite`` rounds each rule's weights once),
and to the kernel norms in the error bounds.
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

    Stored as integer numerators over one positive common denominator,
    as in FLINT's ``fmpq_poly``: the coefficient of x**i is
    ``nums[i] / den``.  The form is canonical -- gcd(den, *nums) = 1 and
    the last numerator is nonzero -- so equal polynomials have equal
    ``(nums, den)`` and ``==`` is a tuple compare.  The zero polynomial
    has no numerators, denominator 1 and ``degree == -1``.  Arithmetic,
    calculus and exact evaluation run on integers and reduce once per
    result.  ``coeffs`` is the read-only tuple of ``Fraction``
    coefficients, built on first read.  Instances are immutable and
    hashable, hence safe to share across threads and use as cache keys.
    """

    __slots__ = ("_nums", "_den", "_coeffs", "_floats")

    def __init__(self, coeffs=()):
        cs = [rational(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        self._set(tuple(c.numerator * (den // c.denominator) for c in cs), den)

    def _set(self, nums: tuple, den: int) -> None:
        """Store sum nums[i] x^i / den (den > 0) in canonical form."""
        while nums and not nums[-1]:
            nums = nums[:-1]
        if not nums:
            den = 1
        elif den != 1:
            g = math.gcd(den, *nums)
            if g != 1:
                nums = tuple(c // g for c in nums)
                den //= g
        self._nums = nums
        self._den = den
        self._coeffs = None
        self._floats = None

    @classmethod
    def _from(cls, nums, den: int) -> "Polynomial":
        """sum nums[i] x^i / den for integers nums and den > 0, made canonical."""
        poly = cls.__new__(cls)
        poly._set(tuple(nums), den)
        return poly

    @classmethod
    def monomial(cls, power: int, coeff=1) -> "Polynomial":
        """coeff * x**power"""
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls((0,) * power + (coeff,))

    # -- structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """``coeffs[i]`` is the coefficient of x**i, a ``Fraction``."""
        if self._coeffs is None:
            den = self._den
            self._coeffs = tuple(Fraction(c, den) for c in self._nums)
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._nums) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        return Fraction(self._nums[-1], self._den) if self._nums else Fraction(0)

    def is_zero(self) -> bool:
        return not self._nums

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial((other,))
        a, da, b, db = self._nums, self._den, other._nums, other._den
        den = math.lcm(da, db)
        if da != db:
            a = [c * (den // da) for c in a]
            b = [c * (den // db) for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial._from(out, den)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._from([-c for c in self._nums], self._den)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial((other,))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            s = rational(other)
            return Polynomial._from(
                [c * s.numerator for c in self._nums], self._den * s.denominator
            )
        a, b = self._nums, other._nums
        if not a or not b:
            return Polynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ci in enumerate(a):
            if ci:
                for j, cj in enumerate(b, i):
                    out[j] += ci * cj
        return Polynomial._from(out, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        s = rational(scalar)
        if s == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        p, q = s.numerator, s.denominator
        if p < 0:
            p, q = -p, -q
        return Polynomial._from([c * q for c in self._nums], self._den * p)

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
            return self._den == other._den and self._nums == other._nums
        return NotImplemented

    def __hash__(self):
        return hash((self._nums, self._den))

    # -- calculus -----------------------------------------------------

    def derivative(self, order: int = 1) -> "Polynomial":
        """Exact ``order``-th derivative (zero polynomial once order > degree)."""
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        if order == 0:
            return self
        nums = self._nums
        out = [nums[i] * math.perm(i, order) for i in range(order, len(nums))]
        return Polynomial._from(out, self._den)

    def _raw_antiderivative(self) -> "Polynomial":
        """The antiderivative with zero constant term, over den * lcm(1..d+1)."""
        nums = self._nums
        scale = math.lcm(*range(1, len(nums) + 1))
        out = [0] + [c * (scale // (i + 1)) for i, c in enumerate(nums)]
        return Polynomial._from(out, self._den * scale)

    def antiderivative(self, lower=0) -> "Polynomial":
        """The antiderivative that vanishes at ``lower``."""
        raw = self._raw_antiderivative()
        return raw - raw(rational(lower))

    def integrate(self, a, b) -> Fraction:
        """Exact definite integral over [a, b]."""
        raw = self._raw_antiderivative()
        return raw(rational(b)) - raw(rational(a))

    def compose_affine(self, offset, scale) -> "Polynomial":
        """The polynomial x -> p(offset + scale * x).

        With offset = u/w and scale = v/w over one denominator w, Horner in
        (u + v x) over w gives sum nums[i] (u + v x)^i w^(d-i) / (den w^d).
        """
        nums = self._nums
        if not nums:
            return self
        offset, scale = rational(offset), rational(scale)
        w = offset.denominator * scale.denominator
        u = offset.numerator * scale.denominator
        v = scale.numerator * offset.denominator
        d = len(nums) - 1
        acc = [nums[d]]
        wpow = 1
        for i in range(d - 1, -1, -1):
            wpow *= w
            # acc <- acc * (u + v x) + nums[i] w^(d-i)
            prev = acc
            acc = [u * c for c in prev] + [0]
            for j, c in enumerate(prev, 1):
                acc[j] += v * c
            acc[0] += nums[i] * wpow
        return Polynomial._from(acc, self._den * wpow)

    # -- evaluation ---------------------------------------------------

    def __call__(self, x):
        """Horner evaluation; exact for rational input, double for float input.

        Float input runs Horner over the coefficients rounded once to
        doubles (``num / den``, correctly rounded).  Rational input runs
        integer Horner (``_horner``) and forms one ``Fraction`` at the end.
        """
        if isinstance(x, float):
            if self._floats is None:
                den = self._den
                self._floats = tuple(c / den for c in self._nums)
            acc = 0.0
            for c in reversed(self._floats):
                acc = acc * x + c
            return acc
        s, t = self._horner(rational(x))
        return Fraction(s, self._den * t)

    def sign(self, x) -> int:
        """The sign (-1, 0 or 1) of the value at rational x, without reducing it."""
        s, _ = self._horner(rational(x))
        return (s > 0) - (s < 0)

    def _horner(self, x: Fraction) -> tuple:
        """(s, t) with value s / (den t), t > 0: homogeneous Horner at x = p/q.

        s = sum nums[i] p^i q^(d-i) and t = q^d, all in integers.
        """
        nums = self._nums
        if not nums:
            return 0, 1
        p, q = x.numerator, x.denominator
        acc = nums[-1]
        qpow = 1
        for c in reversed(nums[:-1]):
            qpow *= q
            acc = acc * p + c * qpow
        return acc, qpow

    # -- display ------------------------------------------------------

    def __str__(self):
        if not self._nums:
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
