"""Independent checks of hermquad's output.

Every expected value here is computed from closed forms, integer
binomials or mpmath, never through hermquad.  Each ``check_*`` function
returns None when the job's output is right and a one-line reason when
it is not.  A missing, unparseable or wrong value is a failure.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import mpmath

#: Working precision of every mpmath computation here (decimal digits).
DPS = 30

#: The reference integral must agree with the true integral to this
#: relative tolerance (absolute below 1).  The CLI asks its reference for
#: 1e-10, so this leaves a factor of 10.
REF_TOL = 1e-9

#: Closed-form weights applied to mpmath derivatives must reproduce the
#: quadrature value to this share of the sum of the terms' magnitudes.
RULE_TOL = 1e-9

#: Composite rows checked term by term against the closed-form weights.
COMPOSITE_CHECKED_PANELS = 4

_NUMERICAL_FAILURE = "hermquad: numerical failure:"


def _frac_mpf(value: Fraction):
    return mpmath.mpf(value.numerator) / value.denominator


# -- closed forms -----------------------------------------------------------


def omega(n: int) -> list:
    """Interval-free weights: w_a[j] = omega[j] (b-a)^(j+1), w_b[j] = (-1)^j w_a[j]."""
    return [
        n * sum(
            Fraction(math.comb(k, j) * math.factorial(n + k - j - 1), math.factorial(n + k + 1))
            for k in range(j, n)
        )
        for j in range(n)
    ]


def rodrigues(n: int, a: Fraction, b: Fraction) -> dict:
    """power -> coefficient of (1/(2n)!) d^n/dx^n [(x-a)^n (x-b)^n], from integer binomials."""
    pa, qa, pb, qb = a.numerator, a.denominator, b.numerator, b.denominator
    left = [math.comb(n, i) * qa ** i * (-pa) ** (n - i) for i in range(n + 1)]
    right = [math.comb(n, i) * qb ** i * (-pb) ** (n - i) for i in range(n + 1)]
    product = [0] * (2 * n + 1)
    for i, u in enumerate(left):
        for j, v in enumerate(right):
            product[i + j] += u * v
    scale = math.factorial(2 * n) * qa ** n * qb ** n
    out = {}
    for power in range(n + 1):
        c = Fraction(product[power + n] * math.perm(power + n, n), scale)
        if c:
            out[power] = c
    return out


def kernel_l2sq(n: int, width: Fraction) -> Fraction:
    return Fraction(math.factorial(n) ** 2, math.factorial(2 * n) * math.factorial(2 * n + 1)) * width ** (2 * n + 1)


def _legendre(n: int, t):
    """(P_n(t), P_{n-1}(t)) by the three-term recurrence, n >= 1."""
    prev, cur = mpmath.mpf(1), t
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1) * t * cur - k * prev) / (k + 1)
    return cur, prev


_ABS_LEGENDRE = {}


def abs_legendre_integral(n: int):
    """integral of |P_n| over [-1, 1]: Newton roots of P_n, then the antiderivative
    Q = (P_{n+1} - P_{n-1}) / (2n+1), which vanishes at +-1."""
    if n not in _ABS_LEGENDRE:
        with mpmath.workdps(DPS + 10):
            roots = []
            for i in range(1, n + 1):
                t = mpmath.cos(mpmath.pi * (i - mpmath.mpf(1) / 4) / (n + mpmath.mpf(1) / 2))
                for _ in range(100):
                    p, q = _legendre(n, t)
                    step = p / (n * (t * p - q) / (t * t - 1))
                    t -= step
                    if abs(step) < mpmath.mpf(10) ** (-DPS - 5):
                        break
                roots.append(t)

            def anti(t):
                return (_legendre(n + 1, t)[0] - _legendre(n, t)[1]) / (2 * n + 1)

            cuts = [mpmath.mpf(0)] + [anti(r) for r in sorted(roots)] + [mpmath.mpf(0)]
            _ABS_LEGENDRE[n] = sum(abs(hi - lo) for lo, hi in zip(cuts, cuts[1:]))
    return _ABS_LEGENDRE[n]


def kernel_abs_integral(n: int, width: Fraction):
    """integral of |K_n| over [a, b], with K_n(x) = (b-a)^n n!/(2n)! P_n(t)."""
    with mpmath.workdps(DPS):
        scale = _frac_mpf(width ** (n + 1) * Fraction(math.factorial(n), 2 * math.factorial(2 * n)))
        return scale * abs_legendre_integral(n)


# -- integrands ---------------------------------------------------------------


def _factor(kind, p, x):
    if kind == "exp":
        return mpmath.exp(mpmath.mpf(p) * x)
    if kind == "sin":
        return mpmath.sin(mpmath.mpf(p) * x)
    if kind == "cos":
        return mpmath.cos(mpmath.mpf(p) * x)
    if kind == "log1px2":
        return mpmath.log(1 + x * x)
    if kind == "recip":
        return 1 / (mpmath.mpf(p) + x * x)
    if kind == "sqrt":
        return mpmath.sqrt(mpmath.mpf(p) + x)
    if kind == "pow":
        return x ** int(p)
    raise ValueError(f"unknown factor {kind!r}")


def integrand(terms):
    def f(x):
        total = mpmath.mpf(0)
        for coeff, factors in terms:
            term = mpmath.mpf(coeff)
            for kind, p in factors:
                term *= _factor(kind, p, x)
            total += term
        return total

    return f


_NARROW_C = mpmath.mpf(100000000)
_NARROW_P = mpmath.mpf("0.30001")


def _hard_integrand(name):
    if name == "narrow_gaussian":
        return lambda x: mpmath.exp(-_NARROW_C * (x - _NARROW_P) ** 2)
    return lambda x: mpmath.sin(1 / x)


def _hard_true(name, a, b):
    """Closed forms: the Gaussian through erf, sin(1/x) through x sin(1/x) - Ci(1/x)."""
    if name == "narrow_gaussian":
        r = mpmath.sqrt(_NARROW_C)
        return mpmath.sqrt(mpmath.pi / _NARROW_C) / 2 * (mpmath.erf(r * (b - _NARROW_P)) - mpmath.erf(r * (a - _NARROW_P)))

    def anti(x):
        return x * mpmath.sin(1 / x) - mpmath.ci(1 / x)

    return anti(b) - anti(a)


def _derivatives(f, x, order):
    """f, f', ..., f^(order) at x by mpmath's high-precision differentiation."""
    coeffs = mpmath.taylor(f, x, order)
    return [c * math.factorial(k) for k, c in enumerate(coeffs)]


def _rule_value(f, n, nodes, deriv_cache):
    """Composite order-n rule on the given Fraction nodes with closed-form weights.

    Returns (value, sum of term magnitudes)."""
    om = omega(n)
    value = mpmath.mpf(0)
    scale = mpmath.mpf(0)
    for lo, hi in zip(nodes, nodes[1:]):
        h = hi - lo
        left = _cached_derivs(f, lo, n - 1, deriv_cache)
        right = _cached_derivs(f, hi, n - 1, deriv_cache)
        for j in range(n):
            w = _frac_mpf(om[j] * h ** (j + 1))
            for term in (w * left[j], (-1) ** j * w * right[j]):
                value += term
                scale += abs(term)
    return value, scale


def _cached_derivs(f, x, order, cache):
    if x not in cache:
        cache[x] = _derivatives(f, _frac_mpf(x), order)
    return cache[x]


def _close(got, want, tol):
    return math.isfinite(got) and abs(got - want) <= tol


# -- per-command checks -------------------------------------------------------


def _exit_problem(job, rec):
    """Reason the job's exit is a failure, 'defended' for an accepted exit 2, or None."""
    if rec["timed_out"]:
        return "hit the per-job time limit"
    if rec["rc"] == 0:
        return None
    if job.get("hard") and rec["rc"] == 2 and rec["err"].startswith(_NUMERICAL_FAILURE):
        return "defended"
    said = rec["err"].strip() or rec["out"].strip()
    return f"exit {rec['rc']}: {said.splitlines()[-1][:160] if said else 'no output'}"


def check_verify(job, rec):
    lines = rec["out"].splitlines()
    if not lines:
        return "no output"
    m = re.fullmatch(r"(\d+)/(\d+) checks passed", lines[-1])
    if not m or m.group(1) != m.group(2) or int(m.group(2)) < 14:
        return f"unexpected summary line {lines[-1]!r}"
    body = lines[:-1]
    if len(body) != int(m.group(2)) or not all(line.startswith("ok ") for line in body):
        return "a check line is missing or did not pass"
    return None


_TERM = re.compile(r"(?:(\d+(?:/\d+)?)\*)?x(?:\^(\d+))?|(\d+(?:/\d+)?)")


def parse_polynomial(text: str) -> dict:
    """Read hermquad's text rendering of a polynomial; raise ValueError on anything else."""
    tokens = text.split(" ")
    signs, terms = [], []
    first = tokens[0]
    signs.append(-1 if first.startswith("-") else 1)
    terms.append(first.lstrip("-"))
    rest = tokens[1:]
    if len(rest) % 2:
        raise ValueError("dangling sign")
    for op, term in zip(rest[::2], rest[1::2]):
        if op not in "+-" or len(op) != 1:
            raise ValueError(f"bad operator {op!r}")
        signs.append(1 if op == "+" else -1)
        terms.append(term)
    out = {}
    for sign, term in zip(signs, terms):
        m = _TERM.fullmatch(term)
        if not m:
            raise ValueError(f"bad term {term!r}")
        if m.group(3) is not None:
            power, mag = 0, Fraction(m.group(3))
        else:
            power = int(m.group(2) or 1)
            mag = Fraction(m.group(1) or 1)
        if power in out:
            raise ValueError(f"repeated power {power}")
        out[power] = sign * mag
    return out


def check_kernel(job, rec):
    """Text-format kernel output.  Only the text carries integral(K^2) and
    integral(|K|); the format is not stable, so any deviation fails loudly."""
    n = job["n"]
    a, b = Fraction(job["a"]), Fraction(job["b"])
    lines = rec["out"].splitlines()
    if len(lines) != n + 4:
        return f"kernel text: expected {n + 4} lines, got {len(lines)}"
    fields = {}
    patterns = [r"error kernel, order n = (?P<n>\d+) on \[(?P<a>\S+), (?P<b>\S+)\]",
                r"  K\(x\) = (?P<K>.+)", r"  c = (?P<c>\S+)"]
    patterns += [rf"  delta_{i} = (?P<d{i}>\S+)" for i in range(n - 1)]
    patterns += [r"  integral\(K\^2\) = (?P<l2>\S+)", r"  integral\(\|K\|\) ~ (?P<abs>\S+)"]
    for line, pattern in zip(lines, patterns):
        m = re.fullmatch(pattern, line)
        if not m:
            return f"kernel text: unparseable line {line[:80]!r}"
        fields.update(m.groupdict())
    try:
        if int(fields["n"]) != n or Fraction(fields["a"]) != a or Fraction(fields["b"]) != b:
            return "kernel text: header does not match the request"
        if parse_polynomial(fields["K"]) != rodrigues(n, a, b):
            return "kernel coefficients differ from the Rodrigues form"
        if Fraction(fields["c"]) != -(a + b) / 2:
            return "c differs from -(a+b)/2"
        width = b - a
        if Fraction(fields[f"d{n - 2}"]) != -(width ** 2) / (8 * (2 * n - 1)):
            return "delta_{n-2} differs from its closed form"
        if Fraction(fields["l2"]) != kernel_l2sq(n, width):
            return "integral(K^2) differs from (n!)^2 (b-a)^(2n+1) / ((2n)! (2n+1)!)"
        got = float(fields["abs"])
    except (ValueError, ZeroDivisionError) as exc:
        return f"kernel text: unparseable value ({exc})"
    want = float(kernel_abs_integral(n, width))
    if not _close(got, want, 1e-10 * want):
        return f"integral(|K|) = {got!r}, expected {want!r}"
    return None


def _float_field(doc, key):
    value = doc.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"field {key!r} is missing or not a number")
    return float(value)


def _load_json(rec):
    try:
        doc = json.loads(rec["out"])
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def check_bounds(job, rec):
    doc = _load_json(rec)
    if doc is None:
        return "output is not a JSON object"
    n = job["n"]
    a, b = Fraction(job["a"]), Fraction(job["b"])
    if "hard" in job:
        f = _hard_integrand(job["hard"])
    else:
        f = integrand(job["terms"])
    with mpmath.workdps(DPS):
        lo, hi = _frac_mpf(a), _frac_mpf(b)
        if "hard" in job:
            true = _hard_true(job["hard"], lo, hi)
        else:
            true = mpmath.quad(f, [lo, hi])
        want_q, scale = _rule_value(f, n, [a, b], {})
    true, want_q, scale = float(true), float(want_q), float(scale)
    try:
        ref = _float_field(doc, "reference")
        quad = _float_field(doc, "quadrature")
        err = _float_field(doc, "error")
        if doc.get("n") != n or doc.get("derivative_order_used") != job["bound_order"]:
            return "n or derivative_order_used does not match the request"
        if not _close(ref, true, REF_TOL * max(1.0, abs(true))):
            return f"reference {ref!r} differs from the true integral {true!r}"
        if not _close(quad, want_q, RULE_TOL * scale):
            return f"quadrature {quad!r} differs from the closed-form rule {want_q!r}"
        if err != quad - ref:
            return "error is not quadrature - reference"
        if job["n"] == 2 and job["bound_order"] == 4:
            via = _float_field(doc, "error_via_f4")
            if not _close(via, true - quad, REF_TOL * max(1.0, abs(true))):
                return f"error_via_f4 {via!r} differs from true - quadrature {true - quad!r}"
        else:
            for key in ("bound_uniform", "bound_l2"):
                bound = _float_field(doc, key)
                if not (math.isfinite(bound) and bound >= 0):
                    return f"{key} = {bound!r} is not finite and non-negative"
    except ValueError as exc:
        return str(exc)
    return None


def check_composite(job, rec):
    doc = _load_json(rec)
    if doc is None or not isinstance(doc.get("rows"), list):
        return "output is not a JSON object with rows"
    n = job["n"]
    a, b = Fraction(job["a"]), Fraction(job["b"])
    f = integrand(job["terms"])
    rows = doc["rows"]
    if [row.get("m") if isinstance(row, dict) else None for row in rows] != job["ms"]:
        return "rows do not match the requested panel counts"
    cache = {}
    with mpmath.workdps(DPS):
        true = float(mpmath.quad(f, [_frac_mpf(a), _frac_mpf(b)]))
        expected = {}
        for m in job["ms"]:
            if m <= COMPOSITE_CHECKED_PANELS:
                nodes = [a + (b - a) * k / m for k in range(m + 1)]
                value, scale = _rule_value(f, n, nodes, cache)
                expected[m] = (float(value), float(scale))
    width = float(b - a)
    try:
        for row in rows:
            m = row["m"]
            ref = _float_field(row, "reference")
            quad = _float_field(row, "quadrature")
            if row.get("n") != n or not _close(_float_field(row, "h"), width / m, 1e-12 * width):
                return f"row m={m}: n or h does not match the request"
            if not _close(ref, true, REF_TOL * max(1.0, abs(true))):
                return f"reference {ref!r} differs from the true integral {true!r}"
            if _float_field(row, "error") != quad - ref:
                return f"row m={m}: error is not quadrature - reference"
            if m in expected:
                want, scale = expected[m]
                if not _close(quad, want, RULE_TOL * scale):
                    return f"row m={m}: quadrature {quad!r} differs from the closed-form rule {want!r}"
            elif not math.isfinite(quad):
                return f"row m={m}: quadrature is not finite"
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed row ({exc})"
    return None


_CHECKS = {
    "verify": check_verify,
    "kernel": check_kernel,
    "bounds": check_bounds,
    "composite": check_composite,
}


def check(job, rec):
    """None when the job is right, or a reason it failed.  An accepted exit 2
    on a known-defect input counts as right."""
    problem = _exit_problem(job, rec)
    if problem == "defended":
        return None
    if problem is not None:
        return problem
    return _CHECKS[job["kind"]](job, rec)
