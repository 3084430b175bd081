"""Seeded job lists for the three benchmark workloads.

A job is one hermquad command line plus the facts the checker needs to
judge its output (the interval, the rule order, the integrand as a small
syntax tree).  Jobs come in blocks.  Every block of a workload holds the
same job sizes: the same orders, panel counts, endpoint denominators or
digit counts, and integrands of the same shape built from the same
function kinds.  Which kinds go with which job rotates from block to
block, the same way for every seed.  The seed shuffles the order inside
a block and draws the endpoint numerators and digits and the integrand
constants.  So every seed puts the same load on the program, and a run
that stops at a block boundary measures the same mix whatever the seed.

Only the generated argv reaches hermquad; everything else stays here.
Values go in as ``--a=VALUE``, because a negative value after a separate
``--a`` would read as an option.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

PI_TEXT = "pi"
PI_VALUE = Fraction(math.pi)  # hermquad reads 'pi' as the double nearest pi


class Workload:
    """One workload: its job generator, list length and per-job wall-clock limit.

    A run cycles through the list if it gets to the end; at the seed
    commit no run reaches a tenth of it."""

    def __init__(self, name, why, job_limit_s, blocks, make_block):
        self.name = name
        self.why = why
        self.job_limit_s = job_limit_s
        self.blocks = blocks
        self.make_block = make_block

    @property
    def block_size(self) -> int:
        return len(self.make_block(random.Random(0), 0, {}))

    def jobs(self, seed: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        seen = {}
        out = []
        for index in range(self.blocks):
            out.extend(self.make_block(rng, index, seen))
        return out


def digest(jobs) -> str:
    """sha256 of the canonical JSON of every argv in the list, in order."""
    text = json.dumps([job["argv"] for job in jobs], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _fmt(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _endpoint_text(value) -> str:
    return PI_TEXT if value is PI_VALUE else _fmt(value)


def _distinct(draw, seen):
    """Draw until the interval is new to ``seen`` (a set)."""
    while True:
        texts, interval = draw()
        if interval not in seen:
            seen.add(interval)
            return texts, interval


# -- exact-sweep -----------------------------------------------------------

#: One block: each order once with small-denominator endpoints and once
#: with decimal endpoints.  Orders stop short of the top of the intended
#: range (verify 24, kernel 64) because one such job takes 5 s or more at
#: the seed commit and would leave too few jobs in a run for a stable tail.
EXACT_VERIFY_ORDERS = (4, 6, 8, 12)
EXACT_KERNEL_ORDERS = (8, 16, 28, 36)
#: Endpoint denominators (q_a, q_b) and decimal digit counts, by order slot.
SMALL_DENOMINATORS = ((1, 5), (3, 4), (5, 8), (7, 6))
DECIMAL_DIGITS = (6, 7, 8, 7)


def _prime_to(rng, base, lo, hi):
    """A random integer in [lo, hi] with no factor in common with ``base``."""
    while True:
        p = rng.randint(lo, hi)
        if math.gcd(p, base) == 1:
            return p


# Endpoint sizes are held steady so that every job of a slot does the same
# work: magnitudes stay in a fixed band, and numerators are prime to the
# denominator so that no fraction reduces to a smaller one.  Half the
# intervals are mirrored to negative x.

def _mirror(rng, a, b):
    return (-b, -a) if rng.random() < 0.5 else (a, b)


def _small_interval(rng, qa, qb):
    a = Fraction(_prime_to(rng, qa, 4 * qa, 10 * qa - 1), qa)
    b = Fraction(_prime_to(rng, qb, math.ceil((a + 1) * qb), math.floor((a + 3) * qb)), qb)
    a, b = _mirror(rng, a, b)
    return (_fmt(a), _fmt(b)), (a, b)


def _decimal_interval(rng, digits):
    scale = 10 ** digits
    a = _prime_to(rng, 10, scale, 2 * scale - 1)
    b = _prime_to(rng, 10, a + scale, a + 2 * scale)
    a, b = _mirror(rng, a, b)
    return (_decimal_text(a, digits), _decimal_text(b, digits)), (Fraction(a, scale), Fraction(b, scale))


def _decimal_text(units: int, digits: int) -> str:
    sign = "-" if units < 0 else ""
    whole, frac = divmod(abs(units), 10 ** digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def _exact_block(rng, index, seen):
    block = []
    for cmd, orders in (("verify", EXACT_VERIFY_ORDERS), ("kernel", EXACT_KERNEL_ORDERS)):
        for slot, n in enumerate(orders):
            draws = (lambda: _small_interval(rng, *SMALL_DENOMINATORS[slot]),
                     lambda: _decimal_interval(rng, DECIMAL_DIGITS[slot]))
            for draw in draws:
                # Intervals are distinct per command, which is what keeps
                # every kernel job a kernel-cache miss.
                texts, (a, b) = _distinct(draw, seen.setdefault(cmd, set()))
                argv = [cmd, "--n", str(n), f"--a={texts[0]}", f"--b={texts[1]}"]
                block.append({"argv": argv, "kind": cmd, "n": n, "a": _fmt(a), "b": _fmt(b)})
    rng.shuffle(block)
    return block


# -- integrands ------------------------------------------------------------

# An integrand is a sum of terms; a term is (coefficient text, factors);
# a factor is (kind, parameter text).  The same tree renders to hermquad's
# grammar here and to an mpmath function in checks.py.  Every integrand
# has the shape c1*F1*F2 + c2*F3.  Coefficients are positive, so terms
# never cancel to an identically zero integrand.  The seed draws only the
# coefficients and the parameters; the kinds come from ``integrands``.
FACTOR_PARAMS = {
    "exp": ("0.5", "-0.5", "1", "-1", "1.5"),
    "sin": ("1", "2", "3"),
    "cos": ("1", "2", "3"),
    "log1px2": ("",),
    "recip": ("1", "2", "3"),
    "sqrt": ("2", "3", "4"),
    "pow": ("2", "3"),
}
COEFFS = ("0.3", "0.5", "1", "1.5", "2", "2.5")
FACTORS_PER_INTEGRAND = 3

_FACTOR_TEXT = {
    "exp": "exp({p}*x)",
    "sin": "sin({p}*x)",
    "cos": "cos({p}*x)",
    "log1px2": "log(1+x^2)",
    "recip": "1/({p}+x^2)",
    "sqrt": "sqrt({p}+x)",
    "pow": "x^{p}",
}


def integrands(rng, count, index) -> list:
    """``count`` integrands for block ``index``.

    The factor kinds run through FACTOR_PARAMS in order, starting one kind
    further on in each block, so every kind is used equally often (to
    within one) and which job gets which kinds does not depend on the seed."""
    kinds = list(FACTOR_PARAMS)
    total = FACTORS_PER_INTEGRAND * count
    pool = [kinds[(index + k) % len(kinds)] for k in range(total)]
    out = []
    for i in range(count):
        f1, f2, f3 = ((k, rng.choice(FACTOR_PARAMS[k])) for k in pool[3 * i: 3 * i + 3])
        out.append([(rng.choice(COEFFS), [f1, f2]), (rng.choice(COEFFS), [f3])])
    return out


def render(terms) -> str:
    parts = []
    for coeff, factors in terms:
        parts.append("*".join([coeff] + [_FACTOR_TEXT[k].format(p=p) for k, p in factors]))
    return " + ".join(parts)


# -- bounds-pool -----------------------------------------------------------

#: Fixed (a, b) pool, so kernels repeat across jobs and the kernel cache is
#: warm.  sqrt(c+x) has c >= 2, so every integrand is smooth on all of them.
BOUNDS_INTERVALS = (
    (Fraction(0), PI_VALUE),
    (Fraction(0), Fraction(1)),
    (Fraction(-1, 2), Fraction(1)),
    (Fraction(1, 2), Fraction(2)),
)
BOUNDS_ORDERS = tuple(range(2, 13))
BOUNDS_ROUNDS = 3  # each order this many times per block, on different intervals
BOUNDS_EXTRA = 3  # n = 2 jobs at --bound-order 3, and as many at 4

#: Known defects, one of each per block (2 of 41 jobs).  The narrow
#: Gaussian's reference misses the peak and reports 0 as converged; on
#: [1e-6, 1] the reference for sin(1/x) never finishes.  A correct
#: answer to either is a value within tolerance of the true integral, or
#: exit 2 with a reason.
HARD_JOBS = (
    {"fn": "exp(-100000000*(x-0.30001)^2)", "a": "0", "b": "1", "hard": "narrow_gaussian"},
    {"fn": "sin(1/x)", "a": "1/1000000", "b": "1", "hard": "sin_inv_x"},
)


def _bounds_block(rng, index, seen):
    specs = [(n, (n + r) % len(BOUNDS_INTERVALS), None)
             for n in BOUNDS_ORDERS for r in range(BOUNDS_ROUNDS)]
    specs += [(2, r % len(BOUNDS_INTERVALS), order) for order in (3, 4) for r in range(BOUNDS_EXTRA)]
    block = []
    for (n, slot, order), terms in zip(specs, integrands(rng, len(specs), index)):
        a, b = BOUNDS_INTERVALS[slot]
        argv = ["bounds", "--n", str(n), f"--a={_endpoint_text(a)}", f"--b={_endpoint_text(b)}",
                f"--fn={render(terms)}", "--format", "json"]
        if order is not None:
            argv += ["--bound-order", str(order)]
        block.append({"argv": argv, "kind": "bounds", "n": n, "a": _fmt(a), "b": _fmt(b),
                      "terms": terms, "bound_order": order or n})
    for hard in HARD_JOBS:
        argv = ["bounds", "--n", "2", f"--a={hard['a']}", f"--b={hard['b']}",
                f"--fn={hard['fn']}", "--format", "json"]
        block.append({"argv": argv, "kind": "bounds", "n": 2, "a": hard["a"], "b": hard["b"],
                      "hard": hard["hard"], "bound_order": 2})
    rng.shuffle(block)
    return block


# -- composite-sweep -------------------------------------------------------

COMPOSITE_ORDERS = tuple(range(1, 9))
COMPOSITE_MAX_PANELS = (64, 256, 1024)
COMPOSITE_ROUNDS = 3  # each (order, panel count) this many times per block


def _composite_interval(rng, to_pi):
    a = _prime_to(rng, 10, -9000, 5000)
    b = PI_VALUE if to_pi else Fraction(_prime_to(rng, 10, a + 5000, a + 30000), 10000)
    return None, (Fraction(a, 10000), b)


def _composite_block(rng, index, seen):
    specs = [(n, top) for n in COMPOSITE_ORDERS for top in COMPOSITE_MAX_PANELS] * COMPOSITE_ROUNDS
    block = []
    for i, ((n, top), terms) in enumerate(zip(specs, integrands(rng, len(specs), index))):
        # Half the jobs end at pi, whose 2^-51 denominator makes node arithmetic heavier.
        _, (a, b) = _distinct(lambda: _composite_interval(rng, i % 2 == 0), seen.setdefault("", set()))
        ms = [2 ** k for k in range(top.bit_length())]
        argv = ["composite", "--n", str(n), f"--a={_endpoint_text(a)}", f"--b={_endpoint_text(b)}",
                f"--m={','.join(map(str, ms))}", f"--fn={render(terms)}", "--format", "json"]
        block.append({"argv": argv, "kind": "composite", "n": n, "a": _fmt(a), "b": _fmt(b),
                      "terms": terms, "ms": ms})
    rng.shuffle(block)
    return block


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-sweep",
            "verify and text-format kernel on distinct rational intervals: only the exact core "
            "runs and the kernel cache never hits",
            60.0, 64, _exact_block,
        ),
        Workload(
            "bounds-pool",
            "bounds on random smooth integrands over a fixed (n, a, b) pool, plus known-defect "
            "integrands: warm kernel cache, |K| integration, jets and the reference",
            2.0, 128, _bounds_block,
        ),
        Workload(
            "composite-sweep",
            "composite error tables up to 1024 panels on distinct intervals: jets, rational "
            "nodes and the reference, never the kernel or the interpolant",
            10.0, 64, _composite_block,
        ),
    )
}
