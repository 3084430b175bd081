"""Independent reference integrator.

Adaptive bisection on an embedded 7-point Gauss / 15-point Kronrod pair.
This is deliberately unrelated to the endpoint-derivative rules elsewhere
in the package: it samples interior nodes only and needs no derivatives,
so it can serve as an impartial referee for their errors.

The first panel takes its 15 samples from one call, and a split samples
both halves, 30 points, in one call: ``f.many(points)`` when the integrand
has that attribute (as ``expressions.evaluator`` gives it), and otherwise
f at each point in turn, so any scalar callable works.

Non-finite integrand samples (inf/nan, e.g. at an integrable endpoint or
interior singularity) taint a panel: tainted panels are forced to split
until the depth limit, after which the non-finite samples count as zero
and the panel width is charged to the error estimate.  A panel with no
finite sample at all, or whose finite samples overflow the rule sums, is
not split: its error estimate is infinite, so the result is unconverged.

``reference_integrate``'s ``tol`` is the one setting: a result is
converged when its error estimate is at most tol * max(1, |value|) and
its value is finite.
Bisection stops at depth ``_MAX_DEPTH``.  Once ``_PANEL_BUDGET`` panels
have been evaluated no panel is split any more, and the result is
unconverged whatever its error estimate, so an integrand the bisection
cannot resolve (``sin(1/x)`` near 0) fails in bounded time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "IntegralResult",
    "ConvergenceError",
    "reference_integrate",
]

# 15-point Kronrod abscissae for [-1, 1] (positive half, descending; the
# points at odd indices plus the origin form the embedded 7-point Gauss rule).
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)

_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WGK_CENTER = 0.209482141084727828012999174891714

_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG_CENTER = 0.417959183673469387755102040816327

#: Integrand samples per panel.
_SAMPLES = 2 * len(_XGK) + 1

#: Bisection depth after which a panel is accepted as it is.
_MAX_DEPTH = 48

#: Evaluated panels after which no panel is split and the result is unconverged.
_PANEL_BUDGET = 1 << 14


#: The tolerance of ``reference_integrate`` and the error integrals when none is given.
_DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class IntegralResult:
    value: float
    err_estimate: float
    converged: bool
    panels: int


class ConvergenceError(RuntimeError):
    """Raised by callers that insist on a converged result."""

    def __init__(self, message: str, result: IntegralResult):
        super().__init__(f"{message} (value={result.value}, err={result.err_estimate})")
        self.result = result


# Panel error estimates below this multiple of eps * integral(|f|) are
# float noise; refining further cannot improve them.
_NOISE_FACTOR = 50.0 * 2.220446049250313e-16


_W0, _W1, _W2, _W3, _W4, _W5, _W6 = _WGK
_G0, _G1, _G2 = _WG
_X0, _X1, _X2, _X3, _X4, _X5, _X6 = _XGK


def _nodes(lo: float, hi: float) -> list:
    """The 15 Kronrod points of [lo, hi]: the center, then each (left, right)
    pair from the outside in."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    d0, d1, d2, d3, d4, d5, d6 = (half * _X0, half * _X1, half * _X2, half * _X3,
                                  half * _X4, half * _X5, half * _X6)
    return [center, center - d0, center + d0, center - d1, center + d1, center - d2, center + d2,
            center - d3, center + d3, center - d4, center + d4, center - d5, center + d5,
            center - d6, center + d6]


def _sample(f, points: list) -> list:
    """f at ``points`` in one call of ``f.many`` when f has it, else f at
    each point in turn."""
    many = getattr(f, "many", None)
    return [float(f(x)) for x in points] if many is None else many(points)


def _rules(samples, lo: float, hi: float):
    """(kronrod, gauss, kronrod of |f|, non-finite samples) of one panel's
    15 samples, in ``_nodes`` order.  The rules are written out term by
    term: each sum adds from the center term outwards."""
    half = 0.5 * (hi - lo)
    bad = 0
    if not math.isfinite(sum(samples)):  # a sum that overflows only costs this check
        bad = sum(not math.isfinite(v) for v in samples)
        samples = [v if math.isfinite(v) else 0.0 for v in samples]
    fc, l0, r0, l1, r1, l2, r2, l3, r3, l4, r4, l5, r5, l6, r6 = samples
    p1, p3, p5 = l1 + r1, l3 + r3, l5 + r5
    kron = (_WGK_CENTER * fc + _W0 * (l0 + r0) + _W1 * p1 + _W2 * (l2 + r2) + _W3 * p3
            + _W4 * (l4 + r4) + _W5 * p5 + _W6 * (l6 + r6))
    gauss = _WG_CENTER * fc + _G0 * p1 + _G1 * p3 + _G2 * p5
    kron_abs = (_WGK_CENTER * abs(fc) + _W0 * (abs(l0) + abs(r0)) + _W1 * (abs(l1) + abs(r1))
                + _W2 * (abs(l2) + abs(r2)) + _W3 * (abs(l3) + abs(r3)) + _W4 * (abs(l4) + abs(r4))
                + _W5 * (abs(l5) + abs(r5)) + _W6 * (abs(l6) + abs(r6)))
    return half * kron, half * gauss, half * kron_abs, bad


def _panel(f, lo: float, hi: float):
    """One embedded evaluation of [lo, hi], its 15 samples from one call."""
    return _rules(_sample(f, _nodes(lo, hi)), lo, hi)


def _halves(f, lo: float, mid: float, hi: float):
    """The embedded evaluations of [lo, mid] and [mid, hi], their 30 samples,
    left panel first, from one call."""
    samples = _sample(f, _nodes(lo, mid) + _nodes(mid, hi))
    return _rules(samples[:_SAMPLES], lo, mid), _rules(samples[_SAMPLES:], mid, hi)


def _refine(f, a: float, b: float, tol: float):
    """(value, err, panels) of adaptive bisection over [a, b].

    An explicit stack visits the panels depth first, left before right,
    and sums each split as left + right.  The first panel comes from
    ``_panel`` and each split from ``_halves``, which samples both halves
    in one call, so the integrand is always called at one stack depth
    however deep the bisection goes.  A ``None`` entry marks a split
    whose two halves are done.  Splitting stops once ``_PANEL_BUDGET``
    panels have been evaluated.
    """
    panel = _panel(f, a, b)
    todo = [(a, b, panel, tol * max(1.0, abs(panel[0])), 0)]
    done = []
    evaluated = 1
    while todo:
        task = todo.pop()
        if task is None:
            rv, re, rp = done.pop()
            lv, le, lp = done[-1]
            done[-1] = (lv + rv, le + re, lp + rp + 1)
            continue
        lo, hi, (kron, gauss, kron_abs, bad), budget, depth = task
        err = abs(kron - gauss)
        if bad == _SAMPLES or not math.isfinite(err):
            # Nothing is known of f here, or its finite samples overflow the
            # rule sums, which no split can fix: every branch would run to
            # the depth limit.
            done.append((kron, math.inf, 1))
            continue
        if bad:
            err = max(err, hi - lo)
        elif err <= budget or err <= _NOISE_FACTOR * kron_abs:
            done.append((kron, err, 1))
            continue
        too_thin = (hi - lo) <= 1e-15 * max(abs(lo), abs(hi), 1.0)
        if depth >= _MAX_DEPTH or too_thin or evaluated >= _PANEL_BUDGET:
            done.append((kron, err, 1))
            continue
        mid = 0.5 * (lo + hi)
        left, right = _halves(f, lo, mid, hi)
        evaluated += 2
        budget *= 0.5
        todo += [None, (mid, hi, right, budget, depth + 1), (lo, mid, left, budget, depth + 1)]
    return done[0]


def reference_integrate(f, a, b, tol: float = _DEFAULT_TOL) -> IntegralResult:
    """Adaptively integrate ``f`` over [a, b] to the tolerance ``tol``.

    Returns the value with an error estimate; ``converged`` is False when
    the value is not finite, the panel budget is spent, or the estimate
    still exceeds tol * max(1, |value|) after the depth limit.  Reversed
    limits negate the result; empty intervals give 0.  A ``tol`` that is
    not finite and positive raises ValueError before f is sampled.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")
    a = float(a)
    b = float(b)
    if a == b:
        return IntegralResult(0.0, 0.0, True, 0)
    sign = 1.0
    if a > b:
        a, b = b, a
        sign = -1.0
    value, err, panels = _refine(f, a, b, tol)
    within_tol = err <= tol * max(1.0, abs(value))
    converged = panels < _PANEL_BUDGET and math.isfinite(value) and within_tol
    return IntegralResult(sign * value, err, converged, panels)
