"""Independent reference integrator.

Adaptive bisection on an embedded 7-point Gauss / 15-point Kronrod pair.
This is deliberately unrelated to the endpoint-derivative rules elsewhere
in the package: it samples interior nodes only and needs no derivatives,
so it can serve as an impartial referee for their errors.

Non-finite integrand samples (inf/nan, e.g. at an integrable endpoint or
interior singularity) taint a panel: tainted panels are forced to split
until the depth limit, after which the non-finite samples count as zero
and the panel width is charged to the error estimate.  A panel with no
finite sample at all, or whose finite samples overflow the rule sums, is
not split: its error estimate is infinite, so the result is unconverged.

``OracleConfig.tol`` is the one setting: a result is converged when its
error estimate is at most tol * max(1, |value|) and its value is finite.
Bisection stops at depth ``_MAX_DEPTH``.  Once ``_PANEL_BUDGET`` panels
have been evaluated no panel is split any more, and the result is
unconverged whatever its error estimate, so an integrand the bisection
cannot resolve (``sin(1/x)`` near 0) fails in bounded time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "OracleConfig",
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


@dataclass(frozen=True)
class OracleConfig:
    tol: float = 1e-12

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be finite and positive")


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


def _panel(f, lo: float, hi: float):
    """One embedded evaluation: (kronrod, gauss, kronrod of |f|, non-finite samples)."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    bad = 0

    def sample(x):
        nonlocal bad
        v = float(f(x))
        if not math.isfinite(v):
            bad += 1
            return 0.0
        return v

    fc = sample(center)
    kron = _WGK_CENTER * fc
    kron_abs = _WGK_CENTER * abs(fc)
    gauss = _WG_CENTER * fc
    for i, xi in enumerate(_XGK):
        dx = half * xi
        left = sample(center - dx)
        right = sample(center + dx)
        kron += _WGK[i] * (left + right)
        kron_abs += _WGK[i] * (abs(left) + abs(right))
        if i % 2 == 1:
            gauss += _WG[i // 2] * (left + right)
    return half * kron, half * gauss, half * kron_abs, bad


def _refine(f, a: float, b: float, tol: float):
    """(value, err, panels) of adaptive bisection over [a, b].

    An explicit stack visits the panels depth first, left before right,
    and sums each split as left + right, so the integrand is always called
    at one stack depth however deep the bisection goes.  A ``None`` entry
    marks a split whose two halves are done.  Splitting stops once
    ``_PANEL_BUDGET`` panels have been evaluated.
    """
    panel = _panel(f, a, b)
    todo = [(a, b, panel, tol * max(1.0, abs(panel[0])), 0)]
    done = []
    evaluated = 1
    while todo:
        task = todo.pop()
        if task is None:
            (lv, le, lp), (rv, re, rp) = done[-2:]
            done[-2:] = [(lv + rv, le + re, lp + rp + 1)]
            continue
        lo, hi, (kron, gauss, kron_abs, bad), budget, depth = task
        err = abs(kron - gauss)
        # Nothing is known of f here, or its finite samples overflow the
        # rule sums, which no split can fix: every branch would run to the
        # depth limit.
        void = bad == _SAMPLES or not math.isfinite(err)
        if void:
            err = math.inf
        elif bad:
            err = max(err, hi - lo)
        floor = max(budget, _NOISE_FACTOR * kron_abs)
        too_thin = (hi - lo) <= 1e-15 * max(abs(lo), abs(hi), 1.0)
        settled = void or depth >= _MAX_DEPTH or too_thin or (err <= floor and not bad)
        if settled or evaluated >= _PANEL_BUDGET:
            done.append((kron, err, 1))
            continue
        mid = 0.5 * (lo + hi)
        left, right = _panel(f, lo, mid), _panel(f, mid, hi)
        evaluated += 2
        budget *= 0.5
        todo += [None, (mid, hi, right, budget, depth + 1), (lo, mid, left, budget, depth + 1)]
    return done[0]


def reference_integrate(f, a, b, cfg: OracleConfig | None = None) -> IntegralResult:
    """Adaptively integrate ``f`` over [a, b].

    Returns the value with an error estimate; ``converged`` is False when
    the value is not finite, the panel budget is spent, or the estimate
    still exceeds tol * max(1, |value|) after the depth limit.  Reversed
    limits negate the result; empty intervals give 0.
    """
    if cfg is None:
        cfg = OracleConfig()
    a = float(a)
    b = float(b)
    if a == b:
        return IntegralResult(0.0, 0.0, True, 0)
    sign = 1.0
    if a > b:
        a, b = b, a
        sign = -1.0
    value, err, panels = _refine(f, a, b, cfg.tol)
    within_tol = err <= cfg.tol * max(1.0, abs(value))
    converged = panels < _PANEL_BUDGET and math.isfinite(value) and within_tol
    return IntegralResult(sign * value, err, converged, panels)
