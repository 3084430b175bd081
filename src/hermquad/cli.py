"""Command-line front end.

Subcommands: weights, kernel, integrate, composite, bounds, verify, demo.
Output formats: text (human-oriented), json, csv (stable column set, see
docs/json-schemas.md).  Exit status 0 on success, 1 on usage errors, 2 on
numerical failures (unconverged reference integral, evaluation domain
error, failed verification).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction
from functools import cache

from . import __version__
from .exactmath import format_rational, parse_rational
from .expressions import EvalDomainError, derivative_function, evaluator, jet_provider, parse
from .kernel import RootIsolationError, kernel_set
from .oracle import ConvergenceError, reference_integrate
from .quadrature import (
    ErrorReport,
    Partition,
    error_exact,
    integrate_composite,
    integrate_single,
    observed_orders,
    refined_bounds,
)
from .verify import run_checks
from .weights import _check_order, compute_weights

#: Cap on the panels of one composite table, summed over its rows.
_MAX_PANELS = 65536


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the contract here is 1.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_endpoint(text: str, allow_pi: bool) -> Fraction:
    s = text.strip().lower()
    if s in ("pi", "-pi", "+pi"):
        if not allow_pi:
            raise ValueError(
                "the symbol 'pi' is only accepted by the float-path subcommands "
                "(integrate, composite, bounds)"
            )
        return Fraction(-math.pi if s == "-pi" else math.pi)
    return parse_rational(text)


def _parse_panel_counts(text: str) -> list:
    try:
        counts = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"--m expects an integer or comma-separated integers, got {text!r}")
    if not counts or any(m < 1 for m in counts):
        raise ValueError("--m values must be positive integers")
    if sum(counts) > _MAX_PANELS:
        raise ValueError(f"--m values may total at most {_MAX_PANELS} panels")
    return counts


def _check_tol(tol: float) -> float:
    if not 0 < tol < math.inf:
        raise ValueError("--tol must be finite and positive")
    return tol


def _emit_csv(reports):
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(ErrorReport.CSV_COLUMNS)
    for report in reports:
        writer.writerow(report.csv_cells())


def _fmt(value) -> str:
    if value is None:
        return "-"
    return f"{value:.15g}"


# -- subcommands --------------------------------------------------------


def _cmd_weights(args) -> int:
    a = _parse_endpoint(args.a, allow_pi=False)
    b = _parse_endpoint(args.b, allow_pi=False)
    rule = compute_weights(args.n, a, b)
    if args.format == "json":
        print(json.dumps(rule.to_json_dict(), indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["j", "w_a", "w_b"])
        for j in range(rule.n):
            writer.writerow([j, format_rational(rule.w_a[j]), format_rational(rule.w_b[j])])
    else:
        print(f"order n = {rule.n} on [{format_rational(a)}, {format_rational(b)}]")
        for j in range(rule.n):
            print(
                f"  f^({j}):  w_a = {format_rational(rule.w_a[j]):>16}   "
                f"w_b = {format_rational(rule.w_b[j]):>16}"
            )
    return 0


def _cmd_kernel(args) -> int:
    a = _parse_endpoint(args.a, allow_pi=False)
    b = _parse_endpoint(args.b, allow_pi=False)
    ks = kernel_set(args.n, a, b)
    if args.format == "json":
        print(json.dumps(ks.to_json_dict(), indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["power", "coefficient"])
        for power, coeff in enumerate(ks.kernel.coeffs):
            writer.writerow([power, format_rational(coeff)])
    else:
        print(f"error kernel, order n = {ks.n} on [{format_rational(a)}, {format_rational(b)}]")
        kernel = ks.kernel
        print(f"  K(x) = {kernel}")
        params = ks._params(kernel)
        print(f"  c = {format_rational(params.c)}")
        for i, d in enumerate(params.deltas):
            print(f"  delta_{i} = {format_rational(d)}")
        print(f"  integral(K^2) = {format_rational(ks.l2sq())}")
        print(f"  integral(|K|) ~ {ks.abs_integral():.15g}")
    return 0


def _float_path_inputs(args):
    """Interval, parsed integrand and reference tolerance of a --fn subcommand."""
    a = _parse_endpoint(args.a, allow_pi=True)
    b = _parse_endpoint(args.b, allow_pi=True)
    if a >= b:
        raise ValueError("endpoints must satisfy a < b")
    try:
        lo, hi = float(a), float(b)
    except OverflowError:
        raise ValueError("endpoints must lie within the double range") from None
    if lo == hi:
        raise ValueError(f"endpoints must be distinct doubles; both round to {lo!r}")
    return a, b, parse(args.fn), _check_tol(args.tol)


def _converged_reference(expr, a, b, tol):
    """The reference integral of expr over [a, b]; ConvergenceError unless it converged."""
    reference = reference_integrate(evaluator(expr), float(a), float(b), tol)
    if not reference.converged:
        raise ConvergenceError("reference integral did not converge", reference)
    return reference


def _cmd_single(args) -> int:
    """``integrate`` and ``bounds``: one interval, one ErrorReport."""
    a, b, expr, tol = _float_path_inputs(args)
    n = args.n
    order = 0
    if args.command == "bounds":
        order = n if args.bound_order is None else args.bound_order
        if not n <= order <= 2 * n:
            raise ValueError(
                f"--bound-order {order} is not available for n = {n}; "
                f"use {n}..{2 * n}"
            )
    value = float(integrate_single(jet_provider(expr), n, a, b))
    reference = _converged_reference(expr, a, b, tol)
    uniform = l2 = stable = error_via = None
    if order:
        ks = kernel_set(n, a, b)
        f_deriv = derivative_function(expr, order)
        if order < 2 * n:
            uniform, l2, stable = refined_bounds(f_deriv, ks, k=order - n)
        else:
            error_via = error_exact(f_deriv, ks, tol, k=n)
    report = ErrorReport(
        quadrature_value=value,
        reference_value=reference.value,
        bound_uniform=uniform,
        bound_l2=l2,
        derivative_order_used=order,
        n=n,
        h=float(b - a),
        fn=args.fn,
        reference_err_estimate=reference.err_estimate,
        bound_stable=stable,
        error_via_derivative=error_via,
    )
    if args.format == "json":
        print(json.dumps(report.to_json_dict(), indent=2))
    elif args.format == "csv":
        _emit_csv([report])
    else:
        print(f"f(x) = {report.fn} on an interval of width {_fmt(report.h)}")
        print(f"  quadrature (n={n})   : {_fmt(report.quadrature_value)}")
        print(
            f"  reference             : {_fmt(report.reference_value)}"
            f"   (err estimate {report.reference_err_estimate:.3g})"
        )
        print(f"  error (quad - ref)    : {_fmt(report.actual_error)}")
        if report.bound_uniform is not None:
            print(f"  bound (uniform)       : {_fmt(report.bound_uniform)}")
            print(f"  bound (L2)            : {_fmt(report.bound_l2)}")
        if report.error_via_derivative is not None:
            label = f"error via f^({order})"
            print(f"  {label:<22}: {_fmt(report.error_via_derivative)}")
        if report.bound_stable is False:
            print("  note: bound estimates changed by > 1% under grid refinement")
    return 0


def _cmd_composite(args) -> int:
    a, b, expr, tol = _float_path_inputs(args)
    counts = _parse_panel_counts(args.m)
    _check_order(args.n)
    reference = _converged_reference(expr, a, b, tol)
    # Rows share nodes (m and 2m panels share m + 1), and a jet reads its
    # node only as a double, so one ``many`` call builds the jet of each
    # distinct double; node t / den is float(Fraction(t, den)), since
    # int / int rounds correctly.  The doubles are listed in the order the
    # rows first meet them, so the error ``many`` raises, its first failing
    # point's, is the one the rows would meet first.
    partitions = [Partition.uniform(a, b, m) for m in counts]
    rows = [[t / partition.den for t in partition.ticks] for partition in partitions]
    doubles = list(dict.fromkeys(x for row in rows for x in row))
    jet_of = dict(zip(doubles, jet_provider(expr).many(doubles, args.n - 1)))
    values = [float(integrate_composite([jet_of[x] for x in row], args.n, partition))
              for row, partition in zip(rows, partitions)]
    orders = observed_orders([abs(value - reference.value) for value in values], counts)
    reports = [
        ErrorReport(
            quadrature_value=value,
            reference_value=reference.value,
            n=args.n,
            m=m,
            h=float(b - a) / m,
            observed_order=order,
        )
        for m, value, order in zip(counts, values, orders)
    ]
    if args.format == "json":
        rows = [report.to_json_dict() for report in reports]
        print(json.dumps({"fn": args.fn, "rows": rows}, indent=2))
    elif args.format == "csv":
        _emit_csv(reports)
    else:
        print(f"composite rule for f(x) = {args.fn}, n = {args.n}")
        print(f"  reference = {_fmt(reference.value)}")
        header = f"  {'m':>6} {'h':>12} {'quadrature':>22} {'error':>14} {'order':>7}"
        print(header)
        for report in reports:
            order = "-" if report.observed_order is None else f"{report.observed_order:.3f}"
            print(
                f"  {report.m:>6} {report.h:>12.6g} {report.quadrature_value:>22.15g} "
                f"{report.actual_error:>14.4g} {order:>7}"
            )
    return 0


def _cmd_verify(args) -> int:
    a = _parse_endpoint(args.a, allow_pi=False) if args.a is not None else Fraction(0)
    b = _parse_endpoint(args.b, allow_pi=False) if args.b is not None else Fraction(1)
    checks = run_checks(args.n, a, b)
    width = max(len(c.name) for c in checks)
    failures = 0
    for check in checks:
        status = "ok " if check.passed else "FAIL"
        print(f"{status}  {check.name:<{width}}")
        if not check.passed:
            failures += 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 2


def _cmd_demo(args) -> int:
    expr = parse("x^2*sin(x)")
    a, b = 0.0, math.pi
    reference = reference_integrate(evaluator(expr), a, b, 1e-13)
    jets = jet_provider(expr)
    trapezoid = float(integrate_single(jets, 1, a, b))
    hermite = float(integrate_single(jets, 2, a, b))
    print("integral of x^2*sin(x) over [0, pi]")
    print(f"  true value (reference)          : {reference.value:.15g}   = pi^2 - 4")
    print(f"  endpoint values only (n=1)      : {trapezoid:.15g}")
    print(f"  values and slopes (n=2)         : {hermite:.15g}   = pi^4 / 12")
    print(f"  n=2 error (quad - ref)          : {hermite - reference.value:.15g}")
    return 0


# -- argument wiring -----------------------------------------------------


def _add_common(parser, with_fn=False, with_m=False, with_bound_order=False):
    parser.add_argument("--n", type=int, required=True, help="rule order (derivatives per endpoint)")
    parser.add_argument("--a", required=True, help="left endpoint: 'p/q', decimal, or 'pi'")
    parser.add_argument("--b", required=True, help="right endpoint: 'p/q', decimal, or 'pi'")
    if with_fn:
        parser.add_argument("--fn", required=True, help="integrand expression in x")
        parser.add_argument("--tol", type=float, default=1e-10, help="reference integrator tolerance")
    if with_m:
        parser.add_argument("--m", required=True, help="panel count, or comma-separated counts")
    if with_bound_order:
        parser.add_argument(
            "--bound-order",
            type=int,
            default=None,
            help="derivative order n..2n feeding the bounds (default: the rule order n; "
            "2n reports the exact error through that derivative)",
        )
    parser.add_argument(
        "--format", choices=("json", "csv", "text"), default="text", help="output format"
    )


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="hermquad",
        description="Two-point quadrature from endpoint derivatives: exact weights, "
        "error kernels, bounds, and identity checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weights", help="exact rule weights")
    _add_common(p)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("kernel", help="exact error kernel and its parameters")
    _add_common(p)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("integrate", help="single-interval quadrature vs reference")
    _add_common(p, with_fn=True)
    p.set_defaults(func=_cmd_single)

    p = sub.add_parser("composite", help="composite quadrature error table")
    _add_common(p, with_fn=True, with_m=True)
    p.set_defaults(func=_cmd_composite)

    p = sub.add_parser("bounds", help="error bounds from sampled derivatives")
    _add_common(p, with_fn=True, with_bound_order=True)
    p.set_defaults(func=_cmd_single)

    p = sub.add_parser("verify", help="exact identity checks for a given order")
    p.add_argument("--n", type=int, required=True, help="rule order")
    p.add_argument("--a", default=None, help="left endpoint (default 0)")
    p.add_argument("--b", default=None, help="right endpoint (default 1)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("demo", help="three-way comparison on x^2*sin(x) over [0, pi]")
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # EvalDomainError is a ValueError too, so the numerical clause comes first.
    try:
        return args.func(args)
    except (EvalDomainError, ConvergenceError, RootIsolationError, OverflowError) as exc:
        print(f"hermquad: numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"hermquad: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
