"""Two-point quadrature from endpoint derivative data.

The order-n rule integrates the polynomial matching f, f', ..., f^(n-1)
at both interval endpoints.  Weights and error kernels are exact
rationals; the kernels are shifted, unnormalized Legendre polynomials,
and the quadrature error is an integral against them weighted by the
n-th derivative only.
"""

from .exactmath import (
    Polynomial,
    X,
    format_rational,
    parse_rational,
    rational,
)
from .expressions import (
    EvalDomainError,
    Expr,
    MAX_JET_ORDER,
    ParseError,
    TaylorJet,
    derivative_function,
    evaluator,
    jet_eval,
    jet_provider,
    parse,
)
from .interpolant import JetPair, build_hermite, leibniz_coeffs
from .kernel import (
    KernelParams,
    KernelSet,
    RootIsolationError,
    antiderivative_chain,
    kernel_abs_integral,
    kernel_from_params,
    kernel_l2sq,
    kernel_set,
    peano_kernel,
    rodrigues_kernel,
    solve_params,
)
from .oracle import ConvergenceError, IntegralResult, OracleConfig, reference_integrate
from .quadrature import (
    BoundPair,
    ErrorReport,
    Partition,
    bound_l2,
    bound_uniform,
    e2_bound_f3,
    e2_classical_f4,
    error_exact,
    integrate_composite,
    integrate_single,
    observed_orders,
    refined_bounds,
    sample_uniform,
)
from .verify import Check, run_checks
from .weights import HermiteRule, apply_rule, compute_weights, omega_coeffs

__version__ = "0.1.0"

__all__ = [
    "Polynomial",
    "X",
    "rational",
    "parse_rational",
    "format_rational",
    "HermiteRule",
    "compute_weights",
    "omega_coeffs",
    "apply_rule",
    "JetPair",
    "leibniz_coeffs",
    "build_hermite",
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
    "Partition",
    "ErrorReport",
    "BoundPair",
    "integrate_single",
    "integrate_composite",
    "error_exact",
    "bound_uniform",
    "bound_l2",
    "e2_bound_f3",
    "e2_classical_f4",
    "sample_uniform",
    "refined_bounds",
    "observed_orders",
    "OracleConfig",
    "IntegralResult",
    "ConvergenceError",
    "reference_integrate",
    "Expr",
    "ParseError",
    "EvalDomainError",
    "TaylorJet",
    "MAX_JET_ORDER",
    "parse",
    "jet_eval",
    "jet_provider",
    "evaluator",
    "derivative_function",
    "Check",
    "run_checks",
    "__version__",
]
