"""Per-layer spans around hermquad's functions, installed at run time.

``install()`` wraps the functions listed in FUNCTIONS and the callables
listed in SPECIAL.  A wrapper records one span per call: its name, its parent span,
the job it belongs to, and its start and end times.  It replaces the
function at every place the name is looked up, so a function imported
into several modules (``kernel_set`` into ``cli``, ``compute_weights``
into four modules) is wrapped in all of them.  Some wrappers also count
work (integrand evaluations, jet coefficients, distinct kernel keys).

Spans stay in memory in flat arrays and are written out once, when the
run ends; ``summarize`` reads them back and computes calls, total time
and self time (total minus the time of child spans) per span name.
Nothing here changes what hermquad computes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from fractions import Fraction

#: Span name -> (module, attribute).  The layer is the part of the name
#: before the first dot, and names the hermquad module that does the work.
FUNCTIONS = {
    "cli.main": ("hermquad.cli", "main"),
    "verify.run_checks": ("hermquad.verify", "run_checks"),
    "weights.compute_weights": ("hermquad.weights", "compute_weights"),
    "weights.omega_coeffs": ("hermquad.weights", "omega_coeffs"),
    "weights.apply_rule": ("hermquad.weights", "apply_rule"),
    "interpolant.build_hermite": ("hermquad.interpolant", "build_hermite"),
    "interpolant.leibniz_coeffs": ("hermquad.interpolant", "leibniz_coeffs"),
    "kernel.kernel_set": ("hermquad.kernel", "kernel_set"),
    "kernel.solve_params": ("hermquad.kernel", "solve_params"),
    "kernel.kernel_from_params": ("hermquad.kernel", "kernel_from_params"),
    "kernel.rodrigues_kernel": ("hermquad.kernel", "rodrigues_kernel"),
    "kernel.peano_kernel": ("hermquad.kernel", "peano_kernel"),
    "kernel.antiderivative_chain": ("hermquad.kernel", "antiderivative_chain"),
    "kernel.kernel_l2sq": ("hermquad.kernel", "kernel_l2sq"),
    # The exact isolator behind both isolate_roots and kernel_abs_integral.
    "kernel.isolate_roots": ("hermquad.kernel", "_isolate_roots_exact"),
    "kernel.kernel_abs_integral": ("hermquad.kernel", "kernel_abs_integral"),
    "expressions.parse": ("hermquad.expressions", "parse"),
    "expressions.jet_eval": ("hermquad.expressions", "jet_eval"),
    "oracle.reference_integrate": ("hermquad.oracle", "reference_integrate"),
    "quadrature.integrate_single": ("hermquad.quadrature", "integrate_single"),
    "quadrature.integrate_composite": ("hermquad.quadrature", "integrate_composite"),
    "quadrature.refined_bounds": ("hermquad.quadrature", "refined_bounds"),
    "quadrature.sample_uniform": ("hermquad.quadrature", "sample_uniform"),
    "quadrature.e2_bound_f3": ("hermquad.quadrature", "e2_bound_f3"),
    "quadrature.e2_classical_f4": ("hermquad.quadrature", "e2_classical_f4"),
}

#: Spans installed by hand in ``install``: Polynomial methods, the
#: functions ``evaluator`` returns, and the ``Partition.uniform`` constructor.
SPECIAL = (
    "exactmath.poly_mul",
    "exactmath.poly_pow",
    "exactmath.poly_eval_exact",
    "exactmath.poly_eval_float",
    "expressions.eval",
    "quadrature.partition_uniform",
)

LAYERS = ("cli", "verify", "weights", "interpolant", "kernel", "exactmath",
          "expressions", "oracle", "quadrature")

#: Counters: name -> (unit, better).
COUNTERS = {
    "kernel.kernel_set.distinct": ("count", "lower"),
    "kernel.errors": ("count", "lower"),
    "exactmath.kernel_coeff_bits": ("bit", "lower"),
    "expressions.jet_coeffs": ("count", "lower"),
    "expressions.domain_errors": ("count", "lower"),
    "oracle.panels": ("count", "lower"),
    "oracle.integrand_evals": ("count", "lower"),
    "oracle.unconverged": ("count", "lower"),
    "quadrature.composite_nodes": ("count", "lower"),
    "quadrature.sample_uniform.points": ("count", "lower"),
}


def span_names():
    names = list(FUNCTIONS) + list(SPECIAL)
    return sorted(names, key=lambda name: (LAYERS.index(name.split(".")[0]), name))


def metric_specs():
    """(name, unit, better) of every metric a traced run reports, in order."""
    specs = []
    for layer in LAYERS:
        spans = [s for s in span_names() if s.split(".")[0] == layer]
        for span in spans:
            # cli.main's calls are the jobs a traced run got through.
            specs.append((f"{span}.calls", "count", "higher" if span == "cli.main" else "lower"))
            specs.append((f"{span}.s", "s", "lower"))
            if len(spans) > 1:
                specs.append((f"{span}.self_s", "s", "lower"))
        specs.append((f"{layer}.self_s", "s", "lower"))
        if layer == "kernel":
            specs.append(("kernel.kernel_set.reuse", "ratio", "higher"))
        specs.extend((name, unit, better) for name, (unit, better) in COUNTERS.items()
                     if name.split(".")[0] == layer)
    specs += [
        ("trace.jobs_per_s", "1/s", "higher"),
        ("trace.untraced_jobs_per_s", "1/s", "higher"),
        ("trace.overhead", "ratio", "lower"),
    ]
    return specs


def _coeff_bits(poly) -> int:
    return sum(c.numerator.bit_length() + c.denominator.bit_length() for c in poly.coeffs)


class Recorder:
    """Spans of one run in flat arrays, plus the counters."""

    def __init__(self, domain_error):
        self.names = span_names()
        self.job = -1
        self._job_first = 0
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.kernel_keys = set()
        self._name = array("i")
        self._parent = array("i")
        self._job = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = []
        self._domain_error = domain_error

    def wrap(self, name, fn, before=None, after=None):
        """A wrapper recording one ``name`` span per call of ``fn``.

        ``before(args)`` may return replacement arguments; ``after(args,
        result)`` sees the result.  Both run inside the span."""
        nid = self.names.index(name)
        layer = name.split(".")[0]
        stack, clock = self._stack, time.perf_counter
        names, parents, jobs, starts, ends = self._name, self._parent, self._job, self._start, self._end

        def wrapper(*args, **kwargs):
            sid = len(names)
            parent = stack[-1] if stack else -1
            names.append(nid)
            parents.append(parent)
            jobs.append(self.job)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                if before is not None:
                    args = before(args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            except Exception as exc:
                self._count_error(layer, exc, parent)
                raise
            finally:
                ends[sid] = clock()
                stack.pop()

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def start_job(self, job):
        self.job = job
        self._job_first = len(self._name)

    def recover(self):
        """Repair the spans after a job-limit alarm interrupted a wrapper.

        The alarm can land inside a wrapper's own bookkeeping: then the
        columns have different lengths, the stack keeps a finished span, or
        a span never gets its end time.  Drop the half-written row, empty the
        stack and close unfinished spans of the job at their start."""
        columns = (self._name, self._parent, self._job, self._start, self._end)
        count = min(len(column) for column in columns)
        for column in columns:
            del column[count:]
        self._stack.clear()
        for i in range(self._job_first, count):
            if self._end[i] == 0.0:
                self._end[i] = self._start[i]

    def _count_error(self, layer, exc, parent):
        # Count an exception once, where it leaves the layer that raised it.
        if parent >= 0 and self.names[self._name[parent]].split(".")[0] == layer:
            return
        if layer == "kernel":
            self.counters["kernel.errors"] += 1
        if layer == "expressions" and isinstance(exc, self._domain_error):
            self.counters["expressions.domain_errors"] += 1

    def dump(self, path):
        self.counters["kernel.kernel_set.distinct"] = len(self.kernel_keys)
        header = {"names": self.names, "spans": len(self._name), "counters": self.counters}
        with open(path + ".json", "w") as fh:
            json.dump(header, fh)
        with open(path + ".bin", "wb") as fh:
            for column in (self._name, self._parent, self._job, self._start, self._end):
                column.tofile(fh)


def _replace(original, wrapper):
    """Swap ``original`` for ``wrapper`` wherever a hermquad module holds it."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").split(".")[0] != "hermquad":
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def install() -> Recorder:
    """Wrap hermquad's layers; hermquad must already be imported."""
    exactmath = sys.modules["hermquad.exactmath"]
    expressions = sys.modules["hermquad.expressions"]
    quadrature = sys.modules["hermquad.quadrature"]
    rec = Recorder(expressions.EvalDomainError)
    counters = rec.counters

    def count(name, amount):
        counters[name] += amount

    def count_kernel_bits(args, kernel):
        count("exactmath.kernel_coeff_bits", _coeff_bits(kernel))

    def count_jet_coeffs(args):
        count("expressions.jet_coeffs", args[2] + 1)
        return args

    def kernel_key(args):
        n, a, b = args
        rec.kernel_keys.add((n, Fraction(a), Fraction(b)))
        return args

    def counted_integrand(args):
        f = args[0]

        def g(x):
            counters["oracle.integrand_evals"] += 1
            return f(x)

        return (g,) + tuple(args[1:])

    def oracle_result(args, result):
        count("oracle.panels", result.panels)
        count("oracle.unconverged", 0 if result.converged else 1)

    # hermquad passes these arguments positionally, which the hooks rely on.
    hooks = {
        "kernel.kernel_set": {"before": kernel_key},
        "kernel.kernel_from_params": {"after": count_kernel_bits},
        "kernel.rodrigues_kernel": {"after": count_kernel_bits},
        "expressions.jet_eval": {"before": count_jet_coeffs},
        "oracle.reference_integrate": {"before": counted_integrand, "after": oracle_result},
        "quadrature.integrate_composite": {
            "after": lambda args, r: count("quadrature.composite_nodes", len(args[2].nodes))},
        "quadrature.sample_uniform": {
            "after": lambda args, r: count("quadrature.sample_uniform.points", len(r))},
    }
    for name, (module_name, attr) in FUNCTIONS.items():
        original = getattr(sys.modules[module_name], attr)
        _replace(original, rec.wrap(name, original, **hooks.get(name, {})))

    poly = exactmath.Polynomial
    mul = rec.wrap("exactmath.poly_mul", poly.__mul__)
    poly.__mul__ = poly.__rmul__ = mul
    poly.__pow__ = rec.wrap("exactmath.poly_pow", poly.__pow__)
    call = poly.__call__
    exact_call = rec.wrap("exactmath.poly_eval_exact", call)
    float_call = rec.wrap("exactmath.poly_eval_float", call)
    poly.__call__ = lambda self, x: (float_call if isinstance(x, float) else exact_call)(self, x)

    evaluator = expressions.evaluator
    eval_span = rec.wrap("expressions.eval", lambda value, x: value(x))

    def traced_evaluator(expr):
        value = evaluator(expr)
        return lambda x: eval_span(value, x)

    _replace(evaluator, functools.update_wrapper(traced_evaluator, evaluator))

    partition = quadrature.Partition
    uniform = partition.__dict__["uniform"].__func__
    partition.uniform = classmethod(rec.wrap("quadrature.partition_uniform", uniform))
    return rec


def summarize(path) -> dict:
    """Per-span calls, total and self seconds, and the counters, from a dump."""
    with open(path + ".json") as fh:
        header = json.load(fh)
    count = header["spans"]
    columns = []
    with open(path + ".bin", "rb") as fh:
        for code in "iiidd":
            column = array(code)
            column.fromfile(fh, count)
            columns.append(column)
    name, parent, _job, start, end = columns
    child = [0.0] * count
    for i in range(count):
        if parent[i] >= 0:
            child[parent[i]] += end[i] - start[i]
    names = header["names"]
    spans = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in names}
    for i in range(count):
        entry = spans[names[name[i]]]
        duration = end[i] - start[i]
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += duration - child[i]
    return {"spans": spans, "counters": header["counters"], "span_count": count}
