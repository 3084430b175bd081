"""The names ``benchmark/tracer.py`` wraps stay where it looks for them.

Traced benchmark runs replace hermquad functions by name and read jet
orders, kernel keys, integrands and partitions from positional arguments.
These tests load the tracer as it is and fail when a rename or a changed
call would break a traced run.
"""

import importlib
import importlib.util
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

from hermquad import cli, expressions
from hermquad.exactmath import Polynomial
from hermquad.quadrature import Partition

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("span", sorted(tracer.FUNCTIONS))
def test_every_traced_function_resolves(span):
    module_name, attr = tracer.FUNCTIONS[span]
    assert module_name.split(".")[0] == "hermquad"
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_specially_traced_callables_exist():
    for method in ("__mul__", "__rmul__", "__pow__", "__call__"):
        assert callable(getattr(Polynomial, method))
    assert isinstance(Partition.__dict__["uniform"], classmethod)
    # The tracer wraps the function evaluator returns, so it must be a plain one.
    assert isinstance(expressions.evaluator(expressions.parse("x")), types.FunctionType)


def test_jets_reach_the_module_jet_eval_positionally(monkeypatch):
    calls = []
    jet_eval = expressions.jet_eval

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return jet_eval(*args, **kwargs)

    monkeypatch.setattr(expressions, "jet_eval", spy)
    expr = expressions.parse("exp(x)*sin(x)")
    expressions.jet_provider(expr)(0.5, 3)
    expressions.derivative_function(expr, 2)(0.25)
    assert calls == [((expr, 0.5, 3), {}), ((expr, 0.25, 2), {})]


def _spy_everywhere(monkeypatch, module_name, attr):
    """Replace a function in every hermquad module holding it, as the tracer
    does, and return the list of (args, kwargs) of its calls."""
    original = getattr(importlib.import_module(module_name), attr)
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").split(".")[0] != "hermquad":
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, spy)
    return calls


@pytest.mark.parametrize("extra", [[], ["--bound-order", "3"], ["--bound-order", "4"]])
def test_bounds_pass_kernel_and_integrand_positionally(monkeypatch, capsys, extra):
    kernel_calls = _spy_everywhere(monkeypatch, "hermquad.kernel", "kernel_set")
    reference_calls = _spy_everywhere(monkeypatch, "hermquad.oracle", "reference_integrate")
    code = cli.main(["bounds", "--n", "2", "--a", "0", "--b", "3/2", "--fn", "exp(x)*sin(x)",
                     "--format", "json", *extra])
    capsys.readouterr()
    assert code == 0
    assert kernel_calls == [((2, Fraction(0), Fraction(3, 2)), {})]
    # The integrand, then the interval: the error integral at order 2n is a second call.
    assert len(reference_calls) == (2 if extra[-1:] == ["4"] else 1)
    for args, kwargs in reference_calls:
        assert kwargs == {} and callable(args[0]) and args[1:3] == (0.0, 1.5)


def test_composite_passes_the_partition_positionally(monkeypatch, capsys):
    composite_calls = _spy_everywhere(monkeypatch, "hermquad.quadrature", "integrate_composite")
    reference_calls = _spy_everywhere(monkeypatch, "hermquad.oracle", "reference_integrate")
    code = cli.main(["composite", "--n", "3", "--a", "0", "--b", "1", "--fn", "exp(x)",
                     "--m", "1,2,4", "--format", "csv"])
    capsys.readouterr()
    assert code == 0
    assert [len(args[2].nodes) for args, _ in composite_calls] == [2, 3, 5]
    assert all(kwargs == {} and isinstance(args[2], Partition) for args, kwargs in composite_calls)
    assert len(reference_calls) == 1
    args, kwargs = reference_calls[0]
    assert kwargs == {} and callable(args[0]) and args[1:3] == (0.0, 1.0)
