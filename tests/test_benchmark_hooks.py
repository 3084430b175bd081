"""The names ``benchmark/tracer.py`` wraps stay where it looks for them.

Traced benchmark runs replace hermquad functions by name and read jet
orders from positional arguments.  These tests load the tracer as it is and
fail when a rename or a changed call would break a traced run.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import pytest

from hermquad import expressions
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
