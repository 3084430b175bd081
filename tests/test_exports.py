"""Every exported name resolves, and the removed API stays removed."""

import importlib
import pkgutil

import pytest

import hermquad
from hermquad.exactmath import Polynomial
from hermquad.oracle import OracleConfig
from hermquad.quadrature import Partition
from hermquad.verify import Check
from hermquad.weights import HermiteRule

#: The package and every submodule that declares ``__all__``.
MODULES = [hermquad] + [
    module
    for info in pkgutil.iter_modules(hermquad.__path__)
    if hasattr(module := importlib.import_module(f"hermquad.{info.name}"), "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("owner,name", [
    (hermquad, "BigRational"),
    (hermquad, "int_beta"),
    (importlib.import_module("hermquad.exactmath"), "BigRational"),
    (importlib.import_module("hermquad.exactmath"), "int_beta"),
    (Polynomial, "constant"),
    (Polynomial, "coefficient"),
    (HermiteRule, "to_json"),
    (HermiteRule, "from_json"),
    (Partition, "panel_count"),
    (OracleConfig, "abs_tol"),
    (OracleConfig, "rel_tol"),
    (OracleConfig, "max_depth"),
    (OracleConfig(), "abs_tol"),
    (OracleConfig(), "rel_tol"),
    (OracleConfig(), "max_depth"),
    (Check, "detail"),
    (importlib.import_module("hermquad.kernel"), "isolate_roots"),
    (Partition, "step"),
    (Partition.uniform(0, 1, 2), "step"),
    (HermiteRule, "from_json_dict"),
])
def test_removed_names_are_absent(owner, name):
    assert not hasattr(owner, name)
