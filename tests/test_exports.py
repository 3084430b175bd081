"""Every exported name resolves, the removed API stays removed, and the
runtime needs only the standard library."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hermquad
from hermquad.exactmath import Polynomial
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


def test_package_exports_are_the_submodules_exports():
    joined = [name for module in MODULES[1:] for name in module.__all__]
    assert hermquad.__all__ == joined + ["__version__"]
    assert len(set(hermquad.__all__)) == len(hermquad.__all__)
    for name in ("rational_interval", "MAX_NESTING", "MAX_LITERAL_DIGITS", "MAX_CONSTANT_BITS"):
        assert hasattr(hermquad, name)


def test_runtime_imports_only_the_standard_library():
    # -S keeps site hooks, which may import third-party packages, out of the check.
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import hermquad.cli\n"
        "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(new - set(sys.stdlib_module_names) - {'hermquad'}))\n"
        "print(hermquad.__file__)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-S", "-c", script, str(src)],
                          capture_output=True, text=True, check=True)
    outside, where = done.stdout.splitlines()
    assert outside == "[]"
    assert Path(where).resolve().is_relative_to(src)


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
    (Check, "detail"),
    (importlib.import_module("hermquad.kernel"), "isolate_roots"),
    (Partition, "step"),
    (Partition.uniform(0, 1, 2), "step"),
    (HermiteRule, "from_json_dict"),
    (importlib.import_module("hermquad.cli"), "_UsageError"),
    (importlib.import_module("hermquad.quadrature"), "_grid"),
    (importlib.import_module("hermquad.quadrature"), "BoundPair"),
    (hermquad, "BoundPair"),
    (hermquad, "OracleConfig"),
    (importlib.import_module("hermquad.oracle"), "OracleConfig"),
    (hermquad, "JetPair"),
    (importlib.import_module("hermquad.interpolant"), "JetPair"),
])
def test_removed_names_are_absent(owner, name):
    assert not hasattr(owner, name)
