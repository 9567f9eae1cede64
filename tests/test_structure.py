"""Structural guards on the package source."""

import ast
from pathlib import Path

import dualprec

SRC = Path(dualprec.__file__).parent


def _uses(node, scope, out):
    """Append 'scope' for every reference to cho_factor under node, where
    scope is the innermost enclosing function (or '<module>')."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _uses(child, child.name, out)
            continue
        if (isinstance(child, ast.Name) and child.id == "cho_factor"
                or isinstance(child, ast.Attribute)
                and child.attr == "cho_factor"):
            out.append(scope)
        if isinstance(child, ast.alias) and child.name == "cho_factor":
            assert child.asname is None, "cho_factor imported under an alias"
        _uses(child, scope, out)


def test_cho_factor_only_in_the_two_mmse_kernels():
    # one covariance factorization per link direction: the uplink kernel
    # objective._covariance and the downlink kernel objective.downlink_mmse
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        out = []
        _uses(ast.parse(path.read_text()), "<module>", out)
        sites.update(f"{path.stem}.{scope}" for scope in out)
    assert sites == {"objective._covariance", "objective.downlink_mmse"}


def test_ctypes_only_in_the_blas_module():
    # setting BLAS threads is a process-wide side effect: keep it in one place
    importers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "ctypes" for name in names):
                importers.add(path.name)
    assert importers == {"_blas.py"}
