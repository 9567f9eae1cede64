"""Structural guards on the package source."""

import argparse
import ast
import dataclasses
from pathlib import Path

import numpy as np

import dualprec
from dualprec import cli, objective

SRC = Path(dualprec.__file__).parent


#: Names through which a Cholesky factorization or an inverse can be
#: reached.
FACTOR_NAMES = {"_POTRF", "potrf", "cho_factor", "cholesky",
                "get_lapack_funcs", "inv"}


def _uses(node, scope, out):
    """Append (name, scope) for every read of a FACTOR_NAMES name under
    node, where scope is the innermost enclosing function (or
    '<module>')."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _uses(child, child.name, out)
            continue
        if (isinstance(child, ast.Name) and child.id in FACTOR_NAMES
                and not isinstance(child.ctx, ast.Store)):
            out.append((child.id, scope))
        if isinstance(child, ast.Attribute) and child.attr in FACTOR_NAMES:
            out.append((child.attr, scope))
        if isinstance(child, ast.alias) and child.name in FACTOR_NAMES:
            assert child.asname is None, f"{child.name} imported under an alias"
        _uses(child, scope, out)


def test_cholesky_only_in_the_covariance_kernel():
    # one covariance factorization for both link directions: the kernel
    # objective._covariance calls LAPACK's potrf, which objective fetches
    # once at import, or inverts the L x L stream-domain matrix when there
    # are fewer streams than antennas; downlink_mmse runs on it over the
    # dual channel
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        out = []
        _uses(ast.parse(path.read_text()), "<module>", out)
        sites.update((name, f"{path.stem}.{scope}") for name, scope in out)
    assert sites == {("get_lapack_funcs", "objective.<module>"),
                     ("_POTRF", "objective._covariance"),
                     ("inv", "objective._covariance")}


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


def test_design_and_solver_config_fields_fixed():
    # the design loop has one method (accelerated, safeguarded): no switch
    # or tuning knob for it may appear in either config
    assert [f.name for f in dataclasses.fields(dualprec.DesignConfig)] == [
        "max_outer_iters", "smse_rel_tol", "init_mode", "path", "seed",
        "solver"]
    assert [f.name for f in dataclasses.fields(dualprec.SolverConfig)] == [
        "kkt_tol", "max_iters", "active_tol_scale"]


def test_uplink_state_holds_no_covariance_matrix():
    # the state and the kernel carry what their readers read: J^-1 Htil,
    # tr(J^-1) and the gains; J and J^-1 stay inside the kernel
    assert [f.name for f in dataclasses.fields(dualprec.UplinkState)] == [
        "eff", "q", "sigma2", "Jinv_cols", "trace_jinv"]
    out = objective._covariance(np.ones((2, 3, 2), dtype=complex),
                                np.ones((2, 2)), 1.0)
    assert [x.shape for x in out] == [(2, 3, 2), (2,), (2, 2)]


def test_each_subcommand_accepts_exactly_the_flags_it_reads():
    # one flag table: every flag string is written once in cli.py, and a
    # subcommand takes only the flags of its groups and its own
    sub, = [a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    got = {name: {s for a in p._actions for s in a.option_strings or [a.dest]}
           - {"-h", "--help"} for name, p in sub.choices.items()}
    link = {"--sigma2", "--pmax"}
    ensemble = {"--trials", "--dims", "--seed-base"}
    solver = {"--kkt-tol", "--max-iters"}
    report = {"--config", "--out", "--format"}
    assert got == {
        "gen": {"--out"} | link | {"--M", "--K", "--N", "--L", "--seed"},
        "solve": report - {"--format"} | solver | {"instance",
                                                    "--precoder-seed"},
        "verify": report | link | ensemble | solver | {
            "--negative-control", "--max-psi-asym", "--max-pq-gap",
            "--max-mse-gap"},
        "bench": report | link | ensemble | solver,
        "design": report | solver | {"instance", "--path", "--init",
                                     "--max-outer-iters"}}
    flags = [node.value for node in ast.walk(ast.parse(
        (SRC / "cli.py").read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.startswith("--")]
    assert sorted(flags) == sorted(set().union(*got.values()) - {"instance"})
