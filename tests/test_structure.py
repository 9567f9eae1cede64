"""Structural guards on the package source."""

import argparse
import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import dualprec
from dualprec import cli, objective

SRC = Path(dualprec.__file__).parent


#: Names through which a factorization, an inverse or a linear solve can
#: be reached.
FACTOR_NAMES = {"_POTRF", "potrf", "cho_factor", "cholesky",
                "get_lapack_funcs", "inv", "solve"}


def _uses(node, scope, out, names=FACTOR_NAMES):
    """Append (name, scope) for every read of a ``names`` name under
    node, where scope is the innermost enclosing function (or
    '<module>')."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _uses(child, child.name, out, names)
            continue
        if (isinstance(child, ast.Name) and child.id in names
                and not isinstance(child.ctx, ast.Store)):
            out.append((child.id, scope))
        if isinstance(child, ast.Attribute) and child.attr in names:
            out.append((child.attr, scope))
        if isinstance(child, ast.alias) and child.name in names:
            assert child.asname is None, f"{child.name} imported under an alias"
        _uses(child, scope, out, names)


def test_cholesky_only_in_the_covariance_kernel():
    # one covariance factorization for both link directions: the kernel
    # objective._covariance solves J by LU when there are no fewer streams
    # than antennas, and otherwise inverts the L x L stream-domain matrix;
    # downlink_mmse runs on it over the dual channel.  The other solves
    # are the solver's KKT system, its closed-form start when L < M and
    # the duality transform, whose inverse only bounds the condition
    # number of the transform matrix
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        out = []
        _uses(ast.parse(path.read_text()), "<module>", out)
        sites.update((name, f"{path.stem}.{scope}") for name, scope in out)
    assert sites == {("solve", "objective._covariance"),
                     ("inv", "objective._covariance"),
                     ("solve", "solver._solve_kkt"),
                     ("inv", "solver._start"),
                     ("solve", "duality._transform"),
                     ("inv", "duality._transform")}


def test_linalg_errors_caught_only_by_two_rules():
    # one failure rule for a singular or non-finite slice: objective._slices
    # makes it NaN in its own slice, for the kernel, the solver's start and
    # the duality transform alike.  solver._solve_kkt's lstsq fallback is a
    # different rule on purpose: a singular Newton system still has a
    # least-squares step, where a NaN step would end the row
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        out = []
        _uses(ast.parse(path.read_text()), "<module>", out, {"LinAlgError"})
        sites.update(f"{path.stem}.{scope}" for _, scope in out)
    assert sites == {"objective._slices", "solver._solve_kkt"}


def test_transform_only_in_duality():
    # one legacy transform: the theorem check and the design loop's check
    # both run duality._powers, so no other module reaches its parts
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        out = []
        _uses(ast.parse(path.read_text()), "<module>", out,
              {"_groups", "_transform"})
        if out:
            sites.add(path.stem)
    assert sites == {"duality"}


def test_generators_seeded_only_in_one_model_function():
    # one seeding route: every seed is hashed by model._seed_words, and
    # model._gaussians alone makes numpy generators, from those words
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        out = []
        _uses(ast.parse(path.read_text()), "<module>", out, {
            "default_rng", "SeedSequence", "RandomState", "PCG64",
            "Generator"})
        sites.update((name, f"{path.stem}.{scope}") for name, scope in out)
    assert sites == {("PCG64", "model._gaussians"),
                     ("Generator", "model._gaussians")}


def test_no_function_is_a_generator():
    # every stacked core returns its whole stack, in row order, at once: a
    # row that finishes early keeps its place instead of being yielded
    yields = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, (ast.Yield, ast.YieldFrom))]
    assert yields == []


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
        "kkt_tol", "max_iters"]


def test_uplink_state_holds_no_covariance_matrix():
    # the state and the kernel carry what their readers read: J^-1 Htil,
    # the trace phi of the kernel's inverse and the gains; J and J^-1 stay
    # inside the kernel
    assert [f.name for f in dataclasses.fields(dualprec.UplinkState)] == [
        "eff", "q", "sigma2", "Jinv_cols", "trace_inv"]
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


def test_import_loads_no_numpy_random():
    # the generators' module is imported at the first draw: the command
    # line's import (and so every run's set-up) does not pay for it
    code = "import sys, dualprec.cli; print('numpy.random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, "-c", code], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_import_loads_no_scipy():
    # the kernel is numpy-only; scipy's import alone took most of the
    # package's import time
    code = "import sys, dualprec; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, "-c", code], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_verify_loads_no_numpy_ma(tmp_path):
    # np.median's first call imports numpy.ma, 14 ms of a process's first
    # `verify`; its summary median is taken from the sorted values instead
    code = ("import sys; from dualprec import cli; cli.main(['verify', "
            f"'--trials', '5', '--out', {str(tmp_path / 'v.json')!r}]); "
            "print('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, "-c", code], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"
