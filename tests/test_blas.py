"""Importing dualprec leaves BLAS alone; the CLI runs the bundled
OpenBLAS on one thread.

The thread count is process-wide, so every case runs in its own
interpreter with an environment it controls.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dualprec
from dualprec import _blas
from dualprec._blas import THREAD_VARS

SRC = Path(dualprec.__file__).parent


def run_python(code, **env_vars):
    """Run `code` in a fresh interpreter with no BLAS thread variable
    set apart from `env_vars`; return what it prints, parsed as JSON."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", code], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


READ_AFTER_IMPORT = """
import json
import dualprec
from dualprec._blas import blas_threads
print(json.dumps(blas_threads()))
"""


def test_import_leaves_openblas_alone_and_the_cli_pins_it(tmp_path):
    # the counts before the import, read by the module loaded on its own
    code = f"""
import importlib.util, json
import numpy
spec = importlib.util.spec_from_file_location("blas", {str(SRC / "_blas.py")!r})
blas = importlib.util.module_from_spec(spec)
spec.loader.exec_module(blas)
before = blas.blas_threads()
import dualprec
from dualprec import _blas, cli
imported = _blas.blas_threads()
out = {str(tmp_path / "v.json")!r}
rc = cli.main(["verify", "--trials", "1", "--out", out])
with open(out) as f:
    print(json.dumps([before, imported, rc, json.load(f)["blas_threads"]]))
"""
    before, imported, rc, reported = run_python(code)
    if before is None:
        pytest.skip("numpy loads no OpenBLAS here")
    assert imported == before
    assert rc == 0
    assert reported == [1] * len(before)


@pytest.mark.parametrize("var", THREAD_VARS)
def test_thread_variable_is_left_to_openblas(var):
    threads = run_python(READ_AFTER_IMPORT, **{var: "2"})
    if threads is None:
        pytest.skip("numpy loads no OpenBLAS here")
    assert threads == [2] * len(threads)


def test_no_library_found_is_a_no_op():
    # the module runs alone here, so the package's own pin never happens
    code = f"""
import importlib.util, json
import numpy
spec = importlib.util.spec_from_file_location("blas", {str(SRC / "_blas.py")!r})
blas = importlib.util.module_from_spec(spec)
spec.loader.exec_module(blas)
before = blas.blas_threads()
finder = blas._openblas_libs
blas._openblas_libs = lambda: []
blas.pin_one_thread()
none_found = blas.blas_threads()
blas._openblas_libs = finder
print(json.dumps([before, none_found, blas.blas_threads()]))
"""
    before, none_found, after = run_python(code)
    assert none_found is None
    assert after == before


def test_second_call_reuses_the_entry_points(monkeypatch):
    first = _blas.blas_threads()
    if first is None:
        pytest.skip("numpy loads no OpenBLAS here")

    def scan():
        raise AssertionError("the memory maps were scanned again")

    monkeypatch.setattr(_blas, "_openblas_libs", scan)
    assert _blas.blas_threads() == first
