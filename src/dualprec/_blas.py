"""One BLAS thread for the small matrices this package factors.

Each solver step solves one small covariance system.  At M = 64 the
OpenBLAS bundled with numpy ran LAPACK's factorization several times
slower on its default thread count (one per core) than on one thread,
since handing work to the threads costs more than the arithmetic they
share: one `solve_power` at M = L = 64 took 72 ms against 9.7 ms on 2
cores (measured through scipy's copy, which the package no longer
loads).  The command line (`cli.main`) therefore sets every loaded
OpenBLAS to one thread, once per process, unless OPENBLAS_NUM_THREADS or
OMP_NUM_THREADS is set, which OpenBLAS itself obeys; importing
`dualprec` leaves them alone.  Where no OpenBLAS is loaded (MKL, a
system BLAS, a platform without /proc/self/maps) nothing happens.
"""

from __future__ import annotations

import ctypes
import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
_NAMES = ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_",
          "openblas_{}")


def _openblas_libs() -> list:
    """Paths of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        return []
    return sorted(p for p in paths if ".so" in os.path.basename(p))


def _entries(what, argtypes, restype) -> list:
    """The `what` entry point of each loaded OpenBLAS that exports one,
    under the first of its names in `_NAMES`."""
    out = []
    for path in _openblas_libs():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        fn = next((getattr(lib, n.format(what)) for n in _NAMES
                   if hasattr(lib, n.format(what))), None)
        if fn is not None:
            fn.argtypes, fn.restype = argtypes, restype
            out.append(fn)
    return out


#: The get_num_threads entry points found by the last search that found
#: any; `blas_threads` reuses them instead of scanning the maps again.
_getters: list = []


def pin_one_thread() -> None:
    """Run every loaded OpenBLAS on one thread, unless a thread variable
    is set."""
    global _getters
    if any(os.environ.get(v) for v in THREAD_VARS):
        return
    _getters = _entries("get_num_threads", [], ctypes.c_int)
    for set_threads in _entries("set_num_threads", [ctypes.c_int], None):
        set_threads(1)


def blas_threads() -> list | None:
    """Thread count of each loaded OpenBLAS, or None if none is found.

    The libraries are looked up once, by `pin_one_thread` or the first
    call here; a search that finds none is repeated on the next call.
    """
    global _getters
    if not _getters:
        _getters = _entries("get_num_threads", [], ctypes.c_int)
    return [get() for get in _getters] or None
