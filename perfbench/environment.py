"""The environment block printed with every result.

BLAS thread counts are read from the OpenBLAS libraries numpy and scipy
have loaded, through their own ``get_num_threads`` entry points; nothing
here sets a thread count or a thread variable.
"""

from __future__ import annotations

import ctypes
import os
import platform

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _loaded_blas_libs() -> list:
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "blas" in line.lower()}
    except OSError:
        return []
    # Python extension modules that link BLAS would repeat the library
    return sorted(p for p in paths if ".so" in os.path.basename(p)
                  and ".cpython-" not in os.path.basename(p))


def _call(lib, names, restype):
    for name in names:
        try:
            fn = getattr(lib, name)
        except AttributeError:
            continue
        fn.argtypes = []
        fn.restype = restype
        return fn()
    return None


def blas_info() -> list:
    """One entry per loaded BLAS library: file, configuration string and
    the number of threads it runs with."""
    out = []
    for path in _loaded_blas_libs():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        config = _call(lib, ("scipy_openblas_get_config64_",
                             "scipy_openblas_get_config",
                             "openblas_get_config64_", "openblas_get_config"),
                       ctypes.c_char_p)
        threads = _call(lib, ("scipy_openblas_get_num_threads64_",
                              "scipy_openblas_get_num_threads",
                              "openblas_get_num_threads64_",
                              "openblas_get_num_threads"), ctypes.c_int)
        out.append({"library": os.path.basename(path),
                    "config": config.decode().strip() if config else None,
                    "threads": threads})
    return out


def environment(loadavg: tuple) -> dict:
    """Call after numpy and scipy.linalg are imported, so their BLAS
    libraries are loaded; ``loadavg`` is taken when the run starts."""
    import numpy
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "blas": blas_info(),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_at_start": [round(x, 2) for x in loadavg],
    }
