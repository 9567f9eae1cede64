"""Machine-speed calibration.

On a shared machine the speed of identical single-threaded work drifts
by up to 2x over tens of seconds to minutes (a design repeated for one
minute took 250 ms at the start and 126 ms at the end).  The benchmark
times a fixed reference loop about once a second and states times in
nominal seconds: a measured time multiplied by ``scale(reference time)
= (NOMINAL_S / reference time) ** ELASTICITY``.  At a reference time of
``NOMINAL_S`` a nominal second is a second.

The program's time does not move one for one with the reference's: on a
2-vCPU machine whose reference time switched between about 3.5 and 7 ms,
the least-squares slope of log call time on log reference time was 0.79
over eight design-loop runs and 0.85 over six ensemble-snr runs (same
inputs within a slot).  Full scaling over-corrected: design-loop runs of
the same size read 10% slower in the fast phase than in the slow one;
with ELASTICITY = 0.8 the coefficient of variation of their scaled cost
fell from 0.057 to 0.033.

The loop is built like the program's work at M=4: a projected-gradient
power update on a 4x4 covariance (small numpy products, a scipy Cholesky
factorization and solve) followed by JSON round trips of a small report.
Of the loops tried, it tracked a fixed design-plus-verify batch best:
over two minutes the batch's scaled time stayed within 1% between
twenty-second windows.  It does not touch dualprec and uses no BLAS threads,
so no change to the program moves it.
"""

from __future__ import annotations

import json
import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve

NOMINAL_S = 7e-3
ELASTICITY = 0.8
#: Set-ups (interpreter start-up, imports, `dualprec gen`) follow the
#: reference less.  Over 16 rounds of five set-ups each, the medians of
#: the first and the last eight rounds differed by 18% (ensemble-snr) and
#: 7% (design-loop) unscaled, and by 12% and 0.4% at 0.5; IQR/median of
#: the round medians fell from 0.23 and 0.10 to 0.17 and 0.09.  At 0.8
#: it rose again, to 0.22 and 0.14.
SETUP_ELASTICITY = 0.5

_RNG = np.random.default_rng(0)
_H = (_RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4))) \
    / np.sqrt(2.0)
_EYE = np.eye(4, dtype=complex)
_REPORT = {"per_trial": [float(x) for x in range(200)], "note": "x" * 50}


def _loop() -> None:
    q = np.full(4, 2.5)
    for _ in range(60):
        J = (_H * q) @ _H.conj().T + _EYE
        c = cho_factor(0.5 * (J + J.conj().T), lower=True)
        gains = np.sum(np.abs(cho_solve(c, _EYE) @ _H) ** 2, axis=0)
        q = np.maximum(q + 0.01 * gains, 0.0)
        q *= 10.0 / q.sum()
    for _ in range(20):
        json.loads(json.dumps(_REPORT))


def scale(ref_s: float, elasticity: float = ELASTICITY) -> float:
    """Factor that turns a time measured at reference time ``ref_s`` into
    nominal seconds."""
    return (NOMINAL_S / ref_s) ** elasticity


def reference_s(reps: int = 3) -> float:
    """Fastest of ``reps`` runs of the reference loop, in seconds."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - t0)
    return best
