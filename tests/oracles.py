"""Test-only reference oracles."""

import numpy as np

from conftest import covariance
from dualprec import DualPrecError


class CostGuardError(DualPrecError):
    """A brute-force oracle was asked for a problem size it refuses."""


def brute_force_power(eff, sigma2, p_max, grid_points):
    """Exhaustive minimizer of tr(J^-1) on the simplex {q >= 0, sum = p_max}
    discretized with ``grid_points`` per dimension.  Refuses more than
    three streams.
    """
    L = eff.L_tot
    if L > 3:
        raise CostGuardError("brute force oracle limited to L_tot <= 3")
    cols = eff.cols
    ticks = np.linspace(0.0, p_max, grid_points)
    best_q, best_f = None, np.inf
    if L == 1:
        return np.array([p_max])
    if L == 2:
        for a in ticks:
            f = covariance(cols, np.array([a, p_max - a]), sigma2)[3]
            if f < best_f:
                best_f, best_q = f, np.array([a, p_max - a])
        return best_q
    for a in ticks:
        for b in ticks:
            rem = p_max - a - b
            if rem < 0:
                break
            f = covariance(cols, np.array([a, b, rem]), sigma2)[3]
            if f < best_f:
                best_f, best_q = f, np.array([a, b, rem])
    return best_q
