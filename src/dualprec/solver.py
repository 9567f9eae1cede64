"""Convex power allocation in the virtual uplink, with KKT certification.

Minimizes f(q) = tr(J(q)^-1) with J(q) = sum_l q_l htil_l htil_l^H
+ sigma2 I over the feasible set {q >= 0, sum q <= P_max}.  f is convex
and strictly decreasing in every power whose channel is nonzero, so the
budget is tight at the optimum.

The solve is a single projected-Newton / active-set method on the simplex
(Bertsekas, SIAM J. Control Optim. 1982): an equality-constrained Newton
step on the face of powered streams, cut at the boundary, with an Armijo
or residual-decrease line search.  Values, gains and Hessians all come
from the covariance kernel `objective._covariance`, which `kkt_certify`
shares; it reconstructs multipliers from the gradient and reports
residuals without judging pass/fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import (ConvergenceError, DimensionError, NumericsError,
                     ValidationError)
from .model import EffectiveChannel
from .objective import _covariance

#: Armijo sufficient-decrease constant and ratio of the backtracking search.
ARMIJO = 1e-4
BACKTRACK = 0.5
#: Smallest step the search tries.  When the search runs out, or after a
#: step that did not lower the best residual, the solver takes the full
#: step without a search.
MIN_STEP = 1e-10
#: Steps in a row that do not lower the best residual, allowed while the
#: best iterate fails kkt_tol (a certified solve stops at the first): at the
#: rounding floor each Newton step draws the rounding error afresh.
IDLE_STEPS = 200


@dataclass
class SolverConfig:
    kkt_tol: float = 1e-9
    max_iters: int = 10000
    # q_l <= active_tol_scale * p_max counts as inactive
    active_tol_scale: float = 1e-9

    def __post_init__(self):
        if not (0 < self.kkt_tol < math.inf
                and isinstance(self.max_iters, Integral) and self.max_iters >= 1
                and self.active_tol_scale >= 0):
            raise ValidationError("kkt_tol must be finite and positive, "
                                  "max_iters an integer >= 1 and "
                                  "active_tol_scale nonnegative")


@dataclass(frozen=True)
class KktCertificate:
    """Multipliers and residuals of the first-order optimality system.

    mu_sum is recovered as the largest gradient magnitude over active
    streams; per-stream multipliers are zero on active streams by
    construction (complementary slackness) and max(0, mu_sum - gain) on
    inactive ones.
    """

    mu_sum: float
    mu: np.ndarray
    stationarity_residual: float
    primal_sum_violation: float
    primal_nonneg_violation: float
    slackness_residual: float

    @property
    def max_residual(self) -> float:
        return max(self.stationarity_residual, self.primal_sum_violation,
                   self.primal_nonneg_violation, self.slackness_residual)

    def passes(self, tol: float) -> bool:
        return self.max_residual <= tol


def active_set(q, tol: float):
    """Partition stream indices into active (q_l > tol) and inactive."""
    q = np.asarray(q, dtype=float)
    if np.any(q < 0):
        raise ValidationError("powers must be nonnegative")
    act = np.flatnonzero(q > tol)
    inact = np.flatnonzero(q <= tol)
    return act, inact


def project_power(q, p_max: float) -> np.ndarray:
    """Euclidean projection onto {q >= 0, sum q <= p_max}.

    If clipping negatives already satisfies the budget, that is the
    projection; otherwise project onto the simplex {q >= 0, sum q = p_max}
    by the sort-and-threshold rule.
    """
    q = np.asarray(q, dtype=float)
    clipped = np.maximum(q, 0.0)
    if clipped.sum() <= p_max:
        return clipped
    u = np.sort(q)[::-1]
    css = np.cumsum(u) - p_max
    ks = np.arange(1, q.size + 1)
    ok = np.flatnonzero(u - css / ks > 0)
    rho = ok[-1]
    tau = css[rho] / (rho + 1.0)
    return np.maximum(q - tau, 0.0)


def _certificate(q, gains, p_max: float, active_tol: float) -> KktCertificate:
    """KKT multipliers and residuals at q from the gains the kernel gave."""
    act = q > active_tol
    mu_sum = float(gains[act].max()) if act.any() else 0.0
    mu = np.zeros(q.size)
    mu[~act] = np.maximum(0.0, mu_sum - gains[~act])
    stationarity = float(np.abs(-gains + mu_sum - mu).max())
    primal_sum = max(0.0, float(q.sum() - p_max))
    primal_nonneg = max(0.0, float(-q.min())) if q.size else 0.0
    slackness = max(abs(mu_sum * (q.sum() - p_max)),
                    float(np.abs(mu * q).max()) if q.size else 0.0)
    return KktCertificate(mu_sum=mu_sum, mu=mu,
                          stationarity_residual=stationarity,
                          primal_sum_violation=primal_sum,
                          primal_nonneg_violation=primal_nonneg,
                          slackness_residual=slackness)


def kkt_certify(eff: EffectiveChannel, sigma2: float, p_max: float, q,
                active_tol: float | None = None) -> KktCertificate:
    """Reconstruct multipliers at q and report every KKT residual.

    Always returns a certificate; nothing is thrown for a bad q, the
    residuals simply say how bad it is.
    """
    q = np.asarray(q, dtype=float)
    if active_tol is None:
        active_tol = 1e-9 * p_max
    gains = _covariance(eff.cols, q, sigma2)[4]
    return _certificate(q, gains, p_max, active_tol)


def solve_power(eff: EffectiveChannel, sigma2: float, p_max: float,
                cfg: SolverConfig | None = None, q0=None, callback=None):
    """Solve the power allocation and certify it.

    Returns (q_star, certificate).  Raises ConvergenceError (carrying the
    best iterate and its certificate) if the residuals cannot be brought
    below cfg.kkt_tol within cfg.max_iters.  ``q0`` warm-starts the solve;
    ``callback(q, f)`` fires after every step taken.
    """
    if cfg is None:
        cfg = SolverConfig()
    if not (np.isfinite(p_max) and p_max > 0):
        raise ValidationError("p_max must be finite and > 0")
    if not (np.isfinite(sigma2) and sigma2 > 0):
        raise ValidationError("sigma2 must be finite and > 0")
    cols = eff.cols
    L = eff.L_tot
    if q0 is not None and np.shape(q0) != (L,):
        raise DimensionError(f"q0 must have one entry per stream ({L})")
    col_norms = np.linalg.norm(cols, axis=0)
    if not np.all(np.isfinite(col_norms)):
        raise NumericsError("non-finite effective channel")
    if col_norms.max() == 0.0:
        raise NumericsError("all effective channels are zero")

    # streams with an exactly-zero channel get no power and stay out of the
    # optimization entirely
    sub = np.flatnonzero(col_norms > 1e-15 * col_norms.max())
    cs = cols[:, sub]
    act_tol = cfg.active_tol_scale * p_max
    # polish well below kkt_tol; Newton reaches this in one more step
    target = max(5e-15, cfg.kkt_tol * 1e-4)

    if q0 is not None:
        q = project_power(np.asarray(q0, dtype=float)[sub], p_max)
        if q.sum() < p_max:  # budget is always exhausted at the optimum
            q = q + (p_max - q.sum()) / q.size
    else:
        q = np.full(sub.size, p_max / sub.size)

    def evaluate(q):
        _, _, A, f, gains = _covariance(cs, q, sigma2)
        return f, gains, A, _certificate(q, gains, p_max, act_tol).max_residual

    f, gains, A, resid = evaluate(q)
    best_q, best_resid = q, resid
    iters = idle = 0
    while best_resid > target and iters < cfg.max_iters and (
            idle == 0 or best_resid > cfg.kkt_tol and idle <= IDLE_STEPS):
        dq = _newton_step(cs, q, gains, A, p_max)
        if dq is None:
            break
        # cut the step at the boundary and land exactly on zero there
        neg = np.flatnonzero(dq < 0)
        ratios = q[neg] / -dq[neg]
        step = float(ratios.min(initial=1.0))
        full = np.maximum(q + step * dq, 0.0)
        if step < 1.0:
            full[neg[np.argmin(ratios)]] = 0.0
        slope = -float(gains @ dq)
        t, trial = step, full
        first = new = evaluate(full)  # (f, gains, A, resid)
        # near the optimum f is flat to rounding and only the residual moves
        while not (new[0] <= f + ARMIJO * t * slope or new[3] < resid):
            if idle or t < MIN_STEP:  # stalled: the full step, no search
                trial, new = full, first
                break
            t *= BACKTRACK
            trial = np.maximum(q + t * dq, 0.0)
            new = evaluate(trial)
        q, (f, gains, A, resid) = trial, new
        iters += 1
        if callback is not None:
            full_q = np.zeros(L)
            full_q[sub] = q
            callback(full_q, f)
        if resid < best_resid:
            best_q, best_resid, idle = q, resid, 0
        else:
            idle += 1

    q_full = np.zeros(L)
    q_full[sub] = best_q
    cert = kkt_certify(eff, sigma2, p_max, q_full, active_tol=act_tol)
    if not cert.passes(cfg.kkt_tol):
        raise ConvergenceError(
            f"KKT residual {cert.max_residual:.3e} above tolerance "
            f"{cfg.kkt_tol:.1e} after {iters} iterations",
            best_q=q_full, certificate=cert)
    return q_full, cert


def _newton_step(cs, q, gains, A, p_max):
    """Equality-constrained Newton step of tr(J^-1) on the active face, or
    None when the system has no finite solution.

    The face holds the powered streams and the parked ones whose gain
    exceeds their level mu.  Solves [H 1; 1^T 0][dq; dmu] =
    [gains - mu; p_max - sum q] on it with H = 2 Re(C o conj(D)),
    C = Htil^H A, D = A^H A; a parked stream the step would push negative
    leaves the face and the system is solved again.
    """
    on = q > 0  # never empty: every iterate spends the budget
    mu = float(gains[on].max())
    act = on | (gains > mu)
    while True:
        idx = np.flatnonzero(act)
        m = idx.size
        Ai = A[:, idx]
        H = 2.0 * np.real((cs[:, idx].conj().T @ Ai) * (Ai.conj().T @ Ai).conj())
        kkt = np.ones((m + 1, m + 1))
        kkt[:m, :m] = H
        kkt[m, m] = 0.0
        rhs = np.append(gains[idx] - mu, p_max - q[idx].sum())
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        if not np.all(np.isfinite(sol)):
            return None
        dq = np.zeros(q.size)
        dq[idx] = sol[:m]
        bad = ~on & (dq < 0)
        if not bad.any():
            return dq
        act &= ~bad
