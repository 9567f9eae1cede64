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

The method is written once, as a generator (`_solve`) that yields every
power vector it needs evaluated and receives the kernel output and the
certificate there.  `_drive` runs any number of these generators side by
side: each round it serves all pending requests of one shape with one
stacked kernel call and one stacked certificate evaluation.
`solve_power` drives one generator; `solve_powers` drives one per
instance.  Every slice of the stacked evaluations is bitwise what an
evaluation alone gives, so each instance takes the same steps, and returns
the same numbers, whatever else shares its batch.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .errors import (ConvergenceError, DimensionError, DualPrecError,
                     NumericsError, ValidationError)
from .model import EffectiveChannel
from .objective import UplinkState, _covariance

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
#: Bytes of right-hand sides [I, Htil] (16 M (M + L) per instance) one
#: stacked kernel call may hold: 2048 instances at M = L = 4, where
#: stacking pays, and 10 at M = 64, L = 32, where LAPACK's time dominates
#: and a larger stack would only cost memory.
STACK_BYTES = 1 << 20


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
    inactive ones.  ``state`` is the kernel output the certificate was
    computed from (the uplink state at the certified q), when known.
    """

    mu_sum: float
    mu: np.ndarray
    stationarity_residual: float
    primal_sum_violation: float
    primal_nonneg_violation: float
    slackness_residual: float
    state: UplinkState | None = dataclasses.field(default=None, repr=False,
                                                  compare=False)

    @property
    def max_residual(self) -> float:
        return max(self.stationarity_residual, self.primal_sum_violation,
                   self.primal_nonneg_violation, self.slackness_residual)

    def passes(self, tol: float) -> bool:
        return self.max_residual <= tol


class _Evaluation(NamedTuple):
    """The kernel output and the certificate at one power vector."""

    J: np.ndarray
    J_inv: np.ndarray
    A: np.ndarray  # J^-1 Htil
    f: float       # tr(J^-1)
    gains: np.ndarray
    cert: KktCertificate


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


def _certificates(Q, G, p_max: float, active_tol: float) -> list:
    """KKT multipliers and residuals at each row q of ``Q`` from the gains
    ``G`` the kernel gave there.

    Every step is elementwise, an exact max or a sum along a row, so row b
    is bitwise what the row alone gives.
    """
    act = Q > active_tol
    # gains are sums of squares, so a zero in place of an inactive gain
    # leaves the max over the active ones as it is (and 0 with none active)
    mu_sum = np.where(act, G, 0.0).max(axis=1)
    mu = np.where(act, 0.0, np.maximum(0.0, mu_sum[:, None] - G))
    stationarity = np.abs(-G + mu_sum[:, None] - mu).max(axis=1)
    excess = Q.sum(axis=1) - p_max
    negative = -Q.min(axis=1, initial=np.inf)
    mu_q = np.abs(mu * Q).max(axis=1, initial=0.0)
    rows = zip(mu_sum.tolist(), mu, stationarity.tolist(), excess.tolist(),
               negative.tolist(), mu_q.tolist())
    return [KktCertificate(mu_sum=m, mu=u, stationarity_residual=st,
                           primal_sum_violation=max(0.0, ex),
                           primal_nonneg_violation=max(0.0, neg),
                           slackness_residual=max(abs(m * ex), mq))
            for m, u, st, ex, neg, mq in rows]


def kkt_certify(eff: EffectiveChannel, sigma2: float, p_max: float, q,
                active_tol: float | None = None) -> KktCertificate:
    """Reconstruct multipliers at q and report every KKT residual.

    Always returns a certificate; nothing is thrown for a bad q, the
    residuals simply say how bad it is.
    """
    q = np.asarray(q, dtype=float)
    if active_tol is None:
        active_tol = 1e-9 * p_max
    J, J_inv, A, _, gains = _covariance(eff.cols[None], q[None], sigma2)
    cert = _certificates(q[None], gains, p_max, active_tol)[0]
    return dataclasses.replace(cert, state=UplinkState(
        J=J[0], J_inv=J_inv[0], eff=eff, q=q, sigma2=float(sigma2),
        Jinv_cols=A[0]))


def solve_power(eff: EffectiveChannel, sigma2: float, p_max: float,
                cfg: SolverConfig | None = None, q0=None, callback=None):
    """Solve the power allocation and certify it.

    Returns (q_star, certificate); ``certificate.state`` is the uplink
    state at q_star.  Raises ConvergenceError (carrying the best iterate
    and its certificate) if the residuals cannot be brought below
    cfg.kkt_tol within cfg.max_iters.  ``q0`` warm-starts the solve;
    ``callback(q, f)`` fires after every step taken.
    """
    if cfg is None:
        cfg = SolverConfig()
    _check_noise_and_budget(sigma2, p_max)
    out, = _drive([_solve(eff, sigma2, p_max, cfg, q0, callback)], sigma2,
                  p_max, cfg.active_tol_scale * p_max)
    if isinstance(out, DualPrecError):
        raise out
    return out


def solve_powers(effs, sigma2: float, p_max: float,
                 cfg: SolverConfig | None = None) -> list:
    """`solve_power` on every effective channel in ``effs`` at once.

    Returns, per instance and in order, its (q_star, certificate) or the
    error its solve raised (a ConvergenceError, or a NumericsError for an
    unusable channel); the results are bitwise those of `solve_power` on
    each instance alone.  Invalid ``sigma2`` or ``p_max`` raise
    ValidationError for the whole call.
    """
    if cfg is None:
        cfg = SolverConfig()
    _check_noise_and_budget(sigma2, p_max)
    return _drive([_solve(eff, sigma2, p_max, cfg) for eff in effs], sigma2,
                  p_max, cfg.active_tol_scale * p_max)


def _check_noise_and_budget(sigma2: float, p_max: float) -> None:
    if not (np.isfinite(p_max) and p_max > 0):
        raise ValidationError("p_max must be finite and > 0")
    if not (np.isfinite(sigma2) and sigma2 > 0):
        raise ValidationError("sigma2 must be finite and > 0")


def _drive(solves: list, sigma2: float, p_max: float,
           active_tol: float) -> list:
    """Run the `_solve` generators to the end, side by side.

    Each round collects the (columns, q) request of every unfinished
    solve, evaluates each group of requests with equal shapes (split to
    at most `STACK_BYTES` per stack) by one stacked kernel call and one
    stacked certificate evaluation, and sends every solve its
    `_Evaluation`.  Returns what each solve returned, or the
    DualPrecError it raised.
    """
    out = [None] * len(solves)
    pending = {}

    def advance(i, value):
        try:
            pending[i] = solves[i].send(value)
        except StopIteration as stop:
            out[i] = stop.value
        except DualPrecError as e:
            out[i] = e

    for i in range(len(solves)):
        advance(i, None)
    while pending:
        requests, groups, stacks = pending, {}, []
        pending = {}
        for i, (cs, _) in requests.items():
            groups.setdefault(cs.shape, []).append(i)
        for (M, L), group in groups.items():
            size = max(1, STACK_BYTES // (16 * M * (M + L)))
            stacks += [group[k:k + size] for k in range(0, len(group), size)]
        for group in stacks:
            Q = np.stack([requests[i][1] for i in group])
            J, J_inv, A, f, G = _covariance(
                np.stack([requests[i][0] for i in group]), Q, sigma2)
            certs = _certificates(Q, G, p_max, active_tol)
            for b, i in enumerate(group):
                # copies in the slices' own layout: a solve keeps its best
                # evaluation, which must not hold on to the whole stack
                advance(i, _Evaluation(J[b].copy(), J_inv[b].copy(order="K"),
                                       A[b].copy(order="K"), float(f[b]),
                                       G[b], certs[b]))
    return out


def _solve(eff: EffectiveChannel, sigma2: float, p_max: float,
           cfg: SolverConfig, q0=None, callback=None):
    """The solve of `solve_power` as a generator.

    Yields (cs, q) for every power vector q it needs on its columns cs and
    expects back the `_Evaluation` at q, as `_drive` sends it; returns
    (q_star, certificate).
    """
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

    ev = yield cs, q
    f, gains, A, resid = ev.f, ev.gains, ev.A, ev.cert.max_residual
    best_q, best, best_resid = q, ev, resid
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
        first = new = yield cs, full
        # near the optimum f is flat to rounding and only the residual moves
        while not (new.f <= f + ARMIJO * t * slope
                   or new.cert.max_residual < resid):
            if idle or t < MIN_STEP:  # stalled: the full step, no search
                trial, new = full, first
                break
            t *= BACKTRACK
            trial = np.maximum(q + t * dq, 0.0)
            new = yield cs, trial
        q, ev = trial, new
        f, gains, A, resid = ev.f, ev.gains, ev.A, ev.cert.max_residual
        iters += 1
        if callback is not None:
            full_q = np.zeros(L)
            full_q[sub] = q
            callback(full_q, f)
        if resid < best_resid:
            best_q, best, best_resid, idle = q, ev, resid, 0
        else:
            idle += 1

    q_full = np.zeros(L)
    q_full[sub] = best_q
    if sub.size == L:  # the best evaluation is the certificate at q_full
        cert = dataclasses.replace(best.cert, state=UplinkState(
            J=best.J, J_inv=best.J_inv, eff=eff, q=q_full,
            sigma2=float(sigma2), Jinv_cols=best.A))
    else:
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
