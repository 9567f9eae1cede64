"""Convex power allocation in the virtual uplink, with KKT certification.

Minimizes f(q) = tr(J(q)^-1) with J(q) = sum_l q_l htil_l htil_l^H
+ sigma2 I over the feasible set {q >= 0, sum q <= P_max}.  f is convex
and strictly decreasing in every power whose channel is nonzero, so the
budget is tight at the optimum.

The solve is a single projected-Newton / active-set method on the simplex
(Bertsekas, SIAM J. Control Optim. 1982): an equality-constrained Newton
step on the face of powered streams, cut at the boundary, with an Armijo
or residual-decrease line search.  Values, gains and Hessians all come
from the covariance kernel `objective._covariance`, and so does the KKT
certificate: multipliers reconstructed from the gains at the returned
q, with every residual reported.

One lockstep loop (`_lockstep`) runs it on a stack of equal-shape
instances, one row each: a round evaluates a power vector per row with
one stacked kernel call, decides acceptance, backtracking, stalls and
best iterates as row masks, and takes the Newton steps with one stacked
`np.linalg.solve` per face size; `solve_power` is a stack of one.  All
stacked operations are elementwise or slice by slice, so an instance
takes the same steps, to the bit, whatever shares its stack.  A stream
whose channel is zero starts at q = 0 and stays there (its gain is 0),
so every instance runs on all its columns and is certified by the
same loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from types import SimpleNamespace

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
#: stack may hold: 2048 instances at M = L = 4, where stacking pays, and
#: 10 at M = 64, L = 32, where LAPACK's time dominates and a larger stack
#: would only cost memory.
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
    state: UplinkState | None = field(default=None, repr=False,
                                      compare=False)

    @property
    def max_residual(self) -> float:
        return max(self.stationarity_residual, self.primal_sum_violation,
                   self.primal_nonneg_violation, self.slackness_residual)

    def passes(self, tol: float) -> bool:
        return self.max_residual <= tol


def project_power(q, p_max: float) -> np.ndarray:
    """Euclidean projection onto {q >= 0, sum q <= p_max}.

    If clipping negatives already satisfies the budget, that is the
    projection; otherwise project onto the simplex {q >= 0, sum q = p_max}
    by the sort-and-threshold rule; non-finite q raises ValidationError.
    """
    q = np.asarray(q, dtype=float)
    if not np.isfinite(q).all():
        raise ValidationError("powers to project must be finite")
    clipped = np.maximum(q, 0.0)
    if clipped.sum() <= p_max:
        return clipped
    u = np.sort(q)[::-1]
    css = np.add.accumulate(u) - p_max
    ks = np.arange(1, q.size + 1)
    ok = (u - css / ks > 0).nonzero()[0]
    rho = ok[-1]
    tau = css[rho] / (rho + 1.0)
    return np.maximum(q - tau, 0.0)


def _kkt(Q, G, p_max: float, active_tol: float) -> tuple:
    """KKT terms at each row q of ``Q`` from the gains ``G`` there: (mu_sum,
    mu, stationarity, excess over the budget, largest negative power,
    largest |mu_l q_l|), and `KktCertificate.max_residual` of each row.
    Every step is elementwise, or an exact max or a sum along a row, so
    row b is bitwise what the row alone gives."""
    act = Q > active_tol
    # gains are sums of squares, so starting the max over the active ones
    # at 0 leaves it as it is (and gives 0 with none active)
    mu_sum = np.maximum.reduce(G, axis=1, initial=0.0, where=act)
    d = mu_sum[:, None] - G
    mu = np.where(act, 0.0, np.maximum(0.0, d))
    stationarity = np.maximum.reduce(np.abs(d - mu), axis=1)
    excess = np.add.reduce(Q, axis=1) - p_max
    negative = -np.minimum.reduce(Q, axis=1, initial=math.inf)
    mu_q = np.maximum.reduce(np.abs(mu * Q), axis=1, initial=0.0)
    # the stationarity residual is >= 0, so the clips at 0 drop out
    r = np.maximum(np.maximum(stationarity, excess), negative)
    r = np.maximum(np.maximum(r, np.abs(mu_sum * excess)), mu_q)
    return (mu_sum, mu, stationarity, excess, negative, mu_q), r


def _certificates(kkt: tuple, states) -> list:
    """The certificate of each row of `_kkt` output, with its state."""
    rows = zip(*(x.tolist() if x.ndim == 1 else x for x in kkt), states)
    return [KktCertificate(mu_sum=m, mu=u, stationarity_residual=st,
                           primal_sum_violation=max(0.0, ex),
                           primal_nonneg_violation=max(0.0, neg),
                           slackness_residual=max(abs(m * ex), mq), state=state)
            for m, u, st, ex, neg, mq, state in rows]


def solve_power(eff: EffectiveChannel, sigma2: float, p_max: float,
                cfg: SolverConfig | None = None, q0=None, callback=None):
    """Solve the power allocation and certify it.

    Returns (q_star, certificate); ``certificate.state`` is the uplink
    state at q_star.  Raises ConvergenceError (carrying the best iterate
    and its certificate) if the residuals cannot be brought below
    cfg.kkt_tol within cfg.max_iters.  ``q0`` warm-starts the solve (a
    non-finite power there raises ValidationError); ``callback(q, f)``
    fires after every step taken.
    """
    out, = _solve_all([eff], sigma2, p_max, cfg, q0, callback)
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
    return _solve_all(effs, sigma2, p_max, cfg)


def _solve_all(effs, sigma2, p_max, cfg, q0=None, callback=None) -> list:
    """The results of `solve_powers`; ``q0`` and ``callback`` serve
    `solve_power`.  Instances whose columns have one shape run in
    `_lockstep` stacks of at most `STACK_BYTES`."""
    if not (math.isfinite(p_max) and p_max > 0):
        raise ValidationError("p_max must be finite and > 0")
    if not (math.isfinite(sigma2) and sigma2 > 0):
        raise ValidationError("sigma2 must be finite and > 0")
    cfg = cfg or SolverConfig()
    out, groups, stacks = [None] * len(effs), {}, []
    for i, eff in enumerate(effs):
        try:
            q = _start(eff, p_max, q0)
            groups.setdefault(eff.cols.shape, []).append((i, q))
        except DualPrecError as e:
            out[i] = e
    for (M, L), group in groups.items():
        size = max(1, STACK_BYTES // (16 * M * (M + L)))
        stacks += [zip(*group[k:k + size]) for k in range(0, len(group), size)]
    for idx, qs in stacks:
        CS = np.array([effs[i].cols for i in idx])
        for rows, Q, A, F, kkt, steps, failed in _lockstep(
                CS, np.array(qs), sigma2, p_max, cfg, callback):
            # copies in the layouts one kernel call gives, so that callers
            # computing on the state get the same bits whatever the stack
            states = [UplinkState(eff=effs[idx[k]], q=Q[j].copy(),
                                  sigma2=float(sigma2),
                                  Jinv_cols=A[j].copy(order="F"),
                                  trace_jinv=float(F[j]))
                      for j, k in enumerate(rows.tolist())]
            for k, cert, n, bad in zip(rows.tolist(),
                                       _certificates(kkt, states),
                                       steps.tolist(), failed.tolist()):
                if bad:
                    out[idx[k]] = NumericsError(
                        "covariance not positive definite or not finite "
                        f"after {n} iterations")
                elif cert.passes(cfg.kkt_tol):
                    out[idx[k]] = (cert.state.q, cert)
                else:
                    out[idx[k]] = ConvergenceError(
                        f"KKT residual {cert.max_residual:.3e} above "
                        f"tolerance {cfg.kkt_tol:.1e} after {n} iterations",
                        best_q=cert.state.q, certificate=cert)
    return out


def _start(eff: EffectiveChannel, p_max: float, q0=None) -> np.ndarray:
    """The first iterate of a solve: projected q0, or uniform, spending
    the budget on the streams with a nonzero channel.  The others (norm
    at most 1e-15 of the largest) start at 0 and stay there: a zero
    channel's gain is 0, so no Newton face admits its stream."""
    L = eff.L_tot
    if q0 is not None and np.shape(q0) != (L,):
        raise DimensionError(f"q0 must have one entry per stream ({L})")
    col_norms = np.linalg.norm(eff.cols, axis=0)
    if not np.isfinite(col_norms).all():
        raise NumericsError("non-finite effective channel")
    largest = np.maximum.reduce(col_norms)
    if largest == 0.0:
        raise NumericsError("all effective channels are zero")
    on = col_norms > 1e-15 * largest
    q = np.zeros(L)
    if q0 is None:
        q[on] = p_max / np.count_nonzero(on)
    else:
        q[on] = project_power(np.asarray(q0, dtype=float)[on], p_max)
        if (spent := q[on].sum()) < p_max:  # the optimum spends the budget
            q[on] += (p_max - spent) / np.count_nonzero(on)
    return q


def _lockstep(CS, Q0, sigma2: float, p_max: float, cfg: SolverConfig,
              callback=None):
    """Solve each row of the stack ``CS`` (B x M x L) from ``Q0`` (B x L);
    yield (rows, q, A, f, `_kkt` terms, steps, failed) of the best
    iterates of the rows that finish in a round, failed where a row's J
    was not finite or could not be factored (such a row finishes at once).
    ``callback(q, f)`` fires after every step of every row.  ``s`` holds
    the unfinished rows; no array in it is written in place, so the
    current and best iterate may share one."""
    act_tol = cfg.active_tol_scale * p_max
    # polish well below kkt_tol; Newton reaches this in one more step
    target = max(5e-15, cfg.kkt_tol * 1e-4)
    # residual to beat to go on, by steps since the best: 0, idle, too many
    limit = np.full(IDLE_STEPS + 2, max(target, cfg.kkt_tol))
    limit[0], limit[-1] = target, math.inf
    A, f, G = _covariance(CS, Q0, sigma2)
    kkt, r = _kkt(Q0, G, p_max, act_tol)
    B = len(Q0)
    steps = np.zeros(B, dtype=int)
    s = SimpleNamespace(
        rows=np.arange(B), cs=CS, q=Q0, f=f, g=G, a=A, r=r, best_q=Q0,
        best_r=r, best_a=A, best_f=f, kkt=kkt, steps=steps,
        best_steps=steps, trial=Q0, dq=np.zeros(Q0.shape), t=np.ones(B),
        full=np.zeros(Q0.shape), slope=np.zeros(B), forced=steps > 0,
        failed=np.isnan(f))
    moved = ~s.failed  # the rows at a new iterate
    while True:
        idle = np.minimum(s.steps - s.best_steps, IDLE_STEPS + 1)
        go = moved & (s.best_r > limit[idle]) & (s.steps < cfg.max_iters)
        done = (moved ^ go) | s.failed
        if np.count_nonzero(go) and _step(s, go, p_max):
            done |= go & np.isnan(s.dq[:, 0])  # no finite Newton step
        if np.count_nonzero(done):
            best = (s.rows, s.best_q, s.best_a, s.best_f, s.kkt, s.steps,
                    s.failed)
            if np.count_nonzero(done) == len(done):
                yield best
                return
            yield _rows(best, done)
            s = SimpleNamespace(**{k: _rows(v, ~done)
                                   for k, v in vars(s).items()})

        A, f, G = _covariance(s.cs, s.trial, sigma2)
        kkt, r = _kkt(s.trial, G, p_max, act_tol)
        # near the optimum f is flat to rounding and only the residual moves
        moved = s.forced | (r < s.r) | (f <= s.f + ARMIJO * s.t * s.slope)
        if math.isnan(np.add.reduce(f)):  # a J failed to factor: its row ends
            s.failed = np.isnan(f)
            moved &= ~s.failed
        s.steps = s.steps + moved
        if np.count_nonzero(moved) == len(moved):
            s.q, s.f, s.g, s.a, s.r = s.trial, f, G, A, r
        else:
            _set(s, moved, q=s.trial, f=f, g=G, a=A, r=r)
        better = moved & (r < s.best_r)
        if np.count_nonzero(better) == len(better):
            s.best_q, s.best_r, s.best_a, s.best_f, s.kkt, s.best_steps = (
                s.trial, r, A, f, kkt, s.steps)
        elif np.count_nonzero(better):
            _set(s, better, best_q=s.trial, best_r=r, best_a=A, best_f=f,
                 kkt=kkt, best_steps=s.steps)
        if callback is not None:
            for b in np.flatnonzero(moved):
                callback(s.q[b].copy(), float(s.f[b]))
        if np.count_nonzero(moved) < len(moved):
            # backtrack; a search that runs out takes the full step, again
            stall = ~moved & (s.t < MIN_STEP)
            s.t = np.where(moved | stall, s.t, s.t * BACKTRACK)
            s.trial = np.where(stall[:, None], s.full,
                               np.maximum(s.q + s.t[:, None] * s.dq, 0.0))
            s.forced = stall


def _set(s, mask, **new):
    """Set the rows in mask of the named arrays of ``s``, in new arrays."""
    for name, x in new.items():
        setattr(s, name, _pick(mask, x, getattr(s, name)))


def _pick(mask, new, old):
    """Rows of ``new`` where mask holds, else of ``old`` (or tuples)."""
    if isinstance(new, tuple):
        return tuple(_pick(mask, a, b) for a, b in zip(new, old))
    return np.where(mask.reshape((-1,) + (1,) * (new.ndim - 1)), new, old)


def _rows(x, mask):
    """The rows in mask of an array, or of every array of a tuple."""
    return tuple(_rows(a, mask) for a in x) if isinstance(x, tuple) \
        else x[mask]


def _step(s, moved, p_max: float) -> bool:
    """Make the Newton step of each row in ``moved``, cut where it meets
    the boundary, its trial point; True if some step has no finite
    solution (and is NaN)."""
    every = np.count_nonzero(moved) == len(moved)
    q, g = (s.q, s.g) if every else (s.q[moved], s.g[moved])
    dq, lost = _newton(s.cs if every else s.cs[moved], q, g,
                       s.a if every else s.a[moved], p_max)
    # cut the step at the boundary and land exactly on zero there
    neg = dq < 0
    ratios = np.divide(q, -dq, out=None, where=neg)  # read where neg only
    step = np.minimum.reduce(ratios, axis=1, initial=1.0, where=neg)
    full = np.maximum(q + step[:, None] * dq, 0.0)
    cut = (step < 1.0).nonzero()[0]
    if cut.size:
        full[cut, np.where(neg[cut], ratios[cut], math.inf).argmin(1)] = 0.0
    slope = -(g[:, None, :] @ dq[:, :, None])[:, 0, 0]
    # after a step that did not lower the best residual, no search
    forced = s.steps > s.best_steps
    if every:
        s.dq, s.t, s.slope, s.full, s.forced = dq, step, slope, full, forced
        s.trial = full
    else:  # into copies: no array is written in place once in s
        s.dq, s.t, s.slope, s.full, s.trial, s.forced = (
            x.copy() for x in (s.dq, s.t, s.slope, s.full, s.trial, s.forced))
        s.dq[moved], s.t[moved], s.slope[moved] = dq, step, slope
        s.trial[moved] = s.full[moved] = full
        s.forced[moved] = forced[moved]
    return lost


def _newton(CS, Q, G, A, p_max: float) -> tuple:
    """Equality-constrained Newton steps of tr(J^-1), and whether a row's
    system has no finite solution (its step is NaN).  On the face of the
    powered streams and the parked ones whose gain exceeds their level mu,
    solves [H 1; 1^T 0][dq; dmu] = [gains - mu; p_max - sum q] with
    H = 2 Re(C o conj(D)), C = Htil^H A, D = A^H A, one stacked solve per
    face size; a parked stream pushed negative leaves the face and its row
    is solved again."""
    on = Q > 0  # never empty: every iterate spends the budget
    mu = np.maximum.reduce(G, axis=1, initial=0.0, where=on)
    act = on | (G > mu[:, None])
    DQ, lost, redo = np.zeros(Q.shape), False, None  # redo: rows to solve
    while True:
        sizes = np.add.reduce(act, axis=1)
        faces = set((sizes if redo is None else sizes[redo]).tolist())
        for m in faces:  # first all rows, then those whose face shrank
            rows, face = slice(None), act  # every row, one face size
            if redo is not None or len(faces) > 1:
                rows = sizes == m if redo is None else redo & (sizes == m)
                DQ[rows], face = 0.0, act & rows[:, None]
            if face is act and m == Q.shape[1]:  # all streams, in gather layout
                At, Ct, Gf, Qf = (np.ascontiguousarray(A.swapaxes(1, 2)),
                                  np.ascontiguousarray(CS.swapaxes(1, 2)), G, Q)
            else:  # the face's columns of A and Htil, as rows
                At = A.swapaxes(1, 2)[face]
                At = At.reshape(len(At) // m, m, -1)
                Ct = CS.swapaxes(1, 2)[face].reshape(At.shape)
                Gf, Qf = G[face].reshape(-1, m), Q[face].reshape(-1, m)
            Ai = At.swapaxes(1, 2)
            kkt = np.ones((len(At), m + 1, m + 1))
            H = (Ct.conj() @ Ai) * (At.conj() @ Ai).conj()
            np.multiply(2.0, np.real(H), out=kkt[:, :m, :m])
            kkt[:, m, m] = 0.0
            rhs = np.empty((len(At), m + 1, 1))
            np.subtract(Gf, mu[rows, None], out=rhs[:, :m, 0])
            np.subtract(p_max, np.add.reduce(Qf, axis=1), out=rhs[:, m, 0])
            sol = _solve_kkt(kkt, rhs)
            DQ[face] = sol[:, :m, 0].ravel()
            if not np.isfinite(sol).all():  # NaN steps for those rows
                lost = ~np.isfinite(sol).all(axis=(1, 2))
                DQ[np.arange(len(Q))[rows][lost]] = math.nan
                lost = True
        # a row already solved, or failed, has no bad stream
        bad = ~on & (DQ < 0)
        if not np.count_nonzero(bad):
            return DQ, lost
        redo = np.logical_or.reduce(bad, axis=1)
        act &= ~bad


def _solve_kkt(kkt, rhs) -> np.ndarray:
    """Stacked `np.linalg.solve`; per slice, lstsq if singular, on failure."""
    try:
        return np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        if len(kkt) == 1:
            return np.linalg.lstsq(kkt[0], rhs[0], rcond=None)[0][None]
        return np.array([_solve_kkt(k[None], b[None])[0]
                         for k, b in zip(kkt, rhs)])
