"""Convex power allocation in the virtual uplink, with KKT certification.

Minimizes phi(q), the trace of the inverse `objective._covariance` forms
(tr J(q)^-1 with J(q) = sum_l q_l htil_l htil_l^H + sigma2 I, less
(M - L) / sigma2 at L < M), on {q >= 0, sum q <= P_max}.  phi is convex
and strictly decreasing in each power with a nonzero channel, so the
budget is tight at the optimum.

The solve is a single projected-Newton / active-set method on the simplex
(Bertsekas, SIAM J. Control Optim. 1982): an equality-constrained Newton
step on the face of powered streams, cut at the boundary, with an Armijo
or residual-decrease line search.  Values, gains and Hessians all come
from the covariance kernel `objective._covariance`, and so does the KKT
certificate at the returned q.  It passes on one scale-free test, the
Frank-Wolfe gap P max_l g_l - sum_l q_l g_l (which bounds phi(q) - phi*;
Jaggi, ICML 2013) over sum_l q_l g_l.  A row stops at a trial that does
not lower its best residual once it passes, or at its rounding floor.
That residual is in the units of the gains, so the steps do not depend
on the units of sigma2 and P.  A power at most `ACTIVE_TOL` P is off.

One lockstep loop (`_lockstep`) runs it on a stack of equal-shape
instances, one row each, from the first iterates `_start` takes for the
whole stack at once: a round evaluates a power vector per row with one
stacked kernel call, decides acceptance, backtracking and best iterates
as row masks, and takes the Newton steps with one stacked
`np.linalg.solve` per pass (a second only for rows whose face shrank).
What a round reuses is formed once per stack and sliced with its rows:
the kernel's constants (G with L < M, else conj(Htil) and [I, Htil]) and
conj(Htil) as rows, which the Newton step reads.  A round decides on
mu_sum, the relative gap and the residual alone (`_progress`).
`_solve_stack` is the stacked core: B x M x L columns in, per-row arrays
out (q, J^-1 Htil, phi, steps, the gains and relative gap, and each row's
error), every row of a chunk in one `_lockstep` call, a row whose start
failed too (it finishes on entry).  `verify` and the design step call it
directly; the public `solve_power` is a stack of one over it.  `_certify`
turns the one row of such a result into a state and a certificate
(`_certificate`, the other terms from the returned q and gains); the
design step calls it only for a failed solve's error.  With L <= M a
cold solve starts from the regularized zero-forcing allocation; a warm
start keeps q0's zero powers at zero.  Every stacked operation is
elementwise or slice by slice, so an instance takes the same steps, to
the bit, whatever shares its stack.  A zero channel's stream starts and
stays at q = 0 (its gain is 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import (ConvergenceError, DimensionError, DualPrecError,
                     NumericsError, ValidationError)
from .model import EffectiveChannel, _norms, is_count, is_real
from .objective import (UplinkState, _constants, _covariance, _gram,
                        _slices)

#: Armijo sufficient-decrease constant and ratio of the backtracking search.
ARMIJO = 1e-4
BACKTRACK = 0.5
#: Bytes one stack may hold; `_solve_stack` prices an instance at
#: 16 M (M + L).  At L >= M that is what the kernel solves on, the
#: right-hand sides [I, Htil]: 2048 instances at M = L = 4, where
#: stacking pays.  At L < M the kernel forms no [I, Htil]; it holds the
#: L x L Gram G and (sigma2 I + Q G)^-1 (16 L^2 bytes each) beside the
#: M x L receivers, and the price is a proxy, not their size: 10
#: instances at M = 64, L = 32 (16 KiB of Gram each, priced at 96 KiB),
#: where LAPACK's time dominates and a larger stack would only cost
#: memory.
STACK_BYTES = 1 << 20
#: lambda = START_NOISE * sigma2 * L / p_max regularizes the closed-form
#: start of a cold L <= M solve, q_l ~ sqrt([(G + lambda I)^-1]_ll): the
#: regularized zero-forcing allocation, which tends to uniform powers as
#: the SNR falls.  Of 0.5, 1, 2 and 4, 2 took the fewest Newton steps per
#: row at M = 64, L = 32, sigma2 = 1, P = 10 (3.88, 3.27, 3.00 and 3.95
#: over seeds 1-40, against 4.78 from uniform powers).  Square shapes,
#: averaged over sigma2 = 10, 1, ..., 1e-8: 3.02, 2.86, 2.87 and 3.00 at
#: M = L = 4 (seeds 1-1000), 5.60, 5.30, 5.22 and 5.30 at M = L = 64.
START_NOISE = 2.0
#: A stream whose power is at most ACTIVE_TOL * p_max counts as inactive,
#: in the certificate and in the theorem check.
ACTIVE_TOL = 1e-9
#: Constants as 0-d arrays, which numpy applies to an array faster.
_Z, _ONE, _TWO, _ARM, _BT = map(np.array, (0.0, 1.0, 2.0, ARMIJO, BACKTRACK))


@dataclass
class SolverConfig:
    kkt_tol: float = 1e-9
    max_iters: int = 10000

    def __post_init__(self):
        if not (is_real(self.kkt_tol) and 0 < self.kkt_tol < math.inf
                and is_count(self.max_iters) and self.max_iters >= 1):
            raise ValidationError("kkt_tol must be finite and positive and "
                                  "max_iters an integer >= 1")


@dataclass(frozen=True)
class KktCertificate:
    """Multipliers and residuals of the first-order optimality system.

    mu_sum is the largest gain over active streams; mu_l is 0 on an active
    stream and max(0, mu_sum - gain) on an inactive one.  The four
    residuals are absolute, in units of the gains (up to ~1/sigma2^2) and
    powers.  ``relative_gap`` passes or fails: the largest of (P max_l g_l
    - sum_l q_l g_l) / sum_l q_l g_l, the budget excess / P and the
    largest negative power / P.  That Frank-Wolfe gap bounds phi(q) - phi*,
    and sum_l q_l g_l <= sum-MSE / sigma2, so a q that passes has a
    sum-MSE at most relative_gap times itself above the optimum.
    ``state`` is the kernel output at q, when known.
    """

    mu_sum: float
    mu: np.ndarray
    stationarity_residual: float
    primal_sum_violation: float
    primal_nonneg_violation: float
    slackness_residual: float
    relative_gap: float
    state: UplinkState | None = field(default=None, repr=False,
                                      compare=False)

    @property
    def max_residual(self) -> float:
        return self.relative_gap

    def passes(self, tol: float) -> bool:
        return self.relative_gap <= tol


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
    if np.add.reduce(clipped) <= p_max:
        return clipped
    u = np.sort(q)[::-1]
    css = np.add.accumulate(u) - p_max
    ks = np.arange(1, q.size + 1)
    ok = (u - css / ks > 0).nonzero()[0]
    rho = ok[-1]
    tau = css[rho] / (rho + 1.0)
    return np.maximum(q - tau, 0.0)


def _progress(Q, G, p_max: float, active_tol: float, negative=_Z) -> tuple:
    """What a solve decides on at each row q of ``Q`` from its gains
    ``G``: mu_sum, the relative gap and, for q >= 0 (as every iterate
    is, whose largest ``negative`` power is +0), the largest absolute
    residual, by value, in the units of the gains; every step is
    elementwise or an exact max or sum along a row, so bitwise per row."""
    act = Q > active_tol
    # gains are sums of squares, so starting the max over the active ones
    # at 0 leaves it as it is (and gives 0 with none active)
    mu_sum = np.maximum.reduce(G, axis=1, initial=0.0, where=act)
    d = mu_sum[:, None] - G
    excess = np.add.reduce(Q, axis=1) - p_max
    primal = np.maximum(excess, negative)
    # per stream the larger of `_certificate`'s stationarity and slackness
    # terms: d >= 0 if active, else -d for d < 0 and mu_l q_l = d q_l else
    e = np.where(act, d, np.maximum(-d, d * Q))
    # the budget terms times mu_sum / p_max: every term in units of gains
    r = np.maximum(np.maximum.reduce(e, axis=1), primal * (mu_sum / p_max))
    r = np.maximum(r, np.abs(mu_sum * excess) / p_max)
    # sum_l q_l g_l = tr J^-1 - sigma2 tr J^-2 does not cancel; where it is
    # 0 (q = 0, or gains that underflow) a gap > 0 is inf and 0 stays 0.
    # With every stream active the largest gain is mu_sum.
    qg = np.add.reduce(Q * G, axis=1)
    gap = p_max * (mu_sum if np.count_nonzero(act) == act.size
                   else np.maximum.reduce(G, axis=1)) - qg
    gap = gap / qg if np.count_nonzero(qg) == len(qg) else np.divide(
        gap, qg, out=np.where(gap > 0, math.inf, gap), where=qg > 0)
    return mu_sum, np.maximum(gap, primal / p_max), r


def _certificate(q, g, p_max: float, state,
                 active_tol: float) -> KktCertificate:
    """The `KktCertificate` at the powers ``q`` (L) with gains ``g`` and
    uplink state ``state``, its mu_l on the streams at most
    ``active_tol``; every term is `_progress`'s rule at one row."""
    negative = 0.0 - np.minimum.reduce(q, initial=0.0)  # +0, not -0
    mu_sum, rel, _ = _progress(q[None], g[None], p_max, active_tol, negative)
    m, excess = float(mu_sum[0]), float(np.add.reduce(q) - p_max)
    mu = np.where(q > active_tol, 0.0, np.maximum(0.0, m - g))
    return KktCertificate(
        mu_sum=m, mu=mu,
        stationarity_residual=float(np.maximum.reduce(np.abs(m - g - mu))),
        primal_sum_violation=max(0.0, excess),
        primal_nonneg_violation=max(0.0, float(negative)),
        slackness_residual=max(abs(m * excess), float(
            np.maximum.reduce(np.abs(mu * q), initial=0.0))),
        relative_gap=float(rel[0]), state=state)


def solve_power(eff: EffectiveChannel, sigma2: float, p_max: float,
                cfg: SolverConfig | None = None, q0=None, callback=None):
    """Solve the power allocation and certify it.

    Returns (q_star, certificate); ``certificate.state`` is the uplink
    state at q_star.  Raises ConvergenceError (carrying the best iterate
    and its certificate) if no iterate's relative gap comes to at most
    cfg.kkt_tol within cfg.max_iters.  ``q0`` warm-starts the solve (a
    non-finite power there raises ValidationError); ``callback(q, phi)``
    fires after every step taken, with the kernel's phi at q.
    """
    out = _certify(_solve_stack(np.array([eff.cols]), sigma2, p_max, cfg,
                                q0, callback), eff, sigma2)
    if isinstance(out, DualPrecError):
        raise out
    return out


def _certify(res, eff, sigma2):
    """The (q, certificate) of the one row of the `_solve_stack` result
    ``res`` on the effective channel ``eff``, whose state is the kernel
    output at q, or the error of its solve, a ConvergenceError with its
    best iterate and certificate attached."""
    e = res.err[0]
    # a failed start or covariance leaves no iterate to certify
    if not (e is None or isinstance(e, ConvergenceError)):
        return e
    # copies in the layouts one kernel call gives, so that callers
    # computing on the state get the same bits whatever the stack
    q = res.q[0].copy()
    cert = _certificate(q, res.g[0], res.p_max, UplinkState(
        eff=eff, q=q, sigma2=float(sigma2),
        Jinv_cols=res.a[0].copy(order="F"), trace_inv=float(res.phi[0])),
        ACTIVE_TOL * res.p_max)
    if e is None:
        return q, cert
    e.best_q, e.certificate = q, cert
    return e


def _solve_stack(CS, sigma2, p_max, cfg=None, q0=None, callback=None):
    """Solve each row of the stack ``CS`` (B x M x L), in one `_lockstep`
    call per chunk of at most `STACK_BYTES`, every row of the chunk in it.

    Returns per-row arrays: q (B x L), a = J^-1 Htil at q (B x M x L, as
    the kernel computes it), its phi (B), steps (B), the gains g at q
    (B x L) and the relative gap rel (B), with the p_max that `_certify`
    builds a row's certificate with, and err: per row None or the error
    its solve raised, a ConvergenceError without its best iterate and
    certificate, which `_certify` attaches.  A row whose start failed
    (`_start`), or whose covariance the kernel rejected, finishes on
    entry and keeps its first error; its numbers are not an iterate.
    ``q0`` and ``callback`` are `solve_power`'s; a ``q0`` of the wrong
    shape raises DimensionError, and a ``sigma2`` or ``p_max`` not finite
    and > 0 ValidationError.
    """
    if not (math.isfinite(p_max) and p_max > 0):
        raise ValidationError("p_max must be finite and > 0")
    if not (math.isfinite(sigma2) and sigma2 > 0):
        raise ValidationError("sigma2 must be finite and > 0")
    cfg = cfg or SolverConfig()
    B, M, L = CS.shape
    size = max(1, STACK_BYTES // (16 * M * (M + L)))
    err, out = [None] * B, None
    for first in range(0, B, size):
        cs = CS[first:first + size]
        # G = Htil^H Htil: the kernel's at L < M, a cold start's at L <= M
        gram = _gram(cs) if L < M or L == M and q0 is None else None
        Q0, errs = _start(cs, gram, sigma2, p_max, q0)
        dead = None
        if any(errs):  # those rows finish on entry, with their errors
            err[first:first + len(cs)] = errs
            dead = np.array([e is not None for e in errs])
        for rows, Q, A, F, steps, G, rel, failed in _lockstep(
                cs, gram if L < M else None, Q0, sigma2, p_max, cfg,
                callback, dead):
            at = rows + first
            got = (Q, A, F, steps, G, rel)
            if len(at) == B:  # the whole stack at once: no copies
                out = list(got)
            else:
                if out is None:
                    out = [np.empty((B,) + x.shape[1:], x.dtype) for x in got]
                for dst, x in zip(out, got):
                    dst[at] = x
            for i, n, bad, gap in zip(at.tolist(), steps.tolist(),
                                      failed.tolist(), rel.tolist()):
                if bad:  # a start error stands
                    err[i] = err[i] or NumericsError(
                        "covariance not positive definite or not finite "
                        f"after {n} iterations")
                elif not gap <= cfg.kkt_tol:
                    err[i] = ConvergenceError(
                        f"relative gap {gap:.3e} above tolerance "
                        f"{cfg.kkt_tol:.1e} after {n} iterations")
    q, a, phi, steps, g, rel = out
    return SimpleNamespace(q=q, a=a, phi=phi, steps=steps, g=g, rel=rel,
                           p_max=p_max, err=err)


def _start(CS, gram, sigma2: float, p_max: float, q0=None) -> tuple:
    """The first iterates (B x L) of the solves of the stack ``CS``
    (B x M x L), with ``gram`` its `_gram` when L <= M (else None; a
    warm start does not read it), and per row None or the error that
    keeps it from starting (such a row starts at 0); a ``q0`` of the
    wrong shape raises DimensionError.  Projected q0, or uniform, spending
    the budget on the streams with a nonzero channel.  The others (norm
    at most 1e-15 of the row's largest) start at 0 and stay there: a
    zero channel's gain is 0, so no Newton face admits its stream.  A
    projected q0 that falls short of p_max has the rest spread over its
    powered streams (over every stream on when none is), so its zero
    powers stay zero.

    Without q0, an L <= M row whose channels are all on starts instead
    from the regularized zero-forcing allocation q_l = p_max sqrt(c_l) /
    sum_j sqrt(c_j), c = diag((G + lambda I)^-1), lambda = `START_NOISE`
    sigma2 L / p_max.  For L <= M, the kernel's phi = tr T (= tr J^-1 at
    L = M) ~ sum_l [G^-1]_ll / q_l at high SNR (push-through), which this q
    minimizes on the budget simplex (Palomar, Cioffi & Lagunas, IEEE TSP
    51(9), 2003).  A row whose c is not finite and positive, or whose q
    is not positive, keeps its uniform start.  Every step is slice by
    slice or along a row, so a row's start is bitwise its start alone."""
    B, _, L = CS.shape
    if q0 is not None and np.shape(q0) != (L,):
        raise DimensionError(f"q0 must have one entry per stream ({L})")
    col_norms = _norms(CS, 1)
    # a row with a column not finite has a largest that is not finite, and
    # so no column on
    largest = np.maximum.reduce(col_norms, axis=1)
    on = col_norms > 1e-15 * largest[:, None]
    count = np.add.reduce(on, axis=1)
    counts, errs = count.tolist(), [None] * B
    if 0 in counts:
        errs = [None if c else NumericsError(
                    "non-finite effective channel" if not math.isfinite(x)
                    else "all effective channels are zero")
                for x, c in zip(largest.tolist(), counts)]
    if q0 is None:
        Q = np.where(on, p_max / np.maximum(count, 1)[:, None], 0.0)
        if gram is None:
            return Q, errs
        R = gram.copy()  # G + lambda I
        R.reshape(B, L * L)[:, ::L + 1] += START_NOISE * sigma2 * L / p_max
        c = _slices(np.linalg.inv, R).diagonal(0, 1, 2).real
        use = np.logical_and.reduce(on & (c > 0) & (c < math.inf), axis=1)
        if np.count_nonzero(use):
            r = np.sqrt(c[use])
            q = p_max * (r / np.add.reduce(r, axis=1)[:, None])
            keep = np.logical_and.reduce(q > 0, axis=1)
            Q[use.nonzero()[0][keep]] = q[keep]
        return Q, errs
    q0, Q = np.asarray(q0, dtype=float), np.zeros(on.shape)
    for b in range(B):
        if errs[b] is not None:
            continue
        try:
            q = project_power(q0[on[b]], p_max)
        except ValidationError as e:
            errs[b] = e
            continue
        # the optimum spends the budget; a stream q0 parks at 0 stays there
        if (spent := np.add.reduce(q)) < p_max:
            pos = q > 0
            if 0 < (n := np.count_nonzero(pos)) < len(q):
                q[pos] += (p_max - spent) / n
            else:
                q += (p_max - spent) / len(q)
        Q[b][on[b]] = q
    return Q, errs


def _lockstep(CS, gram, Q0, sigma2: float, p_max: float, cfg: SolverConfig,
              callback=None, dead=None):
    """Solve each row of the stack ``CS`` (B x M x L), with ``gram`` its
    `_gram` when L < M (else None), from ``Q0`` (B x L); yield (rows, q,
    A, f, steps, gains, relative gap, failed) of the best iterates of the
    rows that finish in a round, failed where a row's start failed (the
    mask ``dead``, None: none did) or its J was not finite or could not be
    factored: such a row finishes at once, at Q0.  Progress and
    the best iterate go by the absolute residual.  A row finishes at a
    trial (taken or not) that does not lower its best residual once its
    best passes kkt_tol, or once that residual or its relative gap is at
    most the polish target (so the stop does not depend on the gains'
    scale); at a step that does not lower it and predicts a decrease
    below the target; at max_iters; or with no finite Newton step.
    ``callback(q, f)`` (f: phi) fires after every step of every row.  Per
    row the loop holds the current iterate (q, f, G, A, r), the best (bq,
    br, ba, bf, bg, bmu, brel), the step (dq, t, slope) and its trial; no
    array is written in place, so they may share one."""
    # polish well below kkt_tol; Newton reaches this in one more step.  A
    # failing row whose Newton step predicts a decrease below target
    # P mu_sum (~ target sum_l q_l g_l) is at the rounding floor of its
    # gains.  The scalars are 0-d arrays, like `_Z`.
    target = max(5e-15, cfg.kkt_tol * 1e-4)
    P, S2, act_tol, kkt_tol, polish, floor = map(np.array, (
        p_max, sigma2, ACTIVE_TOL * p_max, cfg.kkt_tol, target,
        -target * p_max))
    const = _constants(CS) if gram is None else gram
    ct = np.ascontiguousarray(CS.swapaxes(1, 2)).conj()
    A, f, G = _covariance(CS, Q0, S2, const)
    bmu, brel, r = _progress(Q0, G, P, act_tol)
    B = len(Q0)
    failed = np.isnan(f) if dead is None else np.isnan(f) | dead
    rows, steps, t = np.arange(B), np.zeros(B, dtype=int), np.zeros(B)
    q = bq = trial = Q0
    br, ba, bf, bg, dq, slope = r, A, f, G, np.zeros(Q0.shape), t
    # the rows at a new iterate, whether they are all rows, and those
    # whose new iterate is their best
    moved = better = ~failed
    every, evals = not np.count_nonzero(failed), 0
    while True:
        fail = brel > kkt_tol
        go = (better & (fail | (br > polish) & (brel > polish))
              | fail & (slope < floor * bmu))
        if evals >= cfg.max_iters:  # a row takes at most a step per trial
            go &= steps < cfg.max_iters
        if not every:
            go &= moved
        done = ~go if every else np.where(moved, ~go, ~fail) | failed
        if n := np.count_nonzero(go):
            (dq, t, slope, trial), lost = _step(
                go if n < len(go) else None, q, G, A, ct, P,
                (dq, t, slope, trial))
            if lost:
                done |= go & np.isnan(dq[:, 0])  # no finite Newton step
        if np.count_nonzero(done):
            best = (rows, bq, ba, bf, steps, bg, brel, failed)
            if np.count_nonzero(done) == len(done):
                yield best
                return
            yield _rows(best, done)
            (rows, CS, const, ct, q, f, G, A, r, bq, br, ba, bf, bg, bmu, brel,
             steps, failed, dq, t, slope, trial) = _rows((
                 rows, CS, const, ct, q, f, G, A, r, bq, br, ba, bf, bg, bmu,
                 brel, steps, failed, dq, t, slope, trial), ~done)

        A_new, f_new, G_new = _covariance(CS, trial, S2, const)
        mu_new, rel_new, r_new = _progress(trial, G_new, P, act_tol)
        evals += 1
        # near the optimum f is flat to rounding and only the residual moves
        moved = (r_new < r) | (f_new <= f + _ARM * t * slope)
        if math.isnan(np.add.reduce(f_new)):  # a rejected covariance ends
            failed = np.isnan(f_new)           # its row
            moved &= ~failed
        steps = steps + moved
        better = r_new < br  # so moved, as br <= r
        every = np.count_nonzero(moved) == len(moved)
        new = (trial, f_new, G_new, A_new, r_new)
        q, f, G, A, r = new if every else _pick(moved, new, (q, f, G, A, r))
        new = (trial, r_new, A_new, f_new, G_new, mu_new, rel_new)
        if (n := np.count_nonzero(better)) == len(better):
            bq, br, ba, bf, bg, bmu, brel = new
        elif n:
            bq, br, ba, bf, bg, bmu, brel = _pick(
                better, new, (bq, br, ba, bf, bg, bmu, brel))
        if callback is not None:
            for b in np.flatnonzero(moved):
                callback(q[b].copy(), float(f[b]))
        if not every:  # backtrack
            t = np.where(moved, t, t * _BT)
            trial = np.maximum(q + t[:, None] * dq, _Z)


def _pick(mask, new, old):
    """Rows of ``new`` where mask holds, else of ``old`` (or tuples)."""
    if isinstance(new, tuple):
        return tuple(_pick(mask, a, b) for a, b in zip(new, old))
    return np.where(mask.reshape((-1,) + (1,) * (new.ndim - 1)), new, old)


def _rows(x, mask):
    """The rows in mask of an array, or of every array of a tuple."""
    return tuple(_rows(a, mask) for a in x) if isinstance(x, tuple) \
        else x[mask]


def _step(go, Q, G, A, CT, p_max, old) -> tuple:
    """The Newton step of each row in ``go`` (None: every row) from its
    iterate (Q, gains G, A = J^-1 Htil), cut where it meets the boundary:
    (dq, step length, slope, trial) of every row, those not in go as in
    ``old``, and True if some step has no finite solution (and is NaN)."""
    if go is not None:
        Q, G, A, CT = Q[go], G[go], A[go], CT[go]
    dq, lost = _newton(CT, Q, G, A, p_max)
    # cut the step at the boundary and land exactly on zero there
    neg = dq < _Z
    ratios = np.divide(Q, -dq, out=None, where=neg)  # read where neg only
    step = np.minimum.reduce(ratios, axis=1, initial=1.0, where=neg)
    trial = Q + step[:, None] * dq
    np.maximum(trial, _Z, out=trial)
    cut = (step < _ONE).nonzero()[0]
    if cut.size:
        trial[cut, np.where(neg[cut], ratios[cut], math.inf).argmin(1)] = 0.0
    new = (dq, step, -(G[:, None, :] @ dq[:, :, None])[:, 0, 0], trial)
    if go is not None:  # into copies: no array is written in place
        new, old = tuple(x.copy() for x in old), new
        for x, y in zip(new, old):
            x[go] = y
    return new, lost


def _newton(CT, Q, G, A, p_max: float) -> tuple:
    """Equality-constrained Newton steps of phi, and whether a row's
    system has no finite solution (its step is NaN), from conj(Htil) as
    rows ``CT`` (B x L x M).  On the face of the powered streams and the
    parked ones whose gain exceeds their level mu, solves
    [H 1; 1^T 0][dq; dmu] = [gains - mu; p_max - sum q] with
    H = 2 Re(C o conj(D)), C = Htil^H A, D = A^H A, formed once for every
    stream, and one stacked solve per pass: a stream off its row's face
    has an identity row and column and a zero right-hand side, and a step
    of 0.  A parked stream pushed negative leaves the face and its row is
    solved again."""
    on = Q > _Z  # never empty: every iterate spends the budget
    mu = np.maximum.reduce(G, axis=1, initial=0.0, where=on)
    B, L = Q.shape
    At = np.ascontiguousarray(A.swapaxes(1, 2))
    Ai = At.swapaxes(1, 2)
    kkt = np.empty((B, L + 1, L + 1))
    kkt.fill(1.0)
    H = (CT @ Ai) * (At.conj() @ Ai).conj()
    np.multiply(_TWO, H.real, out=kkt[:, :L, :L])
    kkt[:, L, L] = 0.0
    rhs = np.empty((B, L + 1, 1))
    np.subtract(G, mu[:, None], out=rhs[:, :L, 0])
    np.subtract(p_max, np.add.reduce(Q, axis=1), out=rhs[:, L, 0])
    parked = np.count_nonzero(on) < on.size  # else the face is every stream
    if parked:  # the face, and the multiplier's row and column, always on it
        face = np.ones((B, L + 1), dtype=bool)
        np.logical_or(on, G > mu[:, None], out=face[:, :L])
    DQ, lost, rows = np.empty(Q.shape), False, slice(None)
    while True:  # rows: first every row, then those whose face shrank
        K, b = kkt[rows], rhs[rows]
        if parked:  # in place: the face only shrinks from pass to pass
            off = ~face[rows]
            np.putmask(K, off[:, :, None] | off[:, None, :], _Z)
            K.reshape(len(K), -1)[:, ::L + 2][off] = 1.0
            b[off] = _Z
        sol = _solve_kkt(K, b)
        if parked:  # lstsq, on a singular system, need not give them 0
            sol[off] = _Z
        DQ[rows] = sol[:, :L, 0]
        if not math.isfinite(np.add.reduce(sol, axis=None)):
            nan = np.arange(B)[rows][  # NaN steps for those rows
                ~np.logical_and.reduce(np.isfinite(sol), axis=(1, 2))]
            DQ[nan], lost = math.nan, lost or len(nan) > 0
        # a row already solved, or failed, has no bad stream
        bad = ~on & (DQ < 0) if parked else None
        if bad is None or not np.count_nonzero(bad):
            return DQ, lost
        rows = np.logical_or.reduce(bad, axis=1)
        face[:, :L] &= ~bad


def _solve_kkt(kkt, rhs) -> np.ndarray:
    """Stacked `np.linalg.solve`; per slice, lstsq if singular, on failure."""
    try:
        return np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        if len(kkt) == 1:
            return np.linalg.lstsq(kkt[0], rhs[0], rcond=None)[0][None]
        return np.array([_solve_kkt(k[None], b[None])[0]
                         for k, b in zip(kkt, rhs)])
