"""Sum-MSE precoder design in the virtual uplink, by an alternation that
safeguarded Anderson acceleration speeds up.

One evaluation of the plain map G at uplink beamformers vbar (`_step`)
runs on the array cores as a stack of one: (1) the certified power
allocation q for the effective columns of vbar (`solver._solve_stack`,
warm-started from the last q), (2) the unit MMSE directions of its
receivers J^-1 htil_l as downlink beamformers with the downlink powers
p := q, which the transpose symmetry of the coupling matrix justifies at
a certified q, then (3) the role swap: the normalized downlink MMSE
receivers, from one kernel call and one normalization per run of users
with equal (N_k, L_k) on the dual channels H_k^H Ubar, are G(vbar).  The
beamformers stay run stacks, and the channel stacks both ends read are
built once per design.  On ``path="both"`` the legacy duality transform
(`duality._powers`) feeds neither the role swap nor the safeguard: it runs
once the loop ends or raises, stacked over the accepted iterates.

A design starts from each user's L_k dominant right singular vectors of
H_k (``init_mode="channel_svd"``, the default) or from seeded random unit
columns (``"random_unit"``).

The plain alternation vbar <- G(vbar) lowers the sum-MSE at every step
but converges only linearly.  `design` extrapolates instead (type-II
Anderson acceleration; Walker & Ni, SIAM J. Numer. Anal. 49(4), 2011):
from the last `ANDERSON_MEMORY` accepted pairs (x_i, G(x_i)), stacked as
real vectors, it forms x+ = G(x_k) - dG gamma with gamma the
least-squares fit of the residual differences, and renormalizes every
column.  The safeguard (after Zhang, O'Donoghue & Boyd, SIAM J. Optim.
2020) evaluates x+ with a full certified power solve and accepts it only
if its sum-MSE is strictly below the current one; otherwise — also for a
non-finite or zero column and for a candidate whose solve fails — the
plain step G(x_k) is taken and the history cleared.  Every accepted
iterate therefore carries a KKT-certified q, the sum-MSE trace falls
monotonically, and `max_outer_iters` counts accepted iterates, so a
design makes at most twice that many power solves.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .duality import _powers
from .errors import ConvergenceError, NumericsError, ValidationError
from .model import (DOWNLINK, VIRTUAL_UPLINK, ChannelSet, EffectiveChannel,
                    PrecoderSet, _effective_cols, _norms, _run_stacks, _runs,
                    _seed_words, _unit_columns, is_count, is_real, validate)
from .objective import _covariance, _sum_mse, _unit_rows
from .solver import (ACTIVE_TOL, STACK_BYTES, SolverConfig, _certify,
                     _solve_stack)

SIMPLIFIED = "simplified_pq"
BOTH = "both"

#: Accepted (x, G(x)) pairs the extrapolation draws on.
ANDERSON_MEMORY = 5


@dataclass
class DesignConfig:
    max_outer_iters: int = 200
    smse_rel_tol: float = 1e-8
    init_mode: str = "channel_svd"  # channel_svd | random_unit
    path: str = SIMPLIFIED          # simplified_pq | both
    seed: int | None = None         # random_unit only; None: the instance's
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if not (is_count(self.max_outer_iters) and self.max_outer_iters >= 1):
            raise ValidationError("max_outer_iters must be an integer >= 1")
        if not (is_real(self.smse_rel_tol)
                and 0 < self.smse_rel_tol < math.inf):
            raise ValidationError("smse_rel_tol must be finite and positive")
        if self.seed is not None and not (is_count(self.seed)
                                          and self.seed >= 0):
            raise ValidationError("seed must be an integer >= 0 or None")
        if self.init_mode not in ("random_unit", "channel_svd"):
            raise ValidationError(f"unknown init_mode {self.init_mode!r}")
        if self.path not in (SIMPLIFIED, BOTH):
            raise ValidationError(f"unknown path {self.path!r}")


@dataclass
class DesignResult:
    uplink: PrecoderSet         # (Vbar, q)
    downlink: PrecoderSet       # (Ubar, p)
    smse_trace: list            # one entry per accepted iterate
    iters: int                  # accepted iterates, len(smse_trace)
    transform_times: list       # stacked legacy check's seconds / iters
    shortcut_times: list        # seconds per iterate in p := q
    path_gap_trace: list        # max |legacy p - q| per iterate (both)
    converged: bool
    rejected: int               # extrapolations the safeguard refused
    solve_steps: list           # Newton steps per accepted iterate's solve


class _Step(NamedTuple):
    """One evaluation of the plain map at the uplink beamformers vbar;
    `_iterate` drops ubar and g from a step once the next is accepted."""

    vbar: list              # per run of users n x N_k x L_k blocks
    q: np.ndarray           # certified uplink powers
    smse: float             # certified sum-MSE at (vbar, q)
    ubar: np.ndarray | None  # M x L_tot unit downlink beamformers
    g: list | None          # G(vbar): the next plain iterate, as vbar
    t_shortcut: float
    steps: int              # Newton steps of the power solve
    a: np.ndarray | None    # path "both": receivers J^-1 Htil at q (M x L)
    cols: np.ndarray | None  # path "both": effective columns of vbar


@dataclass(frozen=True)
class _Instance(ChannelSet):
    """The instance with what every step of its design reads: its channels
    per run of users with equal (N_k, L_k) (`model._run_stacks`) and their
    H_k^H (n x N_k x M)."""

    runs: tuple = ()
    dual: tuple = ()


def _instance(ch: ChannelSet) -> _Instance:
    """``ch`` with its run stacks and their H_k^H."""
    runs = _run_stacks(_runs(ch.dims.N, ch.dims.L), ch.H)
    return _Instance(ch.dims, ch.H, ch.sigma2, ch.p_max, ch.seed, runs,
                     [h[0].conj().swapaxes(1, 2) for h in runs])


def _init_uplink_dirs(inst: _Instance, cfg: DesignConfig) -> list:
    """The first uplink beamformers, per run of users n x N_k x L_k:
    each user's L_k dominant right singular vectors of H_k (one stacked
    SVD per run, bitwise the per-user full SVD), or on "random_unit" the
    unit columns `random_unit_precoders` draws for [seed, 101].

    With N_k <= M, LAPACK forms the N_k x N_k right factor alike with or
    without the M x M left factors (2 MiB of them at M = 64, K = 32), so
    those are formed only where N_k > M, whose reduced right factor
    differs from the full one in its last bits."""
    d = inst.dims
    if cfg.init_mode == "channel_svd":
        return [np.linalg.svd(h[0], full_matrices=N > d.M)[2].conj()
                .swapaxes(1, 2)[:, :, :c].copy()
                for h, (_, (N, c)) in zip(inst.runs, _runs(d.N, d.L))]
    seed = cfg.seed if cfg.seed is not None else inst.seed
    return [v[0] for v in _unit_columns(d.N, d.L, _seed_words(
        [[0 if seed is None else seed, 101]]))]


def _step(ch: _Instance, vbar: list, q0, cfg: DesignConfig) -> _Step:
    """Certified power solve at vbar (per run of users, n x N_k x L_k;
    warm-started from q0), the downlink powers p := q and the role swap
    to G(vbar), on the array cores at B = 1.

    A failed power solve raises its error, a ConvergenceError with its
    best iterate and certificate; a downlink covariance the kernel
    rejects raises NumericsError.
    """
    d = ch.dims
    cols = _effective_cols(d, ch.runs, [v[None] for v in vbar])
    res = _solve_stack(cols, ch.sigma2, ch.p_max, cfg.solver, q0)
    if res.err[0] is not None:
        raise _certify(res, EffectiveChannel(cols[0]), ch.sigma2)
    q = res.q[0]

    # downlink powers p := q, timed around itself only
    t0 = time.perf_counter()
    p = q.copy()
    t_sc = time.perf_counter() - t0

    # the unit MMSE directions (`objective.mmse_directions`) and the role
    # swap: the normalized downlink MMSE receivers, from the kernel on the
    # dual channels H_k^H Ubar at q := p, one call per run whose user j
    # keeps the run's j-th block of streams; a stream with p = 0 has a zero
    # receiver and keeps its vbar
    At = np.ascontiguousarray(res.a[0].T)
    ubar = _unit_rows(At, _norms(At, 1)).T
    g, s, end = [], np.sqrt(p), 0
    for Hh, v in zip(ch.dual, vbar):
        A, f, _ = _covariance(Hh @ ubar, p[None], ch.sigma2)
        if math.isnan(np.add.reduce(f)):
            raise NumericsError("downlink covariance not positive definite "
                                "or not finite")
        (n, N, c), X = v.shape, A * s
        j, end, run = np.arange(n), end + n * c, slice(end, end + n * c)
        x = X[:, :, run].reshape(n, N, n, c)[j, :, j]
        nrm = _norms(X, 1)[:, run].reshape(n, n, c)[j, j][:, None]
        g.append(np.divide(x, nrm, out=v.copy(), where=nrm > 0))
    smse = _sum_mse(d.M, d.L_tot, float(ch.sigma2), res.phi.tolist()[0])
    return _Step(vbar, q, smse, ubar, g, t_sc, int(res.steps[0]),
                 *((res.a[0], cols[0]) if cfg.path == BOTH else (None,) * 2))


def _legacy_check(steps: list, ch: ChannelSet, cfg: DesignConfig):
    """On path "both", the legacy transform (`duality._powers`) over the
    accepted iterates ``steps``, stacked in chunks whose receivers and
    columns take at most `STACK_BYTES`: per iterate max |legacy p - q| and
    an even share of the time, or the error of the first iterate whose
    transform fails.  ([], []) on the other path."""
    n, gaps = len(steps) if cfg.path == BOTH else 0, []
    t0, size = time.perf_counter(), max(1, STACK_BYTES // (
        32 * ch.dims.M * ch.dims.L_tot))
    for i in range(0, n, size):
        Q, A, CS = (np.array(x) for x in zip(*(
            (s.q, s.a, s.cols) for s in steps[i:i + size])))
        err = [None] * len(Q)
        g, P = _powers(Q, A, CS, ACTIVE_TOL * ch.p_max, float(ch.sigma2),
                       err)
        if any(err):
            raise next(e for e in err if e is not None)
        gaps += np.abs(P - g.q).max(axis=1).tolist()
    return gaps, [(time.perf_counter() - t0) / max(n, 1)] * n


def _stack(blocks: list) -> np.ndarray:
    """Complex blocks (per run of users) as one real vector."""
    return np.concatenate([b.ravel() for b in blocks]).view(float)


def _anderson(xs, gs) -> np.ndarray:
    """Type-II Anderson extrapolation G(x_k) - dG gamma from the stacked
    pairs (x_i, G(x_i)), oldest first, with gamma fitting the residuals
    f_i = G(x_i) - x_i in the least-squares sense."""
    X, G = np.array(xs).T, np.array(gs).T
    F = G - X
    gamma = np.linalg.lstsq(F[:, 1:] - F[:, :-1], F[:, -1], rcond=None)[0]
    return G[:, -1] - (G[:, 1:] - G[:, :-1]) @ gamma


def _unit_blocks(x: np.ndarray, like: list) -> list | None:
    """The stacked vector x as blocks shaped as the run stacks ``like``
    (n x N_k x L_k), every column scaled to unit norm; None when a column
    is zero or non-finite."""
    z, out, start = x.view(complex), [], 0
    for v in like:
        blk = z[start:start + v.size].reshape(v.shape)
        start += v.size
        norms = _norms(blk, 1)
        if np.count_nonzero((norms > 0) & (norms < math.inf)) < norms.size:
            return None
        out.append(blk / norms[:, None, :])
    return out


def _iterate(inst: _Instance, x0: list, cfg: DesignConfig, steps: list):
    """The safeguarded accelerated loop from the uplink beamformers x0,
    appending every accepted iterate to ``steps``.  Returns whether it
    converged and the number of extrapolations the safeguard refused."""
    steps.append(cur := _step(inst, x0, None, cfg))
    g, rejected = _stack(cur.g), 0
    xs = deque([_stack(cur.vbar)], maxlen=ANDERSON_MEMORY)
    gs = deque([g], maxlen=ANDERSON_MEMORY)
    while len(steps) < cfg.max_outer_iters:
        nxt = None
        if len(xs) >= 2:
            cand = _unit_blocks(_anderson(xs, gs), cur.vbar)
            if cand is not None:
                try:
                    nxt = _step(inst, cand, cur.q, cfg)
                except (ConvergenceError, NumericsError):
                    pass
            if nxt is None or not nxt.smse < cur.smse:
                nxt = None
                rejected += 1
                xs.clear()
                gs.clear()
        # a plain step's x is the last G(x), stacked as the last g was
        x = _stack(nxt.vbar) if nxt is not None else g
        if nxt is None:
            nxt = _step(inst, cur.g, cur.q, cfg)
        prev, cur, g = cur, nxt, _stack(nxt.g)
        steps[-1] = prev._replace(ubar=None, g=None)  # only the last is read
        steps.append(cur)
        xs.append(x)
        gs.append(g)
        if (prev.smse - cur.smse) / max(prev.smse, 1e-300) < cfg.smse_rel_tol:
            return True, rejected
    return False, rejected


def design(ch: ChannelSet, cfg: DesignConfig | None = None) -> DesignResult:
    """Run the accelerated design until the relative sum-MSE decrease
    between accepted iterates falls below cfg.smse_rel_tol.

    Raises ConvergenceError (carrying the partial result) if
    cfg.max_outer_iters accepted iterates pass while the trace is still
    falling faster than the tolerance, and the power solve's own
    ConvergenceError (no partial result) if a plain step fails to certify
    (NumericsError if a covariance of the plain step cannot be factored).
    On path "both" an accepted iterate's failed legacy check raises first.
    """
    cfg = cfg or DesignConfig()
    if bad := validate(ch):
        raise ValidationError("; ".join(bad))
    d, inst, steps = ch.dims, _instance(ch), []
    try:
        converged, rejected = _iterate(inst, _init_uplink_dirs(inst, cfg),
                                       cfg, steps)
    except Exception:
        _legacy_check(steps, ch, cfg)  # its error comes before the loop's
        raise
    gaps, times = _legacy_check(steps, ch, cfg)

    cur = steps[-1]
    result = DesignResult(
        uplink=PrecoderSet(direction=VIRTUAL_UPLINK,
                           by_user=tuple(b for v in cur.vbar for b in v),
                           powers=cur.q),
        downlink=PrecoderSet(direction=DOWNLINK,
                             by_user=tuple(cur.ubar[:, d.user_streams(k)]
                                           for k in range(d.K)),
                             powers=cur.q.copy()),
        smse_trace=[s.smse for s in steps], iters=len(steps),
        transform_times=times, shortcut_times=[s.t_shortcut for s in steps],
        path_gap_trace=gaps, converged=converged, rejected=rejected,
        solve_steps=[s.steps for s in steps])
    if not converged:
        raise ConvergenceError(
            f"sum-MSE still decreasing after {cfg.max_outer_iters} outer "
            "iterations", partial=result)
    return result
