"""Uplink-downlink duality: beta scalars, D and Psi matrices, the power
transform, and the end-to-end theorem check.

Everything derives from the uplink state at powers q.  With
a_l = J^-1 htil_l the MMSE receiver is u_l = sqrt(q_l) a_l; factor it as
u_l = q_l^{-1/2} beta_l ubar_l with beta_l = q_l ||a_l|| and unit
ubar_l = a_l / ||a_l||.  The per-stream MSEs eps then satisfy two linear
systems over the active streams (E = diag(eps), B2 = diag(beta^2)):

    downlink:  (E - D - B2 Psi)   p = sigma2 beta^2
    uplink:    (E - D - B2 Psi^T) q = sigma2 beta^2

where Psi_ij = |htil_i^H ubar_j|^2 off the diagonal.  Psi = Psi^T makes
the two systems coincide, which is exactly what holds at a
KKT-certified power allocation; then p = q and the downlink conversion
is a plain copy.

One stacked kernel computes all of it on arrays: per row the powers q,
the receivers J^-1 Htil and the columns Htil, and for the theorem check
the channel and beamformer stacks of each run of users.  It runs every
step once on the whole stack at full size, B x L x L, whatever each
row's active count: beta, D, Psi and eps (`_groups`), the transform with
its condition and negative-power tests and the downlink powers it gives
(`_powers`, which the design loop's legacy check also runs), and for the
theorem check the downlink MSEs under the factored receivers and the
three gaps (`_check`, per run of equal-shape users: one product H_k v_l
and one slice of streams each).  A stream at or below the activity
threshold is masked, not gathered out (a stack with none takes no
masking step): beta 0, so D and eps 1, a zero row and column of Psi,
and a unit diagonal entry and zero right-hand side in the transform, so
its power is exactly 0.  The condition test bounds cond_2 by the 1- and
inf-norms of A and its inverse over the active rows and columns and
takes an SVD of the active block only on the rows that bound leaves
open.  Rows never leave the stack.  A row with an error on entry (the
solver's) or from `_groups`' tests keeps it and its place with every
stream masked off, like an off stream: its transform matrix is the
identity and its x exactly 0.  A singular or non-finite transform matrix
is NaN in its own row of the inverse and the solve (`objective._slices`,
the kernel's rule), and a row the condition test rejects has its x set
to NaN.  Every row with an error
keeps its first one, and its p and gaps read NaN at the end.  Every
stacked step is elementwise, an exact max, a LAPACK call per slice, or a
matmul or sum whose slices keep the layout the computation on one
instance has, so a row's numbers are bitwise what a stack of one gives.
`verify` calls `_check` once per batch of trials on the generator's and
the solver's arrays, with the solver's errors (its negative control
`_psi_asymmetries`, with the kernel's).  The public functions
`build_duality_data` (which gathers the active block),
`transform_power`, `transform_power_uplink` and `verify_theorem` are
stacks of one over these cores; there are no list functions.  A stack
shares one sigma2, p_max and activity threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import (InfeasibleTransformError, NumericsError,
                     SingularTransformError, ValidationError)
from .model import (ChannelSet, PrecoderSet, _norms, _run_stacks, _runs,
                    build_effective_channel)
from .objective import UplinkState, _slices, _unit_rows, make_state
from .solver import ACTIVE_TOL

#: Condition number above which the transform matrix is rejected rather
#: than solved; a near-singular transform means the MSE tuple is bogus,
#: not that regularization is wanted.
COND_LIMIT = 1e12


@dataclass(frozen=True)
class DualityData:
    """Active-stream duality quantities.

    ``D`` holds the diagonal entries of the paper-level diagonal matrix;
    ``Psi`` is the L_A x L_A coupling matrix with an exactly zero
    diagonal.
    """

    beta: np.ndarray
    D: np.ndarray
    Psi: np.ndarray
    eps: np.ndarray
    active: np.ndarray
    n_streams: int


@dataclass(frozen=True)
class DualityReport:
    """Measured theorem quantities for one instance.

    ``mse_gap`` compares the uplink MSEs against the downlink MSEs
    achieved by the duality-factored receivers (the receivers the
    transform is built around; equality is the theorem's claim).
    """

    p: np.ndarray
    q: np.ndarray
    psi_asymmetry: float
    pq_gap: float
    mse_gap: float
    sum_power_dl: float


def psi_asymmetry(Psi: np.ndarray) -> float:
    """max |Psi - Psi^T| normalized by max(1, max |Psi|)."""
    return float(_asymmetry(np.asarray(Psi)[None])[0])


def _asymmetry(Psi: np.ndarray) -> np.ndarray:
    """`psi_asymmetry` of every slice of the stack Psi (B x m x m)."""
    if Psi.shape[1] <= 1:
        return np.zeros(len(Psi))
    return (np.abs(Psi - Psi.swapaxes(1, 2)).max(axis=(1, 2))
            / np.maximum(1.0, np.abs(Psi).max(axis=(1, 2))))


def _groups(Q, A, CS, tol, err):
    """Beta, D, Psi and eps of each row of a stack of one shape: powers
    ``Q`` (B x L), receivers A = J^-1 Htil (B x M x L) and columns
    ``CS`` (B x M x L), on the streams whose power exceeds ``tol``.

    Returns g: q and the active mask ``on`` (B x L), the unit receivers
    a_l / ||a_l|| of every stream as rows of ``ubar`` (B x L x M,
    normalized once for C and the downlink check), beta, D and eps (B x
    L; 0, 1 and 1 off) and Psi (B x L x L; a zero row and column off).
    ``err`` holds per row None or its error, in and out: a row with an
    error on entry, or whose quantities cannot be built (it gets its error
    here), keeps its place with every stream off, its D and eps then
    undefined (NaN where its q or A is).
    """
    # a stream per row, contiguous, so that sums over M add in one order
    At = np.ascontiguousarray(A.swapaxes(1, 2))
    Ct = np.ascontiguousarray(CS.swapaxes(1, 2))
    norms = _norms(At, 2)
    ubar = _unit_rows(At, norms)  # `objective.mmse_directions`, as rows
    on = Q > tol
    dead = np.array([e is not None for e in err], dtype=bool)
    idle = ~np.logical_or.reduce(on, axis=1)
    fail = ~dead & (idle | np.logical_or.reduce(
        (Q < 0) | (on & (norms == 0.0)), 1))
    for j in np.flatnonzero(fail).tolist():
        err[j] = (
            ValidationError("powers must be nonnegative")
            if (Q[j] < 0).any()
            else NumericsError("no active streams to transform")
            if idle[j] else
            NumericsError("zero MMSE receiver on an active stream"))
    on[dead | fail] = False
    L = Q.shape[1]
    g = SimpleNamespace(q=Q, on=on, ubar=ubar, beta=Q * norms)
    # C_ij = htil_i^H ubar_j; ubar as columns, column-major
    C = Ct.conj() @ ubar.swapaxes(1, 2)
    g.Psi = np.abs(C) ** 2
    g.Psi.reshape(len(Q), L * L)[:, ::L + 1] = 0.0
    if np.count_nonzero(on) < on.size:  # the off streams' zeros
        off = ~on
        g.beta[off] = 0.0
        g.Psi[off[:, :, None] | off[:, None, :]] = 0.0
    s = C.diagonal(0, 1, 2)
    g.eps = 1.0 - g.beta * s.real     # 1 - q_l htil_l^H J^-1 htil_l
    g.D = np.abs(g.beta * s) ** 2 - 2.0 * g.beta * s.real + 1.0
    return g


def _transform(beta, D, eps, coupling, sigma2, on=None):
    """Solve (diag(eps - D) - B2 coupling) x = sigma2 beta^2 for each row
    of the stacks (B x m, coupling B x m x m) on the streams of the mask
    ``on`` (B x m; None: every stream), an off one with beta 0 and a zero
    column of coupling: its unit diagonal entry makes its x exactly 0.

    Returns x (B x m; NaN on a rejected matrix's row) and per row None or
    its error: a non-finite matrix, a condition number above
    `COND_LIMIT`, or a power below -1e-9.  The inverse and the solve run
    through `objective._slices`, so a singular or non-finite matrix is
    NaN in its own row alone.  A row takes an SVD (`np.linalg.cond`) of
    its active block only when its bound cond_2(A) <= sqrt(|A|_1 |A|_inf
    |A^-1|_1 |A^-1|_inf) (Higham, ch. 6), over the active rows and
    columns, exceeds COND_LIMIT / 2 or is not finite (NaN where its
    inverse is).
    """
    B, m = beta.shape
    A, b2 = np.zeros((B, m, m)), beta ** 2
    A.reshape(B, m * m)[:, ::m + 1] = eps - D
    A -= b2[:, :, None] * coupling
    off = None if on is None or np.count_nonzero(on) == on.size else ~on
    if off is not None:
        A.reshape(B, m * m)[:, ::m + 1][off] = 1.0
    a, ai = np.abs(A), np.abs(_slices(np.linalg.inv, A))  # the norm bound
    if off is not None:  # the norms of the active block alone
        for x in (a, ai):
            x.reshape(B, m * m)[:, ::m + 1][off] = 0.0
    with np.errstate(over="ignore"):
        cond = np.sqrt(a.sum(1).max(1) * a.sum(2).max(1)
                       * ai.sum(1).max(1) * ai.sum(2).max(1))
    for j in np.flatnonzero(~(cond <= COND_LIMIT / 2)).tolist():  # an SVD
        blk = A[j] if off is None else A[j][np.ix_(on[j], on[j])]
        cond[j] = math.nan if np.isnan(blk).any() else np.linalg.cond(blk)
    ok = cond <= COND_LIMIT
    every = np.count_nonzero(ok) == B
    x = _slices(np.linalg.solve, A, (sigma2 * b2)[:, :, None])[:, :, 0]
    if not every:
        x[~ok] = math.nan
    negative = x < -1e-9
    errs = [None] * B
    if every and not np.count_nonzero(negative):
        return x, errs
    for j in np.flatnonzero(
            ~ok | np.logical_or.reduce(negative, axis=1)).tolist():
        errs[j] = (
            NumericsError("non-finite power-transform matrix")
            if math.isnan(cond[j])
            else SingularTransformError(
                "power-transform matrix condition number exceeds "
                + f"{COND_LIMIT:.0e}".replace("+", ""))
            if not ok[j]
            else InfeasibleTransformError(
                "transform produced a negative power; the MSE tuple is not "
                "achievable"))
    return x, errs


def _powers(Q, A, CS, tol, sigma2, err):
    """The legacy transform at noise power ``sigma2`` on each row of a
    stack as `_groups` takes it (``err`` too).

    Returns (g, P): g of `_groups`, and the downlink powers P (B x L),
    max(x, 0), exactly 0 on the off streams, so on every stream of a row
    with an error on entry or from `_groups`.  A row whose transform
    fails gets its error in ``err``; its P is not a power allocation.
    """
    g = _groups(Q, A, CS, tol, err)
    x, errs = _transform(g.beta, g.D, g.eps, g.Psi, sigma2, g.on)
    if any(errs):  # a row's first error stands
        for j, e in enumerate(errs):
            err[j] = err[j] or e
    return g, np.maximum(x, 0.0)


def _psi_asymmetries(Q, A, CS, err) -> np.ndarray:
    """`psi_asymmetry` of the coupling of each row of a stack of one
    shape (as `_groups` takes it, ``err`` too) over its powered streams;
    NaN on a row with an error."""
    out = _asymmetry(_groups(Q, A, CS, 0.0, err).Psi)
    out[[e is not None for e in err]] = math.nan
    return out


def build_duality_data(state: UplinkState,
                       active_tol: float = 0.0) -> DualityData:
    """Assemble beta, D, Psi and the uplink MSEs eps on the active
    streams of ``state``, all from a_l = J^-1 htil_l.

    Inactive rows and columns are deleted; the caller re-inserts zeros
    afterwards.
    """
    err = [None]
    g = _groups(state.q[None], state.Jinv_cols[None], state.eff.cols[None],
                float(active_tol), err)
    if err[0] is not None:
        raise err[0]
    on = g.on[0]
    return DualityData(beta=g.beta[0][on], D=g.D[0][on],
                       Psi=g.Psi[0][np.ix_(on, on)], eps=g.eps[0][on],
                       active=np.flatnonzero(on), n_streams=len(on))


def _solve_transform(dd: DualityData, sigma2: float,
                     coupling: np.ndarray) -> np.ndarray:
    x, errs = _transform(dd.beta[None], dd.D[None], dd.eps[None],
                         coupling[None], float(sigma2))
    if errs[0] is not None:
        raise errs[0]
    out = np.zeros(dd.n_streams)
    out[dd.active] = np.maximum(x[0], 0.0)
    return out


def transform_power(dd: DualityData, sigma2: float) -> np.ndarray:
    """Downlink powers achieving the per-stream MSEs in ``dd``.

    Solves the coupling system with Psi; inactive streams get exactly
    zero power.
    """
    return _solve_transform(dd, sigma2, dd.Psi)


def transform_power_uplink(dd: DualityData, sigma2: float) -> np.ndarray:
    """Reconstruct the uplink powers from (eps, D, beta, Psi).

    Uses the transposed coupling; round-trips the q that produced ``dd``
    exactly (up to the linear solve), optimal or not.
    """
    return _solve_transform(dd, sigma2, dd.Psi.T)


def verify_theorem(ch: ChannelSet, uplink: PrecoderSet, q, *,
                   state: UplinkState | None = None) -> DualityReport:
    """End-to-end theorem check at one power allocation.

    Builds the uplink MMSE operating point, converts it to the downlink
    via the transform with the MMSE directions as beamformers, evaluates
    the downlink MSEs, and reports the asymmetry of Psi together with the
    p-q and MSE gaps.  Streams whose power is at most `solver.ACTIVE_TOL`
    P are off in both directions (MSE 1).  Meaningful bounds hold only
    when q carries a passing KKT certificate; feeding a non-optimal q is
    how the negative control is produced.  ``state`` is the uplink state
    at q under ``uplink`` when the caller holds it (a solve's
    ``certificate.state``); it is built from ``ch``, ``uplink`` and q
    otherwise.
    """
    q = np.asarray(q, dtype=float)
    if state is None:
        state = make_state(build_effective_channel(ch, uplink), q, ch.sigma2)
    elif not np.array_equal(state.q, q):
        raise ValidationError("state is not the uplink state at q")
    runs = _runs(ch.dims.N, ch.dims.L)
    res = _check(state.q[None], state.Jinv_cols[None], state.eff.cols[None],
                 _run_stacks(runs, ch.H), _run_stacks(runs, uplink.by_user),
                 ch.dims, float(ch.sigma2), float(ch.p_max))
    if res.err[0] is not None:
        raise res.err[0]
    return DualityReport(res.p[0], state.q, *res.gaps.tolist()[0])


def _check(Q, A, CS, H, V, dims, sigma2, p_max, err=None):
    """The theorem check on each row of a stack of one ``dims``: powers
    ``Q``, receivers ``A`` and columns ``CS`` as `_groups` takes them,
    per run of n users with equal (N_k, L_k) (`model._runs`) the channels
    H[r] (B x n x M x N_k) and uplink beamformers V[r] (B x n x N_k x
    L_k), at noise power sigma2 and budget p_max, with the activity
    threshold `solver.ACTIVE_TOL` p_max.  ``err`` holds per row None or
    its error, in and out (None: every row starts without one), as
    `_groups` takes it: a row with an error is checked with every stream
    off, in its place.

    Returns the downlink powers p (B x L), gaps (B x 4: the Psi
    asymmetry, the p-q and MSE gaps and the downlink sum power) and err;
    a row with an error has NaN numbers.
    """
    err = [None] * len(Q) if err is None else err
    g, P = _powers(Q, A, CS, ACTIVE_TOL * p_max, sigma2, err)
    eps_dl = _downlink_mse(H, V, dims, g, P, sigma2)
    gaps = np.array((
        _asymmetry(g.Psi),
        np.abs(P - g.q).max(axis=1) / max(1.0, p_max),
        np.abs(eps_dl - g.eps).max(axis=1),
        np.add.reduce(P, axis=1))).T
    bad = [e is not None for e in err]
    P[bad], gaps[bad] = math.nan, math.nan
    return SimpleNamespace(p=P, gaps=gaps, err=err)


def _downlink_mse(H, V, d, g, P, sigma2) -> np.ndarray:
    """Downlink per-stream MSEs (B x L) of each row of the run stacks
    ``H`` and ``V`` (as `_check` takes them, of dims ``d``), with the
    quantities g of `_groups` on the same rows, at powers P under the
    unit MMSE directions as beamformers and the duality-factored receivers
    v_l = beta_l p_l^{-1/2} vbar_l, computed directly from the channel
    model (signal, cross-stream, and noise terms summed explicitly): the
    coefficients v_l^H H_k^H ubar_j come from the channel and beamformer
    stacks as (H_k v_l)^H ubar_j, one product per run, never from the
    effective columns or `_groups`' C.

    Inactive and zero-power streams carry a zero receiver and an MSE of
    exactly 1.  Not exported: arbitrary-receiver downlink evaluation stays
    internal.
    """
    live = P > 0.0
    # beta_l / sqrt(p_l) where the receiver is on, else 0
    scale = np.divide(g.beta, np.sqrt(P), out=np.zeros(P.shape), where=live)
    # row l: coef_lj = sqrt(p_j) (H_k v_l)^H ubar_j, k the owner of stream
    # l; a run's streams are one block, its H_k v_l one stacked matmul
    B, L = P.shape
    coef = np.empty((B, L, L), dtype=complex)
    v_norms = np.empty(P.shape)
    end = 0
    for h, v in zip(H, V):
        _, n, _, c = v.shape
        end, run = end + n * c, slice(end, end + n * c)
        v = v * scale[:, run].reshape(B, n, 1, c)
        hv = (h @ v).swapaxes(2, 3).reshape(B, n * c, d.M)  # H_k v_l as rows
        coef[:, run] = hv.conj() @ g.ubar.swapaxes(1, 2)
        v_norms[:, run] = _norms(v, 2).reshape(B, n * c)
    coef *= np.sqrt(P)[:, None, :]
    cross = np.abs(coef) ** 2
    cross.reshape(B, L * L)[:, ::L + 1] = 0.0
    m = (np.abs(np.diagonal(coef, axis1=1, axis2=2) - 1.0) ** 2
         + np.add.reduce(cross, axis=2) + sigma2 * v_norms ** 2)
    return np.where(live, m, 1.0)
