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

One stacked kernel computes all of it for a batch of uplink states, one
row each.  It gathers each row's active streams, groups the rows by
system shape and active count m, and runs every step of a group on
B x m x m stacks: beta, D, Psi and eps (`_groups`), the transform with
its condition and negative-power tests (`_transform`), and for the
theorem check the downlink MSEs under the factored receivers and the
three gaps (`verify_theorems`).  A row that fails a test gets its error
and leaves its group; the other rows go on.  Every stacked step is
elementwise, an exact max, a LAPACK call per slice, or a matmul or sum
whose slices keep the layout the computation on one instance has, so a
row's numbers are bitwise what a stack of one gives.  `verify` calls
`verify_theorems` once per batch of trials (its negative control
`build_duality_batch`); `build_duality_data`, `transform_power`,
`transform_power_uplink` and `verify_theorem` are stacks of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import (DualPrecError, InfeasibleTransformError, NumericsError,
                     SingularTransformError, ValidationError)
from .model import ChannelSet, PrecoderSet, build_effective_channel
from .objective import UplinkState, _unit_rows, make_state
from .solver import SolverConfig

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


def _norms(x: np.ndarray, axis: int) -> np.ndarray:
    """Euclidean norms along ``axis``: `np.linalg.norm`'s arithmetic
    without its argument handling."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=axis))


def _groups(keys, states, tols, out):
    """Beta, D, Psi and eps of every state, on the streams whose power
    exceeds the row's threshold in ``tols``.

    Rows of one key (states of one shape) and one active count m form a
    group.  Yields (rows, g) per group: rows index ``states``, and g holds
    q and the active mask on (B x L), the receivers a_l as rows of ``at``
    (B x L x M) with their norms (B x L), beta, D and eps (B x m) and Psi
    (B x m x m).  A row whose quantities cannot be built gets its error in
    ``out`` instead.
    """
    by_key = {}
    for i, key in enumerate(keys):
        by_key.setdefault(key, []).append(i)
    for idx in by_key.values():
        Q = np.array([states[i].q for i in idx])
        # a stream per row: slice b is the transpose of the state's
        # column-major J^-1 Htil, so sums over M add in the same order
        At = np.array([states[i].Jinv_cols.T for i in idx])
        norms = _norms(At, 2)
        on = Q > np.array([tols[i] for i in idx])[:, None]
        m = np.add.reduce(on, axis=1)
        sizes = m.tolist()
        bad = (Q < 0) | (on & (norms == 0.0))
        if 0 in sizes or bad.any():
            for j in np.flatnonzero(np.logical_or.reduce(bad, axis=1)
                                    | (m == 0)).tolist():
                out[idx[j]] = (
                    ValidationError("powers must be nonnegative")
                    if (Q[j] < 0).any()
                    else NumericsError("no active streams to transform")
                    if sizes[j] == 0 else
                    NumericsError("zero MMSE receiver on an active stream"))
                sizes[j] = 0
        for size in sorted(set(sizes) - {0}):
            g = SimpleNamespace(q=Q, on=on, at=At, norms=norms)
            rows = idx
            if sizes.count(size) < len(idx):
                sel = [k == size for k in sizes]
                rows = [i for i, s in zip(idx, sel) if s]
                g = SimpleNamespace(**{k: v[sel] for k, v in vars(g).items()})
            Ct = np.array([states[i].eff.cols.T for i in rows])
            a, c, n, q = g.at, Ct, g.norms, g.q
            if size < on.shape[1]:  # the active streams, in stream order
                a, c = (x[g.on].reshape(len(rows), size, -1) for x in (a, c))
                n, q = (x[g.on].reshape(len(rows), size) for x in (n, q))
            g.beta = q * n
            # C_ij = htil_i^H ubar_j; ubar as columns, column-major
            C = c.conj() @ (a / n[:, :, None]).swapaxes(1, 2)
            s = np.diagonal(C, axis1=1, axis2=2)
            g.eps = 1.0 - g.beta * s.real     # 1 - q_l htil_l^H J^-1 htil_l
            g.D = np.abs(g.beta * s) ** 2 - 2.0 * g.beta * s.real + 1.0
            g.Psi = np.abs(C) ** 2
            g.Psi.reshape(len(rows), -1)[:, ::size + 1] = 0.0
            yield rows, g


def _transform(beta, D, eps, coupling, sigma2):
    """Solve (diag(eps - D) - B2 coupling) x = sigma2 beta^2 for each row
    of the stacks (B x m, coupling B x m x m, sigma2 of length B).

    Returns x (B x m, NaN on failed rows) and per row None or its error:
    a non-finite matrix, a condition number above `COND_LIMIT`, or a
    power below -1e-9.
    """
    B, m = beta.shape
    A = np.zeros((B, m, m))
    A.reshape(B, -1)[:, ::m + 1] = eps - D
    A -= beta[:, :, None] ** 2 * coupling
    try:
        cond = np.linalg.cond(A)
    except np.linalg.LinAlgError:  # the SVD of a slice with a NaN failed
        cond = np.array([math.nan if np.isnan(a).any() else np.linalg.cond(a)
                         for a in A])
    ok = cond <= COND_LIMIT
    every = ok.all()
    rhs = (sigma2[:, None] * beta ** 2)[:, :, None]
    if every:
        x = np.linalg.solve(A, rhs)[:, :, 0]
    else:
        x = np.full((B, m), math.nan)
        if ok.any():
            x[ok] = np.linalg.solve(A[ok], rhs[ok])[:, :, 0]
    negative = x < -1e-9
    errs = [None] * B
    if every and not negative.any():
        return x, errs
    for j in np.flatnonzero(
            ~ok | np.logical_or.reduce(negative, axis=1)).tolist():
        errs[j] = (
            NumericsError("non-finite power-transform matrix")
            if math.isnan(cond[j])
            else SingularTransformError(
                "power-transform matrix condition number exceeds 1e12")
            if not ok[j]
            else InfeasibleTransformError(
                "transform produced a negative power; the MSE tuple is not "
                "achievable"))
    return x, errs


def build_duality_batch(states, active_tol: float = 0.0) -> list:
    """`build_duality_data` on every state of ``states`` at once: per
    state, in order, its DualityData or the DualPrecError it raised."""
    out = [None] * len(states)
    for rows, g in _groups([st.Jinv_cols.shape for st in states], states,
                           [active_tol] * len(states), out):
        for j, i in enumerate(rows):
            out[i] = DualityData(beta=g.beta[j], D=g.D[j], Psi=g.Psi[j],
                                 eps=g.eps[j], active=np.flatnonzero(g.on[j]),
                                 n_streams=g.on.shape[1])
    return out


def build_duality_data(state: UplinkState,
                       active_tol: float = 0.0) -> DualityData:
    """Assemble beta, D, Psi and the uplink MSEs eps on the active
    streams of ``state``, all from a_l = J^-1 htil_l.

    Inactive rows and columns are deleted; the caller re-inserts zeros
    afterwards.
    """
    return _one(build_duality_batch([state], active_tol))


def _one(out: list):
    """The single result of a stack of one; raised if it is an error."""
    if isinstance(out[0], DualPrecError):
        raise out[0]
    return out[0]


def _solve_transform(dd: DualityData, sigma2: float,
                     coupling: np.ndarray) -> np.ndarray:
    x, errs = _transform(dd.beta[None], dd.D[None], dd.eps[None],
                         coupling[None], np.array([sigma2], dtype=float))
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


def verify_theorem(ch: ChannelSet, uplink: PrecoderSet, q,
                   cfg: SolverConfig | None = None,
                   state: UplinkState | None = None) -> DualityReport:
    """End-to-end theorem check at one power allocation.

    Builds the uplink MMSE operating point, converts it to the downlink
    via the transform with the MMSE directions as beamformers, evaluates
    the downlink MSEs, and reports the asymmetry of Psi together with the
    p-q and MSE gaps.  Streams below the activity threshold are off in
    both directions (MSE 1).  Meaningful bounds hold only when q carries
    a passing KKT certificate; feeding a non-optimal q is how the
    negative control is produced.  ``state`` is the uplink state at q
    under ``uplink`` when the caller holds it (a solve's
    ``certificate.state``); it is built from ``ch``, ``uplink`` and q
    otherwise.
    """
    q = np.asarray(q, dtype=float)
    if state is None:
        state = make_state(build_effective_channel(ch, uplink), q, ch.sigma2)
    elif not np.array_equal(state.q, q):
        raise ValidationError("state is not the uplink state at q")
    return _one(verify_theorems([ch], [uplink], [state], cfg))


def verify_theorems(chs, uplinks, states, cfg: SolverConfig | None = None):
    """`verify_theorem` on every row (chs[i], uplinks[i], states[i]) at
    once, each state the uplink state at its q: per row, in order, its
    DualityReport or the DualPrecError its check raised, bitwise what
    `verify_theorem` gives on the row alone."""
    cfg = cfg or SolverConfig()
    out = [None] * len(states)
    for rows, g in _groups([ch.dims for ch in chs], states,
                           [cfg.active_tol_scale * ch.p_max for ch in chs],
                           out):
        sigma2 = np.array([chs[i].sigma2 for i in rows])
        x, errs = _transform(g.beta, g.D, g.eps, g.Psi, sigma2)
        if any(errs):
            for i, e in zip(rows, errs):
                out[i] = e
            keep = np.array([e is None for e in errs])
            if not keep.any():
                continue
            rows = [i for i, e in zip(rows, errs) if e is None]
            g = SimpleNamespace(**{k: v[keep] for k, v in vars(g).items()})
            x, sigma2 = x[keep], sigma2[keep]
        P = np.zeros(g.q.shape)
        P[g.on] = np.maximum(x, 0.0).ravel()
        eps_ul = np.ones(P.shape)
        eps_ul[g.on] = g.eps.ravel()
        eps_dl = _downlink_mse([chs[i] for i in rows],
                               [uplinks[i] for i in rows], g, P, sigma2)
        p_max = np.array([chs[i].p_max for i in rows])
        pq_gap = np.abs(P - g.q).max(axis=1) / np.maximum(1.0, p_max)
        mse_gap = np.abs(eps_dl - eps_ul).max(axis=1)
        asym, total = _asymmetry(g.Psi), np.add.reduce(P, axis=1)
        for j, i in enumerate(rows):
            out[i] = DualityReport(
                p=P[j], q=states[i].q, psi_asymmetry=float(asym[j]),
                pq_gap=float(pq_gap[j]), mse_gap=float(mse_gap[j]),
                sum_power_dl=float(total[j]))
    return out


def _downlink_mse(chs, uplinks, g, P, sigma2) -> np.ndarray:
    """Downlink per-stream MSEs (B x L) of a group of `_groups` at powers
    P under the unit MMSE directions as beamformers and the
    duality-factored receivers v_l = beta_l p_l^{-1/2} vbar_l, computed
    directly from the channel model (signal, cross-stream, and noise terms
    summed explicitly).

    Inactive and zero-power streams carry a zero receiver and an MSE of
    exactly 1.  Not exported: arbitrary-receiver downlink evaluation stays
    internal.
    """
    d = chs[0].dims
    Ubar = _unit_rows(g.at, g.norms)  # `objective.mmse_directions`, as rows
    live = P > 0.0
    beta = np.zeros(P.shape)
    beta[g.on] = g.beta.ravel()
    # beta_l / sqrt(p_l) where the receiver is on, else 0
    scale = np.divide(beta, np.sqrt(P), out=np.zeros(P.shape), where=live)
    # row l: coef_lj = sqrt(p_j) v_l^H H_k^H ubar_j, k the owner of stream l;
    # the users of equal (N_k, L_k) form one stack
    B, groups = len(P), {}
    for k in range(d.K):
        groups.setdefault((d.N[k], d.L[k]), []).append(k)
    coef = np.empty((B, d.L_tot, d.L_tot), dtype=complex)
    v_norms = np.empty(P.shape)
    for (n_k, l_k), users in groups.items():
        U = len(users)
        idx = np.concatenate(
            [np.arange(d.L_tot)[d.user_streams(k)] for k in users])
        V = (np.array([up.by_user[k] for up in uplinks for k in users])
             .reshape(B, U, n_k, l_k) * scale[:, idx].reshape(B, U, 1, l_k))
        H = np.array([ch.H[k] for ch in chs for k in users])
        np.conjugate(H, out=H)  # in place: no second copy
        HU = (H.reshape(B, U, d.M, n_k).swapaxes(2, 3)
              @ Ubar.swapaxes(1, 2)[:, None])
        coef[:, idx] = (V.conj().swapaxes(2, 3) @ HU).reshape(B, -1, d.L_tot)
        v_norms[:, idx] = _norms(V, 2).reshape(B, -1)
    coef *= np.sqrt(P)[:, None, :]
    cross = np.abs(coef) ** 2
    cross.reshape(len(P), -1)[:, ::d.L_tot + 1] = 0.0
    m = (np.abs(np.diagonal(coef, axis1=1, axis2=2) - 1.0) ** 2
         + np.add.reduce(cross, axis=2) + sigma2[:, None] * v_norms ** 2)
    return np.where(live, m, 1.0)
