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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InfeasibleTransformError, NumericsError,
                     SingularTransformError, ValidationError)
from .model import ChannelSet, PrecoderSet, build_effective_channel
from .objective import UplinkState, make_state, mmse_directions
from .solver import SolverConfig, active_set

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
    if Psi.shape[0] <= 1:
        return 0.0
    return float(np.abs(Psi - Psi.T).max() / max(1.0, np.abs(Psi).max()))


def build_duality_data(state: UplinkState,
                       active_tol: float = 0.0) -> DualityData:
    """Assemble beta, D, Psi and the uplink MSEs eps on the active
    streams of ``state``, all from a_l = J^-1 htil_l.

    Inactive rows and columns are deleted; the caller re-inserts zeros
    afterwards.
    """
    q = state.q
    act, _ = active_set(q, active_tol)
    if act.size == 0:
        raise NumericsError("no active streams to transform")
    a_act = state.Jinv_cols[:, act]
    norms = np.linalg.norm(a_act, axis=0)
    if np.any(norms == 0.0):
        raise NumericsError("zero MMSE receiver on an active stream")
    beta = q[act] * norms
    dirs = a_act / norms
    C = state.eff.cols[:, act].conj().T @ dirs     # C_ij = htil_i^H ubar_j
    s = np.diag(C)
    eps = 1.0 - beta * s.real                      # 1 - q_l htil_l^H J^-1 htil_l
    D = np.abs(beta * s) ** 2 - 2.0 * beta * s.real + 1.0
    Psi = np.abs(C) ** 2
    np.fill_diagonal(Psi, 0.0)
    return DualityData(beta=beta, D=D, Psi=Psi, eps=eps, active=act,
                       n_streams=q.size)


def _solve_transform(dd: DualityData, sigma2: float,
                     coupling: np.ndarray) -> np.ndarray:
    A = np.diag(dd.eps - dd.D) - dd.beta[:, None] ** 2 * coupling
    if np.linalg.cond(A) > COND_LIMIT:
        raise SingularTransformError(
            "power-transform matrix condition number exceeds 1e12")
    x = np.linalg.solve(A, sigma2 * dd.beta ** 2)
    if np.any(x < -1e-9):
        raise InfeasibleTransformError(
            "transform produced a negative power; the MSE tuple is not "
            "achievable")
    out = np.zeros(dd.n_streams)
    out[dd.active] = np.maximum(x, 0.0)
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
    if cfg is None:
        cfg = SolverConfig()
    q = np.asarray(q, dtype=float)
    if state is None:
        state = make_state(build_effective_channel(ch, uplink), q, ch.sigma2)
    elif not np.array_equal(state.q, q):
        raise ValidationError("state is not the uplink state at q")
    dd = build_duality_data(state, active_tol=cfg.active_tol_scale * ch.p_max)
    p = transform_power(dd, ch.sigma2)

    eps_ul = np.ones(q.size)
    eps_ul[dd.active] = dd.eps
    eps_dl = _factored_downlink_mse(ch, uplink, mmse_directions(state), p, dd)
    gap_pq = float(np.abs(p - q).max() / max(1.0, ch.p_max))
    gap_mse = float(np.abs(eps_dl - eps_ul).max())
    return DualityReport(p=p, q=q, psi_asymmetry=psi_asymmetry(dd.Psi),
                         pq_gap=gap_pq, mse_gap=gap_mse,
                         sum_power_dl=float(p.sum()))


def _factored_downlink_mse(ch: ChannelSet, uplink: PrecoderSet,
                           Ubar: np.ndarray, p: np.ndarray,
                           dd: DualityData) -> np.ndarray:
    """Downlink per-stream MSEs under beamformers ``Ubar`` (M x L_tot) at
    powers ``p`` and the duality-factored receivers
    v_l = beta_l p_l^{-1/2} vbar_l, computed directly from the channel
    model (signal, cross-stream, and noise terms summed explicitly).

    Inactive and zero-power streams carry a zero receiver and an MSE of
    exactly 1.  Not exported: arbitrary-receiver downlink evaluation stays
    internal.
    """
    d = ch.dims
    scale = np.zeros(d.L_tot)  # beta_l / sqrt(p_l) where the receiver is on
    live = p[dd.active] > 0.0
    on = dd.active[live]
    scale[on] = dd.beta[live] / np.sqrt(p[on])
    # row l: coef_lj = sqrt(p_j) v_l^H H_k^H ubar_j, k the owner of stream l
    V = [uplink.by_user[k] * scale[d.user_streams(k)] for k in range(d.K)]
    coef = np.concatenate([V[k].conj().T @ (ch.H[k].conj().T @ Ubar)
                           for k in range(d.K)]) * np.sqrt(p)
    cross = np.abs(coef) ** 2
    np.fill_diagonal(cross, 0.0)
    v_norms = np.concatenate([np.linalg.norm(v, axis=0) for v in V])
    m = (np.abs(np.diagonal(coef) - 1.0) ** 2 + cross.sum(axis=1)
         + ch.sigma2 * v_norms ** 2)
    eps = np.ones(d.L_tot)
    eps[on] = m[on]
    return eps
