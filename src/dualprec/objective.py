"""Sum-MSE objective, MMSE receivers, and MSE reports for both directions.

Virtual uplink quantities all derive from the base-station covariance

    J = sum_l q_l htil_l htil_l^H + sigma2 I_M,

which dominates everything: the minimum sum-MSE is
L_tot - M + sigma2 tr(J^-1), its gradient in q_l is -htil_l^H J^-2 htil_l,
and the per-stream MMSE receivers are u_l = J^-1 htil_l sqrt(q_l), whose
unit directions are the downlink beamformers of the duality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import DimensionError, NumericsError, ValidationError
from .model import (DOWNLINK, VIRTUAL_UPLINK, ChannelSet, EffectiveChannel,
                    PrecoderSet, ReceiverSet)


@dataclass(frozen=True)
class UplinkState:
    """Immutable snapshot of the uplink at one power allocation.

    Caches J, its inverse, and J^-1 Htil (used by the gradient, the
    receivers, and the MSE report alike).
    """

    J: np.ndarray
    J_inv: np.ndarray
    eff: EffectiveChannel
    q: np.ndarray
    sigma2: float
    Jinv_cols: np.ndarray  # J^-1 @ eff.cols, M x L_tot


@dataclass(frozen=True)
class MseReport:
    """Per-stream and per-user MSEs for one link direction.

    ``per_stream`` is clamped to [0, 1] (reports stay physical; optimization
    code never reads clamped values).  ``J_k`` carries the per-user downlink
    covariance matrices and is None for the uplink.
    """

    direction: str
    per_stream: np.ndarray
    per_user: tuple
    sum: float
    J_k: tuple | None = None


def _hermitize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def _covariance(cols: np.ndarray, q, sigma2: float):
    """The covariance kernel every uplink quantity derives from.

    Assembles J = sum_l q_l htil_l htil_l^H + sigma2 I, factors it once by
    Cholesky and returns (J, J^-1, A, f, gains) with A = J^-1 Htil solved
    on the columns, f = tr(J^-1) and gains_l = ||A_l||^2 =
    htil_l^H J^-2 htil_l = -df/dq_l.  J >= sigma2 I, so the factorization
    succeeds for any finite nonnegative q and sigma2 > 0.
    """
    M = cols.shape[0]
    J = _hermitize((cols * q) @ cols.conj().T + sigma2 * np.eye(M))
    X = cho_solve(cho_factor(J, lower=True), np.hstack([np.eye(M), cols]))
    J_inv = _hermitize(X[:, :M])
    A = X[:, M:]
    return (J, J_inv, A, float(np.trace(J_inv).real),
            np.sum(np.abs(A) ** 2, axis=0))


def make_state(eff: EffectiveChannel, q, sigma2: float) -> UplinkState:
    """Validate the inputs and evaluate the covariance kernel at q."""
    q = np.asarray(q, dtype=float)
    if q.shape != (eff.L_tot,):
        raise DimensionError("q must have one entry per stream")
    if not (np.all(np.isfinite(q)) and np.isfinite(sigma2)):
        raise NumericsError("non-finite power or noise input")
    if np.any(q < 0) or sigma2 <= 0:
        raise NumericsError("q must be >= 0 and sigma2 > 0")
    if not np.all(np.isfinite(eff.cols.view(float))):
        raise NumericsError("non-finite effective channel")
    try:
        J, J_inv, A, _, _ = _covariance(eff.cols, q, sigma2)
    except np.linalg.LinAlgError as e:  # pragma: no cover - J >= sigma2 I
        raise NumericsError(f"covariance not positive definite: {e}") from e
    return UplinkState(J=J, J_inv=J_inv, eff=eff, q=q, sigma2=float(sigma2),
                       Jinv_cols=A)


def sum_mse_uplink(state: UplinkState, L_tot: int | None = None) -> float:
    """Minimum sum-MSE at this state: L_tot - M + sigma2 tr(J^-1)."""
    if L_tot is None:
        L_tot = state.eff.L_tot
    return L_tot - state.eff.M + state.sigma2 * float(np.trace(state.J_inv).real)


def grad_trace_Jinv(state: UplinkState) -> np.ndarray:
    """d tr(J^-1) / d q_l = -htil_l^H J^-2 htil_l = -||J^-1 htil_l||^2."""
    return -np.sum(np.abs(state.Jinv_cols) ** 2, axis=0)


def mmse_directions(state: UplinkState) -> np.ndarray:
    """Unit MMSE directions J^-1 htil_l / ||J^-1 htil_l||, M x L_tot.

    Defined for every stream whatever its power (a zero-power stream
    keeps the direction it would receive if switched on), and e_1 where
    htil_l = 0; these are the downlink beamformers of the duality.
    """
    A = state.Jinv_cols
    norms = np.linalg.norm(A, axis=0)
    nz = norms > 0
    out = np.zeros_like(A)
    out[:, nz] = A[:, nz] / norms[nz]
    out[0, ~nz] = 1.0
    return out


def uplink_mse(state: UplinkState) -> np.ndarray:
    """Per-stream uplink MMSEs 1 - q_l htil_l^H J^-1 htil_l, clamped to
    [0, 1] like every MseReport."""
    g = np.einsum("ml,ml->l", state.eff.cols.conj(), state.Jinv_cols).real
    return np.clip(1.0 - state.q * g, 0.0, 1.0)


def mmse_receivers_uplink(state: UplinkState) -> ReceiverSet:
    """Wiener filters u_l = J^-1 htil_l sqrt(q_l), zero iff q_l = 0."""
    U = state.Jinv_cols * np.sqrt(state.q)
    K = int(state.eff.stream_owner.max()) + 1
    filters = tuple(U[:, state.eff.user_streams(k)] for k in range(K))
    return ReceiverSet(direction=VIRTUAL_UPLINK, filters=filters)


def mmse_report_uplink(state: UplinkState) -> MseReport:
    """Per-user MMSE matrices E_k = I - sqrt(Q_k) G_k sqrt(Q_k) with
    G_k = Htil_k^H J^-1 Htil_k, and their diagonals as per-stream MSEs."""
    K = int(state.eff.stream_owner.max()) + 1
    per_user = []
    for k in range(K):
        idx = state.eff.user_streams(k)
        G = state.eff.cols[:, idx].conj().T @ state.Jinv_cols[:, idx]
        sq = np.sqrt(state.q[idx])
        E = _hermitize(np.eye(len(idx), dtype=complex)
                       - (sq[:, None] * G * sq[None, :]))
        per_user.append(E)
    per_stream = uplink_mse(state)
    return MseReport(direction=VIRTUAL_UPLINK, per_stream=per_stream,
                     per_user=tuple(per_user), sum=float(per_stream.sum()))


def mmse_receivers_downlink(ch: ChannelSet, dl: PrecoderSet) -> ReceiverSet:
    """Downlink Wiener filters v_l = J_k^-1 H_k^H ubar_l sqrt(p_l)."""
    _, _, Jinv_HU = _downlink_core(ch, dl)
    d = ch.dims
    filters = []
    for k in range(d.K):
        idx = d.user_streams(k)
        filters.append(Jinv_HU[k] * np.sqrt(dl.powers[idx]))
    return ReceiverSet(direction=DOWNLINK, filters=tuple(filters))


def mmse_report_downlink(ch: ChannelSet, dl: PrecoderSet) -> MseReport:
    """Per-user downlink MMSE matrices under the global precoder.

    J_k = H_k^H Ubar P Ubar^H H_k + sigma2 I_{N_k};
    E_k = I - sqrt(P_k) G_k sqrt(P_k) with G_k = Ubar_k^H H_k J_k^-1 H_k^H Ubar_k.
    """
    J_ks, Gs, _ = _downlink_core(ch, dl)
    d = ch.dims
    per_user = []
    per_stream = np.empty(d.L_tot)
    for k in range(d.K):
        idx = d.user_streams(k)
        p_k = dl.powers[idx]
        sp = np.sqrt(p_k)
        E = _hermitize(np.eye(d.L[k], dtype=complex)
                       - (sp[:, None] * Gs[k] * sp[None, :]))
        per_user.append(E)
        per_stream[idx] = 1.0 - p_k * np.real(np.diag(Gs[k]))
    per_stream = np.clip(per_stream, 0.0, 1.0)
    return MseReport(direction=DOWNLINK, per_stream=per_stream,
                     per_user=tuple(per_user), sum=float(per_stream.sum()),
                     J_k=tuple(J_ks))


def _downlink_core(ch: ChannelSet, dl: PrecoderSet):
    """Shared downlink computation: per-user J_k, G_k, and J_k^-1 H_k^H Ubar_k."""
    d = ch.dims
    if dl.direction != DOWNLINK:
        raise ValidationError("downlink precoders required")
    if len(dl.by_user) != d.K:
        raise DimensionError("precoder set must have one block per user")
    for k, b in enumerate(dl.by_user):
        if b.shape != (d.M, d.L[k]):
            raise DimensionError(
                f"user {k}: beamformer block must be M x L_k = {d.M} x {d.L[k]}")
    bad = dl.violations()
    if bad:
        raise ValidationError("; ".join(bad))
    Ubar = dl.stacked()
    T = _hermitize((Ubar * dl.powers) @ Ubar.conj().T)  # Ubar P Ubar^H
    J_ks, Gs, Jinv_HU = [], [], []
    for k in range(d.K):
        Hk = ch.H[k]
        J_k = _hermitize(Hk.conj().T @ T @ Hk + ch.sigma2 * np.eye(d.N[k]))
        c = cho_factor(J_k, lower=True)
        HU = Hk.conj().T @ dl.by_user[k]          # N_k x L_k
        X = cho_solve(c, HU)                      # J_k^-1 H_k^H Ubar_k
        J_ks.append(J_k)
        Gs.append(HU.conj().T @ X)
        Jinv_HU.append(X)
    return J_ks, Gs, Jinv_HU
