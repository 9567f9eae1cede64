"""Sum-MSE objective and the one MMSE covariance kernel of both links.

Virtual uplink quantities all derive from the base-station covariance

    J = sum_l q_l htil_l htil_l^H + sigma2 I_M,

which dominates everything: the minimum sum-MSE is
L_tot - M + sigma2 tr(J^-1), its gradient in q_l is -htil_l^H J^-2 htil_l,
and the per-stream MMSE receivers are u_l = J^-1 htil_l sqrt(q_l), whose
unit directions are the downlink beamformers of the duality
(`mmse_directions`).  User k's downlink covariance
J_k = H_k^H Ubar P Ubar^H H_k + sigma2 I is J of the dual channel
G_k = H_k^H Ubar at q := p (Hunger, Joham & Utschick, IEEE TSP 57(2),
2009), so `downlink_mmse` runs on the same kernel; the unit directions of
its receivers J_k^-1 H_k^H ubar_l become the next uplink beamformers.

The kernel `_covariance` takes a leading batch axis: it evaluates B
instances at once, so one call serves a round of a whole stack of
solves, and every slice is bitwise what a call with B = 1 gives.  It
works in the smaller domain, chosen by shape.  With L >= M columns it
factors J through LAPACK's `potrf`/`potrs`, fetched once: at M = 4 the
argument checks that `cho_factor`/`cho_solve` wrap around the same calls
cost about seven times the factor and solve themselves (33 against 4 us
on a 2-vCPU machine).  With L < M it never forms J and inverts an L x L
matrix instead, which is exact to rounding at every SNR and at M = 64,
L = 32 took a fifth to a third of the M x M form's time per instance
(`BENCH_stream_kernel.json`).

These factorisations are small, so importing `dualprec` runs OpenBLAS on
one thread (`_blas`): at M = 64 the default threads made them ~8x slower.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import DimensionError, NumericsError, ValidationError
from .model import ChannelSet, EffectiveChannel

#: Cholesky factor and solve of a complex Hermitian matrix, the routines
#: `cho_factor` and `cho_solve` call; every matrix factored here is complex.
_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), dtype=np.complex128)


@dataclass(frozen=True)
class UplinkState:
    """Immutable snapshot of the uplink at one power allocation.

    Holds the receivers J^-1 Htil (the MMSE directions, the per-stream
    MSEs and the duality quantities all derive from them) and tr(J^-1)
    (the sum-MSE).
    """

    eff: EffectiveChannel
    q: np.ndarray
    sigma2: float
    Jinv_cols: np.ndarray  # J^-1 @ eff.cols, M x L_tot
    trace_jinv: float  # tr(J^-1)


def _covariance(cols: np.ndarray, q: np.ndarray, sigma2: float):
    """The covariance kernel every MMSE quantity derives from, for a
    stack of B instances: ``cols`` is B x M x L and ``q`` is B x L (or
    1 x L, one power vector for the whole stack).

    Returns the stacked (A, f, gains) of J = sum_l q_l htil_l htil_l^H
    + sigma2 I: A = J^-1 Htil (B x M x L), f = tr(J^-1) (B,) and
    gains_l = ||A_l||^2 = htil_l^H J^-2 htil_l = -df/dq_l (B x L).  The
    domain is the smaller of M and L, chosen by shape:

    * L >= M: J is assembled, factored once by Cholesky and solved on
      [I, Htil]; f sums the real diagonal of the J^-1 block.
    * L < M: by push-through, J^-1 Htil = Htil T with the L x L
      T = (sigma2 I + Q G)^-1 and G = Htil^H Htil, so A = Htil T and
      f = tr T + (M - L) / sigma2.  sigma2 I + Q G is not Hermitian, so
      it is inverted by LU.  Nothing here cancels at high SNR, where the
      M x M form loses the gains (6e-6 relative at M = 8, L = 4,
      sigma2 = 1e-12), and A stays exact to rounding.

    J and J^-1 (or T) stay inside.  A slice whose matrix is not finite
    (powers or columns that overflow it) comes back NaN in all three
    outputs before it is factored, and so does one whose factorization
    fails (the Cholesky factor at sigma2 = 1e-14, P = 10, M = 4; an
    exactly singular sigma2 I + Q G); the other slices are unaffected.

    Slice b is bitwise what the call on instance b alone gives: the
    matmuls and the LU inverses run per slice, the Cholesky factor and
    solve run slice by slice, and each slice of A is column-major, so the
    sums over M add in the same order whatever B is.
    """
    B, M, L = cols.shape
    if L < M:
        CT = cols.swapaxes(1, 2)
        G = CT.conj() @ cols
        S = q[:, :, None] * G  # sigma2 I + Q G
        S.reshape(B, L * L)[:, ::L + 1] += sigma2
        T = None
        if np.isfinite(S).all():
            with contextlib.suppress(np.linalg.LinAlgError):
                T = np.linalg.inv(S)
        if T is None:  # a slice not finite or singular: one at a time
            T = np.full(S.shape, np.nan, dtype=complex)
            for b in range(B):
                if np.isfinite(S[b]).all():
                    with contextlib.suppress(np.linalg.LinAlgError):
                        T[b] = np.linalg.inv(S[b])
        A = (T.swapaxes(1, 2) @ CT).swapaxes(1, 2)  # column-major slices
        f = (np.add.reduce(T.diagonal(0, 1, 2), axis=-1).real
             + (M - L) / sigma2)
    else:
        J = (cols * q[:, None, :]) @ cols.conj().swapaxes(1, 2)
        J.reshape(B, M * M)[:, ::M + 1] += sigma2  # the diagonal, in place
        J = J + J.conj().swapaxes(1, 2)  # hermitized: (J + J^H) / 2
        J *= 0.5
        rhs = np.zeros((B, M, M + L), dtype=complex)  # [I, Htil] per slice
        rhs.reshape(B, M * (M + L))[:, :M * (M + L + 1):M + L + 1] = 1.0
        rhs[:, :, M:] = cols
        XT = np.empty((B, M + L, M), dtype=complex)  # slices of X column-major
        finite = np.isfinite(J).all()  # else look at each slice
        for b in range(B):
            ok = finite or np.isfinite(J[b]).all()
            if ok:
                c, info = _POTRF(J[b], lower=True, clean=False)
                ok = info == 0
            XT[b] = _POTRS(c, rhs[b], lower=True)[0].T if ok else np.nan
        X = XT.swapaxes(1, 2)
        A = X[:, :, M:]
        # np.trace, without its Python wrapper
        f = np.add.reduce(X[:, :, :M].diagonal(0, 1, 2), axis=-1).real
    # np.sum, without its Python wrapper
    return A, f, np.add.reduce(np.abs(A) ** 2, axis=1)


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
    A, f, _ = _covariance(eff.cols[None], q[None], sigma2)
    if np.isnan(f[0]):  # J overflowed, or its factorization failed
        raise NumericsError("covariance not positive definite or not finite")
    return UplinkState(eff=eff, q=q, sigma2=float(sigma2), Jinv_cols=A[0],
                       trace_jinv=float(f[0]))


def sum_mse_uplink(state: UplinkState) -> float:
    """Minimum sum-MSE at this state: L_tot - M + sigma2 tr(J^-1)."""
    return state.eff.L_tot - state.eff.M + state.sigma2 * state.trace_jinv


def mmse_directions(state: UplinkState) -> np.ndarray:
    """Unit MMSE directions J^-1 htil_l / ||J^-1 htil_l||, M x L_tot.

    Defined for every stream whatever its power (a zero-power stream
    keeps the direction it would receive if switched on), and e_1 where
    htil_l = 0; these are the downlink beamformers of the duality.
    """
    A = state.Jinv_cols
    return _unit_rows(A.T, np.linalg.norm(A, axis=0)).T


def _unit_rows(at: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """The rows of ``at`` (... x L x M) divided by their ``norms``
    (... x L), e_1 where a norm is 0: the MMSE directions as rows."""
    nz = norms > 0
    if nz.all():
        return at / norms[..., None]
    out = np.zeros(at.shape, dtype=complex)
    np.divide(at, norms[..., None], out=out, where=nz[..., None])
    out[..., 0][~nz] = 1.0
    return out


def uplink_mse(state: UplinkState) -> np.ndarray:
    """Per-stream uplink MMSEs 1 - q_l htil_l^H J^-1 htil_l, clamped to
    [0, 1] so reports stay physical (optimization code never reads
    clamped values)."""
    return _stream_mse(state.eff.cols, state.q, state.Jinv_cols)


def _stream_mse(cols, powers, A) -> np.ndarray:
    """1 - p_l Re(h_l^H a_l) per column of ``cols`` (... x M x L) at
    ``powers`` (L) with the receivers A = J^-1 cols, clamped to [0, 1]."""
    g = np.einsum("...ml,...ml->...l", cols.conj(), A).real
    # np.clip to [0, 1], without its Python wrapper
    return np.minimum(np.maximum(1.0 - powers * g, 0.0), 1.0)


def downlink_mmse(ch: ChannelSet, Ubar, p):
    """Downlink MMSE receivers and per-stream MSEs under beamformers
    ``Ubar`` (M x L_tot, one column per stream) at powers ``p``.

    J_k = H_k^H Ubar P Ubar^H H_k + sigma2 I is the kernel's J of the dual
    channel H_k^H Ubar at q := p; users with equal N_k form one stack.
    Returns (X, mse): X[k] = J_k^-1 H_k^H Ubar_k (N_k x L_k), the Wiener
    filters without their sqrt(p_l) scale; mse holds
    1 - p_l ubar_l^H H_k J_k^-1 H_k^H ubar_l per stream, clamped to [0, 1]
    like `uplink_mse`.  A J_k the kernel returns NaN raises NumericsError.
    """
    d = ch.dims
    Ubar = np.asarray(Ubar, dtype=complex)
    p = np.asarray(p, dtype=float)
    if Ubar.shape != (d.M, d.L_tot) or p.shape != (d.L_tot,):
        raise DimensionError(
            f"Ubar must be M x L_tot = {d.M} x {d.L_tot} and p must have "
            f"{d.L_tot} entries")
    if not np.all(np.isfinite(p) & (p >= 0)):
        raise ValidationError("p must be finite and >= 0")
    X, mse = [None] * d.K, np.empty(d.L_tot)
    for n in dict.fromkeys(d.N):
        users = [k for k in range(d.K) if d.N[k] == n]
        G = np.array([ch.H[k] for k in users]).conj().swapaxes(1, 2) @ Ubar
        A, f, _ = _covariance(G, p[None], ch.sigma2)
        if math.isnan(np.add.reduce(f)):
            raise NumericsError("downlink covariance not positive definite "
                                "or not finite")
        m = _stream_mse(G, p, A)
        for j, k in enumerate(users):
            idx = d.user_streams(k)
            X[k], mse[idx] = A[j][:, idx], m[j, idx]
    return tuple(X), mse
