"""Sum-MSE objective and the two MMSE kernels, one per link direction.

Virtual uplink quantities all derive from the base-station covariance

    J = sum_l q_l htil_l htil_l^H + sigma2 I_M,

which dominates everything: the minimum sum-MSE is
L_tot - M + sigma2 tr(J^-1), its gradient in q_l is -htil_l^H J^-2 htil_l,
and the per-stream MMSE receivers are u_l = J^-1 htil_l sqrt(q_l), whose
unit directions are the downlink beamformers of the duality
(`mmse_directions`).  The downlink kernel `downlink_mmse` factors the
per-user covariances J_k = H_k^H Ubar P Ubar^H H_k + sigma2 I once each;
the unit directions of its receivers J_k^-1 H_k^H ubar_l become the next
uplink beamformers of the design loop.

The uplink kernel `_covariance` takes a leading batch axis: it evaluates
B instances at once (one stacked matmul, then LAPACK's Cholesky factor and
solve slice by slice), so one call serves a round of a whole stack of
solves, and every slice is bitwise what a call with B = 1 gives.  Scalar
callers pass B = 1.  Both kernels call the LAPACK routines `potrf`/`potrs`
directly, fetched once: at M = 4 the argument checks that
`cho_factor`/`cho_solve` wrap around the same calls cost about seven times
the factor and solve themselves (33 against 4 us on a 2-vCPU machine).

These factorisations are small, so importing `dualprec` runs OpenBLAS on
one thread (`_blas`): at M = 64 the default threads made them ~8x slower.
"""

from __future__ import annotations

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


def _hermitize(a: np.ndarray) -> np.ndarray:
    """(a + a^H) / 2 over the last two axes."""
    h = a + a.conj().swapaxes(-1, -2)
    h *= 0.5
    return h


def _finite(J: np.ndarray) -> np.ndarray:
    """J itself; a matrix with a non-finite entry raises ValueError, as
    `cho_factor` did, before LAPACK sees it."""
    if not np.isfinite(J).all():
        raise ValueError("array must not contain infs or NaNs")
    return J


def _factor(c: np.ndarray, info: int) -> np.ndarray:
    """The Cholesky factor `_POTRF` returned; NumericsError if it failed."""
    if info != 0:
        raise NumericsError(f"covariance not positive definite ({info}-th "
                            "leading minor)")
    return c


def _covariance(cols: np.ndarray, q: np.ndarray, sigma2: float):
    """The covariance kernel every uplink quantity derives from, for a
    stack of B instances: ``cols`` is B x M x L and ``q`` is B x L.

    Per instance it assembles J = sum_l q_l htil_l htil_l^H + sigma2 I,
    factors it once by Cholesky and returns the stacked (A, f, gains)
    with A = J^-1 Htil solved on the columns (B x M x L),
    f = tr(J^-1) (B,) and gains_l = ||A_l||^2 = htil_l^H J^-2 htil_l
    = -df/dq_l (B x L).  J and J^-1 stay inside: f sums the real
    diagonal of the solve's J^-1 block, which is all of it any caller
    reads.  J >= sigma2 I in exact arithmetic, but in floating point the
    factorization can fail when sigma2 is tiny against q |htil|^2 (at
    sigma2 = 1e-14, P = 10, M = 4); such a slice comes back NaN in all
    three outputs and the others are unaffected.  A non-finite J raises
    ValueError for the whole stack.

    Slice b is bitwise what the call on instance b alone gives: the
    matmul runs per slice, the factor and solve run slice by slice, and
    each slice of A keeps the column-major layout LAPACK returns, so the
    sums over M add in the same order whatever B is.
    """
    B, M, L = cols.shape
    J = (cols * q[:, None, :]) @ cols.conj().swapaxes(1, 2)
    J.reshape(B, M * M)[:, ::M + 1] += sigma2  # the diagonal, in place
    J = _finite(_hermitize(J))
    rhs = np.zeros((B, M, M + L), dtype=complex)  # [I, Htil] per slice
    rhs.reshape(B, M * (M + L))[:, :M * (M + L + 1):M + L + 1] = 1.0
    rhs[:, :, M:] = cols
    XT = np.empty((B, M + L, M), dtype=complex)  # X^T: slices of X column-major
    for b in range(B):
        c, info = _POTRF(J[b], lower=True, clean=False)
        XT[b] = _POTRS(c, rhs[b], lower=True)[0].T if info == 0 else np.nan
    X = XT.swapaxes(1, 2)
    A = X[:, :, M:]
    return (A, np.trace(X[:, :, :M], axis1=1, axis2=2).real,
            np.sum(np.abs(A) ** 2, axis=1))


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
    if np.isnan(f[0]):  # the factorization failed in floating point
        raise NumericsError("covariance not positive definite")
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
    norms = np.linalg.norm(A, axis=0)
    nz = norms > 0
    out = np.zeros_like(A)
    out[:, nz] = A[:, nz] / norms[nz]
    out[0, ~nz] = 1.0
    return out


def uplink_mse(state: UplinkState) -> np.ndarray:
    """Per-stream uplink MMSEs 1 - q_l htil_l^H J^-1 htil_l, clamped to
    [0, 1] so reports stay physical (optimization code never reads
    clamped values)."""
    g = np.einsum("ml,ml->l", state.eff.cols.conj(), state.Jinv_cols).real
    return np.clip(1.0 - state.q * g, 0.0, 1.0)


def downlink_mmse(ch: ChannelSet, Ubar, p):
    """Downlink MMSE receivers and per-stream MSEs under beamformers
    ``Ubar`` (M x L_tot, one column per stream) at powers ``p``.

    Factors J_k = H_k^H Ubar P Ubar^H H_k + sigma2 I_{N_k} once per user
    and returns (X, mse): X[k] = J_k^-1 H_k^H Ubar_k is N_k x L_k, the
    Wiener filters without their sqrt(p_l) scale, defined whatever the
    powers; mse holds 1 - p_l ubar_l^H H_k J_k^-1 H_k^H ubar_l per stream,
    clamped to [0, 1] like `uplink_mse`.
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
    T = _hermitize((Ubar * p) @ Ubar.conj().T)  # Ubar P Ubar^H
    X, mse = [], np.empty(d.L_tot)
    for k in range(d.K):
        idx = d.user_streams(k)
        Hk = ch.H[k]
        J_k = _hermitize(Hk.conj().T @ T @ Hk + ch.sigma2 * np.eye(d.N[k]))
        HU = Hk.conj().T @ Ubar[:, idx]
        c = _factor(*_POTRF(_finite(J_k), lower=True, clean=False))
        X.append(_POTRS(c, HU, lower=True)[0])
        mse[idx] = 1.0 - p[idx] * np.einsum("nl,nl->l", HU.conj(), X[k]).real
    return tuple(X), np.clip(mse, 0.0, 1.0)
