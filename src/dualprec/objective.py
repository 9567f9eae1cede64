"""Sum-MSE objective and the one MMSE covariance kernel of both links.

Virtual uplink quantities all derive from the base-station covariance

    J = sum_l q_l htil_l htil_l^H + sigma2 I_M,

which dominates everything: the minimum sum-MSE is L_tot - M +
sigma2 tr(J^-1), with gradient -sigma2 htil_l^H J^-2 htil_l in q_l, and
the per-stream MMSE receivers are u_l = J^-1 htil_l sqrt(q_l), whose
unit directions are the downlink beamformers of the duality
(`mmse_directions`).  User k's downlink covariance
J_k = H_k^H Ubar P Ubar^H H_k + sigma2 I is J of the dual channel
G_k = H_k^H Ubar at q := p (Hunger, Joham & Utschick, IEEE TSP 57(2),
2009), so `downlink_mmse` runs on the same kernel; the unit directions of
its receivers J_k^-1 H_k^H ubar_l become the next uplink beamformers.

The kernel `_covariance` takes a leading batch axis: it evaluates B
instances at once, so one call serves a round of a whole stack of
solves, and every slice is bitwise what a call with B = 1 gives.  It
works in the smaller domain, chosen by shape, and needs numpy alone.
With L >= M columns it assembles J and solves it once by LU on
[I, Htil] (`np.linalg.solve`): at M = L = 4 in stacks of 50 that took
about half the time of the slice-by-slice LAPACK Cholesky it replaced
(`BENCH_numpy_kernel.json`).  With L < M it never forms J and inverts an
L x L matrix T^-1 instead, which is exact to rounding at every SNR and at
M = 64, L = 32 took a fifth to a third of the M x M form's time per
instance (`BENCH_stream_kernel.json`).  Its phi (tr J^-1, or tr T, which
is (M - L) / sigma2 less) feeds `_sum_mse` alone.  What a call reuses of
its columns, G = Htil^H Htil (`_gram`) with L < M or else conj(Htil) and
[I, Htil] (`_constants`), is constant over a solve, so the solver forms
it once per stack and hands it in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericsError, ValidationError
from .model import ChannelSet, EffectiveChannel

@dataclass(frozen=True)
class UplinkState:
    """Immutable snapshot of the uplink at one power allocation.

    Holds the receivers J^-1 Htil (the MMSE directions, the per-stream
    MSEs and the duality quantities all derive from them) and phi.
    """

    eff: EffectiveChannel
    q: np.ndarray
    sigma2: float
    Jinv_cols: np.ndarray  # J^-1 @ eff.cols, M x L_tot
    trace_inv: float  # phi: tr T at L_tot < M, else tr J^-1


def _slices(fn, X: np.ndarray, *rhs: np.ndarray) -> np.ndarray:
    """``fn`` (`np.linalg.inv`, or `np.linalg.solve` on the right-hand
    sides ``rhs``) over the stack X, NaN in each slice whose matrix is not
    finite or that ``fn`` finds singular; the other slices are what the
    call on the whole stack gives, in the same dtype."""
    if np.isfinite(X).all():
        try:
            return fn(X, *rhs)
        except np.linalg.LinAlgError:
            pass
    out = np.full((rhs[0] if rhs else X).shape, np.nan,
                  dtype=np.result_type(X, *rhs))
    for b in range(len(X)):  # one at a time, to find the bad slices
        if np.isfinite(X[b]).all():
            try:
                out[b] = fn(X[b], *(r[b] for r in rhs))
            except np.linalg.LinAlgError:
                pass
    return out


def _gram(cols: np.ndarray) -> np.ndarray:
    """G = Htil^H Htil (B x L x L) of each slice of the stack ``cols``
    (B x M x L), slice by slice."""
    return cols.swapaxes(1, 2).conj() @ cols


def _constants(cols: np.ndarray):
    """What every `_covariance` call on the stack ``cols`` reuses: its
    `_gram` with L < M, else conj(Htil) and the right-hand sides
    [I, Htil] (B x M x (M + L))."""
    B, M, L = cols.shape
    if L < M:
        return _gram(cols)
    rhs = np.zeros((B, M, M + L), dtype=complex)
    rhs.reshape(B, M * (M + L))[:, :M * (M + L + 1):M + L + 1] = 1.0
    rhs[:, :, M:] = cols
    return cols.conj(), rhs


def _covariance(cols: np.ndarray, q: np.ndarray, sigma2: float, const=None):
    """The covariance kernel every MMSE quantity derives from, for a
    stack of B instances: ``cols`` is B x M x L and ``q`` is B x L (or
    1 x L, one power vector for the whole stack).  ``const`` may hold
    `_constants` of ``cols``, which a solve forms once; without it the
    kernel forms them itself, to the same bits.

    Returns the stacked (A, phi, gains) of J = sum_l q_l htil_l htil_l^H
    + sigma2 I: A = J^-1 Htil (B x M x L), phi (B,) and gains_l = ||A_l||^2
    = htil_l^H J^-2 htil_l = -dphi/dq_l (B x L), in the smaller domain:

    * L >= M: J is assembled, hermitized and solved once by LU on
      [I, Htil]; phi = tr J^-1 sums the real diagonal of the J^-1 block.
    * L < M: by push-through, J^-1 Htil = Htil T with the L x L
      T = (sigma2 I + Q G)^-1 and G = Htil^H Htil, so A = Htil T and
      phi = tr T = tr J^-1 - (M - L) / sigma2.  sigma2 I + Q G is not
      Hermitian, so it is inverted by LU.  Nothing here cancels at high
      SNR, where the M x M form loses the gains (6e-6 relative at M = 8,
      L = 4, sigma2 = 1e-12), and A and phi stay exact to rounding.

    J and J^-1 (or T) stay inside.  A slice comes back NaN in all three
    outputs when its matrix is not finite (powers or columns that
    overflow it) or exactly singular, when its phi is not positive (J has
    lost its definiteness to rounding: collinear columns at sigma2 =
    1e-300 gave phi = -3.7e15), and when an output overflows (an inactive
    stream at sigma2 = 1e-300 has a gain of |htil_l|^2 / sigma2^2); the
    other slices are unaffected.

    Slice b is bitwise what the call on instance b alone gives: the
    matmuls, inverses and solves run per slice, and the sums over M add
    in the same order whatever B is.
    """
    B, M, L = cols.shape
    const = _constants(cols) if const is None else const
    if L < M:
        S = q[:, :, None] * const
        S.reshape(B, L * L)[:, ::L + 1] += sigma2  # sigma2 I + Q G
        T = _slices(np.linalg.inv, S)
        # column-major slices
        A = (T.swapaxes(1, 2) @ cols.swapaxes(1, 2)).swapaxes(1, 2)
        phi = np.add.reduce(T.diagonal(0, 1, 2), axis=-1).real
    else:
        conj, rhs = const
        J = (cols * q[:, None, :]) @ conj.swapaxes(1, 2)
        J.reshape(B, M * M)[:, ::M + 1] += sigma2  # the diagonal, in place
        J = J + J.conj().swapaxes(1, 2)  # hermitized: (J + J^H) / 2
        J *= 0.5
        X = _slices(np.linalg.solve, J, rhs)
        A = X[:, :, M:]
        # np.trace of the J^-1 block, without its Python wrapper
        phi = np.add.reduce(X.diagonal(0, 1, 2), axis=-1).real
    # np.sum, without its Python wrapper
    gains = np.add.reduce(np.abs(A) ** 2, axis=1)
    # phi is positive (T is similar to a positive definite matrix): a slice
    # whose phi is not positive and finite, or gains overflowed, is NaN
    fl = phi.tolist()
    if not (min(fl, default=1.0) > 0 and math.isfinite(
            sum(fl) + np.add.reduce(gains, axis=None))):
        bad = ~((phi > 0) & (phi < math.inf) & np.isfinite(gains).all(axis=1))
        A[bad], phi[bad], gains[bad] = np.nan, np.nan, np.nan
    return A, phi, gains


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
    A, phi, _ = _covariance(eff.cols[None], q[None], sigma2)
    if np.isnan(phi[0]):  # overflowed, or not invertible or factorable
        raise NumericsError("covariance not positive definite or not finite")
    return UplinkState(eff=eff, q=q, sigma2=float(sigma2), Jinv_cols=A[0],
                       trace_inv=float(phi[0]))


def _sum_mse(M: int, L: int, sigma2: float, phi: float) -> float:
    """Minimum sum-MSE (L - M)^+ + sigma2 phi from M x L columns' phi."""
    return max(L - M, 0) + sigma2 * phi


def sum_mse_uplink(state: UplinkState) -> float:
    """Minimum sum-MSE at this state (`_sum_mse`)."""
    return _sum_mse(*state.eff.cols.shape, state.sigma2, state.trace_inv)


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
    for users in ([k for k in range(d.K) if d.N[k] == n]
                  for n in dict.fromkeys(d.N)):
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
