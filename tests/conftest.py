import numpy as np

from dualprec import (VIRTUAL_UPLINK, SystemDims, build_effective_channel,
                      gen_channel, random_unit_precoders)
from dualprec.objective import _covariance

DIMS_2x2 = SystemDims(M=4, K=2, N=(2, 2), L=(2, 2))


def rand_instance(seed, dims=DIMS_2x2, sigma2=1.0, p_max=10.0):
    """Channel + seeded random uplink precoders + effective channel."""
    ch = gen_channel(dims, sigma2, p_max, seed=seed)
    up = random_unit_precoders(dims, VIRTUAL_UPLINK, seed=[seed, 1])
    eff = build_effective_channel(ch, up)
    return ch, up, eff


def scalar_instance(p_max=3.0, sigma2=1.0):
    """M = K = N = L = 1 with H = 1: everything reduces to closed forms."""
    from dualprec import ChannelSet

    dims = SystemDims(M=1, K=1, N=(1,), L=(1,))
    ch = ChannelSet(dims=dims, H=(np.array([[1.0 + 0j]]),), sigma2=sigma2,
                    p_max=p_max)
    up = random_unit_precoders(dims, VIRTUAL_UPLINK, seed=0)
    # pin the beamformer to exactly 1 so hand algebra applies bit for bit
    up = type(up)(direction=VIRTUAL_UPLINK,
                  by_user=(np.array([[1.0 + 0j]]),), powers=up.powers)
    eff = build_effective_channel(ch, up)
    return ch, up, eff


def wiener_filters(state):
    """Uplink Wiener filters u_l = J^-1 htil_l sqrt(q_l), M x L_tot; zero
    exactly where q_l = 0."""
    return state.Jinv_cols * np.sqrt(state.q)


def mse_trace_sum(state):
    """Sum of the unclamped per-stream uplink MMSEs
    1 - q_l htil_l^H J^-1 htil_l, which equals sum_k tr E_k."""
    g = np.einsum("ml,ml->l", state.eff.cols.conj(), state.Jinv_cols).real
    return float(np.sum(1.0 - state.q * g))


def covariance(cols, q, sigma2):
    """The covariance kernel on one instance: (A, f, gains) of
    `objective._covariance` called with B = 1."""
    out = _covariance(np.asarray(cols, dtype=complex)[None],
                      np.asarray(q, dtype=float)[None], sigma2)
    return tuple(x[0] for x in out)
