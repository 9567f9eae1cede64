"""Exact symmetries of the model as an oracle for the power solve.

A common transmit rotation H_k -> W H_k (W unitary M x M) with the same
uplink beamformers maps the effective columns htil_l to W htil_l, so
Htil^H Htil, every gain and the optimal powers do not change in exact
arithmetic.  Permuting the streams, the columns of Htil, permutes the
optimal powers the same way.  Computed, q moves only by rounding.
"""

import numpy as np
import pytest

from dualprec import (VIRTUAL_UPLINK, ChannelSet, EffectiveChannel,
                      SystemDims, build_effective_channel, gen_channel,
                      random_unit_precoders, solve_power)

#: L_tot = M, L_tot > M and L_tot < M
ROTATION_DIMS = [SystemDims(M=4, K=2, N=(2, 2), L=(2, 2)),
                 SystemDims(M=8, K=6, N=(2,) * 6, L=(2,) * 6),
                 SystemDims(M=8, K=2, N=(2, 2), L=(1, 1))]
#: |q - q_W| / P; the largest measured over these cells is 2.4e-15
ROTATION_BUDGET = 1e-13
#: |q[perm] - q_perm| / P; the largest measured over these cells is 7.1e-15
PERMUTATION_BUDGET = 1e-13


def random_unitary(M, seed):
    """A Haar-distributed unitary M x M: QR of a complex Gaussian matrix,
    with the phases of R's diagonal moved into Q."""
    rng = np.random.default_rng([seed, 7])
    Z = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
    Qm, R = np.linalg.qr(Z)
    d = R.diagonal()
    return Qm * (d / np.abs(d))


@pytest.mark.parametrize("sigma2", [1.0, 1e-4, 1e-8])
@pytest.mark.parametrize("dims", ROTATION_DIMS,
                         ids=["square", "wide", "tall"])
def test_common_transmit_rotation_leaves_the_powers(dims, sigma2):
    p_max = 10.0
    for seed in range(1, 11):
        ch = gen_channel(dims, sigma2, p_max, seed=seed)
        up = random_unit_precoders(dims, VIRTUAL_UPLINK, seed=[seed, 1])
        W = random_unitary(dims.M, seed)
        rotated = ChannelSet(dims=dims, H=tuple(W @ h for h in ch.H),
                             sigma2=sigma2, p_max=p_max)
        q, _ = solve_power(build_effective_channel(ch, up), sigma2, p_max)
        qw, _ = solve_power(build_effective_channel(rotated, up), sigma2,
                            p_max)
        assert np.max(np.abs(q - qw)) / p_max <= ROTATION_BUDGET, seed


@pytest.mark.parametrize("sigma2", [1.0, 1e-4, 1e-8])
@pytest.mark.parametrize("dims", ROTATION_DIMS,
                         ids=["square", "wide", "tall"])
def test_stream_permutation_permutes_the_powers(dims, sigma2):
    p_max = 10.0
    for seed in range(1, 11):
        ch = gen_channel(dims, sigma2, p_max, seed=seed)
        up = random_unit_precoders(dims, VIRTUAL_UPLINK, seed=[seed, 1])
        eff = build_effective_channel(ch, up)
        perm = np.random.default_rng([seed, 11]).permutation(dims.L_tot)
        q, _ = solve_power(eff, sigma2, p_max)
        qp, _ = solve_power(EffectiveChannel(cols=eff.cols[:, perm]), sigma2,
                            p_max)
        assert np.max(np.abs(q[perm] - qp)) / p_max <= PERMUTATION_BUDGET, \
            seed
