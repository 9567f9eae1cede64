import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DIMS_2x2, rand_instance
from dualprec import (DOWNLINK, VIRTUAL_UPLINK, ChannelSet, DimensionError,
                      PrecoderSet, SystemDims, ValidationError,
                      build_effective_channel, channel_from_dict,
                      channel_to_dict, gen_channel, load_instance,
                      random_unit_precoders, save_instance, validate)
from dualprec.model import (PRECODER_TAG, _gaussians, _runs, _seed_words,
                            _SeedState, gen_channels, gen_stacks)
from oracles import (build_effective_channel_per_user, gen_channel_per_user,
                     precoder_violations, precoders_from_dict,
                     precoders_to_dict, random_unit_precoders_per_user,
                     stream_owner)


def test_validate_well_formed():
    ch = gen_channel(DIMS_2x2, 1.0, 10.0, seed=1)
    assert validate(ch) == []


def test_validate_sigma2_boundary():
    ch = gen_channel(DIMS_2x2, 1.0, 10.0, seed=1)
    bad = ChannelSet(dims=ch.dims, H=ch.H, sigma2=0.0, p_max=ch.p_max)
    out = validate(bad)
    assert len(out) == 1 and out[0].startswith("sigma2")


def test_validate_nan_entry():
    ch = gen_channel(DIMS_2x2, 1.0, 10.0, seed=1)
    H = list(ch.H)
    H0 = H[0].copy()
    H0[0, 0] = np.nan
    H[0] = H0
    out = validate(ChannelSet(dims=ch.dims, H=tuple(H), sigma2=1.0, p_max=10.0))
    assert any(v.startswith("H[0]") and "finite" in v for v in out)


def test_validate_reports_shape_and_dims_rules():
    dims = SystemDims(M=2, K=1, N=(2,), L=(3,))
    out = dims.violations()
    assert any("L_k <= N_k" in v for v in out)
    ch = ChannelSet(dims=SystemDims(M=2, K=1, N=(2,), L=(2,)),
                    H=(np.zeros((3, 2), dtype=complex),), sigma2=1.0, p_max=1.0)
    assert any(v.startswith("H[0]") for v in validate(ch))


def test_gen_channel_deterministic():
    a = gen_channel(DIMS_2x2, 1.0, 10.0, seed=7)
    b = gen_channel(DIMS_2x2, 1.0, 10.0, seed=7)
    for ha, hb in zip(a.H, b.H):
        assert np.array_equal(ha, hb)


def test_gen_channel_shapes():
    ch = gen_channel(DIMS_2x2, 1.0, 10.0, seed=7)
    assert [h.shape for h in ch.H] == [(4, 2), (4, 2)]


def test_gen_channel_unit_variance():
    # Monte Carlo estimate of E|h|^2 over 1e5 entries
    dims = SystemDims(M=250, K=1, N=(400,), L=(1,))
    ch = gen_channel(dims, 1.0, 1.0, seed=123)
    mean_power = np.mean(np.abs(ch.H[0]) ** 2)
    assert abs(mean_power - 1.0) <= 0.02


def test_gen_channel_rejects_bad_dims():
    with pytest.raises(DimensionError):
        gen_channel(SystemDims(M=0, K=1, N=(1,), L=(1,)), 1.0, 1.0, seed=0)


def test_gen_output_passes_validate():
    for seed, dims in [(0, DIMS_2x2),
                       (1, SystemDims(M=1, K=1, N=(1,), L=(1,))),
                       (2, SystemDims(M=3, K=3, N=(1, 2, 3), L=(1, 1, 2)))]:
        assert validate(gen_channel(dims, 0.5, 4.0, seed=seed)) == []


@pytest.mark.parametrize("dims", [
    DIMS_2x2, SystemDims(M=6, K=2, N=(3, 3), L=(2, 2)),
    SystemDims(M=64, K=32, N=(2,) * 32, L=(1,) * 32),
    SystemDims(M=8, K=5, N=(2, 2, 3, 3, 2), L=(1, 1, 2, 1, 1)),
    SystemDims(M=5, K=6, N=(3, 3, 1, 3, 3, 3), L=(2, 2, 1, 1, 2, 2))],
    ids=["4,2,2,2,2,2", "6,2,3,3,2,2", "M64", "8,5,2,2,3,3,2,1,1,2,1,1",
         "5,6,3,3,1,3,3,3,2,2,1,1,2,2"])
def test_gen_stacks_equal_per_seed_generation(dims):
    # one draw per generator and one matmul per run of equal-shape users
    # give bitwise the per-user draws and products, seed by seed and
    # whatever the stack
    seeds = range(3, 10)
    H, V, cols = gen_stacks(dims, seeds)
    runs = _runs(dims.N, dims.L)  # one stack per run of equal-shape users
    assert [h.shape for h in H] == [(7, n, dims.M, N) for n, (N, _) in runs]
    assert [v.shape for v in V] == [(7, n, N, c) for n, (N, c) in runs]
    assert cols.shape == (7, dims.M, dims.L_tot)
    H, V = ([x[:, j] for x in X for j in range(x.shape[1])] for X in (H, V))
    for b, seed in enumerate(seeds):
        ch = gen_channel_per_user(dims, 1.0, 10.0, seed=seed)
        up = random_unit_precoders_per_user(dims, VIRTUAL_UPLINK,
                                            seed=[seed, PRECODER_TAG])
        eff = build_effective_channel_per_user(ch, up)
        one = gen_channel(dims, 1.0, 10.0, seed=seed)
        one_up = random_unit_precoders(dims, VIRTUAL_UPLINK,
                                       seed=[seed, PRECODER_TAG])
        for k in range(dims.K):
            assert np.array_equal(H[k][b], ch.H[k])
            assert np.array_equal(one.H[k], ch.H[k])
            assert np.array_equal(V[k][b], up.by_user[k])
            assert np.array_equal(one_up.by_user[k], up.by_user[k])
        assert np.array_equal(cols[b], eff.cols)
        assert np.array_equal(build_effective_channel(ch, up).cols, eff.cols)
        assert np.array_equal(gen_stacks(dims, [seed])[2][0], eff.cols)
    dl = random_unit_precoders(dims, DOWNLINK, seed=5)
    for a, b in zip(dl.by_user, random_unit_precoders_per_user(
            dims, DOWNLINK, seed=5).by_user):
        assert np.array_equal(a, b)


def test_gen_stacks_check_the_dims():
    with pytest.raises(DimensionError):
        gen_stacks(SystemDims(M=2, K=1, N=(2,), L=(3,)), range(4))


#: Seed ints on and around the 32-bit word boundaries, up to 2**130.
seed_ints = st.one_of(
    st.integers(min_value=0, max_value=2 ** 130),
    st.sampled_from([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 64 - 1,
                     2 ** 64, 2 ** 64 + 1, 2 ** 128, 2 ** 130]))
any_seed = st.one_of(
    seed_ints, st.booleans(),
    st.integers(min_value=0, max_value=2 ** 63 - 1).map(np.int64),
    st.integers(min_value=0, max_value=2 ** 32 - 1).map(np.uint32),
    st.integers(min_value=0, max_value=2 ** 64 - 1).map(np.uint64),
    st.tuples(seed_ints, st.sampled_from([PRECODER_TAG, 101])).map(list),
    st.lists(seed_ints, min_size=5, max_size=9))  # more than 4 words


@settings(max_examples=200, deadline=None)
@given(st.lists(any_seed, max_size=12))
def test_seed_words_are_numpys(seed_list):
    # one array pass hashes every seed to the PCG64 state numpy's
    # SeedSequence gives it, and the generators draw what default_rng's do
    words = _seed_words(seed_list)
    assert words.shape == (len(seed_list), 4) and words.dtype == np.uint64
    (z,) = _gaussians(words, [(1, (1, 3))])
    for w, x, seed in zip(words, z, seed_list):
        assert np.array_equal(
            w, np.random.SeedSequence(seed).generate_state(4, np.uint64))
        want = np.random.default_rng(seed).standard_normal(6)
        assert np.array_equal(x[0, 0], want[:3] + 1j * want[3:])


@pytest.mark.parametrize("bad", [-1, [1, -1], 1.5, "7", [1.5], np.True_,
                                 [None], np.float64(2.0)])
def test_seeds_numpy_rejects_raise_its_exception(bad):
    with pytest.raises(Exception) as want:
        np.random.default_rng(bad)
    kind = type(want.value)
    assert kind in (TypeError, ValueError)
    with pytest.raises(kind):
        _seed_words([3, bad])
    with pytest.raises(kind):
        gen_channel(DIMS_2x2, 1.0, 10.0, seed=bad)
    with pytest.raises(kind):
        gen_stacks(DIMS_2x2, [3, bad])


def test_seed_state_is_four_uint64_words():
    # the adapter hands PCG64 its state and nothing else
    state = _SeedState(_seed_words([7])[0])
    assert np.array_equal(state.generate_state(4, np.uint64),
                          np.random.SeedSequence(7).generate_state(4, np.uint64))
    for n, dtype in ((4, np.uint32), (2, np.uint64), (8, np.uint64)):
        with pytest.raises(ValueError):
            state.generate_state(n, dtype)


def test_seed_none_draws_fresh_entropy():
    a, b = (gen_channel(DIMS_2x2, 1.0, 10.0, seed=None) for _ in range(2))
    assert not np.array_equal(a.H[0], b.H[0])
    assert a.seed is None


def test_empty_seed_list_gives_empty_stacks():
    dims = SystemDims(M=4, K=3, N=(2, 2, 3), L=(2, 1, 1))
    H, V, cols = gen_stacks(dims, [])
    assert [h.shape for h in H] == [(0, 1, 4, 2), (0, 1, 4, 2), (0, 1, 4, 3)]
    assert [v.shape for v in V] == [(0, 1, 2, 2), (0, 1, 2, 1), (0, 1, 3, 1)]
    assert cols.shape == (0, 4, 4)
    assert gen_channels(dims, 1.0, 10.0, []) == []


def test_gen_channels_are_gen_channel_of_each_seed():
    # bench's channels: one stack per batch, each instance a view into it
    seeds = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 70, 9]
    chans = gen_channels(DIMS_2x2, 0.5, 4.0, seeds)
    for ch, seed in zip(chans, seeds):
        one = gen_channel(DIMS_2x2, 0.5, 4.0, seed=seed)
        assert (ch.seed, ch.sigma2, ch.p_max) == (seed, 0.5, 4.0)
        for h, h1 in zip(ch.H, one.H):
            assert np.array_equal(h, h1)
    assert chans[0].H[0].base is chans[1].H[0].base


def test_effective_channel_identity():
    dims = SystemDims(M=2, K=1, N=(2,), L=(1,))
    ch = ChannelSet(dims=dims, H=(np.eye(2, dtype=complex),), sigma2=1.0,
                    p_max=1.0)
    up = PrecoderSet(direction=VIRTUAL_UPLINK,
                     by_user=(np.array([[1.0], [0.0]], dtype=complex),),
                     powers=np.zeros(1))
    eff = build_effective_channel(ch, up)
    assert np.allclose(eff.cols[:, 0], [1.0, 0.0])


def test_effective_channel_rejects_non_unit_norm():
    dims = SystemDims(M=2, K=1, N=(2,), L=(1,))
    ch = ChannelSet(dims=dims, H=(np.eye(2, dtype=complex),), sigma2=1.0,
                    p_max=1.0)
    up = PrecoderSet(direction=VIRTUAL_UPLINK,
                     by_user=(np.array([[0.5], [0.0]], dtype=complex),),
                     powers=np.zeros(1))
    with pytest.raises(ValidationError):
        build_effective_channel(ch, up)


def test_effective_channel_rejects_downlink_set():
    ch, up, _ = rand_instance(0)
    dl = PrecoderSet(direction=DOWNLINK, by_user=up.by_user, powers=up.powers)
    with pytest.raises(ValidationError):
        build_effective_channel(ch, dl)


def test_effective_channel_matches_naive_product():
    ch, up, eff = rand_instance(5)
    d = ch.dims
    l = 0
    for k in range(d.K):
        for j in range(d.L[k]):
            # triple-loop oracle for H_k @ vbar
            expect = np.zeros(d.M, dtype=complex)
            for m in range(d.M):
                acc = 0.0 + 0.0j
                for n in range(d.N[k]):
                    acc += ch.H[k][m, n] * up.by_user[k][n, j]
                expect[m] = acc
            assert np.abs(eff.cols[:, l] - expect).max() <= 1e-14
            l += 1


def test_effective_channel_user_permutation_equivariance():
    dims = SystemDims(M=3, K=3, N=(1, 2, 3), L=(1, 2, 1))
    ch = gen_channel(dims, 1.0, 5.0, seed=9)
    up = random_unit_precoders(dims, VIRTUAL_UPLINK, seed=[9, 1])
    eff = build_effective_channel(ch, up)

    perm = [2, 0, 1]
    dims_p = SystemDims(M=3, K=3, N=tuple(dims.N[k] for k in perm),
                        L=tuple(dims.L[k] for k in perm))
    ch_p = ChannelSet(dims=dims_p, H=tuple(ch.H[k] for k in perm),
                      sigma2=ch.sigma2, p_max=ch.p_max)
    up_p = PrecoderSet(direction=VIRTUAL_UPLINK,
                       by_user=tuple(up.by_user[k] for k in perm),
                       powers=np.zeros(dims_p.L_tot))
    eff_p = build_effective_channel(ch_p, up_p)

    stream_perm = np.concatenate([np.flatnonzero(stream_owner(dims) == k)
                                  for k in perm])
    assert np.array_equal(eff_p.cols, eff.cols[:, stream_perm])


def test_channel_json_round_trip_exact(tmp_path):
    ch = gen_channel(DIMS_2x2, 0.3, 7.25, seed=42)
    path = tmp_path / "inst.json"
    save_instance(ch, path)
    back = load_instance(path)
    assert back.dims == ch.dims
    assert back.sigma2 == ch.sigma2 and back.p_max == ch.p_max
    assert back.seed == ch.seed
    for a, b in zip(ch.H, back.H):
        assert np.array_equal(a, b)


def test_precoder_json_round_trip_exact():
    up = random_unit_precoders(DIMS_2x2, VIRTUAL_UPLINK, seed=[3, 1],
                               powers=np.array([0.1, 0.2, 0.3, 0.4]))
    back = precoders_from_dict(json.loads(json.dumps(precoders_to_dict(up))))
    assert back.direction == up.direction
    assert np.array_equal(back.powers, up.powers)
    for a, b in zip(up.by_user, back.by_user):
        assert np.array_equal(a, b)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.floats(min_value=1e-6, max_value=1e6),
       st.floats(min_value=1e-6, max_value=1e6))
def test_channel_round_trip_property(seed, sigma2, p_max):
    ch = gen_channel(SystemDims(M=2, K=2, N=(2, 1), L=(2, 1)), sigma2, p_max,
                     seed=seed)
    back = channel_from_dict(json.loads(json.dumps(channel_to_dict(ch))))
    assert back.sigma2 == ch.sigma2 and back.p_max == ch.p_max
    for a, b in zip(ch.H, back.H):
        assert np.array_equal(a, b)


def test_precoder_violations():
    up = random_unit_precoders(DIMS_2x2, VIRTUAL_UPLINK, seed=1)
    assert precoder_violations(up, p_max=10.0) == []
    bad = PrecoderSet(direction=VIRTUAL_UPLINK,
                      by_user=tuple(2.0 * b for b in up.by_user),
                      powers=up.powers)
    assert any("unit norm" in v for v in precoder_violations(bad))
    over = PrecoderSet(direction=VIRTUAL_UPLINK, by_user=up.by_user,
                       powers=np.full(4, 100.0))
    assert any("p_max" in v for v in precoder_violations(over, p_max=10.0))
