import itertools
import math

import numpy as np
import pytest

import dualprec.designer as dz
from conftest import DIMS_2x2
from dualprec import (BOTH, SIMPLIFIED, VIRTUAL_UPLINK, ChannelSet,
                      ConvergenceError, DesignConfig, EffectiveChannel,
                      NumericsError, SingularTransformError, SolverConfig,
                      SystemDims, ValidationError, build_duality_data,
                      build_effective_channel, design, gen_channel,
                      make_state, random_unit_precoders, transform_power)
from dualprec.model import _runs
from dualprec.objective import _covariance
from dualprec.solver import ACTIVE_TOL
from oracles import (RankError, exact_state, legacy_smse_difference,
                     normalize_covariance, object_step, plain_design)

#: The perfbench design-loop shape: N_k > L_k needs many outer iterations.
LOOP_DIMS = SystemDims(M=4, K=2, N=(4, 4), L=(2, 2))
#: The perfbench large-m shape: one run of 32 single-stream users.
LARGE_DIMS = SystemDims(M=64, K=32, N=(2,) * 32, L=(1,) * 32)
#: Two single-stream users under eight antennas: L_tot < M.
THIN_DIMS = SystemDims(M=8, K=2, N=(2, 2), L=(1, 1))


#: The two starts of a design (`DesignConfig.init_mode`).
SVD, RANDOM = "channel_svd", "random_unit"


def small_channel(seed=11):
    return gen_channel(DIMS_2x2, 1.0, 10.0, seed=seed)


# ---------------------------------------------------------------------------
# design loop

def test_scalar_design_closed_form():
    dims = SystemDims(M=1, K=1, N=(1,), L=(1,))
    ch = ChannelSet(dims=dims, H=(np.array([[1.0 + 0j]]),), sigma2=1.0,
                    p_max=5.0)
    res = design(ch, DesignConfig())
    assert res.iters <= 2
    assert res.uplink.powers[0] == pytest.approx(5.0, abs=1e-12)
    assert res.downlink.powers[0] == pytest.approx(5.0, abs=1e-12)
    assert res.smse_trace[-1] == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_diagonal_channel_aligns_and_splits():
    dims = SystemDims(M=2, K=2, N=(1, 1), L=(1, 1))
    H1 = np.array([[1.0], [0.0]], dtype=complex)
    H2 = np.array([[0.0], [1.0]], dtype=complex)
    ch = ChannelSet(dims=dims, H=(H1, H2), sigma2=1.0, p_max=4.0)
    res = design(ch, DesignConfig())
    assert np.allclose(res.uplink.powers, [2.0, 2.0], atol=1e-8)
    assert np.allclose(res.downlink.powers, [2.0, 2.0], atol=1e-8)
    ub = res.downlink.stacked()
    assert abs(ub[0, 0]) == pytest.approx(1.0, abs=1e-10)
    assert abs(ub[1, 1]) == pytest.approx(1.0, abs=1e-10)


def test_path_agreement_every_iteration():
    res = design(small_channel(), DesignConfig(path=BOTH))
    assert len(res.path_gap_trace) == res.iters
    assert max(res.path_gap_trace) <= 1e-6 * 10.0


def test_monotone_descent():
    for seed, init in itertools.product((3, 4, 5), (SVD, RANDOM)):
        res = design(small_channel(seed), DesignConfig(init_mode=init))
        tr = np.array(res.smse_trace)
        assert np.all(np.diff(tr) <= 1e-10)


def test_trace_floor():
    res = design(small_channel(6), DesignConfig())
    d = DIMS_2x2
    assert res.smse_trace[-1] >= max(0, d.L_tot - d.M) - 1e-10
    assert res.smse_trace[-1] > 0


def test_fixed_point_rerun():
    ch = small_channel(7)
    res = design(ch, DesignConfig())
    # restart from the converged beamformers: the trace must not move
    cfg2 = DesignConfig()
    res2 = design_from(ch, res.uplink, cfg2)
    rel = abs(res2.smse_trace[-1] - res.smse_trace[-1]) / res.smse_trace[-1]
    assert rel <= cfg2.smse_rel_tol


def design_from(ch, uplink_set, cfg):
    """Re-run the alternation seeded with given uplink beamformers."""
    orig, users = dz._init_uplink_dirs, iter(uplink_set.by_user)
    dz._init_uplink_dirs = lambda inst, f: [
        np.array([next(users) for _ in range(n)])
        for n, _ in _runs(ch.dims.N, ch.dims.L)]
    try:
        return dz.design(ch, cfg)
    finally:
        dz._init_uplink_dirs = orig


def first_iterate(ch, cfg):
    """The design's first uplink beamformers, per user."""
    return [b for v in dz._init_uplink_dirs(dz._instance(ch), cfg)
            for b in v]


def test_convergence_error_carries_partial():
    with pytest.raises(ConvergenceError) as ei:
        design(small_channel(8), DesignConfig(max_outer_iters=1))
    partial = ei.value.partial
    assert partial is not None
    assert partial.iters == 1 and not partial.converged


def test_channel_svd_init():
    res = design(small_channel(9), DesignConfig(init_mode=SVD))
    assert res.converged
    tr = np.array(res.smse_trace)
    assert np.all(np.diff(tr) <= 1e-10)


@pytest.mark.parametrize("dims", [
    SystemDims(M=8, K=3, N=(2, 4, 2), L=(1, 2, 1)),
    SystemDims(M=3, K=3, N=(5, 5, 2), L=(1, 1, 1)), LOOP_DIMS,
    LARGE_DIMS], ids=["mixed-runs", "N-above-M", "loop", "M64"])
def test_channel_svd_init_is_the_per_user_svd(dims):
    # one stacked SVD per run of users, bitwise each user's own full SVD
    cfg = DesignConfig()
    for seed in (1, 2, 3):
        ch = gen_channel(dims, 1.0, 10.0, seed=seed)
        got = first_iterate(ch, cfg)
        for h, n, v in zip(ch.H, dims.L, got, strict=True):
            assert v.flags.c_contiguous
            assert np.array_equal(v, np.linalg.svd(h)[2].conj().T[:, :n])


def test_random_unit_init_is_the_seeded_precoders():
    dims = SystemDims(M=8, K=3, N=(2, 4, 2), L=(1, 2, 1))
    ch = gen_channel(dims, 1.0, 10.0, seed=4)
    for seed, want in ((None, 4), (9, 9)):
        ps = random_unit_precoders(dims, VIRTUAL_UPLINK, seed=[want, 101])
        got = first_iterate(ch, DesignConfig(init_mode=RANDOM, seed=seed))
        for a, b in zip(got, ps.by_user, strict=True):
            assert np.array_equal(a, b)


#: The moderate-SNR shapes whose random start capped 4 to 7 of 20 designs
#: at 200 accepted iterates (P = 10, seeds 1-20).
MODERATE_SNR_DIMS = [THIN_DIMS, SystemDims(M=8, K=4, N=(2,) * 4, L=(1,) * 4)]


@pytest.mark.parametrize("sigma2", [1e-2, 1e-4])
@pytest.mark.parametrize("dims", MODERATE_SNR_DIMS, ids=["K2", "K4"])
def test_moderate_snr_designs_converge(dims, sigma2):
    for seed in range(1, 21):
        res = design(gen_channel(dims, sigma2, 10.0, seed=seed))
        assert res.converged, seed


def test_design_rejects_invalid_instance():
    ch = small_channel(1)
    bad = ChannelSet(dims=ch.dims, H=ch.H, sigma2=-1.0, p_max=ch.p_max)
    with pytest.raises(ValidationError):
        design(bad, DesignConfig())
    for path in ("nope", "legacy_transform"):
        with pytest.raises(ValidationError):
            DesignConfig(path=path)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reported_smse_is_exact_at_high_snr(seed):
    # the last trace entry is sigma2 tr((sigma2 I + Q G)^-1) at the
    # returned iterate to within 16 eps (0.8 eps at most on these seeds);
    # formed as L_tot - M + sigma2 tr J^-1 it was 3e-3 to 6e-3 off
    ch = gen_channel(THIN_DIMS, 1e-12, 10.0, seed=seed)
    res = design(ch)
    eff = build_effective_channel(ch, res.uplink)
    want = exact_state(eff.cols, res.uplink.powers, 1e-12).smse
    got = res.smse_trace[-1]
    assert abs(got - want) <= 16 * np.finfo(float).eps * want


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_exact_smse_lets_the_design_descend(seed):
    # at sigma2 = 1e-8 a sum-MSE that carried the rounding of
    # (M - L_tot) / sigma2 stopped the design after 2 iterates; the exact
    # one takes 48, 71 and 57 to 5.2e-10, 4.8e-10 and 3.7e-10
    ch = gen_channel(THIN_DIMS, 1e-8, 10.0, seed=seed)
    res = design(ch, DesignConfig(smse_rel_tol=1e-14))
    assert res.converged and res.iters > 2
    assert np.all(np.diff(res.smse_trace) < 0)


# ---------------------------------------------------------------------------
# Anderson acceleration and its safeguard

def loop_channel(seed):
    return gen_channel(LOOP_DIMS, 1.0, 10.0, seed=seed)


@pytest.mark.parametrize("seed", [1019, 1035])
def test_slow_seeds_converge_within_budget(seed):
    # the plain alternation hits the 200-iteration cap on both
    res = design(loop_channel(seed), DesignConfig(path=BOTH, init_mode=RANDOM))
    assert res.converged and res.iters <= DesignConfig().max_outer_iters
    assert len(res.path_gap_trace) == res.iters
    assert max(res.path_gap_trace) <= 1e-6 * 10.0
    assert np.all(np.diff(res.smse_trace) < 0)


def test_warm_start_keeps_parked_streams_parked():
    # perfbench design-loop seed 91, round 54: a warm start that revived a
    # stream parked at 0 ran one power solve to max_iters and the design
    # ended in ConvergenceError after about 33 s
    res = design(loop_channel(91000055),
                 DesignConfig(path=BOTH, init_mode=RANDOM))
    assert res.converged and max(res.solve_steps) <= 10


def test_final_smse_no_worse_than_plain_loop():
    cfg = DesignConfig()
    for seed in range(1000, 1040):
        ch = loop_channel(seed)
        res = design(ch, cfg)
        *_, trace = plain_design(ch, first_iterate(ch, cfg), cfg)
        assert res.smse_trace[-1] <= trace[-1] * (1.0 + cfg.smse_rel_tol), \
            seed


def _force_candidates(monkeypatch, evaluate):
    """Route every `_step` call on an extrapolated candidate (anything but
    the plain step G(x_k) of the last accepted iterate) through
    ``evaluate(step, *args)``; return the list of such calls."""
    orig = dz._step
    plain, seen = [], []

    def step(ch, vbar, *rest):
        if plain and vbar is not plain[-1].g:
            seen.append(vbar)
            return evaluate(orig, ch, vbar, *rest)
        plain.append(orig(ch, vbar, *rest))
        return plain[-1]

    monkeypatch.setattr(dz, "_step", step)
    return seen


def _assert_plain_loop(ch, res, cfg):
    vbar, q, p, trace = plain_design(ch, first_iterate(ch, cfg), cfg)
    assert res.converged and res.smse_trace == trace
    assert np.array_equal(res.uplink.powers, q)
    assert np.array_equal(res.downlink.powers, p)
    for got, want in zip(res.uplink.by_user, vbar):
        assert np.array_equal(got, want)


def _higher(step, *args):
    return step(*args)._replace(smse=math.inf)


def _fails(step, *args):
    raise ConvergenceError("candidate solve failed")


@pytest.mark.parametrize("evaluate", [_higher, _fails],
                         ids=["higher-smse", "convergence-error"])
def test_rejected_candidates_fall_back_to_plain_map(monkeypatch, evaluate):
    ch, cfg = loop_channel(1000), DesignConfig()
    seen = _force_candidates(monkeypatch, evaluate)
    res = design(ch, cfg)
    assert seen and res.rejected == len(seen)
    _assert_plain_loop(ch, res, cfg)


@pytest.mark.parametrize("fill", [0.0, math.nan], ids=["zero", "nan"])
def test_degenerate_candidate_falls_back_to_plain_map(monkeypatch, fill):
    ch, cfg = loop_channel(1000), DesignConfig()
    calls = []

    def anderson(xs, gs):
        calls.append(1)
        return np.full_like(gs[-1], fill)

    monkeypatch.setattr(dz, "_anderson", anderson)
    res = design(ch, cfg)
    assert calls and res.rejected == len(calls)
    _assert_plain_loop(ch, res, cfg)


# ---------------------------------------------------------------------------
# the array step against the same step on the public object API

#: (dims, DesignConfig keywords): the design-loop shape on both paths and
#: from both starts, users of unequal shape, and L_tot < M at M = 8.
ARRAY_STEP_CASES = [
    (LOOP_DIMS, dict(path=BOTH, init_mode=RANDOM)),
    (LOOP_DIMS, dict(path=SIMPLIFIED, init_mode=RANDOM)),
    (LOOP_DIMS, dict(path=BOTH, init_mode=SVD)),
    (SystemDims(M=4, K=2, N=(2, 4), L=(1, 2)),
     dict(path=BOTH, init_mode=RANDOM)),
    (SystemDims(M=8, K=2, N=(8, 2), L=(1, 1)),
     dict(path=BOTH, init_mode=RANDOM)),
    (SystemDims(M=8, K=2, N=(8, 2), L=(1, 1)),
     dict(path=SIMPLIFIED, init_mode=SVD)),
    # three runs, the first and last of one shape
    (SystemDims(M=8, K=3, N=(2, 4, 2), L=(1, 2, 1)),
     dict(path=BOTH, init_mode=RANDOM)),
]
ARRAY_STEP_IDS = ["loop-both", "loop-simplified", "loop-svd", "N24-L12",
                  "M8-both", "M8-svd", "mixed-runs"]


@pytest.mark.parametrize("dims,kw", ARRAY_STEP_CASES, ids=ARRAY_STEP_IDS)
def test_array_step_is_bitwise_the_object_step(monkeypatch, dims, kw):
    for seed in (1000, 1001, 1002):
        ch, cfg = gen_channel(dims, 1.0, 10.0, seed=seed), DesignConfig(**kw)
        got = design(ch, cfg)
        with monkeypatch.context() as m:
            m.setattr(dz, "_step", object_step)
            want = design(ch, cfg)
        assert got.smse_trace == want.smse_trace
        assert got.path_gap_trace == want.path_gap_trace
        assert (got.iters, got.rejected) == (want.iters, want.rejected)
        assert got.solve_steps == want.solve_steps
        assert len(got.solve_steps) == got.iters
        assert len(got.transform_times) == len(want.transform_times)
        for a, b in ((got.uplink, want.uplink),
                     (got.downlink, want.downlink)):
            assert np.array_equal(a.powers, b.powers)
            for x, y in zip(a.by_user, b.by_user, strict=True):
                assert np.array_equal(x, y)


@pytest.mark.parametrize("dims,kw", ARRAY_STEP_CASES, ids=ARRAY_STEP_IDS)
def test_legacy_check_matches_the_public_transform(monkeypatch, dims, kw):
    # the stacked check's gap at every accepted iterate is bitwise the gap
    # of `transform_power` on `build_duality_data` at that iterate's state
    orig = dz._legacy_check
    for seed in (1000, 1001, 1002):
        ch, cfg = gen_channel(dims, 1.0, 10.0, seed=seed), \
            DesignConfig(**dict(kw, path=BOTH))
        seen = []

        def check(steps, *args):
            seen.extend(steps)
            return orig(steps, *args)

        with monkeypatch.context() as m:
            m.setattr(dz, "_legacy_check", check)
            res = design(ch, cfg)
        assert len(seen) == res.iters
        act_tol = ACTIVE_TOL * ch.p_max
        for step, gap in zip(seen, res.path_gap_trace, strict=True):
            state = make_state(EffectiveChannel(step.cols), step.q, ch.sigma2)
            p = transform_power(build_duality_data(state, act_tol), ch.sigma2)
            assert gap == float(np.abs(p - step.q).max())


def test_failed_plain_solve_carries_its_certificate(monkeypatch):
    # the first plain step cannot certify in one Newton step: its error is
    # the one solve_power raises, with the best iterate and certificate
    ch = loop_channel(1000)
    cfg = DesignConfig(solver=SolverConfig(max_iters=1))
    errors = []
    for step in (dz._step, object_step):
        monkeypatch.setattr(dz, "_step", step)
        with pytest.raises(ConvergenceError) as ei:
            design(ch, cfg)
        errors.append(ei.value)
    got, want = errors
    assert got.partial is None and str(got) == str(want)
    assert np.array_equal(got.best_q, want.best_q)
    a, b = got.certificate, want.certificate
    assert np.array_equal(a.mu, b.mu)
    assert (a.mu_sum, a.relative_gap, a.stationarity_residual) == \
        (b.mu_sum, b.relative_gap, b.stationarity_residual)
    assert np.array_equal(a.state.q, got.best_q)
    assert np.array_equal(a.state.Jinv_cols, b.state.Jinv_cols)
    assert a.state.trace_inv == b.state.trace_inv


def test_unfactorable_downlink_covariance_raises(monkeypatch):
    # the role swap's kernel calls are the designer's own; one that comes
    # back NaN (a covariance the kernel rejects) ends the design
    def rejected(cols, q, sigma2, gram=None):
        A, f, gains = _covariance(cols, q, sigma2, gram)
        return A * math.nan, f * math.nan, gains * math.nan

    monkeypatch.setattr(dz, "_covariance", rejected)
    with pytest.raises(NumericsError, match="downlink covariance"):
        design(loop_channel(1000), DesignConfig())


# ---------------------------------------------------------------------------
# the legacy transform as a check over the accepted iterates (path "both")

def test_compare_paths_agreement_and_timing():
    ch, cfg = small_channel(20), DesignConfig(path=BOTH)
    res = design(ch, cfg)
    assert max(res.path_gap_trace) <= 1e-6 * 10.0
    assert legacy_smse_difference(ch, res) <= 1e-8
    assert np.median(res.shortcut_times) < np.median(res.transform_times)


def test_compare_paths_aggregate_timing():
    tot_leg = tot_sc = 0.0
    for seed in range(10):
        res = design(small_channel(seed), DesignConfig(path=BOTH))
        tot_leg += sum(res.transform_times)
        tot_sc += sum(res.shortcut_times)
    assert tot_sc < tot_leg


def test_simplified_path_runs_no_legacy_check():
    res = design(small_channel(21), DesignConfig())
    assert res.transform_times == [] and res.path_gap_trace == []
    assert len(res.shortcut_times) == res.iters
    assert np.array_equal(res.downlink.powers, res.uplink.powers)


def test_legacy_check_runs_once_per_design(monkeypatch):
    # one `_powers` call per design on path "both", on every accepted
    # iterate at once, and none on the other path
    rows, orig = [], dz._powers

    def powers(Q, *args):
        rows.append(len(Q))
        return orig(Q, *args)

    monkeypatch.setattr(dz, "_powers", powers)
    ch = loop_channel(1000)
    res = design(ch, DesignConfig(path=BOTH))
    assert res.iters > 1 and rows == [res.iters]
    assert len(res.path_gap_trace) == len(res.transform_times) == res.iters
    rows.clear()
    design(ch, DesignConfig())
    assert rows == []


@pytest.mark.parametrize("dims", [LOOP_DIMS, LARGE_DIMS], ids=["loop", "M64"])
def test_legacy_check_chunks_do_not_change_its_gaps(monkeypatch, dims):
    # a budget of one iterate per chunk against one chunk for them all
    ch, cfg = gen_channel(dims, 1.0, 10.0, seed=1), \
        DesignConfig(path=BOTH, max_outer_iters=12)
    traces = []
    for budget in (1, 1 << 30):
        monkeypatch.setattr(dz, "STACK_BYTES", budget)
        try:
            res = design(ch, cfg)
        except ConvergenceError as e:
            res = e.partial
        traces.append(res.path_gap_trace)
    assert len(traces[0]) > 1 and traces[0] == traces[1]


def test_design_memory_is_bounded():
    # 200 accepted iterates at M = 64, K = 32: an iterate keeps its
    # receivers and columns on path "both" only, no superseded iterate
    # keeps its downlink beamformers, and the check stacks them in chunks
    # of at most STACK_BYTES
    import tracemalloc

    ch = gen_channel(LARGE_DIMS, 1.0, 10.0, seed=1)
    peaks = {}
    for path in (SIMPLIFIED, BOTH):
        tracemalloc.start()
        try:
            with pytest.raises(ConvergenceError) as ei:
                design(ch, DesignConfig(path=path))
            peaks[path] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ei.value.partial.iters == 200
    kept = 200 * 2 * 16 * LARGE_DIMS.M * LARGE_DIMS.L_tot
    assert peaks[SIMPLIFIED] < 2 * 2 ** 20
    assert peaks[BOTH] < peaks[SIMPLIFIED] + kept + 8 * dz.STACK_BYTES


@pytest.mark.parametrize("dims,kw", ARRAY_STEP_CASES, ids=ARRAY_STEP_IDS)
def test_legacy_check_is_an_observer(dims, kw):
    # the check never steers the design: both paths take the same iterates
    for seed in (1000, 1001, 1002):
        ch = gen_channel(dims, 1.0, 10.0, seed=seed)
        both, plain = (design(ch, DesignConfig(**dict(kw, path=path)))
                       for path in (BOTH, SIMPLIFIED))
        assert both.smse_trace == plain.smse_trace
        assert (both.iters, both.rejected) == (plain.iters, plain.rejected)
        assert both.solve_steps == plain.solve_steps
        for a, b in ((both.uplink, plain.uplink),
                     (both.downlink, plain.downlink)):
            assert np.array_equal(a.powers, b.powers)
            for x, y in zip(a.by_user, b.by_user, strict=True):
                assert np.array_equal(x, y)


#: At sigma2 = 1e-12 the transform matrix of the first iterate of these
#: L_tot > M designs is too ill-conditioned for the legacy check.
SINGULAR_DIMS = SystemDims(M=8, K=6, N=(2,) * 6, L=(2,) * 6)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_failed_legacy_check_raises_its_error(seed):
    ch = gen_channel(SINGULAR_DIMS, 1e-12, 10.0, seed=seed)
    with pytest.raises(SingularTransformError) as ei:
        design(ch, DesignConfig(path=BOTH))
    assert str(ei.value) == \
        "power-transform matrix condition number exceeds 1e12"
    # the same design without the check converges
    assert design(ch, DesignConfig()).converged


def test_legacy_check_error_comes_before_loop_errors(monkeypatch):
    # the check error of the first iterate wins over the cap's
    # ConvergenceError and over a later plain step's failure
    ch = gen_channel(SINGULAR_DIMS, 1e-12, 10.0, seed=1)
    with pytest.raises(SingularTransformError):
        design(ch, DesignConfig(path=BOTH, max_outer_iters=1))
    orig, calls = dz._step, []

    def step(*args):
        calls.append(1)
        if len(calls) > 1:
            raise NumericsError("downlink covariance not positive definite")
        return orig(*args)

    monkeypatch.setattr(dz, "_step", step)
    with pytest.raises(SingularTransformError):
        design(ch, DesignConfig(path=BOTH))
    calls.clear()
    with pytest.raises(NumericsError):
        design(ch, DesignConfig())


def test_single_stream_instance_conversion_exact():
    dims = SystemDims(M=2, K=1, N=(2,), L=(1,))
    ch = gen_channel(dims, 1.0, 3.0, seed=30)
    res = design(ch, DesignConfig(path=BOTH))
    assert max(res.path_gap_trace) <= 1e-12


# ---------------------------------------------------------------------------
# normalize_covariance

def test_normalize_scaled_projector():
    e1 = np.zeros((3, 1), dtype=complex)
    e1[0] = 1.0
    (q, Rbar), = normalize_covariance([2.0 * (e1 @ e1.conj().T)])
    assert q == pytest.approx(2.0, abs=1e-15)
    assert np.allclose(Rbar, e1 @ e1.conj().T)
    assert np.trace(Rbar).real == pytest.approx(1.0, abs=1e-12)


def test_normalize_zero_matrix_inactive():
    (q, Rbar), = normalize_covariance([np.zeros((2, 2))])
    assert q == 0.0 and Rbar is None


def test_normalize_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        q0 = rng.uniform(0.1, 9.0)
        R = q0 * np.outer(v, v.conj())
        (q, Rbar), = normalize_covariance([R])
        assert abs(q - q0) <= 1e-12 * q0
        assert np.abs(Rbar - np.outer(v, v.conj())).max() <= 1e-12


def test_normalize_rejects_rank_two():
    R = np.diag([1.0, 0.5]).astype(complex)
    with pytest.raises(RankError):
        normalize_covariance([R])
