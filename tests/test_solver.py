import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DIMS_2x2, covariance, rand_instance, scalar_instance
from dualprec import (VIRTUAL_UPLINK, ChannelSet, ConvergenceError,
                      DimensionError, EffectiveChannel, NumericsError,
                      SolverConfig, SystemDims, ValidationError,
                      build_effective_channel, gen_channel, project_power,
                      random_unit_precoders, solve_power, verify_theorem)
from dualprec import solver
from dualprec.cli import DEFAULT_BOUNDS
from dualprec.model import gen_stacks
from dualprec.objective import _covariance, _gram
from oracles import (CostGuardError, active_set, brute_force_power,
                     kkt_certify)


def _trace_jinv(cols, sigma2, q):
    return covariance(cols, q, sigma2)[1]


def _gains(cols, sigma2, q):
    return covariance(cols, q, sigma2)[2]


def eff_from_cols(cols):
    cols = np.asarray(cols, dtype=complex)
    return EffectiveChannel(cols=cols)


def correlated_instance(seed, rho, sigma2):
    """The effective channel of a 4,2,2,2,2,2 instance whose base-station
    antennas are correlated as rho^|i - j|."""
    R = rho ** np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
    rng = np.random.default_rng(seed)
    H = tuple(np.linalg.cholesky(R) @ (rng.standard_normal((4, 2))
                                       + 1j * rng.standard_normal((4, 2)))
              / np.sqrt(2) for _ in range(2))
    ch = ChannelSet(dims=DIMS_2x2, H=H, sigma2=sigma2, p_max=10.0)
    up = random_unit_precoders(DIMS_2x2, VIRTUAL_UPLINK, seed=[seed, 1])
    return build_effective_channel(ch, up)


def orthonormal_pair():
    return eff_from_cols(np.eye(2))


def collinear_weak(scale=0.1):
    h = np.array([1.0, 0.0])
    return eff_from_cols(np.stack([h, scale * h], axis=1))


# ---------------------------------------------------------------------------
# config and small utilities

def test_config_validation():
    with pytest.raises(ValidationError):
        SolverConfig(kkt_tol=0.0)
    with pytest.raises(ValidationError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValidationError):
        SolverConfig(kkt_tol=float("nan"))
    with pytest.raises(ValidationError):
        SolverConfig(kkt_tol=float("inf"))
    with pytest.raises(ValidationError):
        SolverConfig(max_iters=2.5)


def test_active_set_examples():
    act, inact = active_set(np.array([1.0, 0.0, 2.0]), 1e-9)
    assert act.tolist() == [0, 2] and inact.tolist() == [1]
    act, inact = active_set(np.array([0.5, 0.5]), 1e-9)
    assert inact.size == 0
    with pytest.raises(ValidationError):
        active_set(np.array([-1.0]), 0.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1,
                max_size=8),
       st.floats(min_value=0.1, max_value=20))
def test_project_power_properties(vals, p_max):
    q = np.array(vals)
    p = project_power(q, p_max)
    assert np.all(p >= 0)
    assert p.sum() <= p_max + 1e-9
    # projecting a feasible point is the identity
    assert np.allclose(project_power(p, p_max), p, atol=1e-12)


def test_project_power_simplex_case():
    p = project_power(np.array([2.0, 2.0]), 2.0)
    assert np.allclose(p, [1.0, 1.0])
    p = project_power(np.array([5.0, -1.0]), 2.0)
    assert np.allclose(p, [2.0, 0.0])


# ---------------------------------------------------------------------------
# solve_power

def test_single_stream_gets_full_budget():
    _, _, eff = scalar_instance()
    q, cert = solve_power(eff, 1.0, 3.0)
    assert q[0] == pytest.approx(3.0, abs=1e-12)
    assert cert.max_residual <= 1e-9


def test_orthonormal_pair_splits_evenly():
    q, cert = solve_power(orthonormal_pair(), 1.0, 2.0)
    assert np.allclose(q, [1.0, 1.0], atol=1e-9)
    assert cert.max_residual <= 1e-9


def test_collinear_weak_stream_deactivates():
    q, cert = solve_power(collinear_weak(), 1.0, 5.0)
    assert q[1] == 0.0
    assert q[0] == pytest.approx(5.0, abs=1e-9)
    act, inact = active_set(q, 1e-9 * 5.0)
    assert act.tolist() == [0] and inact.tolist() == [1]


def test_budget_tight_at_optimum():
    for seed in range(10):
        ch, _, eff = rand_instance(seed)
        q, cert = solve_power(eff, ch.sigma2, ch.p_max)
        assert abs(q.sum() - ch.p_max) <= 1e-9 * max(1.0, ch.p_max)
        assert cert.passes(1e-9)


def test_equal_gains_on_active_streams():
    for seed in range(10):
        ch, _, eff = rand_instance(seed)
        cfg = SolverConfig()
        q, cert = solve_power(eff, ch.sigma2, ch.p_max, cfg)
        gains = _gains(eff.cols, ch.sigma2, q)
        act = q > 1e-9 * ch.p_max
        if act.sum() > 1:
            assert gains[act].max() - gains[act].min() <= 2 * cfg.kkt_tol
        assert np.all(gains[~act] <= cert.mu_sum + cfg.kkt_tol)


def test_descent_and_feasible_iterates():
    ch, _, eff = rand_instance(12)
    fs, qs = [], []
    solve_power(eff, ch.sigma2, ch.p_max,
                callback=lambda q, f: (qs.append(q.copy()), fs.append(f)))
    fs = np.array(fs)
    assert np.all(np.diff(fs) <= 1e-12)
    for q in qs:
        assert np.all(q >= 0) and q.sum() <= ch.p_max + 1e-9


def test_warm_start_matches_cold_objective():
    ch, _, eff = rand_instance(3)
    q_cold, _ = solve_power(eff, ch.sigma2, ch.p_max)
    q_warm, _ = solve_power(eff, ch.sigma2, ch.p_max,
                            q0=np.array([5.0, 5.0, 0.0, 0.0]))
    f_cold = _trace_jinv(eff.cols, ch.sigma2, q_cold)
    f_warm = _trace_jinv(eff.cols, ch.sigma2, q_warm)
    assert abs(f_cold - f_warm) <= 1e-10


def test_warm_start_keeps_a_parked_stream_at_zero():
    # a warm q0 that parks a stream at exactly 0 and falls short of the
    # budget by rounding: the shortfall goes to the powered streams only.
    # Spread over every stream, it revived the parked one at 4.4e-16 and
    # Newton crawled at step lengths of that size to max_iters
    ch, _, eff = rand_instance(214, sigma2=10.0)
    q = solver._solve_stack(eff.cols[None], 10.0, 10.0).q[0]
    assert np.count_nonzero(q == 0.0) == 1
    q0 = q.copy()
    q0[np.argmax(q0)] -= 1.8e-15
    assert 0.0 < 10.0 - q0.sum() <= 2e-15
    rng = np.random.default_rng(214)  # the columns of the next design step
    cols = eff.cols + 1e-3 * (rng.standard_normal(eff.cols.shape)
                              + 1j * rng.standard_normal(eff.cols.shape))
    Q0, _ = solver._start(cols[None], None, 10.0, 10.0, q0)
    assert np.array_equal(Q0[0] == 0.0, q == 0.0)
    res = solver._solve_stack(cols[None], 10.0, 10.0, None, q0)
    assert res.err[0] is None and res.steps[0] <= 5
    assert np.array_equal(res.q[0] == 0.0, q == 0.0)


def test_all_zero_channels_rejected():
    eff = eff_from_cols(np.zeros((2, 2)))
    with pytest.raises(NumericsError):
        solve_power(eff, 1.0, 1.0)


def test_warm_start_wrong_length_rejected():
    ch, _, eff = rand_instance(3)
    with pytest.raises(DimensionError):
        solve_power(eff, ch.sigma2, ch.p_max, q0=np.ones(3))


@pytest.mark.parametrize("sigma2", [-1.0, 0.0, np.nan, np.inf])
def test_bad_noise_power_rejected(sigma2):
    _, _, eff = rand_instance(3)
    with pytest.raises(ValidationError):
        solve_power(eff, sigma2, 10.0)


def test_convergence_error_carries_best_iterate():
    ch, _, eff = rand_instance(0)
    with pytest.raises(ConvergenceError) as ei:
        solve_power(eff, ch.sigma2, ch.p_max, SolverConfig(max_iters=1))
    e = ei.value
    assert e.best_q is not None and e.certificate is not None
    assert np.all(e.best_q >= 0)
    assert e.certificate.max_residual > 1e-9


def test_kernel_budget(monkeypatch):
    # one kernel evaluation per Newton step, plus the start
    calls = []
    kernel = solver._covariance

    def counted(*args):
        calls[-1] += 1
        return kernel(*args)

    monkeypatch.setattr(solver, "_covariance", counted)
    for seed in range(20):
        ch, _, eff = rand_instance(seed)
        calls.append(0)
        solve_power(eff, ch.sigma2, ch.p_max)
    assert np.median(calls) <= 8
    # square rows from the closed-form start; from uniform powers these
    # seeds took up to 14, 19 and 20 calls
    for sigma2 in (1e-2, 1e-4, 1e-8):
        for seed in range(1, 201):
            calls.append(0)
            solve_power(rand_instance(seed, sigma2=sigma2)[2], sigma2, 10.0)
            assert calls[-1] <= 12, (sigma2, seed)
    # the boundary crawl from uniform powers: forced full steps after a
    # step that did not lower the best residual took these to 30 and 31
    # calls, one stopping rule to 10 and 17
    for seed in (1024, 7042):
        calls.append(0)
        solve_power(rand_instance(seed, sigma2=1e-4)[2], 1e-4, 10.0)
        assert calls[-1] <= 5, seed
    # transmit correlation 0.999999 at sigma2 = 1e-8: the gains' rounding
    # keeps this row's relative gap near 7e-9, and it ends at a step that
    # neither lowers its best residual nor predicts a decrease above the
    # polish target (without that it ran all 10000 steps, 2.9e5 calls)
    calls.append(0)
    with pytest.raises(ConvergenceError):
        solve_power(correlated_instance(48, 0.999999, 1e-8), 1e-8, 10.0)
    assert calls[-1] <= 40


#: Rows that never met the absolute kkt_tol of 1e-9 (up to 387 Newton
#: steps each at the rounding floor) and pass the relative test.
ROUNDING_FLOOR_ROWS = {1e-6: [14000232, 18001727, 48, 1243], 1e-8: [111]}


@pytest.mark.parametrize("sigma2", [10.0, 1.0, 1e-2, 1e-6, 1e-8])
def test_snr_sweep_certifies_theorem(sigma2):
    # 0 to 90 dB at P = 10; from 100 dB on the theorem's pq_gap cancels
    cfg = SolverConfig()
    for seed in list(range(20)) + ROUNDING_FLOOR_ROWS.get(sigma2, []):
        ch, up, eff = rand_instance(seed, sigma2=sigma2)
        q, cert = solve_power(eff, ch.sigma2, ch.p_max, cfg)
        assert cert.passes(cfg.kkt_tol)
        rep = verify_theorem(ch, up, q)
        for key, bound in DEFAULT_BOUNDS.items():
            assert getattr(rep, key) <= bound, (seed, key)


@pytest.mark.parametrize("sigma2", [10.0, 1.0, 1e-4, 1e-8, 1e-12])
def test_moved_optimum_fails_the_certificate(sigma2):
    # the relative test can fail at every SNR: 1e-6 P moved between the two
    # strongest streams of a certified q fails it, the q itself passes
    tol = SolverConfig().kkt_tol
    for seed in range(40):
        eff = rand_instance(seed, sigma2=sigma2)[2]
        q, _ = solve_power(eff, sigma2, 10.0)
        assert kkt_certify(eff, sigma2, 10.0, q).passes(tol), seed
        i, j = np.argsort(q)[-2:]
        for delta in (1e-5, -1e-5):
            moved = q.copy()
            moved[i] += delta
            moved[j] -= delta
            assert moved[i] > 0 and moved[j] > 0
            cert = kkt_certify(eff, sigma2, 10.0, moved)
            assert not cert.passes(tol), (seed, delta)


def test_relative_certificate_meets_the_absolute_one_at_unit_noise():
    # at sigma2 = 1, P = 10 every q the relative test accepts on the
    # ensemble also meets the absolute residuals at 1e-9
    tol = SolverConfig().kkt_tol
    for seed in range(1, 301):
        eff = rand_instance(seed)[2]
        q, cert = solve_power(eff, 1.0, 10.0)
        assert cert.passes(tol)
        assert max(cert.stationarity_residual, cert.primal_sum_violation,
                   cert.primal_nonneg_violation,
                   cert.slackness_residual) <= 1e-9, seed


# ---------------------------------------------------------------------------
# the stacked core: a stack gives bitwise the results of one solve at a time

CERT_FIELDS = ("mu_sum", "stationarity_residual", "primal_sum_violation",
               "primal_nonneg_violation", "slackness_residual",
               "relative_gap")


def solve_stack(effs, sigma2, p_max=10.0, cfg=None):
    """Per instance of ``effs`` (of one shape), in order, its (q,
    certificate) or the error of its solve, from one `_solve_stack` call
    on their columns."""
    res = solver._solve_stack(np.array([eff.cols for eff in effs]), sigma2,
                              p_max, cfg)
    return [solver._certify(row_of(res, j), eff, sigma2)
            for j, eff in enumerate(effs)]


def row_of(res, j):
    """Row ``j`` of the `_solve_stack` result ``res``, as a stack of one."""
    return SimpleNamespace(**{k: v if k == "p_max" else v[j:j + 1]
                              for k, v in vars(res).items()})


def solve_alone(eff, sigma2, p_max=10.0, cfg=None):
    try:
        return solve_power(eff, sigma2, p_max, cfg)
    except (ConvergenceError, NumericsError) as e:
        return e


def assert_same_result(batched, alone):
    assert type(batched) is type(alone)
    if isinstance(alone, NumericsError):
        return
    if isinstance(alone, ConvergenceError):
        (q, cert), (q_ref, ref) = (batched.best_q, batched.certificate), (
            alone.best_q, alone.certificate)
    else:
        (q, cert), (q_ref, ref) = batched, alone
    assert np.array_equal(q, q_ref)
    assert np.array_equal(cert.mu, ref.mu)
    for name in CERT_FIELDS:
        assert getattr(cert, name) == getattr(ref, name), name
    for name in ("Jinv_cols", "q", "trace_inv"):
        assert np.array_equal(getattr(cert.state, name),
                              getattr(ref.state, name)), name


@pytest.mark.parametrize("sigma2", [10.0, 1.0, 1e-2, 1e-4, 1e-6])
def test_solve_powers_matches_solve_power(sigma2):
    # the ensemble-snr shape; at 70 dB 14000232 needs 3 Newton steps from
    # its closed-form start and the others 1, so a cap of 2 fails it alone
    seeds = list(range(12)) + [14000232]
    cfg = SolverConfig(max_iters=2) if sigma2 == 1e-6 else None
    effs = [rand_instance(s, sigma2=sigma2)[2] for s in seeds]
    for out, eff in zip(solve_stack(effs, sigma2, 10.0, cfg), effs):
        assert_same_result(out, solve_alone(eff, sigma2, cfg=cfg))
    if sigma2 == 1e-6:
        assert isinstance(out, ConvergenceError)


def test_solve_powers_matches_solve_power_at_m64():
    # 12 instances: more than one stack of STACK_BYTES at this size
    dims = SystemDims(M=64, K=32, N=(2,) * 32, L=(1,) * 32)
    effs = [rand_instance(s, dims=dims)[2] for s in range(12)]
    assert solver.STACK_BYTES // (16 * 64 * 96) < len(effs)
    for out, eff in zip(solve_stack(effs, 1.0, 10.0), effs):
        assert_same_result(out, solve_alone(eff, 1.0))


def test_failing_instance_leaves_the_batch_unchanged():
    # at 20 dB 14000232 needs 8 Newton steps, the others at most 5 (the
    # row with a zero column, which starts from uniform powers)
    sigma2, cfg = 1e-2, SolverConfig(max_iters=7)
    effs = [rand_instance(s, sigma2=sigma2)[2] for s in range(6)]
    # one zero column: its stream starts at 0 and stays there
    cols = rand_instance(7, sigma2=sigma2)[2].cols.copy()
    cols[:, 1] = 0.0
    effs.append(eff_from_cols(cols))
    zero = eff_from_cols(np.zeros((4, 4)))
    slow = rand_instance(14000232, sigma2=sigma2)[2]
    clean = solve_stack(effs, sigma2, 10.0, cfg)
    mixed = solve_stack(effs[:2] + [zero] + effs[2:4] + [slow] + effs[4:],
                        sigma2, 10.0, cfg)
    assert isinstance(mixed[2], NumericsError)
    assert "all effective channels are zero" in str(mixed[2])
    assert isinstance(mixed[5], ConvergenceError)
    for out, ref in zip(mixed[:2] + mixed[3:5] + mixed[6:], clean):
        assert_same_result(out, ref)
    assert_same_result(clean[-1], solve_alone(effs[-1], sigma2, cfg=cfg))
    assert clean[-1][0][1] == 0.0
    # a column that is not finite stops its row at the start, the same way
    cols = effs[0].cols.copy()
    cols[0, 3] = np.nan
    mixed = solve_stack([effs[1], eff_from_cols(cols), effs[2]],
                        sigma2, 10.0, cfg)
    assert isinstance(mixed[1], NumericsError)
    assert "non-finite effective channel" in str(mixed[1])
    assert_same_result(mixed[0], clean[1])
    assert_same_result(mixed[2], clean[2])


def test_every_row_of_a_chunk_goes_to_one_lockstep_call(monkeypatch):
    # a row whose start fails keeps its place in its chunk's one
    # `_lockstep` call and finishes on entry with its start error: an
    # all-zero channel and a non-finite one among clean rows, each error
    # as it is alone and each clean row bitwise as alone; and a stack of
    # one whose warm start is not finite
    seen, lockstep = [], solver._lockstep

    def spy(CS, *args):
        seen.append(len(CS))
        return lockstep(CS, *args)

    monkeypatch.setattr(solver, "_lockstep", spy)
    effs = [rand_instance(s, sigma2=1e-2)[2] for s in range(1, 6)]
    cols = effs[3].cols.copy()
    cols[0, 1] = np.nan
    effs[1], effs[3] = eff_from_cols(np.zeros((4, 4))), eff_from_cols(cols)
    got = solve_stack(effs, 1e-2)
    assert seen == [5]
    assert [type(x) for x in got] == [tuple, NumericsError, tuple,
                                      NumericsError, tuple]
    for eff, out in zip(effs, got):
        seen.clear()
        alone = solve_alone(eff, 1e-2)
        assert seen == [1]
        assert str(out) == str(alone)
        assert_same_result(out, alone)
    assert str(got[1]) == "all effective channels are zero"
    assert str(got[3]) == "non-finite effective channel"
    seen.clear()
    with pytest.raises(ValidationError,
                       match="^powers to project must be finite$"):
        solve_power(effs[0], 1e-2, 10.0, q0=np.array([1.0, np.nan, 1, 1]))
    assert seen == [1]


def test_unfactorable_instance_leaves_the_batch_unchanged():
    # at sigma2 = 1e-300 and L_tot > M (a uniform start) the kernel
    # rejects instance 236's J after its second step
    sigma2, dims = 1e-300, SystemDims(M=3, K=2, N=(2, 2), L=(2, 2))
    effs = [rand_instance(s, dims, sigma2)[2] for s in range(225, 236)]
    bad = rand_instance(236, dims, sigma2)[2]
    clean = solve_stack(effs, sigma2, 10.0)
    mixed = solve_stack(effs[:5] + [bad] + effs[5:], sigma2, 10.0)
    assert isinstance(mixed[5], NumericsError)
    with pytest.raises(NumericsError):
        solve_power(bad, sigma2, 10.0)
    for out, ref in zip(mixed[:5] + mixed[6:], clean):
        assert_same_result(out, ref)


def test_finished_rows_are_neither_evaluated_nor_reported(monkeypatch):
    # the rows of this stack finish rounds apart; a finished row keeps its
    # place, but the kernel no longer evaluates it and no callback fires for
    # it, so the stack evaluates the kernel rows, and fires the callbacks,
    # that its rows do alone (123 and 89; 256 kernel rows if every row
    # were evaluated until the last finishes)
    dims = SystemDims(M=8, K=4, N=(2,) * 4, L=(2,) * 4)
    cols = gen_stacks(dims, range(1, 33))[2]
    rows, kernel = [0], solver._covariance

    def counted(CS, *args):
        rows[0] += len(CS)
        return kernel(CS, *args)

    def solve(cs):
        rows[0], seen = 0, []
        res = solver._solve_stack(cs, 1e-4, 10.0, None, None,
                                  lambda q, f: seen.append((q.tobytes(), f)))
        return res, rows[0], seen

    monkeypatch.setattr(solver, "_covariance", counted)
    res, stacked, seen = solve(cols)
    alone = [solve(cols[b:b + 1]) for b in range(len(cols))]
    assert len(set(res.steps.tolist())) > 1
    assert res.steps.tolist() == [r.steps[0] for r, _, _ in alone]
    assert stacked == sum(n for _, n, _ in alone)
    assert sorted(seen) == sorted(x for _, _, s in alone for x in s)


def test_certificate_state_is_the_kernel_at_its_q():
    # the first step of this instance from its closed-form start lowers f
    # but raises the residual, so with one step allowed the certified
    # iterate is the start, not the last iterate
    sigma2, cfg = 1.0, SolverConfig(max_iters=1)
    eff = rand_instance(170, sigma2=sigma2)[2]
    steps = []
    with pytest.raises(ConvergenceError) as alone:
        solve_power(eff, sigma2, 10.0, cfg,
                    callback=lambda q, f: steps.append(q.copy()))
    effs = [rand_instance(s, sigma2=sigma2)[2] for s in range(5)] + [eff]
    batched = solve_stack(effs, sigma2, 10.0, cfg)[-1]
    for err in (alone.value, batched):
        assert isinstance(err, ConvergenceError)
        state = err.certificate.state
        assert not np.array_equal(steps[-1], state.q)
        A, f, _ = covariance(eff.cols, state.q, sigma2)
        assert state.trace_inv == f
        assert np.array_equal(state.Jinv_cols, A)


def test_singular_kkt_slice_leaves_the_batch_unchanged(monkeypatch):
    # a duplicated column makes the KKT system singular on a face holding
    # both copies: that slice alone falls back to least squares
    cols = rand_instance(3)[2].cols.copy()
    cols[:, 1] = cols[:, 0]
    effs = [rand_instance(s)[2] for s in range(4)]
    effs.insert(2, eff_from_cols(cols))
    lstsq, calls = np.linalg.lstsq, []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    batched = solve_stack(effs, 1.0, 10.0)
    assert calls
    for out, eff in zip(batched, effs):
        assert_same_result(out, solve_alone(eff, 1.0))


#: Cold solves in which a parked stream's Newton step is negative, so that
#: stream leaves the face and its row is solved again on the smaller one.
FACE_SHRINKS = [(56, SystemDims(M=6, K=4, N=(2,) * 4, L=(2,) * 4), 1e-2),
                (131, SystemDims(M=3, K=3, N=(2,) * 3, L=(2,) * 3), 100.0),
                (52, SystemDims(M=4, K=3, N=(2,) * 3, L=(2,) * 3), 1e-4)]


@pytest.mark.parametrize("seed,dims,sigma2", FACE_SHRINKS)
def test_face_shrink_certifies_and_leaves_the_batch_unchanged(seed, dims,
                                                               sigma2):
    eff = rand_instance(seed, dims, sigma2=sigma2)[2]
    q, cert = solve_power(eff, sigma2, 10.0)
    assert cert.passes(SolverConfig().kkt_tol)
    effs = [rand_instance(s, dims, sigma2=sigma2)[2] for s in range(4)]
    batched = solve_stack(effs[:2] + [eff] + effs[2:], sigma2, 10.0)
    assert_same_result(batched[2], (q, cert))


ZERO_USER_DIMS = SystemDims(M=4, K=3, N=(2,) * 3, L=(2,) * 3)


def zero_user_instance(seed):
    """Channel, uplink precoders and effective channel with user 1's
    channel zero, so that its streams 2 and 3 see nothing."""
    ch = gen_channel(ZERO_USER_DIMS, 1.0, 10.0, seed=seed)
    H = list(ch.H)
    H[1] = np.zeros_like(H[1])
    ch = dataclasses.replace(ch, H=tuple(H))
    up = random_unit_precoders(ZERO_USER_DIMS, VIRTUAL_UPLINK, seed=[seed, 1])
    return ch, up, build_effective_channel(ch, up)


def test_zero_channel_user_end_to_end():
    # the parked streams stay at exactly 0, alone and among instances of
    # the same shape, and the theorem holds with p = 0 on them (their
    # downlink directions are e_1)
    cfg, parked = SolverConfig(), [2, 3]
    rows = [zero_user_instance(s) for s in range(5)]
    others = [rand_instance(s, ZERO_USER_DIMS)[2] for s in range(5, 8)]
    batched = solve_stack([eff for _, _, eff in rows] + others, 1.0, 10.0)
    for (ch, up, eff), out in zip(rows, batched):
        assert np.array_equal(eff.cols[:, parked], np.zeros((4, 2)))
        q, cert = solve_power(eff, ch.sigma2, ch.p_max, cfg)
        assert_same_result(out, (q, cert))
        assert np.all(q[parked] == 0.0)
        assert cert.passes(cfg.kkt_tol)
        rep = verify_theorem(ch, up, q)
        assert np.all(rep.p[parked] == 0.0)
        for key, bound in DEFAULT_BOUNDS.items():
            assert getattr(rep, key) <= bound, key


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_warm_start_rejected(bad):
    _, _, eff = rand_instance(3)
    with pytest.raises(ValidationError):
        solve_power(eff, 1.0, 10.0, q0=np.array([bad, 1.0, 1.0, 1.0]))
    with pytest.raises(ValidationError):
        project_power(np.array([bad, 20.0]), 10.0)


def test_solve_powers_rejects_bad_budget():
    eff = rand_instance(0)[2]
    with pytest.raises(ValidationError):
        solve_stack([eff], 1.0, 0.0)


# ---------------------------------------------------------------------------
# the Newton step: one stacked system per pass, whatever the face sizes

NEWTON_S2 = 10.0  # low SNR, where optima park streams


def uniform_on(seed, parked=()):
    """Instance ``seed`` with the budget spread evenly over the streams
    not in ``parked``."""
    q = np.full(4, 10.0 / (4 - len(parked)))
    q[list(parked)] = 0.0
    return rand_instance(seed, sigma2=NEWTON_S2)[2], q


def optimum(seed):
    """Instance ``seed`` at its optimum, whose parked streams (gain at most
    mu there) stay off the Newton face."""
    eff = rand_instance(seed, sigma2=NEWTON_S2)[2]
    return eff, solve_power(eff, NEWTON_S2, 10.0)[0]


#: a full face, one and two streams parked at the optimum (faces 4, 3
#: and 2), and a row whose admitted parked stream 3 is pushed negative
#: and re-solved without it
FULL, ONE_PARKED, TWO_PARKED = ((uniform_on, 1), (optimum, 4), (optimum, 7))
REDO = (uniform_on, 6, (0, 3))


def newton_args(rows):
    """`solver._newton`'s arguments on the stack of ``rows``, as
    `_lockstep` forms them."""
    effs, Q = zip(*(make(*args) for make, *args in rows))
    CS, Q = np.array([eff.cols for eff in effs]), np.array(Q)
    A, _, G = _covariance(CS, Q, NEWTON_S2)
    return np.ascontiguousarray(CS.swapaxes(1, 2)).conj(), Q, G, A, 10.0


def face_sizes(args):
    _, Q, G, _, _ = args
    on = Q > 0
    mu = np.max(np.where(on, G, 0.0), axis=1)
    return np.count_nonzero(on | (G > mu[:, None]), axis=1).tolist()


def counted_solves(monkeypatch, args):
    """The number of `np.linalg.solve` calls one `_newton` call makes."""
    calls, solve = [], np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda *a: calls.append(1) or solve(*a))
    solver._newton(*args)
    monkeypatch.undo()
    return len(calls)


def test_newton_makes_one_solve_per_pass(monkeypatch):
    args = newton_args([FULL, ONE_PARKED, TWO_PARKED])
    assert face_sizes(args) == [4, 3, 2]
    assert counted_solves(monkeypatch, args) == 1
    assert counted_solves(monkeypatch, newton_args([REDO])) == 2
    args = newton_args([FULL, ONE_PARKED, REDO, TWO_PARKED])
    assert counted_solves(monkeypatch, args) == 2


def test_newton_step_is_each_rows_step_alone():
    rows = [FULL, ONE_PARKED, REDO, TWO_PARKED, (uniform_on, 2)]
    args = newton_args(rows)
    CT, Q, G, A, p_max = args
    dq, lost = solver._newton(*args)
    assert not lost
    for b in range(len(rows)):
        alone, _ = solver._newton(CT[b:b + 1], Q[b:b + 1], G[b:b + 1],
                                  A[b:b + 1], p_max)
        assert dq[b].tobytes() == alone[0].tobytes()
    # off the face: the parked streams not admitted, and the redo row's
    # stream 3, pushed negative on the first pass
    on = Q > 0
    mu = np.max(np.where(on, G, 0.0), axis=1)
    off = ~on & (G <= mu[:, None])
    off[2, 3] = True
    assert np.count_nonzero(off) == 4
    assert np.all(dq[off] == 0.0)
    assert np.all(dq[~on & ~off] > 0.0)


# ---------------------------------------------------------------------------
# the closed-form start of cold L < M solves

LARGE_DIMS = SystemDims(M=64, K=32, N=(2,) * 32, L=(1,) * 32)


def instance_stack(seeds, sigma2=1.0, dims=LARGE_DIMS):
    """The effective channels of ``seeds`` at ``dims`` (the large-m shape
    by default), and their B x M x L stack."""
    effs = [rand_instance(s, dims, sigma2)[2] for s in seeds]
    return effs, np.array([eff.cols for eff in effs])


def test_m64_start_is_per_row():
    # a row with a zero column keeps the uniform start on its other
    # columns, and every row solves bitwise as it does alone
    effs = instance_stack(range(1, 5))[0]
    cols = effs[0].cols.copy()
    cols[:, 5] = 0.0
    effs.insert(2, eff_from_cols(cols))
    batched = solve_stack(effs, 1.0, 10.0)
    for (q, cert), eff in zip(batched, effs):
        assert_same_result((q, cert), solve_alone(eff, 1.0))
        # the stack's G handed in: the state is still the kernel at q
        A, f, _ = covariance(eff.cols, q, 1.0)
        assert np.array_equal(cert.state.Jinv_cols, A)
        assert cert.state.trace_inv == f
    assert batched[2][0][5] == 0.0
    CS = np.array([eff.cols for eff in effs])
    Q, errs = solver._start(CS, _gram(CS), 1.0, 10.0)
    assert errs == [None] * 5
    assert np.array_equal(Q[2], np.where(np.arange(32) == 5, 0.0, 10.0 / 31))


@pytest.mark.parametrize("sigma2", [1.0, 1e-4])
def test_m64_start_lies_on_the_simplex(sigma2):
    effs, CS = instance_stack(range(1, 5), sigma2)
    Q, errs = solver._start(CS, _gram(CS), sigma2, 10.0)
    assert errs == [None] * 4
    assert np.all(Q > 0) and not np.any(Q == 10.0 / 32)  # not uniform
    assert np.abs(Q.sum(axis=1) - 10.0).max() <= 1e-13
    cfg = SolverConfig()
    for eff in effs:
        q, cert = solve_power(eff, sigma2, 10.0, cfg)
        assert cert.passes(cfg.kkt_tol)


def test_m64_start_tends_to_uniform_at_low_snr():
    _, CS = instance_stack(range(1, 5), 1e4)
    Q = solver._start(CS, _gram(CS), 1e4, 10.0)[0]
    assert np.abs(Q / (10.0 / 32) - 1.0).max() < 1e-3


def test_singular_start_slice_keeps_the_uniform_start():
    # a duplicated column at sigma2 = 1e-17 makes G + lambda I singular
    # in its slice only: that row starts uniform, the others as alone
    sigma2 = 1e-17
    _, CS = instance_stack(range(1, 4), sigma2)
    CS[1, :, 1] = CS[1, :, 0]
    R = _gram(CS[1:2])
    R[0] += solver.START_NOISE * sigma2 * 32 / 10.0 * np.eye(32)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(R)
    Q = solver._start(CS, _gram(CS), sigma2, 10.0)[0]
    assert np.array_equal(Q[1], np.full(32, 10.0 / 32))
    for b in (0, 2):
        alone = solver._start(CS[b:b + 1], _gram(CS[b:b + 1]), sigma2, 10.0)
        assert np.array_equal(alone[0][0], Q[b])
        assert not np.any(Q[b] == 10.0 / 32)


def test_cold_m64_stack_kernel_calls(monkeypatch):
    # counted as benchmarks/layers.py counts them: 6 from the uniform
    # start, 4 from the closed form
    calls, kernel = [0], solver._covariance

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    effs = instance_stack(range(1, 5))[0]
    monkeypatch.setattr(solver, "_covariance", counted)
    assert all(isinstance(out, tuple)
               for out in solve_stack(effs, 1.0, 10.0))
    assert calls[0] <= 5


def test_polish_stops_at_the_relative_target(monkeypatch):
    # a certified row stops polishing once its absolute residual or its
    # relative gap reaches the target: at sigma2 = 1e-4 the gains are large
    # and the absolute residual alone took 7 kernel calls here
    calls, kernel = [0], solver._covariance

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    _, _, cols = gen_stacks(DIMS_2x2, [30])
    monkeypatch.setattr(solver, "_covariance", counted)
    res = solver._solve_stack(cols, 1e-4, 10.0)
    assert res.err == [None] and calls[0] == 3
    assert res.rel[0] <= 1e-13


# ---------------------------------------------------------------------------
# the same start for cold square (L = M) solves

SQUARE_DIMS = [DIMS_2x2, SystemDims(M=16, K=8, N=(2,) * 8, L=(2,) * 8)]


def assert_start_per_row(CS, Q, sigma2, rows):
    for b in rows:
        alone = solver._start(CS[b:b + 1], _gram(CS[b:b + 1]), sigma2, 10.0)
        assert np.array_equal(alone[0][0], Q[b])


@pytest.mark.parametrize("sigma2", [1.0, 1e-4, 1e-8])
@pytest.mark.parametrize("dims", SQUARE_DIMS, ids=["M4", "M16"])
def test_square_start_lies_on_the_simplex(dims, sigma2):
    _, CS = instance_stack(range(1, 5), sigma2, dims)
    Q, errs = solver._start(CS, _gram(CS), sigma2, 10.0)
    assert errs == [None] * 4
    assert np.all(Q > 0) and not np.any(Q == 10.0 / CS.shape[2])
    assert np.abs(Q.sum(axis=1) - 10.0).max() <= 1e-13
    assert_start_per_row(CS, Q, sigma2, range(4))


@pytest.mark.parametrize("dims", SQUARE_DIMS, ids=["M4", "M16"])
def test_square_start_tends_to_uniform_at_low_snr(dims):
    _, CS = instance_stack(range(1, 5), 1e4, dims)
    Q = solver._start(CS, _gram(CS), 1e4, 10.0)[0]
    assert np.abs(Q / (10.0 / CS.shape[2]) - 1.0).max() < 1e-3


@pytest.mark.parametrize("sigma2", [1.0, 1e-8, 1e-17])
@pytest.mark.parametrize("dims", SQUARE_DIMS, ids=["M4", "M16"])
def test_square_start_with_a_duplicated_column(dims, sigma2):
    # G is rank-deficient: the row starts finite on the simplex, from the
    # closed form or uniform, and the others as alone
    _, CS = instance_stack(range(1, 4), sigma2, dims)
    CS[1, :, 1] = CS[1, :, 0]
    Q = solver._start(CS, _gram(CS), sigma2, 10.0)[0]
    assert np.all(np.isfinite(Q[1])) and np.all(Q[1] > 0)
    assert abs(Q[1].sum() - 10.0) <= 1e-13
    assert_start_per_row(CS, Q, sigma2, range(3))


def test_square_solve_starts_from_the_closed_form(monkeypatch):
    # the stack's G makes the start, but the kernel is not handed it
    seen, lockstep = [], solver._lockstep

    def spy(CS, gram, Q0, *args):
        seen.append((gram, Q0))
        return lockstep(CS, gram, Q0, *args)

    monkeypatch.setattr(solver, "_lockstep", spy)
    effs, CS = instance_stack(range(1, 5), 1e-4, DIMS_2x2)
    solve_stack(effs, 1e-4, 10.0)
    (gram, Q0), = seen
    assert gram is None
    assert np.array_equal(Q0, solver._start(CS, _gram(CS), 1e-4, 10.0)[0])


@pytest.mark.parametrize("dims", SQUARE_DIMS, ids=["M4", "M16"])
def test_square_state_is_the_m_by_m_kernel_at_its_q(dims):
    for eff in instance_stack(range(1, 4), 1e-4, dims)[0]:
        q, cert = solve_power(eff, 1e-4, 10.0)
        A, f, _ = covariance(eff.cols, q, 1e-4)  # no gram
        assert np.array_equal(cert.state.Jinv_cols, A)
        assert cert.state.trace_inv == f


# ---------------------------------------------------------------------------
# kkt_certify

def test_certify_solver_output():
    ch, _, eff = rand_instance(4)
    q, _ = solve_power(eff, ch.sigma2, ch.p_max)
    cert = kkt_certify(eff, ch.sigma2, ch.p_max, q)
    assert cert.max_residual <= 1e-9
    act = q > 1e-9 * ch.p_max
    assert np.all(cert.mu[act] == 0.0)
    assert np.all(cert.mu >= 0)


def test_certify_zero_point_flags_stationarity():
    ch, _, eff = rand_instance(4)
    cert = kkt_certify(eff, ch.sigma2, ch.p_max, np.zeros(4))
    assert cert.primal_sum_violation == 0.0
    assert cert.primal_nonneg_violation == 0.0
    assert cert.stationarity_residual > 0.0
    assert cert.slackness_residual == 0.0


def test_certify_residual_grows_linearly():
    ch, _, eff = rand_instance(7)
    q, _ = solve_power(eff, ch.sigma2, ch.p_max)
    act = np.flatnonzero(q > 1e-9 * ch.p_max)
    assert act.size >= 2
    d = np.zeros(4)
    d[act[0]], d[act[1]] = 1.0, -1.0

    def resid(delta):
        return kkt_certify(eff, ch.sigma2, ch.p_max,
                           q + delta * d).stationarity_residual

    r1, r2 = resid(1e-3), resid(2e-3)
    assert r1 > 0
    assert 1.5 <= r2 / r1 <= 2.6


# ---------------------------------------------------------------------------
# brute force oracle

def test_brute_force_single_stream():
    _, _, eff = scalar_instance()
    assert brute_force_power(eff, 1.0, 3.0, 11)[0] == 3.0


def test_brute_force_symmetric_split():
    q = brute_force_power(orthonormal_pair(), 1.0, 2.0, 201)
    assert np.allclose(q, [1.0, 1.0], atol=2.0 / 200)


def test_brute_force_cost_guard():
    _, _, eff = rand_instance(0)
    with pytest.raises(CostGuardError):
        brute_force_power(eff, 1.0, 1.0, 11)


def numeric_hessian_max_eig(eff, sigma2, q, h=1e-5):
    L = eff.L_tot
    H = np.zeros((L, L))
    for j in range(L):
        e = np.zeros(L)
        e[j] = h
        gp = _gains(eff.cols, sigma2, np.maximum(q + e, 0))
        gm = _gains(eff.cols, sigma2, np.maximum(q - e, 0))
        H[:, j] = -(gp - gm) / (2 * h)  # grad f = -gains
    return float(np.linalg.eigvalsh(0.5 * (H + H.T)).max())


def two_stream_instance(seed):
    dims = SystemDims(M=2, K=2, N=(1, 1), L=(1, 1))
    return rand_instance(seed, dims=dims, p_max=10.0)


def test_solver_matches_grid_oracle():
    grid_points = 2001
    for seed in range(10):
        ch, _, eff = two_stream_instance(seed)
        q, _ = solve_power(eff, ch.sigma2, ch.p_max)
        qg = brute_force_power(eff, ch.sigma2, ch.p_max, grid_points)
        f_solver = _trace_jinv(eff.cols, ch.sigma2, q)
        f_grid = _trace_jinv(eff.cols, ch.sigma2, qg)
        # the solver can only do better than the grid, up to residual noise
        assert f_solver <= f_grid + 1e-11
        # and the grid is within one cell's curvature of the optimum
        spacing = ch.p_max / (grid_points - 1)
        bound = numeric_hessian_max_eig(eff, ch.sigma2, q) * spacing ** 2
        assert f_grid - f_solver <= max(bound, 1e-12)


def test_brute_force_three_streams_runs():
    dims = SystemDims(M=2, K=3, N=(1, 1, 1), L=(1, 1, 1))
    ch, _, eff = rand_instance(5, dims=dims, p_max=3.0)
    q = brute_force_power(eff, ch.sigma2, ch.p_max, 31)
    assert q.shape == (3,)
    assert abs(q.sum() - 3.0) <= 1e-9


def test_duplicated_channels_still_certify():
    # exactly coincident streams make the optimum non-unique; any certified
    # point is acceptable and only objective values are compared
    h = np.array([0.8, -0.3 + 0.4j])
    eff = eff_from_cols(np.stack([h, h, 2 * h / 2], axis=1))
    q, cert = solve_power(eff, 1.0, 6.0)
    assert cert.passes(1e-9)
    assert abs(q.sum() - 6.0) <= 1e-9 * 6.0
    q2, cert2 = solve_power(eff, 1.0, 6.0, q0=np.array([6.0, 0.0, 0.0]))
    assert cert2.passes(1e-9)
    f1 = _trace_jinv(eff.cols, 1.0, q)
    f2 = _trace_jinv(eff.cols, 1.0, q2)
    assert abs(f1 - f2) <= 1e-10
