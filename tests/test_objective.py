import numpy as np
import pytest

from conftest import (DIMS_2x2, covariance, mse_trace_sum, rand_instance,
                      scalar_instance, wiener_filters)
from dualprec import (DimensionError, EffectiveChannel, NumericsError,
                      SystemDims, ValidationError, downlink_mmse, make_state,
                      mmse_directions, solve_power, sum_mse_uplink,
                      uplink_mse, verify_theorem)
from dualprec.objective import _covariance, _gram, _slices
from oracles import exact_state, grad_trace_Jinv, stream_owner


def eff_from_cols(cols):
    cols = np.asarray(cols, dtype=complex)
    return EffectiveChannel(cols=cols)


def covariance_of(state):
    """J = sum_l q_l htil_l htil_l^H + sigma2 I, built from the state's
    inputs."""
    cols = state.eff.cols
    return (cols * state.q) @ cols.conj().T + state.sigma2 * np.eye(len(cols))


def state_and_solved_J(monkeypatch, eff, q, sigma2):
    """`make_state` at q (L >= M), and the J its kernel handed to
    `np.linalg.solve`."""
    seen, solve = [], np.linalg.solve

    def recorded(J, rhs):
        seen.append(J.copy())
        return solve(J, rhs)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "solve", recorded)
        st = make_state(eff, q, sigma2)
    J, = seen
    return st, J[0]


def stream_mse(state, l, u):
    """Independent per-stream MSE formula at an arbitrary receiver u:
    u^H J u - 2 Re[sqrt(q_l) u^H htil_l] + 1."""
    h = state.eff.cols[:, l]
    quad = float(np.real(u.conj() @ covariance_of(state) @ u))
    cross = float(np.real(np.sqrt(state.q[l]) * (u.conj() @ h)))
    return quad - 2.0 * cross + 1.0


# ---------------------------------------------------------------------------
# the covariance kernel on a stack of instances

def kernel_one_at_a_time(cols, q, sigma2):
    """Reference: the kernel on one M x L instance through the M x M
    J^-1, by `np.linalg.inv`."""
    M = cols.shape[0]
    J_inv = np.linalg.inv((cols * q) @ cols.conj().T + sigma2 * np.eye(M))
    A = J_inv @ cols
    return A, float(np.trace(J_inv).real), np.sum(np.abs(A) ** 2, axis=0)


@pytest.mark.parametrize("B,M,L", [(50, 4, 4), (1, 4, 4), (3, 64, 32),
                                   (4, 9, 13), (2, 1, 1), (5, 8, 4),
                                   (50, 4, 3)])
def test_stacked_kernel_equals_one_instance_at_a_time(B, M, L):
    # each slice is bitwise the kernel on its instance alone, and agrees
    # with the M x M inverse of J to within that route's own rounding,
    # eps cond(J), in either domain (at most 1.7 eps cond(J) on 40 draws
    # of each shape): where L < M its phi = tr T is tr J^-1 less
    # (M - L) / sigma2, which is added back to meet the M x M trace.  Its
    # accuracy against the exact state where L < M is
    # `test_stream_domain_is_exact_to_rounding`
    rng = np.random.default_rng(M * L + B)
    cols = rng.standard_normal((B, M, L)) + 1j * rng.standard_normal((B, M, L))
    q = 10.0 * rng.random((B, L))
    q[0, 0] = 0.0
    for sigma2 in (1.0, 1e-6):
        out = _covariance(cols, q, sigma2)
        if L < M:  # G handed in, as a solve stack does, gives the same bits
            for got, want in zip(_covariance(cols, q, sigma2, _gram(cols)),
                                 out):
                assert np.array_equal(got, want, equal_nan=True)
        for b in range(B):
            alone = _covariance(cols[b:b + 1], q[b:b + 1], sigma2)
            for got, want in zip(out, alone):
                assert np.array_equal(got[b], want[0])
            ref = kernel_one_at_a_time(cols[b], q[b], sigma2)
            J = (cols[b] * q[b]) @ cols[b].conj().T + sigma2 * np.eye(M)
            tol = 4 * np.finfo(float).eps * np.linalg.cond(J)
            (A, f, gains), (A_ref, f_ref, gains_ref) = (
                [x[b] for x in out], ref)
            assert np.abs(A - A_ref).max() <= tol * np.abs(A_ref).max()
            assert abs(f + max(M - L, 0) / sigma2 - f_ref) <= tol * f_ref
            assert np.all(np.abs(gains - gains_ref) <= tol * gains_ref)


#: The kernel's relative error against `exact_state`, in units of eps:
#: over 150 instances at M = 8, L = 4 (one stream off in a third of them)
#: and sigma2 = 1, 1e-4, 1e-8, 1e-12 and 1e-14, the largest was 29 eps
#: for a gain or a column of A and 1.1 eps for tr J^-1.
EXACT_BUDGET = {"gains": 64, "A": 64, "phi": 4}


@pytest.mark.parametrize("sigma2", [1.0, 1e-4, 1e-8, 1e-12, 1e-14])
def test_stream_domain_is_exact_to_rounding(sigma2):
    # fewer streams than antennas: the kernel works on L x L matrices, and
    # nothing it computes cancels as sigma2 falls (the M x M form had the
    # gains 6e-6 off at sigma2 = 1e-12 and 100% off at 1e-14)
    eps, M, L = np.finfo(float).eps, 8, 4
    for seed in range(4):
        rng = np.random.default_rng(seed)
        cols = rng.standard_normal((M, L)) + 1j * rng.standard_normal((M, L))
        q = 10.0 * rng.dirichlet(np.ones(L))
        if seed % 2:
            q[seed] = 0.0  # an inactive stream
        ex = exact_state(cols, q, sigma2)
        A, f, gains = covariance(cols, q, sigma2)
        err = {"gains": np.max(np.abs(gains - ex.gains) / ex.gains),
               "A": np.max(np.linalg.norm(A - ex.A, axis=0)
                           / np.linalg.norm(ex.A, axis=0)),
               "phi": abs(f - ex.phi) / ex.phi}
        for name, budget in EXACT_BUDGET.items():
            assert err[name] <= budget * eps, (seed, name, err[name] / eps)


#: `sum_mse_uplink`'s relative error against `exact_state`, in units of
#: eps: over seeds 0-39 of each shape and sigma2 below, the largest was
#: 4.8 eps (the sum-MSE as L_tot - M + sigma2 tr J^-1 was 5e5 eps off at
#: M = 8, L = 2, sigma2 = 1e-4 and 100% off at 1e-14).
SMSE_BUDGET = 16


@pytest.mark.parametrize("sigma2", [1.0, 1e-4, 1e-8, 1e-12, 1e-14])
@pytest.mark.parametrize("M,L", [(8, 2), (8, 4), (4, 6)])
def test_sum_mse_is_exact_to_rounding(M, L, sigma2):
    # at L < M the sum-MSE is sigma2 tr T, which nothing cancels, and at
    # L > M it is L - M + sigma2 tr J^-1; one stream is off on odd seeds
    eps = np.finfo(float).eps
    for seed in range(4):
        rng = np.random.default_rng(seed)
        cols = rng.standard_normal((M, L)) + 1j * rng.standard_normal((M, L))
        q = 10.0 * rng.dirichlet(np.ones(L))
        if seed % 2:
            q[seed % L] = 0.0
        want = exact_state(cols, q, sigma2).smse
        got = sum_mse_uplink(make_state(eff_from_cols(cols), q, sigma2))
        assert abs(got - want) <= SMSE_BUDGET * eps * want, (
            seed, abs(got - want) / want / eps)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_kernel_rejects_non_finite_covariance():
    # a NaN power, and powers whose J overflows to inf: those slices come
    # back NaN, and their finite batch-mates bitwise as they are alone
    rng = np.random.default_rng(3)
    cols = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    q = np.ones((3, 2))
    q[1, 0] = np.nan
    q[2] = 1e308
    out = _covariance(cols, q, 1.0)
    alone = _covariance(cols[:1], q[:1], 1.0)
    for got, want in zip(out, alone):
        assert np.isnan(got[1:]).all()
        assert np.array_equal(got[:1], want)
    with pytest.raises(NumericsError):
        make_state(eff_from_cols(cols[2]), q[2], 1.0)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_failed_factorization_is_nan_in_its_slice_only():
    # each stack's second slice cannot be factored and its third is not
    # finite: those come back NaN, and the first bitwise as it is alone.
    # L >= M: h_1 = (1, 1), h_2 = 0, q = 1: 1 + 1e-300 rounds to 1, so J =
    # [[1, 1], [1, 1]] is exactly singular and its LU solve fails.  L < M: two equal columns make sigma2 I + Q G = [[1, 1],
    # [1, 1]] exactly singular, and q = 1e308 on |h_1|^2 = 2 overflows it
    square = np.array([[[1, 0], [0, 1]], [[1, 0], [1, 0]], [[1, 1], [1, 1]]],
                      dtype=complex)
    streams = np.array([[[1, 0], [0, 1], [0, 0]], [[1, 1], [0, 0], [0, 0]],
                        [[1, 0], [1, 0], [0, 0]]], dtype=complex)
    q = np.ones((3, 2))
    q[2] = 1e308
    for cols in (square, streams):
        out = _covariance(cols, q, 1e-300)
        alone = _covariance(cols[:1], q[:1], 1e-300)
        for got, want in zip(out, alone):
            assert np.isnan(got[1:]).all()
            assert np.array_equal(got[:1], want)
        for b in (1, 2):
            with pytest.raises(NumericsError):
                make_state(eff_from_cols(cols[b]), q[b], 1e-300)


def test_slices_keep_a_real_stack_real():
    # a real stack with an exactly singular slice goes slice by slice: that
    # slice is NaN, the others are as alone, and the result stays real
    X = np.array([np.diag([1.0, 2.0]), np.ones((2, 2)), [[2.0, 1.0],
                                                          [1.0, 1.0]]])
    rhs = np.ones((3, 2, 1))
    for fn, args in ((np.linalg.inv, ()), (np.linalg.solve, (rhs,))):
        out = _slices(fn, X, *args)
        assert out.dtype == np.float64
        assert np.isnan(out[1]).all() and not np.isnan(out[::2]).any()
        for b in (0, 2):
            assert np.array_equal(out[b], fn(X[b], *(r[b] for r in args)))


def test_overflowing_output_is_nan_in_its_slice_only():
    # a finite, invertible matrix whose outputs overflow: stream 2 is off
    # at sigma2 = 1e-300, so J^-1 htil_2 = htil_2 / sigma2 and its gain
    # |htil_2|^2 / sigma2^2 is past the largest double, while tr J^-1
    # (about 1e300) stays finite.  That slice comes back NaN in all three
    # outputs, the first slice bitwise as it is alone, and `make_state`
    # raises.  J = diag(1, 1e-300) at L = M, and so is sigma2 I + Q G at
    # L < M
    cols = {"square": np.array([[[1, 0], [0, 1]]] * 2, dtype=complex),
            "streams": np.array([[[1, 0], [0, 1], [0, 0]]] * 2,
                                dtype=complex)}
    q = np.array([[1.0, 1.0], [1.0, 0.0]])
    for name, c in cols.items():
        with pytest.warns(RuntimeWarning, match="overflow"):
            out = _covariance(c, q, 1e-300)
        alone = _covariance(c[:1], q[:1], 1e-300)
        for got, want in zip(out, alone):
            assert np.isnan(got[1]).all(), name
            assert np.array_equal(got[:1], want)
        with pytest.raises(NumericsError), pytest.warns(RuntimeWarning):
            make_state(eff_from_cols(c[1]), q[1], 1e-300)


# ---------------------------------------------------------------------------
# make_state

def test_make_state_zero_power():
    # J = 2 I: J^-1 htil = (1/2, 0) and the gain is 1/4; L < M, so phi is
    # tr T = 1/2, tr J^-1 = 1 less (M - L) / sigma2 = 1/2
    A, f, gains = covariance(np.array([[1.0], [0.0]]), np.zeros(1), 2.0)
    assert f == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(A, [[0.5], [0.0]], atol=1e-15)
    assert np.allclose(gains, [0.25], atol=1e-15)
    st = make_state(eff_from_cols(np.array([[1.0], [0.0]])), np.zeros(1), 2.0)
    assert st.trace_inv == f and np.array_equal(st.Jinv_cols, A)


def test_make_state_rank_one_update():
    # J = diag(2, 1): J^-1 htil = (1/2, 0) and the gain 1/4; phi is
    # tr T = 1/2, tr J^-1 = 3/2 less (M - L) / sigma2 = 1
    A, f, gains = covariance(np.array([[1.0], [0.0]]), np.ones(1), 1.0)
    assert f == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(A, [[0.5], [0.0]], atol=1e-15)
    assert np.allclose(gains, [0.25], atol=1e-15)
    st = make_state(eff_from_cols(np.array([[1.0], [0.0]])), np.ones(1), 1.0)
    assert st.trace_inv == f and np.array_equal(st.Jinv_cols, A)


def test_make_state_inverse_check():
    _, _, eff = rand_instance(3)
    st = make_state(eff, np.array([1.0, 2.0, 0.5, 3.0]), 0.7)
    J = covariance_of(st)
    assert np.abs(J @ st.Jinv_cols - eff.cols).max() <= 1e-10
    assert abs(st.trace_inv - np.trace(np.linalg.inv(J)).real) <= 1e-10


def test_make_state_rejects_non_finite():
    _, _, eff = rand_instance(3)
    with pytest.raises(NumericsError):
        make_state(eff, np.array([1.0, np.nan, 0.0, 0.0]), 1.0)
    with pytest.raises(NumericsError):
        make_state(eff, np.zeros(4), 0.0)
    with pytest.raises(NumericsError):
        make_state(eff, np.array([-1.0, 0, 0, 0]), 1.0)


def test_state_invariants_on_seeds(monkeypatch):
    for seed in range(5):
        _, _, eff = rand_instance(seed)
        q = np.random.default_rng(seed).uniform(0, 3, 4)
        _, J = state_and_solved_J(monkeypatch, eff, q, 0.9)
        rebuilt = (eff.cols * q) @ eff.cols.conj().T + 0.9 * np.eye(4)
        assert np.abs(J - rebuilt).max() <= 1e-12 * np.abs(J).max()
        assert np.abs(J - J.conj().T).max() == 0.0
        assert np.linalg.eigvalsh(J).min() >= 0.9 - 1e-9


# ---------------------------------------------------------------------------
# sum-MSE and gradient

def test_sum_mse_zero_power_is_stream_count():
    _, _, eff = rand_instance(1)
    st = make_state(eff, np.zeros(4), 0.37)
    assert sum_mse_uplink(st) == pytest.approx(4.0, abs=1e-12)


def test_sum_mse_scalar_closed_form():
    _, _, eff = scalar_instance()
    st = make_state(eff, np.array([3.0]), 1.0)
    assert sum_mse_uplink(st) == pytest.approx(0.25, abs=1e-15)


def test_sum_mse_equals_per_user_traces():
    for seed in range(10):
        _, _, eff = rand_instance(seed)
        q = np.random.default_rng(seed + 100).uniform(0, 4, 4)
        st = make_state(eff, q, 1.3)
        assert abs(sum_mse_uplink(st) - mse_trace_sum(st)) <= 1e-10


def test_grad_scalar_case():
    _, _, eff = scalar_instance()
    st = make_state(eff, np.ones(1), 1.0)
    assert grad_trace_Jinv(st)[0] == pytest.approx(-0.25, abs=1e-15)


def test_grad_zero_channel_component():
    eff = eff_from_cols(np.array([[1.0, 0.0], [0.0, 0.0]]))
    st = make_state(eff, np.array([1.0, 1.0]), 1.0)
    g = grad_trace_Jinv(st)
    assert g[1] == 0.0
    assert g[0] < 0.0


def finite_diff_grad(eff, q, sigma2, h=1e-6):
    def f(qv):
        J = (eff.cols * qv) @ eff.cols.conj().T + sigma2 * np.eye(eff.M)
        return float(np.trace(np.linalg.inv(J)).real)

    g = np.empty(eff.L_tot)
    for l in range(eff.L_tot):
        e = np.zeros(eff.L_tot)
        e[l] = h
        g[l] = (f(q + e) - f(q - e)) / (2 * h)
    return g


def test_grad_matches_finite_differences():
    for seed in range(10):
        _, _, eff = rand_instance(seed)
        q = np.random.default_rng(seed + 50).uniform(0.5, 3.0, 4)
        st = make_state(eff, q, 1.0)
        g = grad_trace_Jinv(st)
        fd = finite_diff_grad(eff, q, 1.0)
        assert np.abs(g - fd).max() <= 1e-5 * np.abs(fd).max()


def test_monotonicity_in_single_power():
    _, _, eff = rand_instance(2)
    q = np.full(4, 1.0)
    st0 = make_state(eff, q, 1.0)
    for l in range(4):
        q2 = q.copy()
        q2[l] += 0.5
        st2 = make_state(eff, q2, 1.0)
        assert st2.trace_inv < st0.trace_inv


def test_convexity_probe():
    rng = np.random.default_rng(77)
    _, _, eff = rand_instance(4)

    def f(qv):
        return make_state(eff, qv, 1.0).trace_inv

    for _ in range(20):
        qa = rng.uniform(0, 3, 4)
        qb = rng.uniform(0, 3, 4)
        t = rng.uniform()
        assert f(t * qa + (1 - t) * qb) <= t * f(qa) + (1 - t) * f(qb) + 1e-10


# ---------------------------------------------------------------------------
# receivers

def test_receivers_scalar_wiener():
    _, _, eff = scalar_instance()
    st = make_state(eff, np.ones(1), 1.0)
    assert wiener_filters(st)[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_receivers_zero_power_zero_filter():
    _, _, eff = rand_instance(6)
    q = np.array([1.0, 0.0, 2.0, 0.0])
    U = wiener_filters(make_state(eff, q, 1.0))
    assert np.all(U[:, 1] == 0) and np.all(U[:, 3] == 0)
    assert np.linalg.norm(U[:, 0]) > 0


def test_mmse_directions_every_stream():
    # active and zero-power streams alike get the unit J^-1 htil_l;
    # a zero channel column gets e_1
    _, _, eff = rand_instance(6)
    cols = eff.cols.copy()
    cols[:, 2] = 0.0
    eff = EffectiveChannel(cols=cols)
    st = make_state(eff, np.array([1.0, 0.0, 2.0, 0.0]), 1.0)
    dirs = mmse_directions(st)
    assert np.allclose(np.linalg.norm(dirs, axis=0), 1.0, atol=1e-14)
    for l in (0, 1, 3):
        a = np.linalg.solve(covariance_of(st), cols[:, l])
        assert np.abs(dirs[:, l] - a / np.linalg.norm(a)).max() <= 1e-12
    assert np.array_equal(dirs[:, 2], np.eye(4)[0])


def test_receivers_are_local_minima():
    _, _, eff = rand_instance(8)
    q = np.array([1.0, 0.5, 2.0, 1.5])
    st = make_state(eff, q, 1.0)
    U = wiener_filters(st)
    rng = np.random.default_rng(0)
    for l in range(4):
        base = stream_mse(st, l, U[:, l])
        for _ in range(8):
            d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            d *= 1e-3 / np.linalg.norm(d)
            assert stream_mse(st, l, U[:, l] + d) >= base - 1e-15
            assert stream_mse(st, l, U[:, l] - d) >= base - 1e-15


# ---------------------------------------------------------------------------
# per-stream MSEs in both directions

def test_report_uplink_zero_power():
    _, _, eff = rand_instance(1)
    mse = uplink_mse(make_state(eff, np.zeros(4), 1.0))
    assert np.array_equal(mse, np.ones(4))


def test_report_uplink_scalar():
    _, _, eff = scalar_instance()
    mse = uplink_mse(make_state(eff, np.array([3.0]), 1.0))
    assert mse[0] == pytest.approx(0.25, abs=1e-15)


def test_report_uplink_trace_identity():
    for seed in range(10):
        _, _, eff = rand_instance(seed)
        q = np.random.default_rng(seed).uniform(0, 5, 4)
        st = make_state(eff, q, 0.8)
        assert abs(uplink_mse(st).sum() - sum_mse_uplink(st)) <= 1e-10


def random_downlink_dirs(ch, seed):
    rng = np.random.default_rng(seed)
    d = ch.dims
    U = rng.standard_normal((d.M, d.L_tot)) \
        + 1j * rng.standard_normal((d.M, d.L_tot))
    return U / np.linalg.norm(U, axis=0)


def test_report_downlink_zero_power():
    ch, up, _ = rand_instance(2)
    X, mse = downlink_mmse(ch, random_downlink_dirs(ch, 2), np.zeros(4))
    assert np.array_equal(mse, np.ones(4))
    assert X[0].shape == (2, 2)


def test_scalar_downlink_uplink_symmetry_exact():
    ch, up, eff = scalar_instance(p_max=3.0)
    st = make_state(eff, np.array([3.0]), 1.0)
    _, mse_dl = downlink_mmse(ch, np.array([[1.0 + 0j]]), np.array([3.0]))
    assert mse_dl[0] == uplink_mse(st)[0]


def test_downlink_per_stream_at_duality_point():
    # with precoders/powers produced by the duality machinery, the factored
    # receivers reproduce the uplink MSEs and MMSE receivers only improve
    for seed in range(5):
        ch, up, eff = rand_instance(seed)
        q, _ = solve_power(eff, ch.sigma2, ch.p_max)
        rep = verify_theorem(ch, up, q)
        assert rep.mse_gap <= 1e-8
        st = make_state(eff, q, ch.sigma2)
        # MMSE receivers can only lower per-stream MSE below the factored ones
        _, mse_dl = downlink_mmse(ch, mmse_directions(st), rep.p)
        assert np.all(mse_dl <= uplink_mse(st) + 1e-12)


def test_report_downlink_shape_mismatch():
    ch, up, _ = rand_instance(3)
    with pytest.raises(DimensionError):
        downlink_mmse(ch, np.eye(3, 4, dtype=complex), np.zeros(4))
    with pytest.raises(DimensionError):
        downlink_mmse(ch, random_downlink_dirs(ch, 3), np.zeros(3))


def test_downlink_bad_powers_rejected():
    ch, _, _ = rand_instance(3)
    for p in ([1.0, -0.5, 0.0, 0.0], [1.0, np.nan, 0.0, 0.0]):
        with pytest.raises(ValidationError):
            downlink_mmse(ch, random_downlink_dirs(ch, 3), np.array(p))


def downlink_cov(ch, Ubar, p, k):
    """J_k = H_k^H Ubar P Ubar^H H_k + sigma2 I, assembled directly."""
    Hk = ch.H[k]
    return Hk.conj().T @ (Ubar * p) @ Ubar.conj().T @ Hk \
        + ch.sigma2 * np.eye(ch.dims.N[k])


def test_downlink_receivers_match_direct_solve():
    # the last instance groups users 0 and 2 (N_k = 3) in one kernel stack
    # and runs user 1 (N_k = 2) alone
    hetero = SystemDims(M=5, K=3, N=(3, 2, 3), L=(2, 1, 1))
    for seed, dims in [(s, DIMS_2x2) for s in range(5)] + [(5, hetero)]:
        ch, _, _ = rand_instance(seed, dims)
        d = ch.dims
        Ubar = random_downlink_dirs(ch, seed + 20)
        p = np.random.default_rng(seed).uniform(0, 4, d.L_tot)
        X, _ = downlink_mmse(ch, Ubar, p)
        for k in range(d.K):
            J_k = downlink_cov(ch, Ubar, p, k)
            for j, l in enumerate(range(d.L_tot)[d.user_streams(k)]):
                x = np.linalg.solve(J_k, ch.H[k].conj().T @ Ubar[:, l])
                assert np.abs(X[k][:, j] - x).max() <= 1e-12


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_downlink_non_finite_covariance_raises():
    ch, _, _ = rand_instance(2)
    with pytest.raises(NumericsError):
        downlink_mmse(ch, np.eye(4, dtype=complex), np.full(4, 1e308))


def downlink_stream_mse(ch, Ubar, p, l, v):
    """Independent downlink per-stream MSE at an arbitrary receiver v of
    stream l: v^H J_k v - 2 Re[sqrt(p_l) v^H H_k^H ubar_l] + 1."""
    k = int(stream_owner(ch.dims)[l])
    quad = float(np.real(v.conj() @ downlink_cov(ch, Ubar, p, k) @ v))
    hu = ch.H[k].conj().T @ Ubar[:, l]
    cross = float(np.real(np.sqrt(p[l]) * (v.conj() @ hu)))
    return quad - 2.0 * cross + 1.0


def test_downlink_receivers_are_local_minima():
    ch, _, _ = rand_instance(8)
    d = ch.dims
    Ubar = random_downlink_dirs(ch, 8)
    p = np.array([1.0, 0.5, 2.0, 1.5])
    X, _ = downlink_mmse(ch, Ubar, p)
    rng = np.random.default_rng(0)
    for l in range(d.L_tot):
        k = int(stream_owner(d)[l])
        v = np.sqrt(p[l]) * X[k][:, l - d.user_streams(k).start]
        base = downlink_stream_mse(ch, Ubar, p, l, v)
        for _ in range(8):
            dv = rng.standard_normal(d.N[k]) + 1j * rng.standard_normal(d.N[k])
            dv *= 1e-3 / np.linalg.norm(dv)
            assert downlink_stream_mse(ch, Ubar, p, l, v + dv) >= base - 1e-15
            assert downlink_stream_mse(ch, Ubar, p, l, v - dv) >= base - 1e-15
