import math
import warnings

import numpy as np
import pytest

from conftest import rand_instance, scalar_instance, wiener_filters
from dualprec import (ChannelSet, ConvergenceError, DualPrecError,
                      EffectiveChannel, InfeasibleTransformError,
                      NumericsError, PrecoderSet,
                      SingularTransformError, SystemDims, VIRTUAL_UPLINK,
                      ValidationError,
                      build_duality_data, build_effective_channel,
                      make_state, psi_asymmetry, solve_power, transform_power,
                      transform_power_uplink, uplink_mse, verify_theorem)
from dualprec.duality import (COND_LIMIT, DualityData, DualityReport,
                              _check, _downlink_mse, _groups, _powers,
                              _transform)
from dualprec import duality, objective, solver
from dualprec.model import _run_stacks, _runs, gen_stacks
from dualprec.objective import UplinkState
from oracles import (check_equal_gradient_condition, downlink_mse_hu_order,
                     stream_owner, transform_every_cond)


def duality_point(eff, sigma2, q):
    state = make_state(eff, q, sigma2)
    return build_duality_data(state), state, uplink_mse(state)


# ---------------------------------------------------------------------------
# build_duality_data

def test_single_active_stream_psi_is_zero():
    _, _, eff = scalar_instance()
    dd, _, _ = duality_point(eff, 1.0, np.array([3.0]))
    assert dd.Psi.shape == (1, 1) and dd.Psi[0, 0] == 0.0
    assert dd.beta[0] > 0


def test_orthogonal_streams_psi_vanishes():
    eff = EffectiveChannel(cols=np.eye(2, dtype=complex))
    dd, _, _ = duality_point(eff, 1.0, np.array([1.0, 2.0]))
    # orthogonal channels give orthogonal receivers: no cross coupling
    assert np.abs(dd.Psi).max() == 0.0


def test_psi_entrywise_oracle():
    ch, _, eff = rand_instance(9)
    q, _ = solve_power(eff, ch.sigma2, ch.p_max)
    dd, state, _ = duality_point(eff, ch.sigma2, q)
    U = wiener_filters(state)
    for i, li in enumerate(dd.active):
        for j, lj in enumerate(dd.active):
            if i == j:
                assert dd.Psi[i, j] == 0.0
                continue
            ubar_j = U[:, lj] / np.linalg.norm(U[:, lj])
            expect = abs(np.vdot(eff.cols[:, li], ubar_j)) ** 2
            assert abs(dd.Psi[i, j] - expect) <= 1e-12
    assert np.all(dd.Psi >= 0)


def test_beta_and_d_formulas():
    ch, _, eff = rand_instance(10)
    q, _ = solve_power(eff, ch.sigma2, ch.p_max)
    dd, state, _ = duality_point(eff, ch.sigma2, q)
    U = wiener_filters(state)
    for pos, l in enumerate(dd.active):
        nu = np.linalg.norm(U[:, l])
        assert abs(dd.beta[pos] - np.sqrt(q[l]) * nu) <= 1e-12
        s = np.vdot(eff.cols[:, l], U[:, l] / nu)
        d_expect = abs(dd.beta[pos] * s) ** 2 - 2 * dd.beta[pos] * s.real + 1
        assert abs(dd.D[pos] - d_expect) <= 1e-12
        assert 0 < dd.eps[pos] < 1


def test_zero_receiver_on_active_stream_rejected():
    # a zero channel column gives a zero MMSE receiver whatever its power;
    # at q = 0 there is no active stream to build anything on
    _, _, eff = rand_instance(1)
    cols = eff.cols.copy()
    cols[:, 0] = 0.0
    eff0 = EffectiveChannel(cols=cols)
    for state, msg in ((make_state(eff0, np.full(4, 2.5), 1.0),
                        "zero MMSE receiver"),
                       (make_state(eff, np.zeros(4), 1.0),
                        "no active streams")):
        with pytest.raises(NumericsError, match=msg):
            build_duality_data(state)


# ---------------------------------------------------------------------------
# power transform

def test_transform_scalar_hand_computed():
    # M=1, htil=1, sigma2=1, q=3: J=4, u*=sqrt(3)/4, beta=3/4, eps=1/4,
    # D=1/16 => p = (1/4 - 1/16)^-1 * 9/16 = 3
    _, _, eff = scalar_instance()
    dd, _, _ = duality_point(eff, 1.0, np.array([3.0]))
    p = transform_power(dd, 1.0)
    assert p[0] == pytest.approx(3.0, abs=1e-12)
    q_rec = transform_power_uplink(dd, 1.0)
    assert q_rec[0] == pytest.approx(3.0, abs=1e-12)


def test_transform_orthogonal_streams_p_equals_q():
    eff = EffectiveChannel(cols=np.eye(3, dtype=complex))
    q = np.array([0.5, 1.5, 2.5])
    dd, _, _ = duality_point(eff, 1.0, q)
    assert np.abs(dd.Psi).max() == 0.0
    p = transform_power(dd, 1.0)
    q_rec = transform_power_uplink(dd, 1.0)
    assert np.abs(p - q).max() <= 1e-12
    assert np.abs(q_rec - q).max() <= 1e-12


def test_transform_branches_at_non_optimal_point():
    # The decisive branch check: at a NON-optimal q (Psi asymmetric), the
    # uplink reconstruction must return q exactly, and the downlink powers
    # must achieve exactly the uplink per-stream MSEs under the factored
    # receivers.  Also: duality preserves the sum power even off-optimum.
    for seed in range(5):
        ch, up, eff = rand_instance(seed)
        q = np.random.default_rng(seed).uniform(0.5, 3.0, 4)
        dd, state, eps_ul = duality_point(eff, ch.sigma2, q)
        assert psi_asymmetry(dd.Psi) > 1e-6  # genuinely asymmetric
        q_rec = transform_power_uplink(dd, ch.sigma2)
        assert np.abs(q_rec - q).max() <= 1e-9

        p = transform_power(dd, ch.sigma2)
        assert abs(p.sum() - q.sum()) <= 1e-8
        eps_dl = factored_downlink_mse(ch, up, eff, state, dd, p)
        assert np.abs(eps_dl - eps_ul).max() <= 1e-9


def factored_downlink_mse(ch, up, eff, state, dd, p):
    """Independent downlink evaluation: explicit signal/interference/noise
    sums with receivers v_l = beta_l p_l^{-1/2} vbar_l."""
    d = ch.dims
    U = wiener_filters(state)[:, dd.active]
    Ubar = np.zeros((d.M, d.L_tot), dtype=complex)
    Ubar[:, dd.active] = U / np.linalg.norm(U, axis=0)
    owner = stream_owner(d)
    out = np.ones(d.L_tot)
    for pos, l in enumerate(dd.active):
        k = owner[l]
        vbar = up.by_user[k][:, l - sum(d.L[:k])]
        v = dd.beta[pos] / np.sqrt(p[l]) * vbar
        coef = np.sqrt(p) * (v.conj() @ (ch.H[k].conj().T @ Ubar))
        m = abs(coef[l] - 1) ** 2 + np.abs(np.delete(coef, l)) ** 2 @ \
            np.ones(d.L_tot - 1)
        out[l] = float(m.real) + ch.sigma2 * float(np.linalg.norm(v) ** 2)
    return out


def test_transform_roundtrip_at_optimum():
    for seed in range(8):
        ch, _, eff = rand_instance(seed)
        q, _ = solve_power(eff, ch.sigma2, ch.p_max)
        dd, _, _ = duality_point(eff, ch.sigma2, q)
        q_rec = transform_power_uplink(dd, ch.sigma2)
        assert np.abs(q_rec - q).max() <= 1e-8 * ch.p_max
        p = transform_power(dd, ch.sigma2)
        assert abs(p.sum() - q.sum()) <= 1e-8 * ch.p_max


def test_transform_infeasible_mse_tuple():
    _, _, eff = scalar_instance()
    dd, _, _ = duality_point(eff, 1.0, np.array([3.0]))
    # eps below D makes the 1x1 system produce a negative power
    bogus = DualityData(beta=dd.beta, D=dd.D, Psi=dd.Psi,
                        eps=dd.D - 0.05, active=dd.active, n_streams=1)
    with pytest.raises(InfeasibleTransformError):
        transform_power(bogus, 1.0)


def test_transform_singular_system():
    _, _, eff = scalar_instance()
    dd, _, _ = duality_point(eff, 1.0, np.array([3.0]))
    bogus = DualityData(beta=dd.beta, D=dd.D, Psi=dd.Psi,
                        eps=dd.D.copy(), active=dd.active, n_streams=1)
    with pytest.raises(SingularTransformError):
        transform_power(bogus, 1.0)


def prescribed_stack(m, conds, seed):
    """Transform arguments (beta, D, eps, coupling) whose matrices
    diag(eps - D) - beta^2 coupling are exactly U diag(s) V^T, with
    random orthogonal U, V and s geometric from 1 to 1 / cond."""
    rng = np.random.default_rng(seed)
    A = []
    for c in conds:
        U, V = (np.linalg.qr(rng.standard_normal((m, m)))[0] for _ in "UV")
        A.append((U * np.geomspace(1.0, 1.0 / c, m)) @ V.T)
    B = len(conds)
    return np.ones((B, m)), np.zeros((B, m)), np.zeros((B, m)), -np.array(A)


def assert_same_transform(args, sigma2, monkeypatch, svd_rows=None,
                          on=None):
    """`_transform` on ``args`` and the mask ``on`` makes the decisions of
    the every-row SVD reference, with the same messages and bitwise the
    same x, exactly 0 on the off streams of an accepted row; it runs
    `np.linalg.cond` on at most ``svd_rows`` rows when that is given."""
    ref_x, ref_errs = transform_every_cond(*args, sigma2, on)
    seen, cond = [], np.linalg.cond

    def counted(a):
        out = cond(a)
        seen.append(out.size)
        return out

    monkeypatch.setattr(np.linalg, "cond", counted)
    x, errs = _transform(*args, sigma2, on)
    monkeypatch.setattr(np.linalg, "cond", cond)
    assert x.tobytes() == ref_x.tobytes()
    assert [(type(e), str(e)) for e in errs] == \
        [(type(e), str(e)) for e in ref_errs]
    if on is not None:
        ok = np.array([e is None for e in errs])
        assert np.all(x[ok][~on[ok]] == 0.0)
    if svd_rows is not None:
        assert sum(seen) <= svd_rows
    return errs


@pytest.mark.parametrize("m", [2, 4, 12, 32])
def test_condition_gate_decides_as_the_svd(m, monkeypatch):
    # cond_2 <= sqrt(|A|_1 |A|_inf |A^-1|_1 |A^-1|_inf) <= m cond_2, so a
    # row whose cond_2 is below COND_LIMIT / (2 m) never takes an SVD
    conds = np.concatenate([np.geomspace(1e2, 1e14, 13),
                            np.geomspace(1e11, 1e13, 41)])
    errs = assert_same_transform(
        prescribed_stack(m, conds, m), 1.0, monkeypatch,
        svd_rows=np.count_nonzero(conds > COND_LIMIT / (2 * m)))
    rejected = np.array([isinstance(e, SingularTransformError)
                         for e in errs])
    far = np.abs(np.log10(conds / COND_LIMIT)) > 0.01
    assert np.array_equal(rejected[far], conds[far] > COND_LIMIT)
    assert str(errs[-1]) == \
        "power-transform matrix condition number exceeds 1e12"


def test_condition_gate_singular_nan_and_overflowing_rows(monkeypatch):
    # an exactly singular row and a NaN row make only their own bounds
    # NaN, and diag(1, 1e-200, 1, 1) its bound overflow to inf, silently;
    # the singular row, the one above COND_LIMIT and the overflowing one
    # take an SVD
    beta, D, eps, coupling = prescribed_stack(4, [1, 1e6, 1e13, 1e3, 1], 5)
    coupling[1, 2] = 0.0
    coupling[3, 0, 1] = np.nan
    coupling[0] = -np.diag([1.0, 2.0, 3.0, 4.0])  # x = 1 / diagonal
    coupling[4] = -np.diag([1.0, 1e-200, 1.0, 1.0])
    expect = [None, SingularTransformError, SingularTransformError,
              NumericsError, SingularTransformError]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        errs = assert_same_transform((beta, D, eps, coupling), 1.0,
                                     monkeypatch, svd_rows=3)
        assert [type(e) if e else None for e in errs] == expect
        keep = [0, 2, 3, 4]
        errs = assert_same_transform(
            (beta[keep], D[keep], eps[keep], coupling[keep]), 1.0,
            monkeypatch, svd_rows=2)
        assert [type(e) if e else None for e in errs] == \
            [expect[k] for k in keep]


def test_singular_row_alone_takes_its_svd(monkeypatch):
    # one exactly singular matrix is NaN in its own row of the inverse and
    # the solve: `np.linalg.cond` runs on it and on the row whose bound is
    # open (cond_2 1e13), and not on the rows the bound passes
    args = prescribed_stack(4, [1e2, 1e3, 1e13, 10.0], 3)
    args[3][1, 2] = 0.0  # A = -coupling: a zero row
    seen, cond = [], np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond",
                        lambda a: seen.append(a.copy()) or cond(a))
    _, errs = _transform(*args, 1.0)
    assert [isinstance(e, SingularTransformError) for e in errs] == [
        False, True, True, False]
    assert len(seen) == 2
    for a, j in zip(seen, (1, 2)):
        assert np.array_equal(a, -args[3][j])
    assert_same_transform(args, 1.0, monkeypatch, svd_rows=2)


def wide_stack(sigma2, seeds):
    """The g of `_groups` on the solved trials of 8,6,(2)x6,(2)x6
    (L_tot = 3M/2) at noise power ``sigma2``, P = 10."""
    dims = SystemDims(M=8, K=6, N=(2,) * 6, L=(2,) * 6)
    _, _, cs = gen_stacks(dims, seeds)
    res = solver._solve_stack(cs, sigma2, 10.0)
    ok = np.array([e is None for e in res.err])
    err = [None] * int(np.count_nonzero(ok))
    return _groups(res.q[ok], res.a[ok], cs[ok], solver.ACTIVE_TOL * 10.0,
                   err)


def active_block(on, *xs):
    """Each of ``xs`` (a row's m-vector or m x m matrix of the masked
    stack) on the streams of its mask ``on``, as a stack of one."""
    return [(x[np.ix_(on, on)] if x.ndim == 2 else x[on])[None] for x in xs]


@pytest.mark.parametrize("sigma2", [1e-10, 1e-12])
def test_condition_gate_at_the_limit(sigma2, monkeypatch):
    # the transform matrices' condition numbers grow as about 3 / sigma2
    # here, so these rows cross COND_LIMIT; both transform directions.
    # The masked stack decides each row as the every-row SVD does on the
    # row's active block alone, and its off streams get exactly 0
    g, errs = wide_stack(sigma2, range(1, 51)), []
    for coupling in (g.Psi, g.Psi.swapaxes(1, 2)):
        args = (g.beta, g.D, g.eps, coupling)
        got = assert_same_transform(args, sigma2, monkeypatch, on=g.on)
        for j, e in enumerate(got):
            _, (ref,) = transform_every_cond(
                *active_block(g.on[j], *(x[j] for x in args)), sigma2)
            assert (type(e), str(e)) == (type(ref), str(ref))
        errs += got
    singular = sum(isinstance(e, SingularTransformError) for e in errs)
    assert np.count_nonzero(~g.on) > 0
    assert 0 < singular < len(errs) if sigma2 == 1e-10 else \
        singular == len(errs)


def test_condition_gate_takes_no_svd_when_every_bound_passes(monkeypatch):
    def no_svd(a):
        raise AssertionError("np.linalg.cond called")

    stacks = [(prescribed_stack(32, np.geomspace(1.0, 1e9, 20), 1), None)]
    g = wide_stack(1e-4, range(1, 21))
    stacks.append(((g.beta, g.D, g.eps, g.Psi), g.on))
    refs = [transform_every_cond(*args, 1e-4, on) for args, on in stacks]
    monkeypatch.setattr(np.linalg, "cond", no_svd)
    for (args, on), (ref_x, ref_errs) in zip(stacks, refs):
        x, errs = _transform(*args, 1e-4, on)
        assert x.tobytes() == ref_x.tobytes()
        assert [type(e) for e in errs] == [type(e) for e in ref_errs]


#: Largest |difference| of `_downlink_mse` from the H_k^H Ubar order:
#: measured 3.1e-15 over seeds 1-400 of 4,2,2,2,2,2 at sigma2 = 1e-6,
#: 1.3e-16 at the large-m shape and 5.6e-16 at 8,6,(2)x6,(2)x6; 3x that.
DOWNLINK_ORDER_BUDGET = 1e-14


@pytest.mark.parametrize("dims, sigma2, seeds, parked", [
    (SystemDims(M=64, K=32, N=(2,) * 32, L=(1,) * 32), 1.0, range(1, 5),
     False),
    (SystemDims(M=4, K=2, N=(2, 2), L=(2, 2)), 10.0, range(1, 41), True),
    (SystemDims(M=4, K=2, N=(2, 2), L=(2, 2)), 1e-6, range(1, 201), False),
    (SystemDims(M=8, K=6, N=(2,) * 6, L=(2,) * 6), 1e-4, range(1, 41),
     True)])
def test_downlink_product_order(dims, sigma2, seeds, parked):
    # parked: some group has inactive streams; 8,6,... has L_tot = 3M/2
    H, V, cs = gen_stacks(dims, seeds)
    res = solver._solve_stack(cs, sigma2, 10.0)
    ok = np.array([e is None for e in res.err])
    H, V = [h[ok] for h in H], [v[ok] for v in V]
    err = [None] * int(np.count_nonzero(ok))
    g, P = _powers(res.q[ok], res.a[ok], cs[ok], solver.ACTIVE_TOL * 10.0,
                   sigma2, err)
    got = _downlink_mse(H, V, dims, g, P, sigma2)
    ref = downlink_mse_hu_order(H, V, dims, g, P, sigma2)
    assert np.abs(got - ref).max() <= DOWNLINK_ORDER_BUDGET
    assert np.array_equal(got == 1.0, ref == 1.0)
    assert (np.count_nonzero(~g.on) > 0) == parked


# ---------------------------------------------------------------------------
# verify_theorem and the equal-gradient condition

def test_verify_theorem_certified_ensemble():
    for seed in range(10):
        ch, up, eff = rand_instance(seed)
        q, cert = solve_power(eff, ch.sigma2, ch.p_max)
        rep = verify_theorem(ch, up, q)
        assert rep.psi_asymmetry <= 1e-8
        assert rep.pq_gap <= 1e-6
        assert rep.mse_gap <= 1e-8
        assert abs(rep.sum_power_dl - q.sum()) <= 1e-6 * ch.p_max


def test_verify_theorem_takes_the_solve_state():
    for seed in range(5):
        ch, up, eff = rand_instance(seed)
        q, cert = solve_power(eff, ch.sigma2, ch.p_max)
        rep = verify_theorem(ch, up, q, state=cert.state)
        ref = verify_theorem(ch, up, q)
        for name in ("psi_asymmetry", "pq_gap", "mse_gap", "sum_power_dl"):
            assert getattr(rep, name) == getattr(ref, name)
        assert np.array_equal(rep.p, ref.p)
        with pytest.raises(ValidationError):
            verify_theorem(ch, up, np.full(4, 2.5), state=cert.state)


def test_verify_theorem_negative_control():
    for seed in range(5):
        ch, up, eff = rand_instance(seed)
        q_opt, _ = solve_power(eff, ch.sigma2, ch.p_max)
        rep_opt = verify_theorem(ch, up, q_opt)
        uniform = np.full(4, ch.p_max / 4)
        rep_bad = verify_theorem(ch, up, uniform)
        # the hypothesis (optimal q) is load-bearing
        assert rep_bad.psi_asymmetry > 1e-8
        assert rep_bad.psi_asymmetry > 100 * rep_opt.psi_asymmetry


def test_verify_theorem_inactive_stream_path():
    # H_1 columns [h, 0.1 h]: stream 2 is collinear and weak, so the solver
    # shuts it off; the transform must put p = 0 there too
    dims = SystemDims(M=2, K=1, N=(2,), L=(2,))
    h = np.array([[1.0, 0.1], [0.0, 0.0]], dtype=complex)
    ch = ChannelSet(dims=dims, H=(h,), sigma2=1.0, p_max=5.0)
    up = PrecoderSet(direction=VIRTUAL_UPLINK,
                     by_user=(np.eye(2, dtype=complex),), powers=np.zeros(2))
    eff = build_effective_channel(ch, up)
    q, cert = solve_power(eff, ch.sigma2, ch.p_max)
    assert q[1] == 0.0
    rep = verify_theorem(ch, up, q)
    assert rep.p[1] == 0.0
    assert rep.pq_gap <= 1e-6
    assert rep.mse_gap <= 1e-8


def test_equal_gradient_spread():
    for seed in range(5):
        ch, _, eff = rand_instance(seed)
        cfg_tol = 1e-9
        q, cert = solve_power(eff, ch.sigma2, ch.p_max)
        spread = check_equal_gradient_condition(eff, ch.sigma2, q)
        assert spread <= 10 * cfg_tol / cert.mu_sum
        uniform = np.full(4, ch.p_max / 4)
        assert check_equal_gradient_condition(eff, ch.sigma2, uniform) > 1e-4


def test_equal_gradient_single_active_is_zero():
    _, _, eff = scalar_instance()
    assert check_equal_gradient_condition(eff, 1.0, np.array([3.0])) == 0.0


def test_symmetry_implication_under_perturbation():
    # Psi symmetry tracks the equal-gradient condition: tiny spread implies
    # tiny asymmetry, and asymmetry grows as q drifts off the optimum
    ch, up, eff = rand_instance(11)
    q, _ = solve_power(eff, ch.sigma2, ch.p_max)
    asyms = []
    for delta in (0.0, 1e-6, 1e-3):
        qq = q.copy()
        act = np.flatnonzero(qq > 0)
        qq[act[0]] += delta
        qq[act[-1]] -= delta
        dd, _, _ = duality_point(eff, ch.sigma2, qq)
        spread = check_equal_gradient_condition(eff, ch.sigma2, qq)
        asym = psi_asymmetry(dd.Psi)
        if spread <= 1e-9:
            assert asym <= 1e-8
        asyms.append(asym)
    assert asyms[2] > asyms[0]


def test_theorem_across_varied_shapes():
    # broader sweep than the acceptance ensemble: M, K <= 4, L_tot <= 6
    shapes = [SystemDims(M=2, K=1, N=(2,), L=(2,)),
              SystemDims(M=3, K=2, N=(2, 1), L=(2, 1)),
              SystemDims(M=4, K=4, N=(1, 1, 1, 1), L=(1, 1, 1, 1)),
              SystemDims(M=4, K=3, N=(2, 2, 2), L=(2, 2, 2)),
              SystemDims(M=2, K=2, N=(3, 3), L=(1, 1)),
              SystemDims(M=4, K=1, N=(4,), L=(4,))]
    for i in range(120):
        dims = shapes[i % len(shapes)]
        ch, up, eff = rand_instance(7000 + i, dims=dims)
        q, cert = solve_power(eff, ch.sigma2, ch.p_max)
        rep = verify_theorem(ch, up, q)
        assert rep.psi_asymmetry <= 1e-8
        assert rep.pq_gap <= 1e-6
        assert rep.mse_gap <= 1e-8
        assert abs(rep.sum_power_dl - q.sum()) <= 1e-6 * ch.p_max


# ---------------------------------------------------------------------------
# the stacked kernel: bitwise a stack of one, row by row

REPORT_FIELDS = ("psi_asymmetry", "pq_gap", "mse_gap", "sum_power_dl")


def solved_rows(seeds, dims=None, sigma2=1.0):
    """(ch, up, state) of the instances on ``seeds`` whose solve passes."""
    rows = []
    for seed in seeds:
        kw = {} if dims is None else {"dims": dims}
        ch, up, eff = rand_instance(seed, sigma2=sigma2, **kw)
        try:
            _, cert = solve_power(eff, ch.sigma2, ch.p_max)
        except DualPrecError:
            continue
        rows.append((ch, up, cert.state))
    return rows


def assert_same_report(got, ref):
    for name in REPORT_FIELDS:
        assert getattr(got, name) == getattr(ref, name), name
    assert got.p.tobytes() == ref.p.tobytes()
    assert np.array_equal(got.q, ref.q)


def stacks(states):
    """Q, A = J^-1 Htil and the columns of ``states`` (of one shape), as
    the duality kernel takes them."""
    return (np.array([st.q for st in states]),
            np.array([st.Jinv_cols for st in states]),
            np.array([st.eff.cols for st in states]))


def check_rows(rows):
    """`duality._check` on the stacked rows (ch, up, state) of one dims:
    per row, in order, its DualityReport or the error of its check."""
    chs, ups, states = zip(*rows)
    d, sigma2, p_max = chs[0].dims, chs[0].sigma2, chs[0].p_max
    assert all((ch.sigma2, ch.p_max) == (sigma2, p_max) for ch in chs)
    runs = _runs(d.N, d.L)
    H, V = ([np.concatenate(r) for r in zip(*(_run_stacks(runs, x)
                                              for x in blocks))]
            for blocks in ([ch.H for ch in chs], [up.by_user for up in ups]))
    res = _check(*stacks(states), H, V, d, sigma2, p_max)
    return [e if e is not None else DualityReport(p, st.q, *gaps)
            for e, p, st, gaps in zip(res.err, res.p, states,
                                      res.gaps.tolist())]


def group_rows(states, tol):
    """`duality._groups` on the stacked ``states``: per state, in order,
    its DualityData or the error the kernel gave it."""
    out = [None] * len(states)
    g = _groups(*stacks(states), tol, out)
    for j, on in enumerate(g.on):
        if out[j] is not None:
            continue
        beta, D, Psi, eps = (x[0] for x in active_block(
            on, g.beta[j], g.D[j], g.Psi[j], g.eps[j]))
        out[j] = DualityData(beta=beta, D=D, Psi=Psi, eps=eps,
                             active=np.flatnonzero(on), n_streams=len(on))
    return out


def assert_same_data(got, ref):
    for name in ("beta", "D", "Psi", "eps", "active"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()
    assert got.n_streams == ref.n_streams


@pytest.mark.parametrize("sigma2", [10.0, 1.0, 1e-2, 1e-4, 1e-6])
def test_verify_theorems_bitwise_one_at_a_time(sigma2):
    rows = solved_rows(range(1, 41), sigma2=sigma2)
    reports = check_rows(rows)
    for (ch, up, st), rep in zip(rows, reports):
        assert_same_report(rep, verify_theorem(ch, up, st.q, state=st))
    states = [st for _, _, st in rows]
    for st, dd in zip(states, group_rows(states, 1e-9 * 10.0)):
        assert_same_data(dd, build_duality_data(st, 1e-9 * 10.0))
    if sigma2 == 10.0:  # low SNR parks streams: groups of several sizes
        assert len({int(np.count_nonzero(r.p)) for r in reports}) > 1


def test_verify_theorems_bitwise_at_m64():
    dims = SystemDims(M=64, K=32, N=(2,) * 32, L=(1,) * 32)
    rows = solved_rows(range(1, 4), dims=dims)
    assert len(rows) == 3
    reports = check_rows(rows)
    for (ch, up, st), rep in zip(rows, reports):
        assert_same_report(rep, verify_theorem(ch, up, st.q, state=st))


def mixed_stack():
    """`_check`'s arguments on 4,2,2,2,2,2 at sigma2 = 1, P = 10, seeds
    1-10, each row powered uniformly on a set of 1, 2, 3 or 4 streams
    (every active count, and all-active rows), with A = J^-1 Htil there."""
    dims = SystemDims(M=4, K=2, N=(2, 2), L=(2, 2))
    H, V, cs = gen_stacks(dims, range(1, 11))
    sets = [(2,), (0, 3), (0, 1, 3), (0, 1, 2, 3), (0, 1, 2, 3), (1, 2),
            (1, 2, 3), (0,), (0, 1, 2, 3), (0, 2)]
    Q = np.zeros((len(sets), 4))
    for j, on in enumerate(sets):
        Q[j, list(on)] = 10.0 / len(on)
    A = objective._covariance(cs, Q, 1.0)[0]
    return Q, A, cs, H, V, dims, 1.0, 10.0


def test_check_is_each_rows_check_alone():
    # one masked stack for rows of every active count: each row's p, gaps
    # and error are bitwise those of its own stack of one, and an off
    # stream has power exactly 0 and an uplink MSE of exactly 1
    Q, A, cs, H, V, dims, sigma2, p_max = args = mixed_stack()
    res = _check(*args)
    assert sorted(set(np.count_nonzero(Q, axis=1).tolist())) == [1, 2, 3, 4]
    assert res.err == [None] * len(Q)
    for j in range(len(Q)):
        one = slice(j, j + 1)
        alone = _check(Q[one], A[one], cs[one], [h[one] for h in H],
                       [v[one] for v in V], dims, sigma2, p_max)
        assert res.p[j].tobytes() == alone.p[0].tobytes()
        assert res.gaps[j].tobytes() == alone.gaps[0].tobytes()
        assert alone.err == [None]
    assert np.all(res.p[Q == 0.0] == 0.0)
    err = [None] * len(Q)
    g, P = _powers(Q, A, cs, solver.ACTIVE_TOL * p_max, sigma2, err)
    assert np.array_equal(g.on, Q > 0) and np.all(P[~g.on] == 0.0)
    assert np.all(g.eps[~g.on] == 1.0) and np.all(g.beta[~g.on] == 0.0)


def test_check_of_a_stack_whose_rows_all_fail():
    # every row idle, or every row's transform matrix not finite: each
    # row keeps its place and its error, silently
    Q, A, cs, H, V, dims, sigma2, p_max = mixed_stack()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q, a, msg in ((np.zeros(Q.shape), A,
                           "no active streams to transform"),
                          (Q, A * np.nan, "non-finite power-transform "
                                          "matrix")):
            res = _check(q, a, cs, H, V, dims, sigma2, p_max)
            assert [(type(e), str(e)) for e in res.err] == \
                [(NumericsError, msg)] * len(Q)
            assert np.isnan(res.p).all() and np.isnan(res.gaps).all()


def one_stream_row(Q, A, cs, j, t):
    """Row j of the stacks powered on stream 0 alone, q_0 = 1, with htil_0
    = e_1 and a_0 = t e_1: its 1 x 1 transform matrix is t - t^2 exactly,
    so exactly singular at t = 1 and giving a negative power at
    t = 1 + 2^-8."""
    Q[j], A[j, :, 0], cs[j, :, 0] = 0.0, 0.0, 0.0
    Q[j, 0], A[j, 0, 0], cs[j, 0, 0] = 1.0, t, 1.0


@pytest.mark.parametrize("exact", [False, True])
def test_check_keeps_every_row(exact, monkeypatch):
    # one stack of 8,6,(2)x6,(2)x6 at sigma2 = 1e-10 with rows that enter
    # with a solver error, rows that fail in `_groups`, rows that fail in
    # `_transform` (exact: one of them exactly singular, NaN in its own
    # row of the inverse and the solve) and
    # healthy rows: each row keeps its place and its first error, p and
    # gaps are NaN on exactly the rows with an error, a healthy row is
    # bitwise its own stack of one, and the downlink check gets the
    # caller's channel and beamformer stacks whole
    dims = SystemDims(M=8, K=6, N=(2,) * 6, L=(2,) * 6)
    sigma2, p_max = 1e-10, 10.0
    H, V, cs = gen_stacks(dims, range(1, 13))
    res = solver._solve_stack(cs, sigma2, p_max)
    assert res.err == [None] * 12
    Q, A, cs = res.q.copy(), res.a.copy(), cs.copy()
    entry = [None] * 12
    Q[0], A[0] = math.nan, math.nan  # a row the solver left without numbers
    entry[0] = NumericsError("covariance not positive definite")
    entry[1] = ConvergenceError("relative gap above tolerance")  # real q
    Q[4] = 0.0                                      # idle
    Q[5, 3] = -1.0                                  # a negative power
    A[6, :, int(np.argmax(Q[6]))] = 0.0             # a zero receiver
    A[7, :, 5] = math.nan                           # a non-finite matrix
    one_stream_row(Q, A, cs, 8, 1.0 + 2.0 ** -8)    # a negative power
    if exact:
        one_stream_row(Q, A, cs, 10, 1.0)           # exactly singular
    expect = [NumericsError, ConvergenceError, SingularTransformError, None,
              NumericsError, ValidationError, NumericsError, NumericsError,
              InfeasibleTransformError, None,
              SingularTransformError if exact else None, None]
    seen, downlink = [], duality._downlink_mse
    monkeypatch.setattr(duality, "_downlink_mse", lambda *a: seen.append(
        a[:2]) or downlink(*a))
    err = list(entry)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _check(Q, A, cs, H, V, dims, sigma2, p_max, err)
    assert got.err is err
    assert [type(e) if e else None for e in err] == expect
    assert err[0] is entry[0] and err[1] is entry[1]
    assert len(seen) == 1 and seen[0][0] is H and seen[0][1] is V
    bad = np.array([e is not None for e in err])
    for x in (got.p, got.gaps):
        assert np.array_equal(np.isnan(x).all(axis=1), bad)
        assert not np.isnan(x[~bad]).any()
    for j in range(12):
        one = slice(j, j + 1)
        alone = _check(Q[one], A[one], cs[one], [h[one] for h in H],
                       [v[one] for v in V], dims, sigma2, p_max, [entry[j]])
        assert [(type(e), str(e)) for e in alone.err] == \
            [(type(err[j]), str(err[j]))]
        assert got.p[j].tobytes() == alone.p[0].tobytes()
        assert got.gaps[j].tobytes() == alone.gaps[0].tobytes()


def test_check_makes_one_transform_whatever_the_active_counts(monkeypatch):
    # one _transform, one inverse and one solve for the whole stack
    args, calls = mixed_stack(), []
    for name in ("inv", "solve"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, name=name, fn=fn:
                            calls.append(name) or fn(*a))
    transform = duality._transform
    monkeypatch.setattr(duality, "_transform", lambda *a: calls.append(
        "_transform") or transform(*a))
    res = _check(*args)
    assert res.err == [None] * 10
    assert sorted(calls) == ["_transform", "inv", "solve"]


def check_c_calls(K):
    """The C functions (numpy's included) one `_check` calls on 4 solved
    trials of K single-stream users, one run, at M = 64."""
    import sys

    dims = SystemDims(M=64, K=K, N=(2,) * K, L=(1,) * K)
    H, V, cols = gen_stacks(dims, range(1, 5))
    res = solver._solve_stack(cols, 1.0, 10.0)
    assert res.err == [None] * 4
    calls = []

    def profile(frame, event, arg):
        if event == "c_call":
            calls.append(arg.__qualname__)

    sys.setprofile(profile)
    try:
        _check(res.q, res.a, cols, H, V, dims, 1.0, 10.0)
    finally:
        sys.setprofile(None)
    return calls


def test_check_calls_do_not_grow_with_users():
    # one product and one slice per run: no loop or call per user
    assert check_c_calls(4) == check_c_calls(32)


def bogus_state(state, a):
    """``state`` with J^-1 Htil replaced by ``a``, the only part of the
    state the duality kernel reads besides q and the channel."""
    return UplinkState(eff=state.eff, q=state.q, sigma2=state.sigma2,
                       Jinv_cols=np.asarray(a, dtype=complex),
                       trace_inv=state.trace_inv)


def test_verify_theorems_bad_row_leaves_the_others():
    # scalar rows, one stack: with htil = 1 and a = J^-1 htil the 1x1
    # transform matrix is q a (1 - q a), zero at q a = 1 and negative (a
    # negative power) at q a = 2; a NaN receiver makes it non-finite
    ch, up, eff = scalar_instance()
    good = [make_state(eff, np.array([q]), 1.0) for q in (1.0, 2.0, 3.0)]
    three = good[2]
    states = [good[0], bogus_state(three, [[1.0 / 3.0]]), good[1],
              bogus_state(three, [[2.0 / 3.0]]), bogus_state(three, [[np.nan]]),
              good[2]]
    errors = [None, SingularTransformError, None, InfeasibleTransformError,
              NumericsError, None]
    with np.errstate(invalid="ignore"):  # the NaN row
        out = check_rows([(ch, up, st) for st in states])
        for st, rep, err in zip(states, out, errors):
            if err is None:
                assert_same_report(rep, verify_theorem(ch, up, st.q, state=st))
                continue
            assert type(rep) is err
            with pytest.raises(err):
                verify_theorem(ch, up, st.q, state=st)

    # M = 4: a row with no active stream between solved rows
    rows = solved_rows(range(1, 6))
    ch0, up0, st0 = rows[0]
    idle = make_state(st0.eff, np.zeros(4), ch0.sigma2)
    rows.insert(2, (ch0, up0, idle))
    out = check_rows(rows)
    assert isinstance(out[2], NumericsError)
    with pytest.raises(NumericsError):
        verify_theorem(ch0, up0, idle.q, state=idle)
    for k in (0, 1, 3, 4, 5):
        ch, up, st = rows[k]
        assert_same_report(out[k], verify_theorem(ch, up, st.q, state=st))
