"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  The 1000-trial theorem ensemble is built once and
shared by the criteria that consume it.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import covariance, mse_trace_sum, rand_instance
from dualprec import (BOTH, ChannelSet, DesignConfig, PrecoderSet,
                      SolverConfig, SystemDims, VIRTUAL_UPLINK,
                      build_duality_data, build_effective_channel,
                      design, gen_channel, make_state, psi_asymmetry,
                      solve_power, sum_mse_uplink, transform_power_uplink,
                      verify_theorem)
from dualprec.solver import ACTIVE_TOL
from oracles import (brute_force_power, check_equal_gradient_condition,
                     grad_trace_Jinv, legacy_smse_difference)


def _trace_jinv(cols, sigma2, q):
    return covariance(cols, q, sigma2)[1]

DIMS = SystemDims(M=4, K=2, N=(2, 2), L=(2, 2))
TRIALS = 1000
SEED_BASE = 1
SIGMA2 = 1.0
P_MAX = 10.0
KKT_TOL = 1e-9


def _criterion(name, ok, detail):
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@dataclass
class Trial:
    seed: int
    mu_sum: float
    max_residual: float
    spread: float
    psi_asymmetry: float
    pq_gap: float
    mse_gap: float
    sum_power_dl: float
    sum_q: float
    trace_identity_err: float
    roundtrip_err: float
    psi_asym_uniform: float


@pytest.fixture(scope="module")
def ensemble():
    cfg = SolverConfig(kkt_tol=KKT_TOL)
    trials = []
    t0 = time.perf_counter()
    for t in range(TRIALS):
        seed = SEED_BASE + t
        ch, up, eff = rand_instance(seed, DIMS, SIGMA2, P_MAX)
        q, cert = solve_power(eff, ch.sigma2, ch.p_max, cfg)
        rep = verify_theorem(ch, up, q)
        spread = check_equal_gradient_condition(eff, ch.sigma2, q)

        state = make_state(eff, q, ch.sigma2)
        lhs = sum_mse_uplink(state)
        rhs = mse_trace_sum(state)

        dd = build_duality_data(state, active_tol=ACTIVE_TOL * ch.p_max)
        q_rec = transform_power_uplink(dd, ch.sigma2)

        # negative control at uniform power on the identical instance
        q_uni = np.full(DIMS.L_tot, ch.p_max / DIMS.L_tot)
        dd_u = build_duality_data(make_state(eff, q_uni, ch.sigma2))

        trials.append(Trial(
            seed=seed, mu_sum=cert.mu_sum, max_residual=cert.max_residual,
            spread=spread, psi_asymmetry=rep.psi_asymmetry,
            pq_gap=rep.pq_gap, mse_gap=rep.mse_gap,
            sum_power_dl=rep.sum_power_dl, sum_q=float(q.sum()),
            trace_identity_err=abs(lhs - rhs),
            roundtrip_err=float(np.abs(q_rec - q).max()),
            psi_asym_uniform=psi_asymmetry(dd_u.Psi)))
    elapsed = time.perf_counter() - t0
    return trials, elapsed


def test_criterion_1_theorem_certification(ensemble):
    trials, elapsed = ensemble
    max_psi = max(t.psi_asymmetry for t in trials)
    max_pq = max(t.pq_gap for t in trials)
    max_mse = max(t.mse_gap for t in trials)
    ok = (len(trials) == TRIALS and max_psi <= 1e-8 and max_pq <= 1e-6
          and max_mse <= 1e-8 and elapsed <= 60.0)
    _criterion(
        "criterion 1: theorem certification over 1000 trials", ok,
        f"max psi_asymmetry {max_psi:.2e} <= 1e-8, max pq_gap {max_pq:.2e} "
        f"<= 1e-6, max mse_gap {max_mse:.2e} <= 1e-8, runtime {elapsed:.1f}s "
        f"<= 60s")


def test_criterion_2_negative_control(ensemble):
    trials, _ = ensemble
    median_neg = float(np.median([t.psi_asym_uniform for t in trials]))
    ok = median_neg >= 100 * 1e-8
    _criterion(
        "criterion 2: negative control at uniform q", ok,
        f"median psi_asymmetry {median_neg:.2e} >= 100 x 1e-8")


def test_criterion_3_kkt_certification(ensemble):
    trials, _ = ensemble
    max_resid = max(t.max_residual for t in trials)
    worst_spread = max(t.spread - 10 * KKT_TOL / t.mu_sum for t in trials)
    ok = max_resid <= 1e-9 and worst_spread <= 0.0
    _criterion(
        "criterion 3: KKT residuals and equal-gradient spread", ok,
        f"max residual {max_resid:.2e} <= 1e-9, spread within "
        f"10*kkt_tol/mu_sum on all trials (worst margin {worst_spread:.2e})")


def grad_instances():
    shapes = [SystemDims(M=4, K=2, N=(2, 2), L=(2, 2)),
              SystemDims(M=3, K=1, N=(3,), L=(2,)),
              SystemDims(M=2, K=2, N=(1, 2), L=(1, 1)),
              SystemDims(M=5, K=3, N=(2, 2, 2), L=(1, 2, 2))]
    for i in range(100):
        dims = shapes[i % len(shapes)]
        ch, up, eff = rand_instance(1000 + i, dims, SIGMA2, P_MAX)
        q = np.random.default_rng(2000 + i).uniform(0.3, 3.0, dims.L_tot)
        yield eff, q


def test_criterion_4_gradient_matches_finite_differences():
    worst = 0.0
    h = 1e-6
    for eff, q in grad_instances():
        g = grad_trace_Jinv(make_state(eff, q, SIGMA2))
        for l in range(eff.L_tot):
            e = np.zeros(eff.L_tot)
            e[l] = h
            fd = (_trace_jinv(eff.cols, SIGMA2, q + e)
                  - _trace_jinv(eff.cols, SIGMA2, q - e)) / (2 * h)
            worst = max(worst, abs(g[l] - fd) / max(abs(fd), 1e-300))
    ok = worst <= 1e-5
    _criterion(
        "criterion 4: analytic gradient vs central differences (100 instances)",
        ok, f"worst relative error {worst:.2e} <= 1e-5")


def test_criterion_5_trace_identity(ensemble):
    trials, _ = ensemble
    worst = max(t.trace_identity_err for t in trials)
    for eff, q in grad_instances():
        st = make_state(eff, q, SIGMA2)
        worst = max(worst, abs(sum_mse_uplink(st) - mse_trace_sum(st)))
    ok = worst <= 1e-10
    _criterion(
        "criterion 5: sum-MSE trace identity on every instance", ok,
        f"worst |L-M+s2 tr(Jinv) - sum tr(E_k)| = {worst:.2e} <= 1e-10")


def test_criterion_6_grid_oracle_equivalence():
    grid_points = 2001
    dims = SystemDims(M=2, K=2, N=(1, 1), L=(1, 1))
    worst_excess = 0.0
    worst_grid = 0.0
    for i in range(50):
        ch, _, eff = rand_instance(3000 + i, dims, SIGMA2, P_MAX)
        q, _ = solve_power(eff, ch.sigma2, ch.p_max,
                           SolverConfig(kkt_tol=KKT_TOL))
        qg = brute_force_power(eff, ch.sigma2, ch.p_max, grid_points)
        f_s = _trace_jinv(eff.cols, ch.sigma2, q)
        f_g = _trace_jinv(eff.cols, ch.sigma2, qg)
        worst_excess = max(worst_excess, f_s - f_g)
        # curvature bound: lam_max(H) * spacing^2 with H from the kernel
        spacing = ch.p_max / (grid_points - 1)
        A = covariance(eff.cols, q, ch.sigma2)[0]
        cmat = eff.cols.conj().T @ A
        dmat = A.conj().T @ A
        lam = float(np.linalg.eigvalsh(2 * np.real(cmat * dmat.conj())).max())
        worst_grid = max(worst_grid, (f_g - f_s) - max(lam * spacing ** 2,
                                                       1e-12))
    ok = worst_excess <= 1e-11 and worst_grid <= 0.0
    _criterion(
        "criterion 6: solver matches 2001-point grid oracle (50 instances)",
        ok, f"solver never above grid by more than {worst_excess:.2e}; grid "
            f"within curvature bound of solver on all instances")


def test_criterion_7_duality_round_trip(ensemble):
    trials, _ = ensemble
    worst = max(t.roundtrip_err for t in trials)
    ok = worst <= 1e-8 * P_MAX
    _criterion(
        "criterion 7: uplink power reconstruction round trip", ok,
        f"max |q_rec - q*| = {worst:.2e} <= 1e-8 * P_max")


def test_criterion_8_inactive_stream_path():
    dims = SystemDims(M=2, K=1, N=(2,), L=(2,))
    h = np.array([[1.0, 0.1], [0.0, 0.0]], dtype=complex)
    ch = ChannelSet(dims=dims, H=(h,), sigma2=SIGMA2, p_max=5.0)
    up = PrecoderSet(direction=VIRTUAL_UPLINK,
                     by_user=(np.eye(2, dtype=complex),), powers=np.zeros(2))
    eff = build_effective_channel(ch, up)
    q, cert = solve_power(eff, ch.sigma2, ch.p_max,
                          SolverConfig(kkt_tol=KKT_TOL))
    rep = verify_theorem(ch, up, q)
    active_gap = abs(rep.p[0] - q[0]) / max(1.0, ch.p_max)
    ok = (q[1] == 0.0 and rep.p[1] == 0.0 and active_gap <= 1e-6
          and cert.passes(KKT_TOL))
    _criterion(
        "criterion 8: collinear weak stream deactivates and transforms", ok,
        f"q_weak = {q[1]}, p_weak = {rep.p[1]}, active pq gap "
        f"{active_gap:.2e} <= 1e-6")


def test_criterion_9_design_loop():
    n_runs = 100
    worst_rise = -np.inf
    worst_gap = worst_smse_diff = 0.0
    tot_legacy = tot_shortcut = 0.0
    for i in range(n_runs):
        ch = gen_channel(DIMS, SIGMA2, P_MAX, seed=5000 + i)
        cfg = DesignConfig(path=BOTH, solver=SolverConfig(kkt_tol=KKT_TOL))
        res = design(ch, cfg)
        tr = np.array(res.smse_trace)
        worst_rise = max(worst_rise, float(np.diff(tr).max()))
        worst_gap = max(worst_gap, max(res.path_gap_trace))
        worst_smse_diff = max(worst_smse_diff,
                              legacy_smse_difference(ch, res))
        tot_legacy += sum(res.transform_times)
        tot_shortcut += sum(res.shortcut_times)
    ok = (worst_rise <= 1e-10 and worst_gap <= 1e-6 * P_MAX
          and worst_smse_diff <= 1e-8 and tot_shortcut < tot_legacy)
    _criterion(
        "criterion 9: design loop descent, path agreement, timing", ok,
        f"worst per-step rise {worst_rise:.2e} <= 1e-10, worst path gap "
        f"{worst_gap:.2e} <= 1e-6*P_max, worst final sum-MSE difference "
        f"{worst_smse_diff:.2e} <= 1e-8, shortcut total "
        f"{tot_shortcut*1e3:.1f}ms < legacy total {tot_legacy*1e3:.1f}ms "
        f"over {n_runs} runs")
