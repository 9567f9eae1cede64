"""Test-only reference oracles."""

import math
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from conftest import covariance
from dualprec import (DOWNLINK, VIRTUAL_UPLINK, ChannelSet,
                      ConvergenceError, DesignConfig, DimensionError,
                      DualPrecError, EffectiveChannel,
                      InfeasibleTransformError, KktCertificate, NumericsError,
                      PrecoderSet, SingularTransformError, UplinkState,
                      ValidationError,
                      build_duality_data, build_effective_channel,
                      downlink_mmse, make_state, mmse_directions,
                      psi_asymmetry, solve_power, sum_mse_uplink,
                      transform_power, verify_theorem)
from dualprec.designer import _Step
from dualprec.duality import COND_LIMIT
from dualprec.model import (NORM_TOL, PRECODER_TAG, _cplx_matrix_from_lists,
                            _cplx_matrix_to_lists)
from dualprec.objective import _covariance
from dualprec.solver import ACTIVE_TOL, _certificate

#: Relative eigenvalue tolerance of `normalize_covariance`'s rank test.
RANK_TOL = 1e-9


def stream_owner(dims) -> np.ndarray:
    """Owning user index for every global stream index."""
    return np.repeat(np.arange(dims.K), dims.L)


class CostGuardError(DualPrecError):
    """A brute-force oracle was asked for a problem size it refuses."""


class RankError(DualPrecError):
    """A covariance matrix expected to be rank one is not."""


def brute_force_power(eff, sigma2, p_max, grid_points):
    """Exhaustive minimizer of tr(J^-1) on the simplex {q >= 0, sum = p_max}
    discretized with ``grid_points`` per dimension.  Refuses more than
    three streams.
    """
    L = eff.L_tot
    if L > 3:
        raise CostGuardError("brute force oracle limited to L_tot <= 3")
    cols = eff.cols
    ticks = np.linspace(0.0, p_max, grid_points)
    best_q, best_f = None, np.inf
    if L == 1:
        return np.array([p_max])
    if L == 2:
        for a in ticks:
            f = covariance(cols, np.array([a, p_max - a]), sigma2)[1]
            if f < best_f:
                best_f, best_q = f, np.array([a, p_max - a])
        return best_q
    for a in ticks:
        for b in ticks:
            rem = p_max - a - b
            if rem < 0:
                break
            f = covariance(cols, np.array([a, b, rem]), sigma2)[1]
            if f < best_f:
                best_f, best_q = f, np.array([a, b, rem])
    return best_q


def legacy_smse_difference(ch, res) -> float:
    """|downlink sum-MSE under the legacy transform's powers - under
    p := q| at the final iterate of the design ``res``: the legacy
    transform recomputed from its uplink beamformers and certified q, both
    power vectors evaluated on its downlink beamformers."""
    state = make_state(build_effective_channel(ch, res.uplink),
                       res.uplink.powers, ch.sigma2)
    dd = build_duality_data(state, active_tol=ACTIVE_TOL * ch.p_max)
    Ubar = res.downlink.stacked()
    legacy, shortcut = (float(downlink_mmse(ch, Ubar, p)[1].sum())
                        for p in (transform_power(dd, ch.sigma2),
                                  res.downlink.powers))
    return abs(legacy - shortcut)


def normalize_covariance(R_list):
    """Split rank-one stream covariances R_l = q_l vbar_l vbar_l^H into
    (q_l, normalized projector) pairs.

    A zero matrix reports as (0.0, None): an inactive stream with no
    defined direction.  Raises RankError when a matrix is not rank one
    within RANK_TOL (relative).
    """
    out = []
    for i, R in enumerate(R_list):
        R = np.asarray(R, dtype=complex)
        lam = np.linalg.eigvalsh(R)
        top = lam[-1]
        if top <= 0.0:
            if np.abs(R).max() > 0.0:
                raise RankError(f"R[{i}] is not positive semidefinite")
            out.append((0.0, None))
            continue
        if np.abs(lam[:-1]).max() > RANK_TOL * top:
            raise RankError(f"R[{i}] has rank > 1 within tolerance")
        t = float(np.trace(R).real)
        out.append((t, R / t))
    return out


def plain_design(ch, vbar, cfg=None):
    """The unaccelerated alternation on the p := q path from the uplink
    beamformers ``vbar``: solve q warm-started from the last q, swap roles
    through the normalized downlink MMSE receivers, stop when the relative
    sum-MSE decrease falls below cfg.smse_rel_tol or after
    cfg.max_outer_iters iterations.

    Returns (vbar, q, p, smse_trace) at the last iterate, capped or not;
    ``vbar`` is the iterate q was solved for.
    """
    cfg = cfg or DesignConfig()
    d = ch.dims
    q = g = None
    trace = []
    for _ in range(cfg.max_outer_iters):
        if g is not None:
            vbar = g
        up = PrecoderSet(direction=VIRTUAL_UPLINK, by_user=tuple(vbar),
                         powers=q if q is not None else np.zeros(d.L_tot))
        eff = build_effective_channel(ch, up)
        q, cert = solve_power(eff, ch.sigma2, ch.p_max, cfg.solver, q0=q)
        trace.append(sum_mse_uplink(cert.state))
        p = q.copy()
        if len(trace) >= 2 and \
                (trace[-2] - trace[-1]) / trace[-2] < cfg.smse_rel_tol:
            break
        X, _ = downlink_mmse(ch, mmse_directions(cert.state), p)
        g = [b.copy() for b in vbar]
        for k in range(d.K):
            V = X[k] * np.sqrt(p[d.user_streams(k)])
            vn = np.linalg.norm(V, axis=0)
            for j in np.flatnonzero(vn > 0):
                g[k][:, j] = V[:, j] / vn[j]
    return vbar, q, p, trace


def object_step(ch, vbar, q0, cfg):
    """`designer._step` on the public object API: the effective channel of
    a `PrecoderSet`, `solve_power` (its steps counted by the callback),
    and the role swap through `mmse_directions` and `downlink_mmse`, user
    by user; the certificate's state gives what the legacy check reads.
    ``vbar`` and G(vbar) are stacks per run of users, as `_step` has
    them."""
    d = ch.dims
    blocks = [b for v in vbar for b in v]
    up = PrecoderSet(direction=VIRTUAL_UPLINK, by_user=tuple(blocks),
                     powers=q0 if q0 is not None else np.zeros(d.L_tot))
    steps = []
    q, cert = solve_power(build_effective_channel(ch, up), ch.sigma2,
                          ch.p_max, cfg.solver, q0=q0,
                          callback=lambda q, f: steps.append(f))
    ubar = mmse_directions(cert.state)
    t0 = time.perf_counter()
    p = q.copy()
    t_sc = time.perf_counter() - t0
    X, _ = downlink_mmse(ch, ubar, p)
    g = []
    for k in range(d.K):
        V = X[k] * np.sqrt(p[d.user_streams(k)])
        vn = np.linalg.norm(V, axis=0)
        nz = vn > 0
        b = blocks[k].copy()
        b[:, nz] = V[:, nz] / vn[nz]
        g.append(b)
    k, runs = 0, []
    for v in vbar:
        runs.append(np.array(g[k:k + len(v)]))
        k += len(v)
    return _Step(vbar, q, sum_mse_uplink(cert.state), ubar, runs, t_sc,
                 len(steps), cert.state.Jinv_cols, cert.state.eff.cols)


def precoders_to_dict(ps: PrecoderSet) -> dict:
    return {
        "direction": ps.direction,
        "beamformers": [_cplx_matrix_to_lists(b) for b in ps.by_user],
        "powers": [float(x) for x in ps.powers],
    }


def precoders_from_dict(d: dict) -> PrecoderSet:
    return PrecoderSet(
        direction=d["direction"],
        by_user=tuple(_cplx_matrix_from_lists(b) for b in d["beamformers"]),
        powers=np.array(d["powers"], dtype=float),
    )


def precoder_violations(ps: PrecoderSet, p_max=None) -> list:
    """What is wrong with a precoder set: direction, unit-norm columns,
    power length, sign and budget."""
    out = []
    if ps.direction not in (DOWNLINK, VIRTUAL_UPLINK):
        out.append("direction: must be 'downlink' or 'virtual_uplink'")
    for k, b in enumerate(ps.by_user):
        norms = np.linalg.norm(b, axis=0)
        if not np.all(np.isfinite(norms)):
            out.append(f"beamformers[{k}]: entries must be finite")
        elif np.any(np.abs(norms - 1.0) > NORM_TOL * max(1.0, b.shape[0])):
            out.append(f"beamformers[{k}]: columns must have unit norm")
    if ps.powers.shape != (ps.L_tot,):
        out.append("powers: length must equal the total stream count")
    elif np.any(ps.powers < 0):
        out.append("powers: must be nonnegative")
    elif p_max is not None and ps.powers.sum() > p_max + 1e-9:
        out.append("powers: sum must not exceed p_max")
    return out


def kkt_certify(eff: EffectiveChannel, sigma2: float, p_max: float, q,
                active_tol: float | None = None) -> KktCertificate:
    """Reconstruct multipliers at q and report every KKT residual, from
    scratch by the solver's own certificate code.

    Always returns a certificate; nothing is thrown for a bad q, the
    residuals simply say how bad it is.
    """
    q = np.asarray(q, dtype=float)
    if active_tol is None:
        active_tol = ACTIVE_TOL * p_max
    A, f, gains = _covariance(eff.cols[None], q[None], sigma2)
    state = UplinkState(eff=eff, q=q, sigma2=float(sigma2), Jinv_cols=A[0],
                        trace_inv=float(f[0]))
    return _certificate(q, gains[0], p_max, state, active_tol)


def exact_state(cols, q, sigma2) -> SimpleNamespace:
    """The kernel's quantities at q, computed exactly and rounded once.

    The float inputs are taken exactly as fractions, J = sum_l q_l htil_l
    htil_l^H + sigma2 I is assembled in complex rationals ((re, im) pairs
    of `Fraction`) and Gauss-Jordan elimination on [J | Htil] gives
    A = J^-1 Htil.  From A, exactly: gains_l = ||a_l||^2, the sum-MSE
    L - sum_l q_l Re(htil_l^H a_l), and the kernel's phi, tr J^-1 =
    (M - sum_l q_l Re(htil_l^H a_l)) / sigma2 (tr(J^-1 J) = M written
    out) at L >= M and tr T = tr J^-1 - (M - L) / sigma2 at L < M, so
    (min(M, L) - sum_l q_l Re(htil_l^H a_l)) / sigma2 either way.
    Returns them as floats: A, phi, smse and gains.
    """
    cols = np.asarray(cols, dtype=complex)
    M, L = cols.shape
    h = [[(Fraction(z.real), Fraction(z.imag)) for z in row]
         for row in cols.tolist()]
    qs = [Fraction(x) for x in np.asarray(q, dtype=float).tolist()]
    s2, zero = Fraction(sigma2), Fraction(0)
    rows = []
    for i in range(M):
        row = []
        for j in range(M):
            re, im = (s2 if i == j else zero), zero
            for l in range(L):  # q_l h_il conj(h_jl)
                (a, b), (c, d) = h[i][l], h[j][l]
                re += qs[l] * (a * c + b * d)
                im += qs[l] * (b * c - a * d)
            row.append((re, im))
        rows.append(row + list(h[i]))
    for k in range(M):  # J is positive definite: every pivot is nonzero
        pr, pi = rows[k][k]
        den = pr * pr + pi * pi
        rows[k] = [((a * pr + b * pi) / den, (b * pr - a * pi) / den)
                   for a, b in rows[k]]
        for i in range(M):
            fr, fi = rows[i][k]
            if i == k or not (fr or fi):
                continue
            rows[i] = [(a - (fr * c - fi * d), b - (fr * d + fi * c))
                       for (a, b), (c, d) in zip(rows[i], rows[k])]
    A = [[rows[i][M + l] for l in range(L)] for i in range(M)]
    gains = [sum(A[i][l][0] ** 2 + A[i][l][1] ** 2 for i in range(M))
             for l in range(L)]
    # Re(htil_l^H a_l) = sum_i Re(conj(h_il) a_il)
    g = [sum(h[i][l][0] * A[i][l][0] + h[i][l][1] * A[i][l][1]
             for i in range(M)) for l in range(L)]
    qg = sum(ql * gl for ql, gl in zip(qs, g))
    return SimpleNamespace(
        A=np.array([[complex(float(a), float(b)) for a, b in row]
                    for row in A]),
        phi=float((min(M, L) - qg) / s2), smse=float(L - qg),
        gains=np.array([float(x) for x in gains]))


def certificate_from_dict(d: dict) -> KktCertificate:
    """The certificate of a `solve` report's ``certificate`` block."""
    return KktCertificate(
        mu_sum=d["mu_sum"], mu=np.array(d["mu"], dtype=float),
        stationarity_residual=d["stationarity_residual"],
        primal_sum_violation=d["primal_sum_violation"],
        primal_nonneg_violation=d["primal_nonneg_violation"],
        slackness_residual=d["slackness_residual"],
        relative_gap=d["relative_gap"])


def active_set(q, tol: float):
    """Partition stream indices into active (q_l > tol) and inactive."""
    q = np.asarray(q, dtype=float)
    if np.any(q < 0):
        raise ValidationError("powers must be nonnegative")
    act = np.flatnonzero(q > tol)
    inact = np.flatnonzero(q <= tol)
    return act, inact


def grad_trace_Jinv(state):
    """d tr(J^-1) / d q_l = -htil_l^H J^-2 htil_l = -||J^-1 htil_l||^2."""
    return -np.sum(np.abs(state.Jinv_cols) ** 2, axis=0)


def check_equal_gradient_condition(eff, sigma2: float, q,
                                   active_tol: float = 0.0) -> float:
    """Spread (max - min, normalized by the mean) of htil_l^H J^-2 htil_l
    over active streams; ~0 exactly when the symmetry condition holds."""
    q = np.asarray(q, dtype=float)
    act, _ = active_set(q, active_tol)
    if act.size <= 1:
        return 0.0
    gains = -grad_trace_Jinv(make_state(eff, q, sigma2))[act]
    return float((gains.max() - gains.min()) / gains.mean())


# ---------------------------------------------------------------------------
# Instance generation one user at a time: the draws `model.gen_stacks`
# reproduces bitwise with one draw per generator.

def gen_channel_per_user(dims, sigma2, p_max, seed=None):
    """`gen_channel` drawing each user's real and imaginary parts in turn."""
    bad = dims.violations()
    if bad:
        raise DimensionError("; ".join(bad))
    rng = np.random.default_rng(seed)
    H = []
    for n in dims.N:
        re = rng.standard_normal((dims.M, n))
        im = rng.standard_normal((dims.M, n))
        H.append((re + 1j * im) / np.sqrt(2.0))
    return ChannelSet(dims=dims, H=tuple(H), sigma2=float(sigma2),
                      p_max=float(p_max), seed=seed)


def random_unit_precoders_per_user(dims, direction, seed=None, powers=None):
    """`random_unit_precoders` drawing and normalizing user by user."""
    rng = np.random.default_rng(seed)
    rows = [dims.M] * dims.K if direction == DOWNLINK else list(dims.N)
    by_user = []
    for k in range(dims.K):
        b = rng.standard_normal((rows[k], dims.L[k])) \
            + 1j * rng.standard_normal((rows[k], dims.L[k]))
        by_user.append(b / np.linalg.norm(b, axis=0, keepdims=True))
    if powers is None:
        powers = np.zeros(dims.L_tot)
    return PrecoderSet(direction=direction, by_user=tuple(by_user), powers=powers)


def build_effective_channel_per_user(ch, uplink):
    """`build_effective_channel` with one matmul per user, concatenated."""
    if uplink.direction != VIRTUAL_UPLINK:
        raise ValidationError("uplink precoders required (direction = virtual_uplink)")
    d = ch.dims
    if len(uplink.by_user) != d.K:
        raise DimensionError("precoder set must have one block per user")
    cols = []
    for k in range(d.K):
        vb = uplink.by_user[k]
        if vb.shape != (d.N[k], d.L[k]):
            raise DimensionError(
                f"user {k}: beamformer block must be N_k x L_k = {d.N[k]} x {d.L[k]}"
            )
        norms = np.linalg.norm(vb, axis=0)
        if np.any(np.abs(norms - 1.0) > NORM_TOL * max(1.0, d.N[k])):
            raise ValidationError(f"user {k}: beamformer columns must have unit norm")
        cols.append(ch.H[k] @ vb)
    return EffectiveChannel(cols=np.concatenate(cols, axis=1))


def verify_trials_one_at_a_time(first, seeds, dims, sigma2, pmax, scfg,
                                negative) -> list:
    """The records of `cli._verify_trials`, one trial at a time on the
    per-user instances: `solve_power` and `verify_theorem` per trial, or
    `make_state` at uniform power and `build_duality_data` for the
    negative control."""
    records = []
    for trial, seed in enumerate(seeds, first):
        rec = {"trial": trial, "seed": seed, "psi_asymmetry": None,
               "pq_gap": None, "mse_gap": None, "sum_power_dl": None,
               "max_residual": None, "converged": True, "error": None}
        records.append(rec)
        ch = gen_channel_per_user(dims, sigma2, pmax, seed=seed)
        up = random_unit_precoders_per_user(dims, VIRTUAL_UPLINK,
                                            seed=[seed, PRECODER_TAG])
        eff = build_effective_channel_per_user(ch, up)
        try:
            if negative:
                q = np.full(dims.L_tot, pmax / dims.L_tot)
                dd = build_duality_data(make_state(eff, q, sigma2))
                rec["psi_asymmetry"] = psi_asymmetry(dd.Psi)
                continue
            try:
                q, cert = solve_power(eff, sigma2, pmax, scfg)
            except ConvergenceError as e:
                rec["converged"] = False
                rec["max_residual"] = e.certificate.max_residual
                raise
            rec["max_residual"] = cert.max_residual
            rep = verify_theorem(ch, up, q, state=cert.state)
            rec.update(psi_asymmetry=rep.psi_asymmetry, pq_gap=rep.pq_gap,
                       mse_gap=rep.mse_gap, sum_power_dl=rep.sum_power_dl)
        except DualPrecError as e:
            rec["error"] = type(e).__name__
    return records


def transform_every_cond(beta, D, eps, coupling, sigma2, on=None):
    """`duality._transform` with `np.linalg.cond` (an SVD) on every row's
    active block: x (B x m, NaN on rejected rows) and per row None or its
    error."""
    B, m = beta.shape
    A, b2 = np.zeros((B, m, m)), beta ** 2
    A.reshape(B, -1)[:, ::m + 1] = eps - D
    A -= b2[:, :, None] * coupling
    on = np.ones((B, m), dtype=bool) if on is None else on
    A.reshape(B, -1)[:, ::m + 1][~on] = 1.0
    blocks = [a[np.ix_(o, o)] for a, o in zip(A, on)]
    cond = np.array([math.nan if np.isnan(a).any() else np.linalg.cond(a)
                     for a in blocks])
    ok = cond <= COND_LIMIT
    x = np.full((B, m), math.nan)
    rhs = (sigma2 * b2)[:, :, None]
    if ok.all():
        x = np.linalg.solve(A, rhs)[:, :, 0]
    elif ok.any():
        x[ok] = np.linalg.solve(A[ok], rhs[ok])[:, :, 0]
    errs = [None] * B
    for j in range(B):
        if math.isnan(cond[j]):
            errs[j] = NumericsError("non-finite power-transform matrix")
        elif not ok[j]:
            errs[j] = SingularTransformError(
                "power-transform matrix condition number exceeds 1e12")
        elif (x[j] < -1e-9).any():
            errs[j] = InfeasibleTransformError(
                "transform produced a negative power; the MSE tuple is not "
                "achievable")
    return x, errs


def downlink_mse_hu_order(H, V, d, g, P, sigma2) -> np.ndarray:
    """`duality._downlink_mse` with the coefficients grouped as
    v_l^H (H_k^H ubar_j): one product of each run's conj-transposed
    channels (B x nN x M) with all unit directions, then one with the
    scaled beamformers."""
    live = P > 0.0
    scale = np.divide(g.beta, np.sqrt(P), out=np.zeros(P.shape), where=live)
    B, L = P.shape
    coef = np.empty((B, L, L), dtype=complex)
    v_norms = np.empty(P.shape)
    end = 0
    for h, v in zip(H, V):
        _, n, N, c = v.shape
        end, run = end + n * c, slice(end, end + n * c)
        v = v * scale[:, run].reshape(B, n, 1, c)
        Hh = np.conjugate(h.swapaxes(1, 2), order="C").reshape(
            B, d.M, n * N).swapaxes(1, 2)
        HU = (Hh @ g.ubar.swapaxes(1, 2)).reshape(B, n, N, L)
        coef[:, run] = (v.conj().swapaxes(2, 3) @ HU).reshape(B, n * c, L)
        v_norms[:, run] = np.linalg.norm(v, axis=2).reshape(B, -1)
    coef *= np.sqrt(P)[:, None, :]
    cross = np.abs(coef) ** 2
    cross.reshape(B, -1)[:, ::L + 1] = 0.0
    m = (np.abs(np.diagonal(coef, axis1=1, axis2=2) - 1.0) ** 2
         + cross.sum(axis=2) + sigma2 * v_norms ** 2)
    return np.where(live, m, 1.0)
