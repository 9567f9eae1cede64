"""Alternating sum-MSE precoder design in the virtual uplink.

Each outer iteration: (1) solve the convex power allocation for the
current uplink beamformers, (2) take the unit uplink MMSE directions
J^-1 htil_l as downlink beamformers, (3) convert powers to the downlink —
either through the legacy duality transform (a linear solve per
iteration) or the shortcut p := q that the transpose symmetry of the
coupling matrix justifies — then (4) swap roles: normalized downlink MMSE
receivers become the next uplink beamformers.

The two conversion paths agree at every certified power step; the
shortcut just skips the matrix equation, which is the point of running
them side by side.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .duality import build_duality_data, transform_power
from .errors import ConvergenceError, RankError, ValidationError
from .model import (DOWNLINK, VIRTUAL_UPLINK, ChannelSet, PrecoderSet,
                    build_effective_channel, random_unit_precoders, validate)
from .objective import downlink_mmse, mmse_directions, sum_mse_uplink
from .solver import SolverConfig, solve_power

LEGACY = "legacy_transform"
SIMPLIFIED = "simplified_pq"
BOTH = "both"

RANK_TOL = 1e-9


@dataclass
class DesignConfig:
    max_outer_iters: int = 200
    smse_rel_tol: float = 1e-8
    init_mode: str = "random_unit"  # random_unit | channel_svd
    path: str = SIMPLIFIED          # legacy_transform | simplified_pq | both
    seed: int | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if not (isinstance(self.max_outer_iters, Integral)
                and self.max_outer_iters >= 1):
            raise ValidationError("max_outer_iters must be an integer >= 1")
        if not 0 < self.smse_rel_tol < math.inf:
            raise ValidationError("smse_rel_tol must be finite and positive")
        if self.seed is not None and not (isinstance(self.seed, Integral)
                                          and self.seed >= 0):
            raise ValidationError("seed must be an integer >= 0 or None")
        if self.init_mode not in ("random_unit", "channel_svd"):
            raise ValidationError(f"unknown init_mode {self.init_mode!r}")
        if self.path not in (LEGACY, SIMPLIFIED, BOTH):
            raise ValidationError(f"unknown path {self.path!r}")


@dataclass
class DesignResult:
    uplink: PrecoderSet         # (Vbar, q)
    downlink: PrecoderSet       # (Ubar, p)
    smse_trace: list
    iters: int
    path_used: str
    transform_times: list       # seconds per iteration in legacy conversion
    shortcut_times: list        # seconds per iteration in p := q
    path_gap_trace: list        # max |p_legacy - p_shortcut| per iteration
    p_legacy: np.ndarray | None
    converged: bool


@dataclass
class PathComparison:
    iters: int
    smse_final: float
    max_power_discrepancy: float
    final_smse_difference: float
    t_legacy_median: float
    t_shortcut_median: float
    result: DesignResult


def _init_uplink_dirs(ch: ChannelSet, cfg: DesignConfig):
    d = ch.dims
    if cfg.init_mode == "channel_svd":
        by_user = []
        for k in range(d.K):
            # dominant right singular directions of H_k
            _, _, vh = np.linalg.svd(ch.H[k])
            by_user.append(vh.conj().T[:, :d.L[k]])
        return [b.copy() for b in by_user]
    seed = cfg.seed if cfg.seed is not None else ch.seed
    ps = random_unit_precoders(d, VIRTUAL_UPLINK,
                               seed=[0 if seed is None else seed, 101])
    return [b.copy() for b in ps.by_user]


def design(ch: ChannelSet, cfg: DesignConfig | None = None) -> DesignResult:
    """Run the alternating design until the relative sum-MSE decrease
    falls below cfg.smse_rel_tol.

    Raises ConvergenceError (carrying the partial result) if the budget
    runs out while the trace is still falling faster than the tolerance.
    """
    if cfg is None:
        cfg = DesignConfig()
    bad = validate(ch)
    if bad:
        raise ValidationError("; ".join(bad))
    d = ch.dims
    sigma2, p_max = ch.sigma2, ch.p_max
    act_tol = cfg.solver.active_tol_scale * p_max

    vbar = _init_uplink_dirs(ch, cfg)
    q = None
    p = None
    smse_trace: list = []
    t_leg: list = []
    t_sc: list = []
    gaps: list = []
    p_leg = None
    converged = False

    for _ in range(cfg.max_outer_iters):
        up_ps = PrecoderSet(direction=VIRTUAL_UPLINK, by_user=tuple(vbar),
                            powers=q if q is not None else np.zeros(d.L_tot))
        eff = build_effective_channel(ch, up_ps)
        q, cert = solve_power(eff, sigma2, p_max, cfg.solver, q0=q)
        state = cert.state
        smse_trace.append(sum_mse_uplink(state))
        ubar = mmse_directions(state)

        # power conversion to the downlink, timed around the conversion only
        if cfg.path in (LEGACY, BOTH):
            t0 = time.perf_counter()
            dd = build_duality_data(state, active_tol=act_tol)
            p_leg = transform_power(dd, sigma2)
            t_leg.append(time.perf_counter() - t0)
        if cfg.path in (SIMPLIFIED, BOTH):
            t0 = time.perf_counter()
            p_sc = q.copy()
            t_sc.append(time.perf_counter() - t0)
        p = p_leg if cfg.path == LEGACY else p_sc
        if cfg.path == BOTH:
            gaps.append(float(np.abs(p_leg - p_sc).max()))

        if len(smse_trace) >= 2:
            prev, cur = smse_trace[-2], smse_trace[-1]
            if (prev - cur) / max(prev, 1e-300) < cfg.smse_rel_tol:
                converged = True
                break

        # role swap: normalized downlink MMSE receivers feed the next round;
        # a stream with p = 0 has a zero receiver and keeps its vbar
        X, _ = downlink_mmse(ch, ubar, p)
        for k in range(d.K):
            V = X[k] * np.sqrt(p[d.user_streams(k)])
            vn = np.linalg.norm(V, axis=0)
            for j in np.flatnonzero(vn > 0):
                vbar[k][:, j] = V[:, j] / vn[j]

    result = DesignResult(
        uplink=PrecoderSet(direction=VIRTUAL_UPLINK, by_user=tuple(vbar),
                           powers=q),
        downlink=PrecoderSet(direction=DOWNLINK,
                             by_user=tuple(ubar[:, d.user_streams(k)]
                                           for k in range(d.K)),
                             powers=p),
        smse_trace=smse_trace, iters=len(smse_trace), path_used=cfg.path,
        transform_times=t_leg, shortcut_times=t_sc, path_gap_trace=gaps,
        p_legacy=p_leg, converged=converged)
    if not converged:
        raise ConvergenceError(
            f"sum-MSE still decreasing after {cfg.max_outer_iters} outer "
            "iterations", trace=smse_trace, partial=result)
    return result


def compare_paths(ch: ChannelSet, cfg: DesignConfig) -> PathComparison:
    """Run the design once with both conversion paths on identical
    iterates and compare their outputs and cost.

    The loop advances on the shortcut powers; the legacy transform runs
    alongside on the same iterate.  The final sum-MSE difference evaluates
    the converged downlink under each path's final power vector.
    """
    if cfg.path != BOTH:
        raise ValidationError("compare_paths requires cfg.path == 'both'")
    res = design(ch, cfg)
    Ubar = res.downlink.stacked()

    def dl_smse(powers):
        return float(downlink_mmse(ch, Ubar, powers)[1].sum())

    diff = abs(dl_smse(res.p_legacy) - dl_smse(res.downlink.powers))
    return PathComparison(
        iters=res.iters, smse_final=res.smse_trace[-1],
        max_power_discrepancy=float(max(res.path_gap_trace)),
        final_smse_difference=float(diff),
        t_legacy_median=float(np.median(res.transform_times)),
        t_shortcut_median=float(np.median(res.shortcut_times)),
        result=res)


def normalize_covariance(R_list):
    """Split rank-one stream covariances R_l = q_l vbar_l vbar_l^H into
    (q_l, normalized projector) pairs.

    A zero matrix reports as (0.0, None): an inactive stream with no
    defined direction.  Raises RankError when a matrix is not rank one
    within 1e-9 (relative).
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
