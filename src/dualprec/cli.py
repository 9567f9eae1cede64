"""Command-line front end: instance generation, solving with KKT
certification, theorem-verification ensembles, and conversion-path
benchmarking.

`verify` keeps its trials as arrays from the generator to the report:
`model.gen_stacks`, then the solver's and the theorem check's stacked
cores, with no per-trial object in between.  Every JSON report is one
line, ``json.dumps(payload)`` and a newline: the standard library's C
encoder, compact; ``python -m json.tool`` prints it indented.

Exit codes: 0 success, 2 usage or validation error, 3 convergence
failure or a failed legacy transform check, 4 theorem-bound violation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import re
import sys

import numpy as np

from . import _blas, designer, duality, model, objective, solver
from .errors import (ConvergenceError, DualPrecError, NumericsError,
                     ValidationError)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_BOUND_VIOLATION = 4

#: Default theorem bounds enforced by `verify`.
DEFAULT_BOUNDS = {"psi_asymmetry": 1e-8, "pq_gap": 1e-6, "mse_gap": 1e-8}

#: Trials whose power solves `verify` runs as one batch (and whose
#: channels `bench` draws as one stack).  Each solve of a batch holds its
#: own evaluations (about 0.5 MB at M = 64), so this bounds the memory:
#: `verify --trials 64` at M = 64 peaks about 25 MB above one trial at a
#: time.
VERIFY_BATCH = 64

#: The config file's sections and the settings each may hold; any other
#: name is an input error, never ignored.  The design's solver settings
#: are the "solver" section.
CONFIG_SECTIONS = {
    "solver": {f.name for f in dataclasses.fields(solver.SolverConfig)},
    "design": {f.name for f in dataclasses.fields(designer.DesignConfig)
               if f.name != "solver"},
    "ensemble": {"trials", "seed_base", "dims"},
}

#: `_blas.pin_one_thread`, run once per process: it scans the memory maps.
_pin_blas = functools.cache(_blas.pin_one_thread)

BENCH_FIELDS = ["trial", "seed", "iters", "smse_final", "pq_max_gap",
                "t_legacy_us", "t_shortcut_us"]


def _fmt(x) -> str:
    """CSV cell: floats at 17 significant digits for exact round-trips."""
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _emit(payload, out_path):
    text = json.dumps(payload)
    if out_path:
        with open(out_path, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _emit_csv(rows, fields, out_path):
    def write(fh):
        w = csv.writer(fh)
        w.writerow(fields)
        for r in rows:
            w.writerow([_fmt(r[k]) for k in fields])

    if out_path:
        with open(out_path, "w", newline="") as f:
            write(f)
    else:
        write(sys.stdout)


def _parse_int_list(s: str) -> tuple:
    try:
        return tuple(int(tok) for tok in re.split(r"[,;:]", s.strip()) if tok)
    except ValueError as e:
        raise ValidationError(
            f"expected comma-separated integers, got {s!r}") from e


def parse_dims(spec: str) -> model.SystemDims:
    """Flattened dims spec: M,K followed by K antenna counts and K stream
    counts.  Quotes and brackets are tolerated, so 4,2,"2,2","2,2" works.
    """
    vals = _parse_int_list(re.sub(r"[\[\]\"' ]", "", spec))
    if len(vals) < 2:
        raise ValidationError("dims: need at least M,K")
    M, K = vals[0], vals[1]
    if len(vals) != 2 + 2 * K:
        raise ValidationError(
            f"dims: expected {2 + 2 * K} values for K={K} (M,K,N_1..N_K,"
            f"L_1..L_K), got {len(vals)}")
    return model.SystemDims(M=M, K=K, N=tuple(vals[2:2 + K]),
                            L=tuple(vals[2 + K:2 + 2 * K]))


def _load_config(path) -> dict:
    """The JSON config file: an object of `CONFIG_SECTIONS`, each an
    object of that section's settings."""
    if not path:
        return {}
    with open(path) as f:
        cfg = json.load(f)
    if not (isinstance(cfg, dict)
            and all(isinstance(v, dict) for v in cfg.values())):
        raise ValidationError(
            f"{path}: a config file is a JSON object of JSON objects")
    for name, section in cfg.items():
        if name not in CONFIG_SECTIONS:
            raise ValidationError(
                f"{path}: unknown section {name!r}; the sections are "
                f"{', '.join(CONFIG_SECTIONS)}")
        if unknown := sorted(set(section) - CONFIG_SECTIONS[name]):
            raise ValidationError(
                f"{path}: unknown {name} setting(s) {', '.join(unknown)}")
    return cfg


def _config(cls, section: str, file_cfg: dict, **flags):
    """cls built from the config file's ``section``, each of ``flags``
    that is set (not None) winning; a setting of wrong type raises
    ValidationError like a value out of range does (`_load_config` has
    rejected unknown names)."""
    kw = dict(file_cfg.get(section, {}))
    kw.update((k, v) for k, v in flags.items() if v is not None)
    try:
        return cls(**kw)
    except (TypeError, ValueError) as e:
        raise ValidationError(f"{cls.__name__}: {e}") from e


def _instance_violations(sigma2, p_max, seed, seed_name) -> list:
    """Violations of the noise power, power budget and seed that `gen`,
    `verify` and `bench` generate instances from; a bad seed is named as
    its setting ``seed_name`` (`gen`'s seed, the ensembles' seed_base)."""
    bad = []
    if not (np.isfinite(sigma2) and sigma2 > 0):
        bad.append("sigma2: must be finite and > 0")
    if not (np.isfinite(p_max) and p_max > 0):
        bad.append("p_max: must be finite and > 0")
    if seed is not None and seed < 0:
        bad.append(f"{seed_name}: must be >= 0")
    return bad


def _load_valid_instance(path) -> model.ChannelSet:
    ch = model.load_instance(path)
    bad = model.validate(ch)
    if bad:
        raise ValidationError("; ".join(bad))
    return ch


def _certificate_dict(cert: solver.KktCertificate) -> dict:
    """The compared fields of ``cert`` (not its state), mu as a list."""
    return {f.name: cert.mu.tolist() if f.name == "mu"
            else getattr(cert, f.name)
            for f in dataclasses.fields(cert) if f.compare}


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen(ns) -> int:
    dims = model.SystemDims(M=ns.M, K=ns.K, N=_parse_int_list(ns.N),
                            L=_parse_int_list(ns.L))
    bad = dims.violations() + _instance_violations(ns.sigma2, ns.pmax,
                                                   ns.seed, "seed")
    if bad:
        raise ValidationError("; ".join(bad))
    ch = model.gen_channel(dims, ns.sigma2, ns.pmax, seed=ns.seed)
    out = ns.out or "instance.json"
    model.save_instance(ch, out)
    print(f"{out} sha256:{_sha256(out)}")
    return EXIT_OK


def cmd_solve(ns) -> int:
    scfg = _config(solver.SolverConfig, "solver", _load_config(ns.config),
                   kkt_tol=ns.kkt_tol, max_iters=ns.max_iters)
    ch = _load_valid_instance(ns.instance)
    pseed = ns.precoder_seed
    if pseed is None:
        pseed = ch.seed if ch.seed is not None else 0
    if pseed < 0:
        raise ValidationError("precoder seed: must be >= 0")
    up = model.random_unit_precoders(ch.dims, model.VIRTUAL_UPLINK,
                                     seed=[pseed, model.PRECODER_TAG])
    eff = model.build_effective_channel(ch, up)
    converged = True
    try:
        q, cert = solver.solve_power(eff, ch.sigma2, ch.p_max, scfg)
    except ConvergenceError as e:
        q, cert, converged = e.best_q, e.certificate, False
    payload = {
        "command": "solve",
        "instance": str(ns.instance),
        "precoder_seed": pseed,
        "kkt_tol": scfg.kkt_tol,
        "converged": converged,
        "q": [float(x) for x in q],
        "smse": objective.sum_mse_uplink(cert.state),
        "per_stream_mse": [float(x) for x in objective.uplink_mse(cert.state)],
        "certificate": _certificate_dict(cert),
        "blas_threads": _blas.blas_threads(),
    }
    _emit(payload, ns.out)
    return EXIT_OK if converged else EXIT_NO_CONVERGENCE


def _verify_trials(first, seeds, dims, sigma2, pmax, scfg, negative) -> list:
    """Records of the `verify` trials ``first``, ``first + 1``, ... on
    ``seeds``, kept as stacks from the generator to the records:
    `model.gen_stacks` makes the instances, `solver._solve_stack` solves
    them and `duality._check` checks the theorem on the whole batch, a
    trial whose solve failed keeping its place and its error (the
    negative control's uniform-power receivers come from one covariance
    kernel call, and their coupling from `duality._psi_asymmetries`)."""
    H, V, cols = model.gen_stacks(dims, seeds)
    records = [{"trial": trial, "seed": seed, "psi_asymmetry": None,
                "pq_gap": None, "mse_gap": None, "sum_power_dl": None,
                "max_residual": None, "converged": True, "error": None}
               for trial, seed in enumerate(seeds, first)]
    if negative:
        # skip solving; measure the coupling asymmetry at uniform power
        q = np.full(dims.L_tot, pmax / dims.L_tot)
        A, f, _ = objective._covariance(cols, q[None], sigma2)
        err = [NumericsError("covariance rejected") if bad else None
               for bad in np.isnan(f).tolist()]
        psi = duality._psi_asymmetries(np.tile(q, (len(cols), 1)), A, cols,
                                       err)
        _fill(records, err, psi[:, None].tolist(), ("psi_asymmetry",))
        return records
    res = solver._solve_stack(cols, sigma2, pmax, scfg)
    for rec, e, gap in zip(records, res.err, res.rel.tolist()):
        if e is None or isinstance(e, ConvergenceError):
            rec["max_residual"] = gap
        rec["converged"] = not isinstance(e, ConvergenceError)
    # the theorem check on every row; a failed solve's row is checked off
    chk = duality._check(res.q, res.a, cols, H, V, dims, float(sigma2),
                         float(pmax), res.err)
    _fill(records, chk.err, chk.gaps.tolist(),
          ("psi_asymmetry", "pq_gap", "mse_gap", "sum_power_dl"))
    return records


def _fill(records, errs, values, keys) -> None:
    """Record ``b`` gets the name of its error ``errs[b]``, or
    ``values[b]`` under ``keys``."""
    for rec, e, vals in zip(records, errs, values):
        if e is None:
            rec.update(zip(keys, vals))
        else:
            rec["error"] = type(e).__name__


def _ensemble_args(ns, file_cfg: dict):
    """Trial count, seed base, dims and solver config of `verify` and
    `bench`; raises ValidationError for any input outside its domain."""
    ens = _config(dict, "ensemble", file_cfg, trials=ns.trials,
                  seed_base=ns.seed_base, dims=ns.dims)
    trials, seed_base = ens.get("trials", 100), ens.get("seed_base", 1)
    for name, x in (("trials", trials), ("seed_base", seed_base)):
        if not model.is_count(x):
            raise ValidationError(f"ensemble: {name} must be an integer, "
                                  f"got {x!r}")
    scfg = _config(solver.SolverConfig, "solver", file_cfg,
                   kkt_tol=ns.kkt_tol, max_iters=ns.max_iters)
    dims = parse_dims(str(ens.get("dims", "4,2,2,2,2,2")))
    bad = dims.violations() + _instance_violations(ns.sigma2, ns.pmax,
                                                   seed_base, "seed_base")
    if trials < 1:
        bad.append("trials: must be >= 1")
    if bad:
        raise ValidationError("; ".join(bad))
    return trials, seed_base, dims, scfg


def cmd_verify(ns) -> int:
    trials, seed_base, dims, scfg = _ensemble_args(ns, _load_config(ns.config))
    bounds = dict(DEFAULT_BOUNDS)
    for key, flag in (("psi_asymmetry", ns.max_psi_asym),
                      ("pq_gap", ns.max_pq_gap), ("mse_gap", ns.max_mse_gap)):
        if flag is not None:
            if not (np.isfinite(flag) and flag >= 0):
                raise ValidationError(f"{key} bound: must be finite and >= 0")
            bounds[key] = flag

    records = []
    for first in range(0, trials, VERIFY_BATCH):
        seeds = range(seed_base + first,
                      seed_base + min(first + VERIFY_BATCH, trials))
        records += _verify_trials(first, seeds, dims, ns.sigma2, ns.pmax,
                                  scfg, ns.negative_control)

    psis = [r["psi_asymmetry"] for r in records if r["psi_asymmetry"] is not None]
    summary = {
        "trials": trials,
        "failures": sum(1 for r in records if r["error"] is not None),
        "median_psi_asymmetry": float(np.median(psis)) if psis else None,
        "max_psi_asymmetry": float(np.max(psis)) if psis else None,
    }
    ok = summary["failures"] == 0
    if not ns.negative_control:
        for key, kmax in (("pq_gap", "max_pq_gap"), ("mse_gap", "max_mse_gap")):
            vals = [r[key] for r in records if r[key] is not None]
            summary[kmax] = float(np.max(vals)) if vals else None
        for key in ("psi_asymmetry", "pq_gap", "mse_gap"):
            mx = summary[f"max_{key}"]
            if mx is None or mx > bounds[key]:
                ok = False
        summary["bounds"] = bounds
        summary["bounds_ok"] = ok
    threads = _blas.blas_threads()

    payload = {"command": "verify",
               "dims": {"M": dims.M, "K": dims.K, "N": list(dims.N),
                        "L": list(dims.L)},
               "sigma2": ns.sigma2, "p_max": ns.pmax,
               "seed_base": seed_base,
               "negative_control": ns.negative_control,
               "per_trial": records, "summary": summary,
               "blas_threads": threads}
    if ns.format == "csv":
        fields = list(records[0].keys())
        _emit_csv(records, fields, ns.out)
    else:
        _emit(payload, ns.out)
    for k, v in summary.items():
        print(f"{k} = {v}", file=sys.stderr)
    print(f"blas_threads = {threads}", file=sys.stderr)
    if ns.negative_control:
        return EXIT_OK if summary["failures"] == 0 else EXIT_BOUND_VIOLATION
    return EXIT_OK if ok else EXIT_BOUND_VIOLATION


def cmd_bench(ns) -> int:
    trials, seed_base, dims, scfg = _ensemble_args(ns, _load_config(ns.config))

    rows, failures = [], []

    def run(t, ch):
        res = designer.design(ch, designer.DesignConfig(
            path=designer.BOTH, solver=scfg))
        return {"trial": t, "seed": ch.seed, "iters": res.iters,
                "smse_final": res.smse_trace[-1],
                "pq_max_gap": max(res.path_gap_trace),
                "t_legacy_us": float(np.median(res.transform_times)) * 1e6,
                "t_shortcut_us": float(np.median(res.shortcut_times)) * 1e6}

    for first in range(0, trials, VERIFY_BATCH):  # one stack per batch
        seeds = range(seed_base + first,
                      seed_base + min(first + VERIFY_BATCH, trials))
        for t, ch in enumerate(model.gen_channels(dims, ns.sigma2, ns.pmax,
                                                  seeds), first):
            try:
                rows.append(run(t, ch))
            except DualPrecError as e:  # record and continue
                failures.append({"trial": t, "seed": ch.seed,
                                 "error": type(e).__name__})
    if ns.format == "json":
        _emit(rows, ns.out)
    else:  # CSV is the bench default
        _emit_csv(rows, BENCH_FIELDS, ns.out)
    agg_leg = sum(r["t_legacy_us"] for r in rows)
    agg_sc = sum(r["t_shortcut_us"] for r in rows)
    print(f"trials = {len(rows)}  failures = {len(failures)}", file=sys.stderr)
    print(f"aggregate t_legacy_us = {agg_leg:.3f}  "
          f"aggregate t_shortcut_us = {agg_sc:.3f}", file=sys.stderr)
    return EXIT_NO_CONVERGENCE if failures else EXIT_OK


def cmd_design(ns) -> int:
    file_cfg = _load_config(ns.config)
    dcfg = _config(designer.DesignConfig, "design", file_cfg, path=ns.path,
                   max_outer_iters=ns.max_outer_iters, init_mode=ns.init,
                   solver=_config(solver.SolverConfig, "solver", file_cfg,
                                  kkt_tol=ns.kkt_tol, max_iters=ns.max_iters))
    ch = _load_valid_instance(ns.instance)
    converged = True
    try:
        res = designer.design(ch, dcfg)
    except ConvergenceError as e:
        if e.partial is None:  # a power solve failed: no design to report
            raise
        res, converged = e.partial, False
    if ns.format == "csv":
        rows = [{"iteration": i, "smse": s}
                for i, s in enumerate(res.smse_trace)]
        _emit_csv(rows, ["iteration", "smse"], ns.out)
    else:
        payload = {
            "command": "design",
            "instance": str(ns.instance),
            "path": dcfg.path,
            "init": dcfg.init_mode,
            "converged": converged,
            "iters": res.iters,
            "rejected_extrapolations": res.rejected,
            "smse_trace": [float(s) for s in res.smse_trace],
            "solve_steps": res.solve_steps,
            "q": [float(x) for x in res.uplink.powers],
            "p": [float(x) for x in res.downlink.powers],
            "transform_time_s": float(sum(res.transform_times)),
            "shortcut_time_s": float(sum(res.shortcut_times)),
            "blas_threads": _blas.blas_threads(),
        }
        _emit(payload, ns.out)
    return EXIT_OK if converged else EXIT_NO_CONVERGENCE


# ---------------------------------------------------------------------------

#: Flag groups: name -> ((flag, `add_argument` keywords), ...).
FLAG_GROUPS = {
    "config": (("--config", {"help": "JSON config file"}),),
    "out": (("--out", {"help": "output path (default stdout)"}),),
    "format": (("--format", {"choices": ["json", "csv"]}),),
    "link": (("--sigma2", {"type": float, "default": 1.0}),
             ("--pmax", {"type": float, "default": 10.0})),
    "ensemble": (("--trials", {"type": int}),
                 ("--dims", {"help": 'flattened spec, e.g. 4,2,"2,2","2,2"'}),
                 ("--seed-base", {"type": int})),
    "solver": (("--kkt-tol", {"type": float, "help": "relative KKT gap"}),
               ("--max-iters", {"type": int})),
}

_INSTANCE = ("instance", {})

#: Subcommands: name -> (help, flag groups, own flags); each accepts
#: exactly the flags its cmd_* reads.
COMMANDS = {
    "gen": ("generate a problem instance", ("out", "link"), (
        ("--M", {"type": int, "required": True}),
        ("--K", {"type": int, "required": True}),
        ("--N", {"required": True, "help": "comma list, one per user"}),
        ("--L", {"required": True, "help": "comma list, one per user"}),
        ("--seed", {"type": int}))),
    "solve": ("solve one instance and certify",
              ("config", "out", "solver"), (
                  _INSTANCE, ("--precoder-seed", {"type": int}))),
    "verify": ("theorem-verification ensemble",
               ("config", "out", "format", "link", "ensemble", "solver"), (
                   ("--negative-control", {
                       "action": "store_true",
                       "help": "skip solving; measure asymmetry at uniform q"}),
                   ("--max-psi-asym", {"type": float}),
                   ("--max-pq-gap", {"type": float}),
                   ("--max-mse-gap", {"type": float}))),
    "bench": ("legacy vs shortcut conversion benchmark",
              ("config", "out", "format", "link", "ensemble", "solver"), ()),
    "design": ("alternating precoder design",
               ("config", "out", "format", "solver"), (
                   _INSTANCE, ("--path", {"choices": [
                       designer.SIMPLIFIED, designer.BOTH]}),
                   ("--init", {
                       "choices": ["channel_svd", "random_unit"],
                       "help": "first uplink beamformers (default "
                               "channel_svd: each user's dominant right "
                               "singular vectors; random_unit: unit columns "
                               "drawn from the config's design seed, else "
                               "the instance's)"}),
                   ("--max-outer-iters", {"type": int}))),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dualprec",
        description="Minimum sum-MSE precoding via the virtual uplink, with "
                    "duality certification")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (about, groups, own) in COMMANDS.items():
        p = sub.add_parser(name, help=about)
        for flag, kw in [f for g in groups for f in FLAG_GROUPS[g]] + [*own]:
            p.add_argument(flag, **kw)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser`, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    _pin_blas()
    ns = _parser().parse_args(argv)
    try:
        # looked up at each call, so that a patched cmd_* takes effect; an
        # overflowing covariance is reported as NumericsError, not warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return globals()["cmd_" + ns.command](ns)
    except (ValidationError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as e:
        print(f"{ns.command}: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DualPrecError as e:  # a failed solve or transform: no report
        print(f"{ns.command}: {e}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
