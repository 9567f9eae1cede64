#!/usr/bin/env python3
"""Per-layer timings of a change against its parent commit.

    python benchmarks/layers.py --parent c6b3cfc --tag solver_lockstep
    python benchmarks/layers.py --parent c6b3cfc --tag solver_lockstep \\
        --end-to-end ensemble-snr --seeds 91-100

The change is the working tree.  The parent is the committed tree of
``--parent``, exported with ``git archive`` into a temporary directory
(no worktree to clean up), its package importable as ``dualprec_parent``.

The first form runs ``--runs`` (at least 5) measurement processes.  Each
imports both packages and times every call of a layer on both sides back
to back, alternating which side goes first from call to call and from run
to run, so that a change in the machine's load hits both sides alike.  A
call counts with the best of ``REPEATS`` repeats; a run reports, per
layer and side, the median (or the total, where the shape says so) over
its calls.  A layer of few calls makes each of them ``ROUNDS`` times
per side and run (a kernel call ``KERNEL_CALLS`` times, each the best of
``KERNEL_REPEATS``), the rounds interleaved, and takes each call's median:
the machine can switch between a fast and a slow state within a few
milliseconds, and one call per side, however many repeats, could land
each side in a different state.  The garbage collector is off while a
call is timed, and each call is made once untimed before its timed
repeats.  It writes ``BENCH_<tag>.json`` in the
repository root: the environment, per-layer parent and change medians
over the runs, the median of the per-run change/parent ratios, and every
run.

The second form runs ``perfbench/run.py --workload W --seed S`` once per
side for every seed, alternating the order, and adds the workload's
end-to-end medians, quartiles, wins and failures per seed to the
``end_to_end`` block of the same file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEATS = 3
ROUNDS = 5
KERNEL_CALLS = 16
KERNEL_REPEATS = 5
SIGMA2S = (10.0, 1.0, 1e-2, 1e-4, 1e-6)
E2E_METRICS = ("ops_per_s", "setup_s", "peak_rss_mb")

#: name -> (unit, shape); the order of the record.
LAYERS = {
    "kernel_B1_M4": ("us", "objective._covariance on one M=4 L=4 instance"),
    "kernel_B50_M4": ("us", "objective._covariance per instance on a stack "
                            "of 50 M=4 L=4 instances"),
    "kernel_B4_M64": ("us", "objective._covariance per instance on a stack "
                            "of 4 M=64 L=32 instances"),
    "solve_power_warm": ("us", "warm-started solve_power per call, median "
                               "over the calls design --path both makes at "
                               "M=4 K=2 N=(4,4) L=(2,2) sigma2=1 P=10, gen "
                               "seeds 1000-1009"),
    "solve_power_warm_kernel_calls": (
        "count", "objective._covariance calls per warm-started solve_power, "
                 "same calls"),
    "downlink_mmse": ("us", "downlink_mmse per call, median over the calls "
                            "design --path both makes at M=4 K=2 N=(4,4) "
                            "L=(2,2) sigma2=1 P=10, gen seeds 1000-1009"),
    "solve_powers_B50": ("us", "solve_powers per instance, total over one "
                               "call of 50 instances of M=4 K=2 N=(2,2) "
                               "L=(2,2) P=10 at each sigma2 = 10, 1, 1e-2, "
                               "1e-4, 1e-6"),
    "solve_powers_B4_M64": ("ms", "solve_powers per instance, one call of "
                                  "4 instances of M=64 K=32 N_k=2 L_k=1 "
                                  "P=10 sigma2=1"),
    "verify_theorem": ("us", "verify_theorem per trial with the solve's "
                             "state, median over M=4 K=2 N=(2,2) L=(2,2) "
                             "sigma2=1 P=10, seeds 1-50"),
    "design_outer_iter": ("ms", "design --path both per accepted outer "
                                "iteration, total over M=4 K=2 N=(4,4) "
                                "L=(2,2) sigma2=1 P=10, gen seeds 1000-1009"),
    "verify_trials50": ("ms", "one in-process `verify --trials 50 --dims "
                              "4,2,2,2,2,2 --pmax 10`, median over sigma2 = "
                              "10, 1, 1e-2, 1e-4, 1e-6"),
    "verify_trials4_M64": ("ms", "one in-process `verify --trials 4` at "
                                 "M=64 K=32 N_k=2 L_k=1 P=10 sigma2=1, seed "
                                 "base 1"),
    "design_cli": ("ms", "one in-process `design --path both`, median over "
                         "gen instances of the design-loop shape, seeds "
                         "1000-1009"),
    "bench_cli": ("ms", "one in-process `bench --trials 10 --format json` "
                        "at the default dims 4,2,2,2,2,2, sigma2=1 P=10, "
                        "seed base 1"),
}

#: Appended to every row's shape in the record.
WARM = "; every timed call follows one untimed warm-up call"


def _best(fn, repeats=REPEATS) -> float:
    """Shortest wall time of ``repeats`` calls of fn, in seconds, after
    one untimed warm-up call, with the garbage collector off (as `timeit`
    does).  The warm-up keeps a cold first call out of the figure; the
    repeats still tend to speed up one after another, so the figure is
    the best of a short run of identical calls."""
    out = float("inf")
    gc.collect()
    gc.disable()
    try:
        fn()
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            out = min(out, time.perf_counter() - t0)
    finally:
        gc.enable()
    return out


def _rounds(calls: list, figure, rounds=ROUNDS):
    """``calls`` made ``rounds`` times over, one round after the other,
    and ``figure`` of each call's median time."""
    k = len(calls)
    return calls * rounds, lambda t: figure(
        [statistics.median(t[i::k]) for i in range(k)])


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


def _layers(pkg, paths: list) -> dict:
    """Per layer of ``pkg`` (a dualprec package): (calls, figure), the
    zero-argument calls to time and the figure of their best times; the
    kernel-call count layer gives its figure directly."""
    import importlib

    import numpy as np

    cli = importlib.import_module(pkg.__name__ + ".cli")
    solver, designer, duality = pkg.solver, pkg.designer, pkg.duality
    kernel = pkg.objective._covariance

    def instances(dims, seeds, sigma2=1.0):
        out = []
        for s in seeds:
            ch = pkg.gen_channel(dims, sigma2, 10.0, seed=s)
            up = pkg.random_unit_precoders(dims, pkg.VIRTUAL_UPLINK,
                                           seed=[s, 1])
            out.append((ch, up, pkg.build_effective_channel(ch, up)))
        return out

    def stack(dims, B):
        cols = np.stack([e.cols for _, _, e in instances(dims, range(B))])
        q = np.full((B, dims.L_tot), 10.0 / dims.L_tot)
        return _rounds([lambda: kernel(cols, q, 1.0)],
                       lambda t: t[0] / B * 1e6, KERNEL_CALLS)

    small = pkg.SystemDims(M=4, K=2, N=(2, 2), L=(2, 2))
    large = pkg.SystemDims(M=64, K=32, N=(2,) * 32, L=(1,) * 32)
    design_dims = pkg.SystemDims(M=4, K=2, N=(4, 4), L=(2, 2))
    out = {"kernel_B1_M4": stack(small, 1), "kernel_B50_M4": stack(small, 50),
           "kernel_B4_M64": stack(large, 4)}

    # the warm-started solves and the downlink receivers of design,
    # captured once and replayed
    chans = [pkg.gen_channel(design_dims, 1.0, 10.0, seed=s)
             for s in range(1000, 1010)]
    calls, solve = [], designer.solve_power
    receivers, downlink = [], designer.downlink_mmse

    def capture(eff, sigma2, p_max, cfg=None, q0=None, callback=None):
        calls.append((eff, sigma2, p_max, cfg, q0))
        return solve(eff, sigma2, p_max, cfg, q0=q0, callback=callback)

    def capture_downlink(*args):
        receivers.append(args)
        return downlink(*args)

    designer.solve_power = capture
    designer.downlink_mmse = capture_downlink
    try:
        iters = [designer.design(ch, designer.DesignConfig(path="both")).iters
                 for ch in chans]
    finally:
        designer.solve_power = solve
        designer.downlink_mmse = downlink

    def replay(c):
        try:
            solver.solve_power(*c[:4], q0=c[4])
        except pkg.DualPrecError:
            pass

    warm = [c for c in calls if c[4] is not None]
    out["solve_power_warm"] = ([lambda c=c: replay(c) for c in warm],
                               lambda t: statistics.median(t) * 1e6)
    out["downlink_mmse"] = ([lambda a=a: downlink(*a) for a in receivers],
                            lambda t: statistics.median(t) * 1e6)
    counted, covariance = [0], solver._covariance

    def count(*args):
        counted[0] += 1
        return covariance(*args)

    solver._covariance = count
    try:
        for c in warm:
            replay(c)
    finally:
        solver._covariance = covariance
    out["solve_power_warm_kernel_calls"] = counted[0] / len(warm)

    batches = [[e for _, _, e in instances(small, range(1, 51), s2)]
               for s2 in SIGMA2S]
    out["solve_powers_B50"] = _rounds(
        [lambda e=e, s2=s2: solver.solve_powers(e, s2, 10.0)
         for e, s2 in zip(batches, SIGMA2S)],
        lambda t: sum(t) / (50 * len(SIGMA2S)) * 1e6)
    effs = [e for _, _, e in instances(large, range(1, 5))]
    out["solve_powers_B4_M64"] = _rounds(
        [lambda: solver.solve_powers(effs, 1.0, 10.0)],
        lambda t: t[0] / 4 * 1e3)

    theorem = []
    for ch, up, eff in instances(small, range(1, 51)):
        try:
            q, cert = solver.solve_power(eff, ch.sigma2, ch.p_max)
        except pkg.DualPrecError:
            continue
        theorem.append(lambda ch=ch, up=up, q=q, st=cert.state:
                       duality.verify_theorem(ch, up, q, state=st))
    out["verify_theorem"] = (theorem, lambda t: statistics.median(t) * 1e6)
    out["design_outer_iter"] = _rounds(
        [lambda ch=ch: designer.design(ch, designer.DesignConfig(path="both"))
         for ch in chans], lambda t: sum(t) / sum(iters) * 1e3)

    report = os.path.join(os.path.dirname(paths[0]), pkg.__name__ + ".json")
    out["verify_trials50"] = (
        [lambda s2=s2: _quiet(cli.main, [
            "verify", "--trials", "50", "--dims", "4,2,2,2,2,2", "--pmax",
            "10", "--sigma2", repr(s2), "--seed-base", "1", "--out", report])
         for s2 in SIGMA2S], lambda t: statistics.median(t) * 1e3)
    large_spec = ",".join(map(str, (64, 32) + large.N + large.L))
    out["verify_trials4_M64"] = _rounds(
        [lambda: _quiet(cli.main, [
            "verify", "--trials", "4", "--dims", large_spec, "--pmax", "10",
            "--sigma2", "1", "--seed-base", "1", "--out", report])],
        lambda t: t[0] * 1e3)
    out["design_cli"] = _rounds(
        [lambda p=p: _quiet(cli.main, ["design", p, "--path", "both",
                                       "--out", report]) for p in paths],
        lambda t: statistics.median(t) * 1e3)
    out["bench_cli"] = _rounds(
        [lambda: _quiet(cli.main, ["bench", "--trials", "10", "--format",
                                   "json", "--out", report])],
        lambda t: t[0] * 1e3)
    return out


def measure(parent_first: bool) -> dict:
    """One run of every layer, both sides interleaved call by call."""
    import dualprec
    import dualprec_parent
    from dualprec import cli
    from dualprec._blas import blas_threads

    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"inst{s}.json") for s in range(1000, 1010)]
        for s, path in zip(range(1000, 1010), paths):
            _quiet(cli.main, [
                "gen", "--M", "4", "--K", "2", "--N", "4,4", "--L", "2,2",
                "--sigma2", "1.0", "--pmax", "10.0", "--seed", str(s),
                "--out", path])
        work = {"parent": _layers(dualprec_parent, paths),
                "change": _layers(dualprec, paths)}
        res = {side: {} for side in work}
        first = parent_first
        for name in LAYERS:
            if not isinstance(work["change"][name], tuple):
                for side in work:
                    res[side][name] = work[side][name]
                continue
            times = {side: [] for side in work}
            for i in range(len(work["change"][name][0])):
                for side in ("parent", "change")[::1 if first else -1]:
                    times[side].append(_best(
                        work[side][name][0][i],
                        KERNEL_REPEATS if name.startswith("kernel")
                        else REPEATS))
                first = not first
            for side in work:
                res[side][name] = work[side][name][1](times[side])
    return {"layers": res, "blas_threads": blas_threads()}


def _export(ref: str, dest: str) -> None:
    """The committed tree of ``ref`` under dest, without git metadata, and
    its package as ``dest/pkgs/dualprec_parent``."""
    data = subprocess.run(["git", "-C", ROOT, "archive", ref],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")
    shutil.copytree(os.path.join(dest, "src", "dualprec"),
                    os.path.join(dest, "pkgs", "dualprec_parent"))


def _run_measure(parent: str, parent_first: bool) -> dict:
    path = os.pathsep.join([os.path.join(ROOT, "src"),
                            os.path.join(parent, "pkgs")])
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--measure",
         "parent" if parent_first else "change"],
        env=dict(os.environ, PYTHONPATH=path), check=True,
        capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def _run_perfbench(tree: str, workload: str, seed: int,
                   seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def _environment(threads: list) -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS for blas_info)

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from environment import THREAD_VARS, blas_info

    return {"nproc": os.cpu_count(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
            "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
            "blas_threads": threads,
            "blas": [{k: b[k] for k in ("library", "config")}
                     for b in blas_info()]}


def _quartiles(xs) -> list:
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return [round(q[0], 4), round(q[2], 4)]


def _seeds(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _end_to_end(trees: dict, ns) -> dict:
    """The perfbench pairs of ``--end-to-end`` as record entries."""
    seeds = _seeds(ns.seeds)
    runs = {side: [] for side in trees}
    for i, seed in enumerate(seeds):
        for side in ("parent", "change")[::1 if i % 2 == 0 else -1]:
            runs[side].append(_run_perfbench(trees[side], ns.workload, seed,
                                             ns.seconds))
    block = {}
    for metric in E2E_METRICS:
        p, c = ([r["metrics"][metric]["value"] for r in runs[side]]
                for side in ("parent", "change"))
        higher = metric == "ops_per_s"
        wins = sum(y != x and (y > x) == higher for x, y in zip(p, c))
        entry = {"parent": round(statistics.median(p), 4),
                 "parent_quartiles": _quartiles(p),
                 "change": round(statistics.median(c), 4),
                 "change_quartiles": _quartiles(c),
                 "change_wins": f"{wins}/{len(p)}", "seeds": seeds}
        if higher:
            for side in ("parent", "change"):
                entry[f"{side}_failed_per_seed"] = [r["failed"]
                                                    for r in runs[side]]
        block[f"{ns.workload}.{metric}"] = entry
    return block


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--measure", choices=["parent", "change"],
                    help="measure both sides, this one first, print JSON")
    ap.add_argument("--parent", help="git ref of the parent commit")
    ap.add_argument("--tag", help="the record is BENCH_<tag>.json")
    ap.add_argument("--change", default="", help="one line on the change")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--end-to-end", dest="workload",
                    help="perfbench workload to add to the record")
    ap.add_argument("--seeds", default="91-100",
                    help="perfbench seeds, e.g. 91-100")
    ap.add_argument("--seconds", type=float, default=30.0)
    ns = ap.parse_args(argv)
    if ns.measure:
        print(json.dumps(measure(ns.measure == "parent")))
        return 0
    if not (ns.parent and ns.tag) or ns.runs < 5:
        ap.error("--parent and --tag are required and --runs must be >= 5")
    path = os.path.join(ROOT, f"BENCH_{ns.tag}.json")
    record = {}
    if os.path.exists(path):
        with open(path) as f:
            record = json.load(f)
    with tempfile.TemporaryDirectory() as parent:
        _export(ns.parent, parent)
        if ns.workload:
            record.setdefault("end_to_end", {}).update(_end_to_end(
                {"parent": parent, "change": ROOT}, ns))
        else:
            runs = [_run_measure(parent, i % 2 == 0) for i in range(ns.runs)]
            record.update(
                tag=ns.tag, change=ns.change or record.get("change", ""),
                environment=_environment(runs[0]["blas_threads"]),
                method=(f"Change: the working tree; parent: git archive "
                        f"{ns.parent}. {ns.runs} measurement processes, each "
                        "importing both packages and timing every call of a "
                        "layer on both sides back to back, the side that goes "
                        "first alternating from call to call and run to run; "
                        f"a call counts with its best of {REPEATS} after one "
                        "untimed warm-up call, garbage collector off; "
                        "solve_powers, verify_trials4_M64, "
                        "design_outer_iter, design_cli and bench_cli make "
                        "each call "
                        f"{ROUNDS} times, kernel layers {KERNEL_CALLS} times "
                        f"(best of {KERNEL_REPEATS}), and take each call's "
                        "median. Per side the record gives the median of the "
                        "run figures, and ratio is the median of the per-run "
                        "change/parent ratios."),
                layers={})
            for name, (unit, shape) in LAYERS.items():
                entry = {"unit": unit, "shape": shape + WARM}
                for side in ("parent", "change"):
                    xs = [round(r["layers"][side][name], 4) for r in runs]
                    entry[side] = round(statistics.median(xs), 4)
                    entry[f"{side}_runs"] = xs
                entry["ratio"] = round(statistics.median(
                    c / p for p, c in zip(entry["parent_runs"],
                                          entry["change_runs"])), 4)
                record["layers"][name] = entry
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
