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
import inspect
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
    "solve_stack_warm": ("us", "solver._solve_stack per call on the same "
                               "warm-started calls as design makes them "
                               "(a stack of one), median over the calls"),
    "downlink_mmse": ("us", "downlink_mmse per call at the MMSE directions "
                            "and q of each power solve design --path both "
                            "makes at M=4 K=2 N=(4,4) L=(2,2) sigma2=1 "
                            "P=10, gen seeds 1000-1009"),
    "solve_stack_B50": ("us", "solver._solve_stack per instance, total "
                              "over one call on the stacked columns of 50 "
                              "instances of M=4 K=2 N=(2,2) L=(2,2) P=10 at "
                              "each sigma2 = 10, 1, 1e-2, 1e-4, 1e-6"),
    "newton_B50_mixed": ("us", "solver._newton per call, on the first "
                               "call with the most distinct counts of "
                               "powered streams per row (so of face sizes) "
                               "that solve_stack_B50's sigma2 = 10 stack "
                               "makes"),
    "newton_B1_parked": ("us", "solver._newton per call, median over the "
                               "one-row calls with a parked stream that "
                               "design --path both --init random_unit "
                               "makes on the gen "
                               "instance of seed 1000098 (M=4 K=2 N=(4,4) "
                               "L=(2,2) sigma2=1 P=10)"),
    "gen_stacks_B4_M64": ("us", "model.gen_stacks per instance, one call "
                                "on seeds 1-4 at M=64 K=32 N_k=2 L_k=1"),
    "gen_stacks_B50_M4": ("us", "model.gen_stacks per instance, one call "
                                "on seeds 1-50 at M=4 K=2 N=(2,2) L=(2,2)"),
    "gen_channel_M4": ("us", "model.gen_channel per call, seed 1 at M=4 "
                             "K=2 N=(2,2) L=(2,2)"),
    "solve_stack_B4_M64": ("ms", "solver._solve_stack per instance, one "
                                 "call on the stacked columns of 4 "
                                 "instances of M=64 K=32 N_k=2 L_k=1 P=10 "
                                 "sigma2=1"),
    "solve_stack_B4_M64_kernel_calls": (
        "count", "objective._covariance calls in one cold "
                 "solver._solve_stack call, same instances"),
    "verify_theorem": ("us", "verify_theorem per trial with the solve's "
                             "state, median over M=4 K=2 N=(2,2) L=(2,2) "
                             "sigma2=1 P=10, seeds 1-50"),
    "check_B50": ("us", "duality._check per trial, one call on the stacked "
                        "solved trials of M=4 K=2 N=(2,2) L=(2,2) sigma2=1 "
                        "P=10, seeds 1-50"),
    "check_B50_M4_s10": ("us", "duality._check per trial, one call on "
                               "the stacked solved trials of M=4 K=2 "
                               "N=(2,2) L=(2,2) sigma2=10 P=10, seeds 1-50 "
                               "(active counts 2 to 4)"),
    "check_B4_M64": ("us", "duality._check per trial, one call on the "
                           "stacked solved trials of M=64 K=32 N_k=2 L_k=1 "
                           "sigma2=1 P=10, seeds 1-4"),
    "check_B4_M64_s1e4": ("us", "duality._check per trial, one call on "
                                "the stacked solved trials of M=64 K=32 "
                                "N_k=2 L_k=1 sigma2=1e4 P=10, seeds 1-4 "
                                "(active counts 1 to 4 of 32)"),
    "design_step_M64_K32": ("us", "designer._step per call, median over the "
                                  "calls of one design (10 accepted "
                                  "iterates, simplified_pq) at M=64 K=32 "
                                  "N_k=2 L_k=1 sigma2=1 P=10, gen seed 1"),
    "emit_verify50": ("us", "cli._emit of one `verify --trials 50` report "
                            "(dims 4,2,2,2,2,2, sigma2=1 P=10, seed base "
                            "1) to a file, per call"),
    "gen_cli": ("us", "one in-process `gen --M 4 --K 2 --N 4,4 --L 2,2 "
                      "--sigma2 1.0 --pmax 10.0 --seed 1000001` writing its "
                      "file (design-loop set-up makes 256 such calls)"),
    "design_outer_iter": ("ms", "design --path both per accepted outer "
                                "iteration, total over M=4 K=2 N=(4,4) "
                                "L=(2,2) sigma2=1 P=10, gen seeds 1000-1009"),
    "verify_trials50": ("ms", "one in-process `verify --trials 50 --dims "
                              "4,2,2,2,2,2 --pmax 10`, median over sigma2 = "
                              "10, 1, 1e-2, 1e-4, 1e-6"),
    "verify_trials50_failing": ("ms", "one in-process `verify --trials 50 "
                                      "--dims 4,2,2,2,2,2 --pmax 10 "
                                      "--sigma2 1e-6 --max-iters 1 "
                                      "--seed-base 45` (3 ConvergenceError "
                                      "trials)"),
    "verify_trials4_M64": ("ms", "one in-process `verify --trials 4` at "
                                 "M=64 K=32 N_k=2 L_k=1 P=10 sigma2=1, seed "
                                 "base 1"),
    "design_cli": ("ms", "one in-process `design --path both`, median over "
                         "gen instances of the design-loop shape, seeds "
                         "1000-1009"),
    "design_cli_iters": ("count", "mean accepted iterates of design_cli's "
                                  "designs, read from their reports"),
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

    # the power solves of design, captured once at the stacked core (where
    # the designer binds it, or through solve_power) and replayed
    chans = [pkg.gen_channel(design_dims, 1.0, 10.0, seed=s)
             for s in range(1000, 1010)]
    calls, stack_solve = [], solver._solve_stack
    holders = [m for m in (solver, designer) if "_solve_stack" in vars(m)]

    def capture(CS, sigma2, p_max, cfg=None, q0=None, callback=None):
        calls.append((pkg.EffectiveChannel(CS[0]), sigma2, p_max, cfg, q0,
                      ch))
        return stack_solve(CS, sigma2, p_max, cfg, q0, callback)

    for m in holders:
        m._solve_stack = capture
    try:
        iters = []
        for ch in chans:  # a loop, not a comprehension: capture reads ch
            iters.append(designer.design(
                ch, designer.DesignConfig(path="both")).iters)
    finally:
        for m in holders:
            m._solve_stack = stack_solve

    def replay(c):
        try:
            return solver.solve_power(*c[:4], q0=c[4])
        except pkg.DualPrecError:
            return None

    # the downlink receivers at each certified q, as design evaluates them
    receivers, downlink = [], pkg.objective.downlink_mmse
    for c in calls:
        if (res := replay(c)) is not None:
            receivers.append((c[5], pkg.objective.mmse_directions(
                res[1].state), res[0]))

    warm = [c for c in calls if c[4] is not None]
    out["solve_power_warm"] = ([lambda c=c: replay(c) for c in warm],
                               lambda t: statistics.median(t) * 1e6)
    out["downlink_mmse"] = ([lambda a=a: downlink(*a) for a in receivers],
                            lambda t: statistics.median(t) * 1e6)
    counted, covariance = [0], solver._covariance

    def count(*args):
        counted[0] += 1
        return covariance(*args)

    def kernel_calls(fn):
        """objective._covariance calls that fn() makes through the solver."""
        counted[0] = 0
        solver._covariance = count
        try:
            fn()
        finally:
            solver._covariance = covariance
        return counted[0]

    out["solve_power_warm_kernel_calls"] = kernel_calls(
        lambda: [replay(c) for c in warm]) / len(warm)
    # the stacked core alone, without solve_power's state and certificate
    stacks = [(c[0].cols[None],) + c[1:5] for c in warm]
    out["solve_stack_warm"] = (
        [lambda a=a: solver._solve_stack(*a) for a in stacks],
        lambda t: statistics.median(t) * 1e6)

    def cols(effs):
        return np.array([e.cols for e in effs])

    batches = [cols(e for _, _, e in instances(small, range(1, 51), s2))
               for s2 in SIGMA2S]
    out["solve_stack_B50"] = _rounds(
        [lambda cs=cs, s2=s2: solver._solve_stack(cs, s2, 10.0)
         for cs, s2 in zip(batches, SIGMA2S)],
        lambda t: sum(t) / (50 * len(SIGMA2S)) * 1e6)
    # one Newton call of that stack at sigma2 = 10, captured and replayed
    newton, captured = solver._newton, []
    solver._newton = lambda *a: captured.append(a) or newton(*a)
    try:
        solver._solve_stack(batches[0], SIGMA2S[0], 10.0)
    finally:
        solver._newton = newton
    # the first call with the most distinct powered-stream counts per row
    mixed = max(captured, key=lambda a: len(set(
        np.count_nonzero(a[1] > 0, axis=1).tolist())))
    out["newton_B50_mixed"] = _rounds([lambda: newton(*mixed)],
                                      lambda t: t[0] * 1e6)
    out["gen_stacks_B4_M64"] = _rounds(
        [lambda: pkg.model.gen_stacks(large, range(1, 5))],
        lambda t: t[0] / 4 * 1e6)
    out["gen_stacks_B50_M4"] = _rounds(
        [lambda: pkg.model.gen_stacks(small, range(1, 51))],
        lambda t: t[0] / 50 * 1e6)
    out["gen_channel_M4"] = _rounds(
        [lambda: pkg.gen_channel(small, 1.0, 10.0, seed=1)],
        lambda t: t[0] * 1e6)
    large_cols = cols(e for _, _, e in instances(large, range(1, 5)))
    out["solve_stack_B4_M64"] = _rounds(
        [lambda: solver._solve_stack(large_cols, 1.0, 10.0)],
        lambda t: t[0] / 4 * 1e3)
    out["solve_stack_B4_M64_kernel_calls"] = kernel_calls(
        lambda: solver._solve_stack(large_cols, 1.0, 10.0))

    theorem = []
    for ch, up, eff in instances(small, range(1, 51)):
        try:
            q, cert = solver.solve_power(eff, ch.sigma2, ch.p_max)
        except pkg.DualPrecError:
            continue
        theorem.append(lambda ch=ch, up=up, q=q, st=cert.state:
                       duality.verify_theorem(ch, up, q, state=st))
    out["verify_theorem"] = (theorem, lambda t: statistics.median(t) * 1e6)

    def checked(dims, seeds, sigma2=1.0):
        """`duality._check`'s arguments on the solved trials of ``seeds``,
        as `verify` makes them: the channel and beamformer stacks in the
        form this side's `model.gen_stacks` gives and its `_check`
        takes (per user, or per run of equal-shape users), and sigma2,
        P and the activity threshold 1e-9 P as its signature takes them
        (per row, or one sigma2 and P)."""
        H, V, cs = pkg.model.gen_stacks(dims, seeds)
        res = solver._solve_stack(cs, sigma2, 10.0)
        ok = np.array([e is None for e in res.err])
        B = int(np.count_nonzero(ok))
        link = (sigma2, 10.0)
        if "tols" in inspect.signature(duality._check).parameters:
            link = (np.full(B, sigma2), np.full(B, 10.0), np.full(B, 1e-8))
        return (res.q[ok], res.a[ok], cs[ok], [h[ok] for h in H],
                [v[ok] for v in V], dims) + link, B

    for name, dims, seeds, s2 in (
            ("check_B50", small, range(1, 51), 1.0),
            ("check_B50_M4_s10", small, range(1, 51), 10.0),
            ("check_B4_M64", large, range(1, 5), 1.0),
            ("check_B4_M64_s1e4", large, range(1, 5), 1e4)):
        args, B = checked(dims, seeds, s2)
        out[name] = _rounds([lambda a=args: duality._check(*a)],
                            lambda t, B=B: t[0] / B * 1e6)

    # the steps of one large-m design, captured as this side's design makes
    # them (so in its own signature) and replayed
    steps, step = [], designer._step

    def capture(*args):
        steps.append(args)
        return step(*args)

    designer._step = capture
    try:
        designer.design(pkg.gen_channel(large, 1.0, 10.0, seed=1),
                        designer.DesignConfig(max_outer_iters=10))
    except pkg.DualPrecError:
        pass
    finally:
        designer._step = step
    out["design_step_M64_K32"] = ([lambda a=a: step(*a) for a in steps],
                                  lambda t: statistics.median(t) * 1e6)
    out["design_outer_iter"] = _rounds(
        [lambda ch=ch: designer.design(ch, designer.DesignConfig(path="both"))
         for ch in chans], lambda t: sum(t) / sum(iters) * 1e3)

    report = os.path.join(os.path.dirname(paths[0]), pkg.__name__ + ".json")
    out["verify_trials50"] = (
        [lambda s2=s2: _quiet(cli.main, [
            "verify", "--trials", "50", "--dims", "4,2,2,2,2,2", "--pmax",
            "10", "--sigma2", repr(s2), "--seed-base", "1", "--out", report])
         for s2 in SIGMA2S], lambda t: statistics.median(t) * 1e3)
    out["verify_trials50_failing"] = _rounds(
        [lambda: _quiet(cli.main, [
            "verify", "--trials", "50", "--dims", "4,2,2,2,2,2", "--pmax",
            "10", "--sigma2", "1e-6", "--max-iters", "1", "--seed-base", "45",
            "--out", report])], lambda t: t[0] * 1e3)
    _quiet(cli.main, ["verify", "--trials", "50", "--dims", "4,2,2,2,2,2",
                      "--pmax", "10", "--sigma2", "1", "--seed-base", "1",
                      "--out", report])
    with open(report) as f:
        payload = json.load(f)
    out["emit_verify50"] = _rounds([lambda: cli._emit(payload, report)],
                                   lambda t: t[0] * 1e6)
    instance = os.path.join(os.path.dirname(paths[0]),
                            pkg.__name__ + "-gen.json")
    out["gen_cli"] = _rounds(
        [lambda: _quiet(cli.main, [
            "gen", "--M", "4", "--K", "2", "--N", "4,4", "--L", "2,2",
            "--sigma2", "1.0", "--pmax", "10.0", "--seed", "1000001",
            "--out", instance])], lambda t: t[0] * 1e6)
    large_spec = ",".join(map(str, (64, 32) + large.N + large.L))
    out["verify_trials4_M64"] = _rounds(
        [lambda: _quiet(cli.main, [
            "verify", "--trials", "4", "--dims", large_spec, "--pmax", "10",
            "--sigma2", "1", "--seed-base", "1", "--out", report])],
        lambda t: t[0] * 1e3)
    # the one-row Newton calls with a parked stream of one design,
    # captured (as copies: the loop reuses its arrays) and replayed
    parked = os.path.join(os.path.dirname(paths[0]),
                          pkg.__name__ + "-1000098.json")
    _quiet(cli.main, ["gen", "--M", "4", "--K", "2", "--N", "4,4", "--L",
                      "2,2", "--sigma2", "1.0", "--pmax", "10.0", "--seed",
                      "1000098", "--out", parked])
    one = []
    solver._newton = lambda *a: one.append(
        [x.copy() if isinstance(x, np.ndarray) else x for x in a]) \
        or newton(*a)
    try:
        _quiet(cli.main, ["design", parked, "--path", "both", "--init",
                          "random_unit", "--out", report])
    finally:
        solver._newton = newton
    one = [a for a in one if len(a[1]) == 1 and not np.all(a[1] > 0)]
    out["newton_B1_parked"] = ([lambda a=a: newton(*a) for a in one],
                               lambda t: statistics.median(t) * 1e6)
    out["design_cli"] = _rounds(
        [lambda p=p: _quiet(cli.main, ["design", p, "--path", "both",
                                       "--out", report]) for p in paths],
        lambda t: statistics.median(t) * 1e3)
    def cli_iters(path):
        _quiet(cli.main, ["design", path, "--path", "both", "--out", report])
        with open(report) as f:
            return json.load(f)["iters"]

    out["design_cli_iters"] = statistics.mean(map(cli_iters, paths))
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
    from dualprec._blas import blas_threads, pin_one_thread

    pin_one_thread()  # as the CLI does; importing dualprec leaves BLAS alone

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
    """The machine and library versions; scipy's only where it is
    installed (a parent commit may still use it)."""
    import numpy
    try:
        import scipy
        import scipy.linalg  # noqa: F401  (loads scipy's BLAS for blas_info)
    except ImportError:
        scipy = None

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from environment import THREAD_VARS, blas_info

    env = {"nproc": os.cpu_count(), "numpy": numpy.__version__}
    if scipy is not None:
        env["scipy"] = scipy.__version__
    return dict(env, python=".".join(map(str, sys.version_info[:3])),
                thread_vars={v: os.environ.get(v) for v in THREAD_VARS},
                blas_threads=threads,
                blas=[{k: b[k] for k in ("library", "config")}
                      for b in blas_info()])


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
                        "solve_stack_B50, newton_B50_mixed, "
                        "solve_stack_B4_M64, gen_stacks, gen_channel, "
                        "check_B50, check_B50_M4_s10, check_B4_M64, "
                        "check_B4_M64_s1e4, emit_verify50, gen_cli, "
                        "verify_trials50_failing, verify_trials4_M64, "
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
