#!/usr/bin/env python3
"""The dualprec benchmark.

Runs one workload (see workloads.py) through ``dualprec.cli.main`` in
this process, with ``--out`` to a scratch file inside the checkout,
checks every report, and prints each metric by name with its unit and
sample count.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload ensemble-snr --seed 1 --seconds 30 --trace 0

``--seconds`` sets the size of a run, not a deadline: a run does a fixed
number of rounds (``Workload.rounds``) that takes about that long on a
2-vCPU machine, so the same seed and seconds always attempt the same
operations and meet the same failures.  ``--trace 0`` measures the
end-to-end metrics; times of calibrated workloads are stated in nominal
seconds (calibration.py).  ``--trace 1`` runs every call twice back to
back: untraced, then with every layer's public functions wrapped (spans.py).
The per-layer metrics come from the traced calls and the time difference
between the two is the tracing overhead.  ``--workload all`` runs
every workload in turn in one process and prefixes each metric with its
workload's name.

Run it from the root of a checkout: the program is imported from
``src/``.  The BLAS thread settings are left as the caller has them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field

from calibration import SETUP_ELASTICITY, reference_s, scale
from checks import check_design, check_verify
from environment import environment
from spans import DesignProbe, Tracer, layer_metrics, mean
from workloads import DESIGN, P_MAX, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

SETUP_REPEATS = 5
CALIBRATE_EVERY_S = 1.0
SETUP_TIMEOUT_S = 120
#: A traced round runs each call untraced and traced: about this many
#: times the work of an untraced round.
TRACED_COST = 2.2

END_TO_END_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER_UNITS = {
    "cli.self_ms": "ms", "cli.nonzero_exits": "count",
    "model.calls": "count", "model.self_ms": "ms",
    "objective.calls": "count", "objective.self_ms": "ms",
    "solver.calls": "count", "solver.self_ms": "ms",
    "solver.solve_ms.p50": "ms", "solver.solve_ms.p95": "ms",
    "solver.steps.mean": "count", "solver.failed": "count",
    "solver.kkt_residual.max": "1",
    "duality.calls": "count", "duality.self_ms": "ms",
    "duality.verify_ms.p50": "ms", "duality.transform_us.p50": "us",
    "duality.failed": "count", "duality.psi_asymmetry.max": "1",
    "duality.pq_gap.max": "1", "duality.mse_gap.max": "1",
    "designer.self_ms": "ms", "designer.outer_iters.mean": "count",
    "designer.outer_iter_ms.p50": "ms", "designer.shortcut_us.p50": "us",
    "designer.failed": "count", "designer.path_gap.max": "1",
    "designer.smse_final.mean": "1",
    "trace.overhead_pct": "%",
}


@dataclass
class Pass:
    """What a sequence of CLI calls did."""

    rounds: int = 0
    attempted: int = 0
    times: list = field(default_factory=list)
    scale: list = field(default_factory=list)
    refs: list = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)
    nonzero_exits: int = 0
    smse: list = field(default_factory=list)
    designs: list = field(default_factory=list)


class Program:
    """The program under test, imported from the checkout's ``src/``."""

    def __init__(self):
        sys.path.insert(0, SRC)
        from dualprec import cli, solver

        self.cli = cli
        self.kkt_tol = solver.SolverConfig().kkt_tol
        self.bounds = dict(cli.DEFAULT_BOUNDS)

    def call(self, argv: list) -> tuple:
        """Run ``dualprec <argv>``; return (exit code, escaped error)."""
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                return self.cli.main(argv), None
        except SystemExit as e:
            return (e.code if isinstance(e.code, int) else 1), None
        except Exception as e:  # an escaped error is a failed operation
            return 1, f"{type(e).__name__}: {e}"


def _read_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def _run_call(prog: Program, wl, argv: list, out: str, p: Pass) -> None:
    """Run one CLI call, time it, check its report and add it to ``p``."""
    if os.path.exists(out):
        os.remove(out)
    with DesignProbe() as probe:
        t0 = time.perf_counter()
        rc, escaped = prog.call(argv)
        p.times.append(time.perf_counter() - t0)
    payload = None if escaped else _read_json(out)
    if wl.kind == DESIGN:
        result = probe.take()
        o = check_design(rc, payload, result, P_MAX, sum(wl.L),
                         prog.bounds["pq_gap"])
        if result is not None:
            p.designs.append(result)
        if o.smse_final is not None:
            p.smse.append(o.smse_final)
    else:
        o = check_verify(rc, payload, wl.trials, prog.kkt_tol, prog.bounds)
    if escaped:
        o.failures = [escaped] * o.attempted
        o.problems.append(escaped)
    p.attempted += o.attempted
    p.failures.update(o.failures)
    p.problems.extend(o.problems)
    p.nonzero_exits += rc != 0


def run_pass(prog: Program, wl, seed: int, pool_dir: str, workdir: str,
             rounds: int, tracer=None) -> tuple:
    """Run exactly ``rounds`` rounds.

    The reference loop (calibration.py) is timed before the first call,
    after the last and about every CALIBRATE_EVERY_S in between; each
    untraced call gets the factor that turns its time into nominal
    seconds.  With a ``tracer``, every call runs twice back to back,
    untraced and then traced, so both see the same machine speed.
    Returns the untraced and the traced Pass (None without a tracer).
    """
    out = os.path.join(workdir, "out.json")
    plain = Pass()
    traced = Pass() if tracer is not None else None
    refs, segment = [reference_s()], []
    last_ref = time.perf_counter()
    for r in range(rounds):
        for argv in wl.round_argvs(r, seed, pool_dir, out):
            if time.perf_counter() - last_ref >= CALIBRATE_EVERY_S:
                refs.append(reference_s())
                last_ref = time.perf_counter()
            _run_call(prog, wl, argv, out, plain)
            segment.append(len(refs) - 1)
            if tracer is not None:
                with tracer:
                    _run_call(prog, wl, argv, out, traced)
        plain.rounds += 1
    refs.append(reference_s())
    # each call is scaled by the mean of the calibrations around it
    plain.scale = [scale((refs[j] + refs[j + 1]) / 2) for j in segment]
    plain.refs = refs
    return plain, traced


def measure_setup(wl, seed: int, pool_dir: str) -> tuple:
    """Nominal and measured seconds for each of SETUP_REPEATS fresh
    set-ups (import plus instance generation), each in its own
    interpreter; the last one leaves the design pool in ``pool_dir``.
    The reference loop is timed before each set-up and after the last,
    and each set-up is scaled with SETUP_ELASTICITY by the mean of the
    two reference times around it (calibration.py)."""
    argvs = json.dumps(wl.gen_argvs(seed, pool_dir))
    times, refs = [], [reference_s()]
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC],
            input=argvs, capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
        refs.append(reference_s())
    nominal = [t * scale((refs[i] + refs[i + 1]) / 2, SETUP_ELASTICITY)
               for i, t in enumerate(times)]
    return nominal, times


def run_workload(prog: Program, wl, seed: int, seconds: float, trace: bool,
                 workdir: str) -> dict:
    """Set up and measure one workload; return its result."""
    pool_dir = os.path.join(workdir, wl.name)
    os.makedirs(pool_dir, exist_ok=True)
    setup, setup_raw = measure_setup(wl, seed, pool_dir)
    noun = "designs" if wl.kind == DESIGN else "trials"
    if not trace:
        n = wl.rounds(seconds, wl.passes)
        passes = [run_pass(prog, wl, seed, pool_dir, workdir, n)[0]
                  for _ in range(wl.passes)]
        first = passes[0]
        if wl.calibrated:
            cost = sum(t * f for t, f in zip(first.times, first.scale))
            how = (f"calibrated; {first.attempted / sum(first.times):.4g}/s "
                   f"unscaled, reference median "
                   f"{statistics.median(first.refs) * 1e3:.3f} ms over "
                   f"{len(first.refs)} calibrations")
        else:
            cost = sum(min(ts) for ts in zip(*(p.times for p in passes)))
            how = f"unscaled, each call's fastest of {wl.passes} passes"
        metrics = {
            "ops_per_s": (first.attempted / cost,
                          f"n={first.attempted} {noun} in {n} rounds, {how}"),
            "setup_s": (statistics.median(setup),
                        f"median of n={len(setup)} calibrated set-ups; "
                        "measured: "
                        + ", ".join(f"{t:.3f}" for t in setup_raw)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "n=1, this process"),
        }
    else:
        tracer = Tracer()
        plain, traced = run_pass(prog, wl, seed, pool_dir, workdir,
                                 wl.rounds(seconds, TRACED_COST), tracer)
        passes = [plain, traced]
        layer = layer_metrics(tracer.spans, traced.attempted, traced.designs)
        layer["cli.nonzero_exits"] = traced.nonzero_exits
        layer["designer.smse_final.mean"] = mean(traced.smse)
        t_plain, t_traced = sum(plain.times), sum(traced.times)
        layer["trace.overhead_pct"] = (t_traced / t_plain - 1.0) * 100.0
        basis = f"n={traced.attempted} {noun}, traced calls"
        metrics = {k: (layer[k], basis) for k in PER_LAYER_UNITS}
        metrics["trace.overhead_pct"] = (
            layer["trace.overhead_pct"],
            f"{t_traced:.3f} s traced vs {t_plain:.3f} s untraced, each call "
            f"run both ways back to back, {plain.rounds} rounds")
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}.jsonl"))
    failures = Counter()
    problems = []
    for p in passes:
        failures.update(p.failures)
        problems.extend(p.problems)
    return {"workload": wl, "metrics": metrics,
            "attempted": sum(p.attempted for p in passes),
            "failures": failures, "problems": problems}


def _print_result(res: dict, units: dict) -> None:
    wl = res["workload"]
    print(f"workload {wl.name}: {wl.shape}")
    print(f"  chosen for {wl.why}")
    print(f"  dominant layer: {wl.dominant_layer}; moved by "
          f"{wl.moved_by}; unchanged by {wl.unchanged_by}")
    for name, (value, basis) in res["metrics"].items():
        print(f"  {name:28s} {value:>14.6g} {units[name]:6s} ({basis})")
    failed = sum(res["failures"].values())
    print(f"  {'failed_share':28s} {failed / res['attempted']:>14.6g} "
          f"{'1':6s} (n={failed} failed of {res['attempted']} attempted)")
    for cause, n in res["failures"].most_common():
        print(f"    failure: {n} x {cause}")
    for problem in res["problems"][:20]:
        print(f"    INCORRECT: {problem}")


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ns = ap.parse_args(argv)
    if ns.seed < 0 or ns.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "dualprec", "cli.py")):
        print(f"perfbench: no dualprec sources under {SRC}; run from the "
              "root of a dualprec checkout", file=sys.stderr)
        return 2

    prog = Program()
    env = environment(loadavg)
    env.update(seed=ns.seed, seconds=ns.seconds, trace=ns.trace)
    print("env " + json.dumps(env))
    names = list(WORKLOADS) if ns.workload == "all" else [ns.workload]
    units = PER_LAYER_UNITS if ns.trace else END_TO_END_UNITS
    workdir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        results = [run_workload(prog, WORKLOADS[n], ns.seed, ns.seconds,
                                bool(ns.trace), workdir) for n in names]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for res in results:
        _print_result(res, units)
        prefix = f"{res['workload'].name}." if ns.workload == "all" else ""
        for name, (value, _) in res["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    print(json.dumps({
        "correct": not any(r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(sum(r["failures"].values()) for r in results),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
