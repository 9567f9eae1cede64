"""The benchmark's workloads: the `dualprec` CLI invocations each one
makes, built only from the benchmark seed.

Every operation goes through ``dualprec.cli.main``, the function behind
the ``dualprec`` console script, so a change anywhere below the CLI shows
up without editing this file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

P_MAX = 10.0

#: Seeds of one benchmark seed never overlap those of the next one.
SEED_STRIDE = 1_000_000

VERIFY = "verify"
DESIGN = "design"


@dataclass(frozen=True)
class Workload:
    """One set of inputs.

    A ``verify`` workload runs, per round, one `dualprec verify` ensemble
    of ``trials`` trials for each noise power in ``sigma2``; every trial
    is one operation and gets fresh channel seeds.  A ``design`` workload
    generates ``pool`` instances with `dualprec gen` at set-up and runs
    `dualprec design --path both` on one of them per round; every design
    is one operation.

    A run does a fixed number of rounds, not as many as fit in its time:
    ``rounds_per_s`` untraced rounds per second on a 2-vCPU machine, so
    ``--seconds`` sets the size of the run and the same seed and seconds
    always attempt the same operations, failures included.

    ``calibrated`` workloads state times in nominal seconds
    (calibration.py).  ``large-m`` is not calibrated: its time goes to
    multi-threaded BLAS, which a single-threaded reference loop does not
    track, so each call is run in two passes and counts with its faster
    time.
    """

    name: str
    kind: str
    M: int
    K: int
    N: tuple
    L: tuple
    sigma2: tuple
    trials: int
    pool: int
    rounds_per_s: float
    calibrated: bool
    shape: str
    why: str
    dominant_layer: str
    moved_by: str
    unchanged_by: str

    @property
    def passes(self) -> int:
        """Untraced passes over the same calls: one when times are
        calibrated, else two, each call counting with its faster time."""
        return 1 if self.calibrated else 2

    def rounds(self, seconds: float, cost: float = 1.0) -> int:
        """Rounds of a run of about ``seconds`` in which every round is
        done ``cost`` times (at least one)."""
        return max(1, round(seconds * self.rounds_per_s / cost))

    @property
    def dims_spec(self) -> str:
        return ",".join(str(v) for v in (self.M, self.K, *self.N, *self.L))

    def seed_base(self, seed: int) -> int:
        return 1 + seed * SEED_STRIDE

    def instance_path(self, pool_dir: str, i: int) -> str:
        return os.path.join(pool_dir, f"inst-{i}.json")

    def gen_argvs(self, seed: int, pool_dir: str) -> list:
        """`dualprec gen` calls that write the design pool (set-up work)."""
        if self.kind != DESIGN:
            return []
        base = self.seed_base(seed)
        return [["gen", "--M", str(self.M), "--K", str(self.K),
                 "--N", ",".join(map(str, self.N)),
                 "--L", ",".join(map(str, self.L)),
                 "--sigma2", repr(self.sigma2[0]), "--pmax", repr(P_MAX),
                 "--seed", str(base + i), "--out",
                 self.instance_path(pool_dir, i)]
                for i in range(self.pool)]

    def round_argvs(self, r: int, seed: int, pool_dir: str, out: str) -> list:
        """The CLI calls of round ``r``; the same for every run of a seed."""
        if self.kind == DESIGN:
            inst = self.instance_path(pool_dir, r % self.pool)
            return [["design", inst, "--path", "both", "--out", out]]
        base = self.seed_base(seed)
        calls = []
        for j, s2 in enumerate(self.sigma2):
            first = base + (r * len(self.sigma2) + j) * self.trials
            calls.append(["verify", "--trials", str(self.trials),
                          "--dims", self.dims_spec, "--sigma2", repr(s2),
                          "--pmax", repr(P_MAX), "--seed-base", str(first),
                          "--out", out])
        return calls


WORKLOADS = {w.name: w for w in (
    Workload(
        name="ensemble-snr", kind=VERIFY, M=4, K=2, N=(2, 2), L=(2, 2),
        sigma2=(10.0, 1.0, 1e-2, 1e-4, 1e-6), trials=50, pool=0,
        rounds_per_s=0.22, calibrated=True,
        shape="verify, M=4 K=2 N=(2,2) L=(2,2) P=10, 50 trials at each of "
              "sigma2 = 10, 1, 1e-2, 1e-4, 1e-6 (0/10/30/50/70 dB) per round",
        why="the theorem-certification use at the paper's dims: low SNR "
            "exercises inactive streams, high SNR long solves and the known "
            "certificate failures",
        dominant_layer="solver, then per-call Python overhead in cli, model "
                       "and objective",
        moved_by="ROADMAP item 2 (batched ensemble engine); item 4 moves "
                 "its failed share",
        unchanged_by="ROADMAP item 1 (BLAS threads do not matter at M=4)"),
    Workload(
        name="large-m", kind=VERIFY, M=64, K=32, N=(2,) * 32, L=(1,) * 32,
        sigma2=(1.0,), trials=4, pool=0,
        rounds_per_s=0.7, calibrated=False,
        shape="verify, M=64 K=32 N_k=2 L_k=1 P=10 sigma2=1, 4 trials per "
              "round",
        why="the covariance kernel and BLAS layer: every kernel call "
            "factors a 64x64 J, so BLAS threading decides the speed (12x "
            "between default threads and one thread on 2 cores)",
        dominant_layer="solver (covariance kernel and BLAS)",
        moved_by="ROADMAP item 1 (BLAS threading cliff)",
        unchanged_by="ROADMAP item 2 (per-call overhead is negligible "
                     "here) and item 4"),
    Workload(
        name="design-loop", kind=DESIGN, M=4, K=2, N=(4, 4), L=(2, 2),
        sigma2=(1.0,), trials=0, pool=256,
        rounds_per_s=3.2, calibrated=True,
        shape="design --path both, M=4 K=2 N=(4,4) L=(2,2) P=10 sigma2=1, "
              "256 instances from dualprec gen",
        why="the designer layer: N_k > L_k needs many outer iterations, "
            "each a warm-started solve plus legacy transform beside p := q",
        dominant_layer="designer (solver warm starts, objective receivers, "
                       "duality transform)",
        moved_by="ROADMAP items 3 and 5 (solver and design-loop cost)",
        unchanged_by="ROADMAP items 1, 2 and 4"),
)}
