"""Checks on the outputs of one CLI call.

Each check returns an `Outcome`: how many operations the call attempted,
one cause per failed operation, and any problem that makes the program's
output wrong rather than an honestly reported failure (an exit code of 0
beside a failed trial, a missing report, a malformed number).  Failed
operations are never retried or dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 3


@dataclass
class Outcome:
    attempted: int
    failures: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    smse_final: float | None = None


def check_verify(rc: int, payload, trials: int, kkt_tol: float,
                 bounds: dict) -> Outcome:
    """A `dualprec verify` call of ``trials`` trials.

    A trial fails when it carries an error (ConvergenceError, a singular
    or infeasible transform), when a theorem gap exceeds ``bounds`` or
    when its certificate residual exceeds ``kkt_tol``.  A nonzero exit
    code with no failed trial still counts as one failed operation.
    """
    out = Outcome(attempted=trials)
    if payload is None:
        out.failures = [f"exit {rc}, no report"] * trials
        out.problems.append(f"verify exit {rc} wrote no report")
        return out
    records = payload.get("per_trial", [])
    if len(records) != trials:
        out.problems.append(f"verify reported {len(records)} of {trials} "
                            "trials")
    for rec in records:
        causes = []
        if rec.get("error"):
            causes.append(rec["error"])
        else:
            for key, bound in bounds.items():
                val = rec.get(key)
                if not _finite(val) or val > bound:
                    causes.append(f"{key} over bound")
            res = rec.get("max_residual")
            if not _finite(res) or res > kkt_tol:
                causes.append("kkt residual over tolerance")
        if causes:
            out.failures.append(", ".join(causes))
    if rc == EXIT_OK and out.failures:
        out.problems.append(f"verify exit 0 beside {len(out.failures)} "
                            "failed trials")
    if rc != EXIT_OK and not out.failures:
        out.failures.append(f"exit {rc}")
    return out


def check_design(rc: int, payload, result, p_max: float, L_tot: int,
                 pq_bound: float) -> Outcome:
    """A `dualprec design --path both` call on one instance.

    ``result`` is the DesignResult (or partial result) the design loop
    returned.  The design fails when it did not converge, when the legacy
    and p := q powers differ by more than ``pq_bound`` (relative to
    max(1, p_max), as for the theorem's p-q gap) or on any other exit code.
    """
    out = Outcome(attempted=1)
    if payload is None:
        out.failures.append(f"exit {rc}, no report")
        out.problems.append(f"design exit {rc} wrote no report")
        return out
    converged = payload.get("converged")
    if (rc == EXIT_OK) != (converged is True) or \
            rc not in (EXIT_OK, EXIT_NO_CONVERGENCE):
        out.problems.append(f"design exit {rc} with converged={converged}")
    causes = []
    if rc == EXIT_NO_CONVERGENCE:
        causes.append("not converged (exit 3)")
    elif rc != EXIT_OK:
        causes.append(f"exit {rc}")
    trace = payload.get("smse_trace") or []
    smse = trace[-1] if trace else None
    if not _finite(smse) or not 0.0 < smse <= L_tot:
        causes.append("sum-MSE out of range")
        out.problems.append(f"design final sum-MSE {smse!r} outside "
                            f"(0, {L_tot}]")
    else:
        out.smse_final = float(smse)
    if result is None or not result.path_gap_trace:
        causes.append("no path gap")
        out.problems.append("design returned no legacy-vs-shortcut gap")
    elif max(result.path_gap_trace) / max(1.0, p_max) > pq_bound:
        causes.append("path gap over bound")
    if causes:
        out.failures.append(", ".join(causes))
    return out


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)
