"""Checks on the benchmark itself, at toy sizes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import contextlib
import dataclasses
import io
import json
import os
import sys
from types import SimpleNamespace

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from checks import check_design, check_verify  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BOUNDS = {"psi_asymmetry": 1e-8, "pq_gap": 1e-6, "mse_gap": 1e-8}

TOY = {
    "ensemble-snr": dict(trials=2),
    "large-m": dict(M=8, K=4, N=(2,) * 4, L=(2,) * 4, trials=1),
    "design-loop": dict(pool=2),
}


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def prog():
    return run.Program()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_end_to_end_at_toy_size(prog, tmp_path, name, trace):
    toy = dataclasses.replace(WORKLOADS[name], **TOY[name])
    res = run.run_workload(prog, toy, seed=3, seconds=0.01, trace=trace,
                           workdir=str(tmp_path))
    assert res["attempted"] >= 1
    assert res["problems"] == []
    spec = _spec()
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == \
        {k: (run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS)[k]
         for k in res["metrics"]}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_printed_result_line_names_every_end_to_end_metric():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", "ensemble-snr", "--seed", "5",
                       "--seconds", "0.01", "--trace", "0"])
    assert rc == 0
    lines = buf.getvalue().strip().splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert set(res["metrics"]) == {m["name"] for m in _spec()["end_to_end"]}
    for name, m in res["metrics"].items():
        assert m["value"] > 0, name
        assert any(line.split()[:1] == [name] for line in lines), name


def _trial(**kw):
    rec = {"trial": 0, "seed": 1, "psi_asymmetry": 1e-15, "pq_gap": 1e-15,
           "mse_gap": 1e-15, "sum_power_dl": 10.0, "max_residual": 1e-13,
           "converged": True, "error": None}
    rec.update(kw)
    return rec


def test_checker_counts_bound_violations_and_exit_codes_as_failures():
    ok = {"per_trial": [_trial(), _trial()]}
    assert check_verify(0, ok, 2, 1e-9, BOUNDS).failures == []

    over = {"per_trial": [_trial(), _trial(pq_gap=1e-4)]}
    o = check_verify(4, over, 2, 1e-9, BOUNDS)
    assert o.failures == ["pq_gap over bound"] and o.problems == []
    o = check_verify(0, over, 2, 1e-9, BOUNDS)
    assert len(o.failures) == 1 and o.problems  # exit 0 hid a failure

    resid = {"per_trial": [_trial(max_residual=1e-6), _trial()]}
    assert len(check_verify(4, resid, 2, 1e-9, BOUNDS).failures) == 1

    conv = {"per_trial": [_trial(error="ConvergenceError", converged=False,
                                 pq_gap=None), _trial()]}
    assert check_verify(4, conv, 2, 1e-9, BOUNDS).failures == \
        ["ConvergenceError"]

    # a nonzero exit with clean records still counts as a failure
    assert check_verify(4, ok, 2, 1e-9, BOUNDS).failures == ["exit 4"]
    assert check_verify(3, ok, 2, 1e-9, BOUNDS).failures == ["exit 3"]

    result = SimpleNamespace(path_gap_trace=[1e-13])
    done = {"converged": True, "smse_trace": [0.9, 0.4]}
    assert check_design(0, done, result, 10.0, 4, 1e-6).failures == []
    capped = {"converged": False, "smse_trace": [0.9, 0.5]}
    o = check_design(3, capped, result, 10.0, 4, 1e-6)
    assert o.failures == ["not converged (exit 3)"] and o.problems == []
    assert o.smse_final == 0.5
    o = check_design(4, done, result, 10.0, 4, 1e-6)
    assert len(o.failures) == 1 and o.problems
    gap = SimpleNamespace(path_gap_trace=[1e-3])
    assert check_design(0, done, gap, 10.0, 4, 1e-6).failures == \
        ["path gap over bound"]


def test_same_seed_and_seconds_attempt_the_same_operations(prog, tmp_path):
    toy = dataclasses.replace(WORKLOADS["design-loop"], pool=3)
    runs = [run.run_workload(prog, toy, seed=4, seconds=1.0, trace=False,
                             workdir=str(tmp_path / str(i))) for i in (0, 1)]
    assert runs[0]["attempted"] == toy.rounds(1.0) == runs[1]["attempted"]
    assert runs[0]["failures"] == runs[1]["failures"]
