import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from dualprec import (BOTH, VIRTUAL_UPLINK, ChannelSet, DesignConfig,
                      DualPrecError, SolverConfig, _blas,
                      build_effective_channel, channel_to_dict, cli, design,
                      gen_channel, load_instance, random_unit_precoders,
                      save_instance, solve_power, validate, verify_theorem)
from dualprec.model import PRECODER_TAG
from oracles import certificate_from_dict, verify_trials_one_at_a_time


def run_cli(args):
    return cli.main(args)


@pytest.fixture
def instance(tmp_path):
    path = tmp_path / "inst.json"
    rc = run_cli(["gen", "--M", "4", "--K", "2", "--N", "2,2", "--L", "2,2",
                  "--sigma2", "1", "--pmax", "10", "--seed", "7",
                  "--out", str(path)])
    assert rc == 0
    return path


# ---------------------------------------------------------------------------
# gen

def test_gen_writes_valid_instance(instance):
    ch = load_instance(instance)
    assert validate(ch) == []
    assert ch.dims.M == 4 and ch.dims.N == (2, 2)


def test_gen_deterministic_hash(tmp_path, capsys):
    args = ["gen", "--M", "4", "--K", "2", "--N", "2,2", "--L", "2,2",
            "--sigma2", "1", "--pmax", "10", "--seed", "7"]
    run_cli(args + ["--out", str(tmp_path / "a.json")])
    run_cli(args + ["--out", str(tmp_path / "b.json")])
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].split("sha256:")[1] == out[1].split("sha256:")[1]


#: sha256 of `gen` outputs (M, K, N, L, seed): the per-user draws of
#: the instance format's first version.
GEN_SHA256 = [
    (("4", "2", "2,2", "2,2", "7"),
     "034e36984edd8c00b147f4296abd246620444f9abeb6103bb2366df587bbc7f5"),
    (("6", "2", "3,3", "2,2", "11"),
     "9071be9d780ade3614ba4dff0286e403e2677d24436e8110cd261035ee0b752e"),
    (("64", "32", ",".join(["2"] * 32), ",".join(["1"] * 32), "91"),
     "d2f15866b0965b0dbc880198e4532dd51fcb10e9cbaf7e36346f96804473a30c"),
]


@pytest.mark.parametrize("spec,sha", GEN_SHA256, ids=["M4", "M6", "M64"])
def test_gen_sha256_pinned(spec, sha, tmp_path, capsys):
    M, K, N, L, seed = spec
    run_cli(["gen", "--M", M, "--K", K, "--N", N, "--L", L, "--seed", seed,
             "--out", str(tmp_path / "inst.json")])
    assert capsys.readouterr().out.strip().endswith(f"sha256:{sha}")


def test_gen_rejects_L_exceeding_N(capsys):
    rc = run_cli(["gen", "--M", "2", "--K", "1", "--N", "2", "--L", "3",
                  "--sigma2", "1", "--pmax", "1"])
    assert rc == 2
    assert "L_k <= N_k" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as ei:
        run_cli(["gen", "--M", "4"])  # missing required flags
    assert ei.value.code == 2


# ---------------------------------------------------------------------------
# solve

def test_solve_report_contents(instance, tmp_path):
    out = tmp_path / "report.json"
    rc = run_cli(["solve", str(instance), "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["converged"] is True
    q = np.array(rep["q"])
    assert abs(q.sum() - 10.0) <= 1e-8
    cert = certificate_from_dict(rep["certificate"])
    assert cert.max_residual <= 1e-9
    assert len(rep["per_stream_mse"]) == 4


def test_solve_objective_reevaluation_oracle(instance, tmp_path):
    out = tmp_path / "report.json"
    run_cli(["solve", str(instance), "--out", str(out)])
    rep = json.loads(out.read_text())
    # independent re-evaluation of tr(J^-1) at the reported q
    from dualprec import (VIRTUAL_UPLINK, build_effective_channel,
                          random_unit_precoders)
    ch = load_instance(instance)
    up = random_unit_precoders(ch.dims, VIRTUAL_UPLINK,
                               seed=[rep["precoder_seed"], 1])
    eff = build_effective_channel(ch, up)
    q = np.array(rep["q"])
    J = (eff.cols * q) @ eff.cols.conj().T + ch.sigma2 * np.eye(4)
    expect = float(np.trace(np.linalg.inv(J)).real)
    assert abs(rep["objective_trace_jinv"] - expect) <= 1e-12 * expect


def test_solve_scalar_instance(tmp_path, capsys):
    inst = tmp_path / "s.json"
    run_cli(["gen", "--M", "1", "--K", "1", "--N", "1", "--L", "1",
             "--sigma2", "1", "--pmax", "3", "--seed", "1",
             "--out", str(inst)])
    out = tmp_path / "rep.json"
    rc = run_cli(["solve", str(inst), "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["q"][0] == pytest.approx(3.0, abs=1e-9)
    assert rep["certificate"]["stationarity_residual"] <= 1e-9


def test_solve_tightened_tolerance(instance, tmp_path):
    out = tmp_path / "rep.json"
    rc = run_cli(["solve", str(instance), "--kkt-tol", "1e-12",
                  "--out", str(out)])
    rep = json.loads(out.read_text())
    if rc == 0:
        assert certificate_from_dict(rep["certificate"]).max_residual <= 1e-12
    else:
        assert rc == 3 and rep["converged"] is False


def test_solve_convergence_failure_exit_3(instance, tmp_path):
    out = tmp_path / "rep.json"
    rc = run_cli(["solve", str(instance), "--max-iters", "1",
                  "--out", str(out)])
    assert rc == 3
    rep = json.loads(out.read_text())
    assert rep["converged"] is False
    assert "certificate" in rep  # partial report still emitted


def test_solve_missing_instance(tmp_path):
    rc = run_cli(["solve", str(tmp_path / "nope.json")])
    assert rc == 2


# ---------------------------------------------------------------------------
# verify

def test_verify_small_ensemble(tmp_path, capsys):
    out = tmp_path / "verify.json"
    rc = run_cli(["verify", "--trials", "10", "--dims", '4,2,"2,2","2,2"',
                  "--seed-base", "1", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["summary"]["bounds_ok"] is True
    assert rep["summary"]["max_pq_gap"] <= 1e-6
    assert len(rep["per_trial"]) == 10
    rec = rep["per_trial"][0]
    assert set(rec) == {"trial", "seed", "psi_asymmetry", "pq_gap", "mse_gap",
                        "sum_power_dl", "max_residual", "converged", "error"}
    assert rec["trial"] == 0 and rec["converged"]


def test_verify_negative_control(tmp_path):
    out = tmp_path / "nc.json"
    rc = run_cli(["verify", "--trials", "10", "--negative-control",
                  "--seed-base", "1", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["summary"]["median_psi_asymmetry"] > 1e-6
    assert rep["per_trial"][0]["pq_gap"] is None


def test_verify_bound_violation_exit_4(tmp_path):
    rc = run_cli(["verify", "--trials", "2", "--seed-base", "1",
                  "--max-psi-asym", "1e-30", "--out",
                  str(tmp_path / "v.json")])
    assert rc == 4


def test_verify_scalar_dims(tmp_path):
    out = tmp_path / "v.json"
    rc = run_cli(["verify", "--trials", "1", "--dims", "1,1,1,1",
                  "--seed-base", "3", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    t = rep["per_trial"][0]
    assert t["psi_asymmetry"] <= 1e-12
    assert t["pq_gap"] <= 1e-12
    assert t["mse_gap"] <= 1e-12


def test_verify_csv_format(tmp_path):
    out = tmp_path / "v.csv"
    rc = run_cli(["verify", "--trials", "3", "--seed-base", "1",
                  "--format", "csv", "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 3
    assert float(rows[0]["pq_gap"]) <= 1e-6


def test_verify_bad_dims_exit_2(capsys):
    assert run_cli(["verify", "--trials", "1", "--dims", "4,2,2,2"]) == 2


@pytest.mark.parametrize("args", [
    ["verify", "--trials", "1", "--sigma2", "-1"],
    ["verify", "--trials", "1", "--pmax", "0"],
    ["bench", "--trials", "1", "--sigma2", "-1"],
    ["bench", "--trials", "1", "--pmax", "0"],
    ["bench", "--trials", "1", "--dims", "4,2,2,2,3,3"],
    ["solve", "{missing_keys}"],
    ["design", "{missing_keys}"],
    ["solve", "{zero_channel}"],
    ["design", "{zero_channel}"],
    ["verify", "--trials", "1", "--max-pq-gap", "nan"],
    ["verify", "--trials", "1", "--max-mse-gap", "-1"],
    ["verify", "--trials", "1", "--kkt-tol", "nan"],
    ["gen", "--M", "2", "--K", "1", "--N", "2", "--L", "1", "--seed", "-1"],
    ["gen", "--M", "2", "--K", "1", "--N", "2", "--L", "1", "--sigma2", "nan"],
    ["gen", "--M", "2", "--K", "1", "--N", "2", "--L", "1", "--pmax", "inf"],
    ["verify", "--trials", "1", "--seed-base", "-5"],
    ["bench", "--trials", "1", "--seed-base", "-5"],
    ["solve", "{instance}", "--config", "{list_config}"],
    ["design", "{instance}", "--config", "{bad_seed_config}"],
    ["solve", "{directory}"],
    ["solve", "{instance}", "--kkt-tol", "inf"],
    ["design", "{instance}", "--config", "{inf_rel_tol_config}"],
    ["solve", "{instance}", "--config", "{fractional_iters_config}"],
    ["solve", "{instance}", "--config", "{bool_kkt_tol_config}"],
    ["solve", "{instance}", "--config", "{bool_iters_config}"],
    ["solve", "{instance}", "--config", "{bool_tol_scale_config}"],
    ["design", "{instance}", "--config", "{bool_outer_iters_config}"],
    ["design", "{instance}", "--config", "{bool_seed_config}"],
    ["design", "{instance}", "--config", "{bool_rel_tol_config}"],
    ["verify", "--config", "{fractional_trials_config}"],
    ["verify", "--config", "{bool_trials_config}"],
    ["verify", "--trials", "1", "--config", "{string_seed_base_config}"],
    ["bench", "--config", "{bool_trials_config}"],
    ["solve", "{string_sigma2}"],
    ["solve", "{bool_pmax}"],
    ["design", "{string_sigma2}"],
    ["verify", "--trials", "1", "--config", "{unknown_setting_config}"],
    ["solve", "{instance}", "--config", "{unknown_section_config}"],
    ["verify", "--trials", "1", "--config", "{unread_section_config}"],
    ["design", "{instance}", "--config", "{nested_solver_config}"],
], ids=["verify-sigma2", "verify-pmax", "bench-sigma2", "bench-pmax",
        "bench-L-above-N", "solve-missing-keys", "design-missing-keys",
        "solve-zero-channel", "design-zero-channel", "verify-nan-bound",
        "verify-negative-bound", "verify-nan-kkt-tol", "gen-negative-seed",
        "gen-nan-sigma2", "gen-inf-pmax", "verify-negative-seed-base",
        "bench-negative-seed-base", "solve-list-config",
        "design-bad-seed-config", "solve-directory", "solve-inf-kkt-tol",
        "design-inf-rel-tol-config", "solve-fractional-iters-config",
        "solve-bool-kkt-tol-config", "solve-bool-iters-config",
        "solve-bool-tol-scale-config", "design-bool-outer-iters-config",
        "design-bool-seed-config", "design-bool-rel-tol-config",
        "verify-fractional-trials-config", "verify-bool-trials-config",
        "verify-string-seed-base-config", "bench-bool-trials-config",
        "solve-string-sigma2", "solve-bool-pmax", "design-string-sigma2",
        "verify-unknown-setting-config", "solve-unknown-section-config",
        "verify-unread-section-config", "design-nested-solver-config"])
def test_bad_input_exit_2(args, instance, tmp_path):
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"dims": {"M": 2}}))
    zero = tmp_path / "zero.json"
    ch = load_instance(instance)
    save_instance(ChannelSet(dims=ch.dims, H=tuple(0 * h for h in ch.H),
                             sigma2=ch.sigma2, p_max=ch.p_max), zero)
    list_config = tmp_path / "list.json"
    list_config.write_text("[]")
    bad_seed_config = tmp_path / "seed.json"
    bad_seed_config.write_text(json.dumps({"design": {"seed": "x"}}))
    inf_rel_tol_config = tmp_path / "rel_tol.json"
    inf_rel_tol_config.write_text(
        json.dumps({"design": {"smse_rel_tol": float("inf")}}))
    fractional_iters_config = tmp_path / "iters.json"
    fractional_iters_config.write_text(
        json.dumps({"solver": {"max_iters": 2.5}}))
    paths = {"{missing_keys}": str(missing), "{zero_channel}": str(zero),
             "{instance}": str(instance), "{list_config}": str(list_config),
             "{bad_seed_config}": str(bad_seed_config),
             "{directory}": str(tmp_path),
             "{inf_rel_tol_config}": str(inf_rel_tol_config),
             "{fractional_iters_config}": str(fractional_iters_config)}
    # counts are integers and reals are numbers, never bools or strings
    for name, doc in {
            "bool_kkt_tol_config": {"solver": {"kkt_tol": True}},
            "bool_iters_config": {"solver": {"max_iters": True}},
            "bool_tol_scale_config": {"solver": {"active_tol_scale": True}},
            "bool_outer_iters_config": {"design": {"max_outer_iters": True}},
            "bool_seed_config": {"design": {"seed": True}},
            "bool_rel_tol_config": {"design": {"smse_rel_tol": True}},
            "fractional_trials_config": {"ensemble": {"trials": 2.7}},
            "bool_trials_config": {"ensemble": {"trials": True}},
            "string_seed_base_config": {"ensemble": {"seed_base": "5"}},
            "string_sigma2": dict(channel_to_dict(ch), sigma2="1"),
            "bool_pmax": dict(channel_to_dict(ch), p_max=True),
            # a name no command reads is an error, never ignored
            "unknown_setting_config": {"ensemble": {"sigma2": 0.01}},
            "unknown_section_config": {"bogus": {"kkt_tol": 1e-7}},
            "unread_section_config": {"bounds": {"pq_gap": "a"}},
            # the design's solver settings are the "solver" section
            "nested_solver_config": {"design": {"solver": {}}}}.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[f"{{{name}}}"] = str(path)
    rc = run_cli([paths.get(a, a) for a in args]
                 + ["--out", str(tmp_path / "out")])
    assert rc == 2


@pytest.mark.parametrize("args", [
    ["gen", "--M", "2", "--K", "1", "--N", "2", "--L", "1", "--seed-base",
     "9"],
    ["gen", "--M", "2", "--K", "1", "--N", "2", "--L", "1", "--format",
     "csv"],
    ["gen", "--M", "2", "--K", "1", "--N", "2", "--L", "1", "--config",
     "{config}"],
    ["solve", "{instance}", "--seed-base", "5"],
    ["design", "{instance}", "--seed-base", "5"],
    ["solve", "{instance}", "--format", "csv"],
    ["design", "{instance}", "--path", "legacy_transform"],
], ids=["gen-seed-base", "gen-format", "gen-config", "solve-seed-base",
        "design-seed-base", "solve-format", "design-legacy-path"])
def test_flag_the_subcommand_does_not_read_exit_2(args, instance, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"ensemble": {"seed_base": 9}}))
    paths = {"{config}": str(config), "{instance}": str(instance)}
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as ei:
        run_cli([paths.get(a, a) for a in args] + ["--out", str(out)])
    assert ei.value.code == 2
    assert not out.exists()


# ---------------------------------------------------------------------------
# bench

def test_bench_csv_header_contract(tmp_path):
    out = tmp_path / "bench.csv"
    rc = run_cli(["bench", "--trials", "2", "--seed-base", "5",
                  "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "trial,seed,iters,smse_final,pq_max_gap,t_legacy_us,t_shortcut_us"
    assert len(lines) == 3


def test_bench_json_same_fields(tmp_path):
    out = tmp_path / "bench.json"
    rc = run_cli(["bench", "--trials", "2", "--seed-base", "5",
                  "--format", "json", "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())
    assert set(rows[0].keys()) == set(cli.BENCH_FIELDS)
    rec = rows[0]
    assert rec["t_shortcut_us"] < rec["t_legacy_us"]
    assert rec["pq_max_gap"] <= 1e-6 * 10.0


def test_bench_rows_are_the_designs(tmp_path):
    # each row is read off design() with the legacy check beside p := q
    out = tmp_path / "bench.json"
    assert run_cli(["bench", "--trials", "4", "--format", "json",
                    "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    dims = cli.parse_dims("4,2,2,2,2,2")
    timing = {"t_legacy_us", "t_shortcut_us"}
    assert len(rows) == 4
    for t, row in enumerate(rows):
        seed = 1 + t
        res = design(gen_channel(dims, 1.0, 10.0, seed=seed),
                     DesignConfig(path=BOTH, seed=seed))
        want = {"trial": t, "seed": seed, "iters": res.iters,
                "smse_final": res.smse_trace[-1],
                "pq_max_gap": max(res.path_gap_trace)}
        assert {k: v for k, v in row.items() if k not in timing} == want
        assert all(row[k] > 0 for k in timing)


def test_bench_trial_failure_exit_3(tmp_path):
    rc = run_cli(["bench", "--trials", "2", "--max-iters", "1",
                  "--out", str(tmp_path / "bench.csv")])
    assert rc == 3


# ---------------------------------------------------------------------------
# design

def test_design_json_report(instance, tmp_path):
    out = tmp_path / "design.json"
    rc = run_cli(["design", str(instance), "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["converged"] is True
    tr = np.array(rep["smse_trace"])
    assert np.all(np.diff(tr) <= 1e-10)
    assert np.allclose(rep["q"], rep["p"])
    rejected = rep["rejected_extrapolations"]
    assert isinstance(rejected, int) and rejected >= 0


def test_design_csv_trace(instance, tmp_path):
    out = tmp_path / "trace.csv"
    rc = run_cli(["design", str(instance), "--format", "csv",
                  "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.open()))
    assert rows[0]["iteration"] == "0"
    assert float(rows[-1]["smse"]) <= float(rows[0]["smse"])


def test_design_both_path(instance, tmp_path):
    out = tmp_path / "design.json"
    rc = run_cli(["design", str(instance), "--path", "both",
                  "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["transform_time_s"] > rep["shortcut_time_s"]


def test_design_capped_report_exit_3(tmp_path):
    # the outer-iteration cap ends the design: exit 3, with the partial
    # design reported
    inst, out = tmp_path / "inst.json", tmp_path / "design.json"
    assert run_cli(["gen", "--M", "4", "--K", "2", "--N", "4,4", "--L", "2,2",
                    "--seed", "1000", "--out", str(inst)]) == 0
    rc = run_cli(["design", str(inst), "--max-outer-iters", "2",
                  "--out", str(out)])
    assert rc == 3
    rep = json.loads(out.read_text())
    assert rep["converged"] is False
    assert rep["iters"] == 2
    assert len(rep["smse_trace"]) == 2


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_design_solver_failure_exit_3(fmt, instance, tmp_path, capsys):
    # the first power solve fails, so there is no design to report
    out = tmp_path / "design.out"
    rc = run_cli(["design", str(instance), "--max-iters", "1",
                  "--format", fmt, "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("design: ")
    assert not out.exists()


@pytest.mark.parametrize("field,value", [
    ("M", 4.9), ("K", 2.0), ("N", [2.9, 2]), ("L", ["2", "2"]),
    ("seed", 3.7), ("M", True)],
    ids=["M-float", "K-float", "N-float", "L-strings", "seed-float",
         "M-bool"])
@pytest.mark.parametrize("command", ["solve", "design"])
def test_instance_non_integer_field_exit_2(command, field, value, tmp_path,
                                           capsys):
    # counts and seeds are JSON integers; nothing truncates them silently
    inst = tmp_path / "inst.json"
    run_cli(["gen", "--M", "4", "--K", "2", "--N", "2,2", "--L", "2,2",
             "--seed", "3", "--out", str(inst)])
    doc = json.loads(inst.read_text())
    (doc if field == "seed" else doc["dims"])[field] = value
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "rep.json"
    assert run_cli([command, str(inst), "--out", str(out)]) == 2
    assert "must be an integer" in capsys.readouterr().err
    assert not out.exists()


def test_verify_trial_numerics_error_recorded(tmp_path):
    out = tmp_path / "v.json"
    rc = run_cli(["verify", "--trials", "1", "--dims", "4,2,2,2,2,2",
                  "--pmax", "1e300", "--out", str(out)])
    assert rc == 4
    rep = json.loads(out.read_text())
    assert rep["per_trial"][0]["error"] == "NumericsError"
    assert rep["summary"]["failures"] == 1


def test_verify_theorem_failure_keeps_the_certificate(tmp_path):
    # the solve converges; only the duality step fails
    out = tmp_path / "v.json"
    run_cli(["verify", "--trials", "1", "--dims", "4,2,2,2,2,2",
             "--pmax", "1e300", "--out", str(out)])
    rec = json.loads(out.read_text())["per_trial"][0]
    assert rec["error"] == "NumericsError" and rec["converged"] is True
    assert rec["max_residual"] is not None
    assert rec["max_residual"] <= SolverConfig().kkt_tol


def test_verify_records_do_not_depend_on_the_batch(monkeypatch, tmp_path):
    # seed 48 fails to certify at 70 dB, so one batch holds a failure
    args = ["verify", "--trials", "7", "--dims", "4,2,2,2,2,2",
            "--sigma2", "1e-6", "--seed-base", "45"]
    reports = []
    for batch in (cli.VERIFY_BATCH, 3, 1):
        monkeypatch.setattr(cli, "VERIFY_BATCH", batch)
        out = tmp_path / f"v{batch}.json"
        assert run_cli(args + ["--out", str(out)]) == 4
        reports.append(out.read_text())
    assert reports[0] == reports[1] == reports[2]
    records = json.loads(reports[0])["per_trial"]
    assert [r["error"] for r in records] == [None] * 3 + [
        "ConvergenceError"] + [None] * 3


def test_verify_records_equal_one_trial_at_a_time(tmp_path):
    # two full batches and a partial one against verify_theorem per trial
    out = tmp_path / "v.json"
    run_cli(["verify", "--trials", "130", "--sigma2", "10", "--seed-base",
             "1", "--out", str(out)])
    records = json.loads(out.read_text())["per_trial"]
    assert len(records) == 130 > 2 * cli.VERIFY_BATCH
    dims = cli.parse_dims("4,2,2,2,2,2")
    for rec in records:
        seed = rec["seed"]
        ch = gen_channel(dims, 10.0, 10.0, seed=seed)
        up = random_unit_precoders(dims, VIRTUAL_UPLINK,
                                   seed=[seed, PRECODER_TAG])
        eff = build_effective_channel(ch, up)
        want = dict(rec, psi_asymmetry=None, pq_gap=None, mse_gap=None,
                    sum_power_dl=None, error=None)
        try:
            q, cert = solve_power(eff, ch.sigma2, ch.p_max)
            rep = verify_theorem(ch, up, q, state=cert.state)
        except DualPrecError as e:
            want["error"] = type(e).__name__
        else:
            want.update(psi_asymmetry=rep.psi_asymmetry, pq_gap=rep.pq_gap,
                        mse_gap=rep.mse_gap, sum_power_dl=rep.sum_power_dl,
                        max_residual=cert.max_residual)
        assert rec == want


@pytest.mark.parametrize("args,errors", [
    (["--sigma2", "1"], [None] * 6),
    (["--sigma2", "1e-6", "--seed-base", "45"],
     [None] * 3 + ["ConvergenceError"] + [None] * 2),
    (["--negative-control"], [None] * 6),
    (["--sigma2", "1e-14", "--seed-base", "108"],
     [None] * 3 + ["NumericsError"] + [None] * 2),
], ids=["sigma2-1", "sigma2-1e-6", "negative-control", "unfactorable"])
def test_verify_bytes_equal_a_per_trial_run(args, errors, monkeypatch,
                                             tmp_path):
    # the stacked instances, solves and checks against one trial at a time
    # on the per-user draws; a failing trial keeps its error in its own row
    reports = {}
    for side in ("stacked", "per_trial"):
        if side == "per_trial":
            monkeypatch.setattr(cli, "_verify_trials",
                                verify_trials_one_at_a_time)
        for fmt in ("json", "csv"):
            out = tmp_path / f"{side}.{fmt}"
            rc = run_cli(["verify", "--trials", "6", "--format", fmt,
                          "--out", str(out)] + args)
            reports[side, fmt] = rc, out.read_bytes()
    for fmt in ("json", "csv"):
        assert reports["stacked", fmt] == reports["per_trial", fmt]
    records = json.loads(reports["stacked", "json"][1])["per_trial"]
    assert [r["error"] for r in records] == errors


def test_verify_unfactorable_trial_recorded(tmp_path):
    # at sigma2 = 1e-14 trial 110 (seed 111) cannot factor its covariance;
    # the trials around it report what they report without it
    args = ["verify", "--sigma2", "1e-14"]
    reports = {}
    for extra in (["--trials", "200"], ["--trials", "110"],
                  ["--trials", "89", "--seed-base", "112"]):
        out = tmp_path / "v.json"
        reports[extra[1]] = run_cli(args + extra + ["--out", str(out)]), \
            json.loads(out.read_text())["per_trial"]
    rc, records = reports["200"]
    assert rc == 4
    assert records[110]["seed"] == 111
    assert records[110]["error"] == "NumericsError"
    assert records[110]["max_residual"] is None
    assert records[:110] == reports["110"][1]
    assert records[111:] == [dict(r, trial=r["trial"] + 111)
                             for r in reports["89"][1]]


@pytest.mark.parametrize("sigma2", ["1e-17", "1e-300"])
def test_verify_unfactorable_single_trial(sigma2, tmp_path):
    out = tmp_path / "v.json"
    rc = run_cli(["verify", "--trials", "1", "--seed-base", "2", "--sigma2",
                  sigma2, "--out", str(out)])
    assert rc == 4
    assert json.loads(out.read_text())["per_trial"][0]["error"] == \
        "NumericsError"


def test_verify_fewer_streams_than_antennas_at_high_snr(tmp_path):
    # M = 8, L_tot = 4 at sigma2 = 1e-12: the M x M covariance lost the
    # gains to rounding here and every solve ended in ConvergenceError;
    # the kernel's L x L stream domain certifies them all.  The exit code
    # is not asserted: the theorem check's pq_gap (ROADMAP item 11) still
    # cancels at this SNR.
    out = tmp_path / "v.json"
    run_cli(["verify", "--trials", "5", "--dims", "8,4,2,2,2,2,1,1,1,1",
             "--sigma2", "1e-12", "--out", str(out)])
    records = json.loads(out.read_text())["per_trial"]
    assert [(r["converged"], r["error"]) for r in records] == \
        [(True, None)] * 5


def test_bench_unfactorable_trials_exit_3(tmp_path, capsys):
    rc = run_cli(["bench", "--trials", "2", "--sigma2", "1e-300",
                  "--out", str(tmp_path / "b.csv")])
    assert rc == 3
    assert "failures = 2" in capsys.readouterr().err


@pytest.mark.parametrize("command,sigma2,seed", [
    ("solve", "1e-14", "111"), ("design", "1e-300", "108")])
def test_unfactorable_instance_one_line_exit_3(command, sigma2, seed,
                                               tmp_path, capsys):
    inst, out = tmp_path / "inst.json", tmp_path / "rep.json"
    assert run_cli(["gen", "--M", "4", "--K", "2", "--N", "2,2", "--L",
                    "2,2", "--sigma2", sigma2, "--seed", seed,
                    "--out", str(inst)]) == 0
    capsys.readouterr()
    assert run_cli([command, str(inst), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"{command}: covariance not positive definite")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("extra", [[], ["--negative-control"]])
def test_verify_non_finite_covariance_recorded(extra, tmp_path):
    # p_max = 1e308 is a valid input, but every J overflows to inf
    out = tmp_path / "v.json"
    rc = run_cli(["verify", "--trials", "3", "--pmax", "1e308",
                  "--out", str(out)] + extra)
    assert rc == 4
    assert [r["error"] for r in json.loads(out.read_text())["per_trial"]] \
        == ["NumericsError"] * 3


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings included
@pytest.mark.parametrize("command", ["solve", "design"])
def test_non_finite_covariance_one_line_exit_3(command, tmp_path, capsys):
    inst, out = tmp_path / "inst.json", tmp_path / "rep.json"
    assert run_cli(["gen", "--M", "4", "--K", "2", "--N", "2,2", "--L",
                    "2,2", "--pmax", "1e308", "--seed", "1",
                    "--out", str(inst)]) == 0
    capsys.readouterr()
    assert run_cli([command, str(inst), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(
        f"{command}: covariance not positive definite or not finite")
    assert err.count("\n") == 1
    assert not out.exists()


def test_bench_non_finite_covariance_exit_3(tmp_path, capsys):
    rc = run_cli(["bench", "--trials", "2", "--pmax", "1e308",
                  "--out", str(tmp_path / "b.csv")])
    assert rc == 3
    assert "failures = 2" in capsys.readouterr().err


def test_main_dispatches_to_the_current_command(monkeypatch):
    # the parser is built once, but each call looks its command up afresh
    calls = []
    monkeypatch.setattr(cli, "cmd_gen", lambda ns: calls.append("gen") or 0)
    assert run_cli(["gen", "--M", "1", "--K", "1", "--N", "1", "--L",
                    "1"]) == 0
    monkeypatch.setattr(cli, "cmd_verify",
                        lambda ns: calls.append(("verify", ns.trials)) or 5)
    assert run_cli(["verify", "--trials", "3"]) == 5
    assert calls == ["gen", ("verify", 3)]


def test_json_reports_carry_blas_threads(instance, tmp_path, capsys):
    threads = _blas.blas_threads()
    for args in (["solve", str(instance)], ["design", str(instance)],
                 ["verify", "--trials", "1"]):
        out = tmp_path / f"{args[0]}.json"
        assert run_cli(args + ["--out", str(out)]) == 0
        assert json.loads(out.read_text())["blas_threads"] == threads
    assert f"blas_threads = {threads}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config file merging and the installed entry point

def test_config_file_merging(instance, tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"solver": {"kkt_tol": 1e-7}}))
    out = tmp_path / "rep.json"
    rc = run_cli(["solve", str(instance), "--config", str(cfgp),
                  "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["kkt_tol"] == 1e-7
    # flag overrides file
    rc = run_cli(["solve", str(instance), "--config", str(cfgp),
                  "--kkt-tol", "1e-8", "--out", str(out)])
    assert json.loads(out.read_text())["kkt_tol"] == 1e-8


def test_module_invocation_subprocess(tmp_path):
    inst = tmp_path / "i.json"
    r = subprocess.run([sys.executable, "-m", "dualprec.cli", "gen",
                        "--M", "2", "--K", "1", "--N", "2", "--L", "1",
                        "--sigma2", "1", "--pmax", "2", "--seed", "0",
                        "--out", str(inst)],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert "sha256:" in r.stdout
    r = subprocess.run([sys.executable, "-m", "dualprec.cli", "solve",
                        str(inst)], capture_output=True, text=True)
    assert r.returncode == 0
    assert json.loads(r.stdout)["converged"] is True
