"""The certificate and the theorem check at scale: `verify` at M = 8, 16,
32 and 64 with N_k = L_k = 2, on L_tot = M (square) and on L_tot = M/2
and 3M/2 streams."""

import json

import pytest

from dualprec import SolverConfig
from dualprec.cli import DEFAULT_BOUNDS, main

SIGMA2 = ["1", "1e-4", "1e-8"]
SIZES = [8, 16, 32, 64]


def assert_verify_certifies(M, K, sigma2, tmp_path):
    dims = ",".join(map(str, [M, K] + [2] * (2 * K)))
    out = tmp_path / "v.json"
    rc = main(["verify", "--trials", "4", "--dims", dims, "--sigma2", sigma2,
               "--seed-base", "1", "--out", str(out)])
    records = json.loads(out.read_text())["per_trial"]
    assert rc == 0
    assert len(records) == 4
    for rec in records:
        assert rec["converged"] and rec["error"] is None, rec
        assert rec["max_residual"] <= SolverConfig().kkt_tol
        for key, bound in DEFAULT_BOUNDS.items():
            assert rec[key] <= bound, (rec["seed"], key)


@pytest.mark.parametrize("sigma2", SIGMA2)
@pytest.mark.parametrize("M", SIZES)
def test_square_verify_certifies(M, sigma2, tmp_path):
    assert_verify_certifies(M, M // 2, sigma2, tmp_path)


# L_tot > M starts from uniform powers, L_tot < M from the closed form
@pytest.mark.parametrize("sigma2", SIGMA2)
@pytest.mark.parametrize("streams", ["M/2", "3M/2"])
@pytest.mark.parametrize("M", SIZES)
def test_non_square_verify_certifies(M, streams, sigma2, tmp_path):
    K = M // 4 if streams == "M/2" else 3 * M // 4
    assert_verify_certifies(M, K, sigma2, tmp_path)
