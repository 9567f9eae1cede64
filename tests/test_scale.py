"""The certificate and the theorem check on square shapes at scale:
`verify` at M = 16, 32 and 64 with N_k = L_k = 2 (L_tot = M)."""

import json

import pytest

from dualprec import SolverConfig
from dualprec.cli import DEFAULT_BOUNDS, main


@pytest.mark.parametrize("sigma2", ["1e-4", "1e-8"])
@pytest.mark.parametrize("M", [16, 32, 64])
def test_square_verify_certifies(M, sigma2, tmp_path):
    K = M // 2
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
