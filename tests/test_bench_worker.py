"""The benchmark's solve workloads run clean against the current program.

`perfbench/worker.py` drives fermigate through its public calls (build,
solve, WaveVector, density, simplex sample) and gates every operation with
`perfbench/checks.py`.  A change to one of those calls that would make the
benchmark count failed operations fails here first.  The float32
preconditioner must give the kernel requests the same solves as the float64
one it replaced.
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import inputs  # noqa: E402
import worker  # noqa: E402
from test_manybody import assert_same_solve, float64_separable_inverse  # noqa: E402

from fermigate import manybody, slater, verify  # noqa: E402


@pytest.mark.parametrize("workload", ["solve_n2", "solve_n3"])
def test_stream_pass_has_no_failures(workload):
    args = types.SimpleNamespace(workload=workload, seed=1, pass_index=0)
    result = worker.stream_pass(args, None)
    assert result["ops"] and not result["run_failures"]
    assert [op["failures"] for op in result["ops"] if op["failures"]] == []


@pytest.mark.parametrize("workload", ["solve_n2", "solve_n3"])
def test_kernel_requests_match_the_float64_preconditioner(monkeypatch, workload):
    kernels = [r for r in inputs.stream_pass(workload, 1, 0) if r["w"]["kind"] == "sampled-kernel"]
    assert kernels
    for req in kernels:
        v, w = verify.dict_to_potential(req["v"]), verify.dict_to_interaction(req["w"])
        bc = verify.dict_to_bc(req["bc"])
        op = slater.build_problem(v, w, bc, req["n_cells"], req["n_particles"]).operator
        got = manybody.solve_mb_eig(op, req["k"])
        with monkeypatch.context() as m:
            m.setattr(manybody, "_separable_inverse", float64_separable_inverse)
            want = manybody.solve_mb_eig(op, req["k"])
        assert got.iterations > 0
        assert_same_solve(got, want, op.overlap)
