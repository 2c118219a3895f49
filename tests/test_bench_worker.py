"""The benchmark's solve workloads run clean against the current program.

`perfbench/worker.py` drives fermigate through its public calls (build,
solve, WaveVector, density, simplex sample) and gates every operation with
`perfbench/checks.py`.  A change to one of those calls that would make the
benchmark count failed operations fails here first.  The float32
preconditioner must give the kernel requests the same solves as the float64
one it replaced, and shifting each column to its Ritz value must cut the
kernel requests' iterations against one fixed shift.
"""

import json
import os
import subprocess
import sys
import textwrap
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


ITERATION_COUNTS = textwrap.dedent(
    """
    import json
    import sys

    sys.path[:0] = sys.argv[1:]
    import inputs
    from test_manybody import fixed_shift_inverse

    from fermigate import manybody, slater, verify

    per_column = manybody._separable_inverse
    counts = {}
    for workload in ("solve_n2", "solve_n3"):
        counts[workload] = {"per_column": 0, "fixed": 0}
        for req in inputs.stream_pass(workload, 1, 0):
            if req["w"]["kind"] != "sampled-kernel":
                continue
            v, w = verify.dict_to_potential(req["v"]), verify.dict_to_interaction(req["w"])
            bc = verify.dict_to_bc(req["bc"])
            op = slater.build_problem(v, w, bc, req["n_cells"], req["n_particles"]).operator
            for name, inverse in (("per_column", per_column), ("fixed", fixed_shift_inverse)):
                manybody._separable_inverse = inverse
                counts[workload][name] += manybody.solve_mb_eig(op, req["k"]).iterations
    print(json.dumps(counts))
    """
)


@pytest.mark.parametrize("threads", [1, 2])
def test_per_column_shift_cuts_kernel_iterations(threads):
    # seed 1 at the parent's fixed shift: 57 iterations on solve_n2 and 29 on
    # solve_n3; the per-column shift needs 30 and 16.  A fresh interpreter
    # per BLAS thread count, since OpenBLAS reads it once at load
    tests = Path(__file__).resolve().parent
    src = str(Path(manybody.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": str(threads),
        "OMP_NUM_THREADS": str(threads),
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    }
    out = subprocess.run(
        [sys.executable, "-c", ITERATION_COUNTS, str(tests), str(tests.parent / "perfbench")],
        env=env, capture_output=True, text=True, check=True,
    )
    for workload, count in json.loads(out.stdout).items():
        assert count["fixed"] > 0, workload
        assert count["per_column"] <= 0.6 * count["fixed"], (workload, count)
