"""The benchmark's solve workloads run clean against the current program.

`perfbench/worker.py` drives fermigate through its public calls (build,
solve, WaveVector, density, simplex sample) and gates every operation with
`perfbench/checks.py`.  A change to one of those calls that would make the
benchmark count failed operations fails here first.
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import worker  # noqa: E402


@pytest.mark.parametrize("workload", ["solve_n2", "solve_n3"])
def test_stream_pass_has_no_failures(workload):
    args = types.SimpleNamespace(workload=workload, seed=1, pass_index=0)
    result = worker.stream_pass(args, None)
    assert result["ops"] and not result["run_failures"]
    assert [op["failures"] for op in result["ops"] if op["failures"]] == []
