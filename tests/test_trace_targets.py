"""The benchmark's trace hooks name functions that still exist.

`perfbench/spans.py` wraps fermigate functions by module and name; a name
that disappears makes a traced benchmark run fail with AttributeError.  Its
count hooks read attributes of fermigate's results, so each one is also
called on real results; a data-model change that drops such an attribute
fails here instead of in a traced run.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import fermigate
from fermigate.basis import (
    BoundarySpec,
    Delta,
    SymMatrix,
    assemble_overlap,
    assemble_potential,
    assemble_stiffness,
)
from fermigate.slater import SampledKernel, assemble_manybody, build_problem, transform_two_body
from fermigate.spectrum import solve_dense_symmetric
from fermigate.verify import Scenario, run_scenario

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402

# _targets only lists what install() would wrap; it wraps nothing itself
TARGETS = [(mod, fn) for mod, fn, *_ in spans._targets(spans.Tracer(), fermigate)]


@pytest.mark.parametrize("module,function", TARGETS, ids=[f"{m}.{f}" for m, f in TARGETS])
def test_trace_target_exists(module, function):
    assert callable(getattr(importlib.import_module(f"fermigate.{module}"), function))


def test_count_hooks_read_real_results():
    tracer = spans.Tracer()
    hooks = {fn: hook for _, fn, _, hook, _ in spans._targets(tracer, fermigate) if hook}
    assert set(hooks) == {
        "transform_two_body", "assemble_manybody", "solve_dense_symmetric", "run_scenario",
    }

    x = np.linspace(0.0, 1.0, 7)
    kernel = SampledKernel(tuple(map(tuple, np.exp(-np.subtract.outer(x, x) ** 2))))
    bc = BoundarySpec.dirichlet_both()
    v = Delta(0.5, -4.0)
    prob = build_problem(v, kernel, bc, 6, 2)
    grid = prob.grid
    M = assemble_overlap(grid)
    A = SymMatrix.from_sparse(assemble_stiffness(grid).data + assemble_potential(grid, v).data)
    two_body = transform_two_body(kernel, grid, M)
    args = (A, M, two_body, prob.slater)
    hooks["transform_two_body"](two_body, (kernel, grid, M))
    hooks["assemble_manybody"](assemble_manybody(*args), args)
    H = prob.operator.matrix
    hooks["solve_dense_symmetric"](solve_dense_symmetric(H, 2), (H, 2))
    scenario = Scenario(name="sums", kind="slater_sum", params={
        "bc": {"kind": "dirichlet-both"}, "n_particles": 2, "k": 2, "n_cells": 6})
    hooks["run_scenario"](run_scenario(scenario), (scenario,))

    events = {e["what"]: e for e in tracer.events}
    assert set(events) == {"two_body", "assemble", "mb_eig", "scenario"}
    assert events["two_body"]["bytes"] > 0
    assert events["assemble"]["D"] == prob.slater.dim and events["assemble"]["h_nnz"] > 0
    assert events["mb_eig"]["k"] == 2 and events["mb_eig"]["residual_ratio"] <= 1.0
    assert events["scenario"]["rss_mb"] > 0
