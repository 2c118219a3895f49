"""Solves run every dense factorization and eigensolve on numpy.linalg.

numpy and scipy each bundle their own OpenBLAS, and each library keeps its
own pool of worker threads.  A solve that alternates between numpy's GEMMs
and scipy's LAPACK hands the cores back and forth between the two pools and
stalls both, so the solve path uses numpy.linalg alone.  These tests make
the scipy LAPACK wrappers raise and run whole requests through.
"""

import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import fermigate
from fermigate import basis, manybody, simplex, slater, spectrum, verify
from fermigate.basis import (
    BoundarySpec,
    Delta,
    assemble_overlap,
    assemble_potential,
    assemble_stiffness,
    build_grid_basis,
)
from fermigate.manybody import solve_mb_eig
from fermigate.simplex import restrict_to_simplex
from fermigate.slater import SampledKernel, WaveVector, build_problem, reduced_density
from fermigate.spectrum import solve_sp_eig

FORBIDDEN = ("eigh", "cholesky", "cholesky_banded", "solve_triangular", "inv")


@pytest.fixture
def no_scipy_lapack(monkeypatch):
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"scipy.linalg.{name} called in the solve path")

        return call

    for name in FORBIDDEN:
        monkeypatch.setattr(scipy.linalg, name, refuse(name))


def _gaussian_kernel(n_cells: int) -> SampledKernel:
    x = np.linspace(0.0, 1.0, n_cells + 1)
    return SampledKernel(tuple(map(tuple, 3.0 * np.exp(-np.subtract.outer(x, x) ** 2 / 0.02))))


SCIPY_LINALG = ("scipy.linalg", "scipy.sparse.linalg")


@pytest.mark.parametrize(
    "module", [spectrum, manybody, slater, basis, verify, simplex], ids=lambda m: m.__name__
)
def test_solver_modules_bind_nothing_from_scipy_linalg(module):
    for name, value in vars(module).items():
        if isinstance(value, types.ModuleType):
            assert not value.__name__.startswith(SCIPY_LINALG), name
        else:
            assert not str(getattr(value, "__module__", "")).startswith(SCIPY_LINALG), name


def test_solves_never_load_scipy_linalg():
    # in a fresh interpreter, since this module itself imports scipy.linalg; a
    # 400-dof LOBPCG solve and an N=2 inverse iteration factor both patterns
    script = textwrap.dedent(
        f"""
        import sys

        import fermigate
        from fermigate.basis import (BoundarySpec, Delta, assemble_overlap,
                                     assemble_potential, assemble_stiffness, build_grid_basis)
        from fermigate.manybody import inverse_iteration_ground
        from fermigate.slater import NoInteraction, build_problem
        from fermigate.spectrum import solve_sp_eig

        grid = build_grid_basis(401, BoundarySpec.dirichlet_both())
        res = solve_sp_eig(assemble_stiffness(grid), assemble_potential(grid, Delta(0.3, -10.0)),
                           assemble_overlap(grid), 4)
        assert grid.n_dofs == 400 and res.iterations > 0  # the LOBPCG branch
        prob = build_problem(None, NoInteraction(), BoundarySpec.quasiperiodic(-1.0), 12, 2)
        inverse_iteration_ground(prob.operator, 0.0)
        print(sorted(m for m in sys.modules if m.startswith({SCIPY_LINALG!r})))
        """
    )
    src = str(Path(fermigate.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "bc,n_cells,n_particles",
    [(BoundarySpec.dirichlet_both(), 24, 2), (BoundarySpec.quasiperiodic(1.0), 12, 3)],
    ids=["n2-dirichlet", "n3-periodic"],
)
def test_kernel_request_without_scipy_lapack(no_scipy_lapack, bc, n_cells, n_particles):
    prob = build_problem(Delta(0.4, -5.0), _gaussian_kernel(n_cells), bc, n_cells, n_particles)
    res = solve_mb_eig(prob.operator, 4)
    assert res.iterations > 0  # the kernel interacts, so Rayleigh-Ritz ran repeatedly
    psi = WaveVector(res.eigenvectors[:, 0], prob.slater)
    rho = reduced_density(psi, prob.orbitals)
    assert np.trapezoid(rho, prob.grid.nodes) == pytest.approx(n_particles, rel=1e-10)
    sample = restrict_to_simplex(psi, prob.orbitals)
    assert np.all(np.isfinite(sample.values))


@pytest.mark.parametrize("n_cells", [200, 2000])  # dense and LOBPCG branch
def test_single_particle_solve_without_scipy_lapack(no_scipy_lapack, n_cells):
    grid = build_grid_basis(n_cells, BoundarySpec.dirichlet_both())
    res = solve_sp_eig(
        assemble_stiffness(grid), assemble_potential(grid, None), assemble_overlap(grid), 3
    )
    assert (res.iterations is None) == (grid.n_dofs <= spectrum.DENSE_DIM_CAP)
    assert res.eigenvalues[0] == pytest.approx(np.pi**2, rel=1e-4)
