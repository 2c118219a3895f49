"""Boundary conditions as trace subspaces: the presets of 'line' against the
six-kind grids, and the reflection identity of the line family.

BoundarySpec has the kinds 'dirichlet-both', 'line' and 'free'.  The
one-sided Dirichlet and quasi-periodic presets are the lines (0, 1), (1, 0)
and (alpha, 1); on the grids the benchmark and the manifest use, they give
the matrices of the grid built by the six-kind rule, bit for bit.
"""

import numpy as np
import pytest
import scipy.linalg as sla

from fermigate.basis import (
    BoundarySpec,
    Delta,
    HMinusOnePair,
    Sampled,
    SymMatrix,
    assemble_overlap,
    assemble_potential,
    assemble_stiffness,
    build_grid_basis,
)
from fermigate.manybody import solve_mb_eig
from fermigate.slater import (
    NoInteraction,
    SampledKernel,
    assemble_manybody,
    build_problem,
    enumerate_slater_basis,
    transform_two_body,
)

from boundary_reference import bc_id, six_kind_grid

# the boundaries of the benchmark and the manifest, by their six-kind names
SAME_GRID = [
    ("dirichlet-both", 0.0),
    ("dirichlet-left", 0.0),
    ("free", 0.0),
    ("quasiperiodic", 1.0),
    ("quasiperiodic", -1.0),
]


def _potentials(n_cells):
    rng = np.random.default_rng(n_cells)
    return [
        None,
        Delta(0.5, -10.0),
        Delta(0.0, 4.0),
        Sampled(tuple(rng.uniform(-5.0, 5.0, n_cells + 1))),
        HMinusOnePair(0.7, tuple(rng.uniform(-2.0, 2.0, n_cells))),
    ]


def _kernel(n_cells, seed=0):
    """A symmetric kernel that is neither translation- nor reflection-invariant."""
    x = np.linspace(0.0, 1.0, n_cells + 1)
    W = 20.0 * np.exp(-np.subtract.outer(x, x) ** 2 / 0.02) * (1.0 + np.add.outer(x, x) ** 2)
    W += np.random.default_rng(seed).uniform(-1.0, 1.0, W.shape)
    return SampledKernel(tuple(map(tuple, W + W.T)))


def _pencil(grid, v, w, n_particles):
    """The pencil (H, M) that build_problem assembles, on a given grid."""
    M = assemble_overlap(grid)
    A = SymMatrix.from_sparse(assemble_stiffness(grid).data + assemble_potential(grid, v).data)
    op = assemble_manybody(A, M, transform_two_body(w, grid, M), enumerate_slater_basis(grid.n_dofs, n_particles))
    return op.matrix, op.overlap


def assert_same_csr(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)
    assert np.array_equal(np.signbit(got.data), np.signbit(want.data))


@pytest.mark.parametrize("kind, alpha", SAME_GRID, ids=[f"{k}{a or ''}" for k, a in SAME_GRID])
class TestPresetsKeepTheSixKindGrids:
    @pytest.mark.parametrize("n_cells", [4, 5, 9, 16, 72])
    def test_grid_and_one_body_matrices(self, kind, alpha, n_cells):
        old = six_kind_grid(n_cells, kind, alpha)
        new = build_grid_basis(n_cells, old.bc)
        assert new.n_dofs == old.n_dofs
        assert np.array_equal(new.dof, old.dof) and np.array_equal(new.weight, old.weight)
        assert_same_csr(assemble_overlap(new).data, assemble_overlap(old).data)
        assert_same_csr(assemble_stiffness(new).data, assemble_stiffness(old).data)
        for v in _potentials(n_cells):
            assert_same_csr(assemble_potential(new, v).data, assemble_potential(old, v).data)

    @pytest.mark.parametrize("n_particles, n_cells", [(2, 6), (2, 13), (3, 5), (3, 8)])
    @pytest.mark.parametrize("with_kernel", [False, True], ids=["free", "kernel"])
    def test_pencils(self, kind, alpha, n_particles, n_cells, with_kernel):
        old = six_kind_grid(n_cells, kind, alpha)
        v = Delta(0.3, -5.0)
        w = _kernel(n_cells) if with_kernel else NoInteraction()
        op = build_problem(v, w, old.bc, n_cells, n_particles).operator
        H, M = _pencil(old, v, w, n_particles)
        assert_same_csr(op.matrix, H)
        assert_same_csr(op.overlap, M)


@pytest.mark.parametrize("n_particles, n_cells", [(1, 24), (2, 13), (3, 9)])
def test_dirichlet_right_keeps_its_levels(n_particles, n_cells):
    # the one preset whose dofs are reordered: phi_0 comes last
    old = six_kind_grid(n_cells, "dirichlet-right")
    new = build_grid_basis(n_cells, old.bc)
    assert new.dof[0] == new.n_dofs - 1 and new.dof[n_cells] == new.n_dofs
    v, w = Delta(0.3, -5.0), _kernel(n_cells)
    got = solve_mb_eig(build_problem(v, w, old.bc, n_cells, n_particles).operator, 4).eigenvalues
    H, M = _pencil(old, v, w, n_particles)
    want = sla.eigh(H.toarray(), M.toarray(), eigvals_only=True)[:4]
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


# ---------------------------------------------------------------------------
# the reflection x -> 1 - x maps psi(0) = (a / b) psi(1) to psi(0) = (b / a) psi(1)

REFLECTED_PAIRS = [
    (BoundarySpec.dirichlet_left(), BoundarySpec.dirichlet_right()),
    (BoundarySpec.quasiperiodic(0.5), BoundarySpec.quasiperiodic(2.0)),
    (BoundarySpec.quasiperiodic(-0.3), BoundarySpec.quasiperiodic(-1 / 0.3)),
    (BoundarySpec.quasiperiodic(3.0), BoundarySpec.quasiperiodic(1 / 3.0)),
]


def _levels(v, w, bc, n_cells, n_particles):
    return solve_mb_eig(build_problem(v, w, bc, n_cells, n_particles).operator, 4).eigenvalues


def _reflected_kernel(w):
    return SampledKernel(tuple(map(tuple, np.asarray(w.values)[::-1, ::-1])))


@pytest.mark.parametrize("bc, mirror", REFLECTED_PAIRS, ids=[f"{bc_id(b)}-{bc_id(m)}" for b, m in REFLECTED_PAIRS])
@pytest.mark.parametrize("n_particles, n_cells", [(1, 40), (2, 20), (3, 12)])
@pytest.mark.parametrize("v_kind", ["delta", "sampled", "sampled-kernel"])
def test_reflection_identity(bc, mirror, n_particles, n_cells, v_kind):
    """Levels at (line(a, b), v, w) equal those at (line(b, a), v o R, w o R),
    and differ when v is left unreflected."""
    if v_kind == "delta":
        v, v_mirror, w = Delta(0.3, -5.0), Delta(0.7, -5.0), NoInteraction()
    else:
        values = np.random.default_rng(n_cells).uniform(-20.0, 20.0, n_cells + 1)
        v, v_mirror = Sampled(tuple(values)), Sampled(tuple(values[::-1]))
        w = _kernel(n_cells) if v_kind == "sampled-kernel" else NoInteraction()
    w_mirror = _reflected_kernel(w) if isinstance(w, SampledKernel) else w
    lam = _levels(v, w, bc, n_cells, n_particles)
    lam_mirror = _levels(v_mirror, w_mirror, mirror, n_cells, n_particles)
    assert np.max(np.abs(lam - lam_mirror) / np.abs(lam)) <= 1e-12
    # the control: the same boundary pair without reflecting v
    lam_control = _levels(v, w_mirror, mirror, n_cells, n_particles)
    assert np.max(np.abs(lam - lam_control) / np.abs(lam)) > 1e-3
