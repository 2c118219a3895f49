import gc
import itertools
import tracemalloc
from math import factorial

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fermigate import basis as basis_module
from fermigate import slater as slater_module
from fermigate.basis import (
    BoundarySpec,
    Delta,
    HMinusOnePair,
    Sampled,
    SymMatrix,
    _full_overlap,
    _full_potential,
    _full_stiffness,
    assemble_overlap,
    assemble_stiffness,
    build_grid_basis,
)
from fermigate.errors import CapExceededError
from fermigate.manybody import solve_mb_eig
from fermigate.slater import (
    DeltaContact,
    NoInteraction,
    SampledKernel,
    WaveVector,
    assemble_manybody,
    assemble_manybody_bruteforce,
    build_problem,
    enumerate_slater_basis,
    mode_product,
    one_body_density_matrix,
    orthonormalize_orbitals,
    reduced_density,
    reduced_pair_density,
    transform_one_body,
    transform_two_body,
    wedge_coefficients,
    wedge_tensor,
)
from fermigate.spectrum import solve_sp_eig

DIRICHLET = BoundarySpec.dirichlet_both()


def to_nodal(prob, c):
    """Nodal wedge coefficients of orbital Slater coefficients c."""
    C = mode_product(wedge_tensor(prob.slater, c), prob.orbitals.transform)
    return wedge_coefficients(prob.slater, C)[:, 0]


@pytest.fixture(scope="module")
def grid7():
    return build_grid_basis(7, DIRICHLET)


def cos_kernel(grid):
    nodes = grid.nodes
    W = np.cos(np.pi * (nodes[:, None] - nodes[None, :]))
    return SampledKernel(tuple(map(tuple, 0.5 * (W + W.T))))


class TestEnumerate:
    def test_four_choose_two(self):
        basis = enumerate_slater_basis(4, 2)
        assert basis.tuples == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

    def test_single_tuple(self):
        assert enumerate_slater_basis(3, 3).tuples == ((0, 1, 2),)

    def test_binomial_count(self):
        assert enumerate_slater_basis(30, 3).dim == 4060

    def test_lexicographic_strictly_increasing(self):
        basis = enumerate_slater_basis(7, 3)
        assert list(basis.tuples) == sorted(basis.tuples)
        assert len(set(basis.tuples)) == basis.dim
        for t in basis.tuples:
            assert all(a < b for a, b in zip(t, t[1:]))

    def test_too_many_particles_rejected(self):
        with pytest.raises(ValueError):
            enumerate_slater_basis(3, 4)

    def test_cap_enforced(self):
        with pytest.raises(CapExceededError):
            enumerate_slater_basis(60, 8)

    def test_cap_enforced_before_any_solve(self, monkeypatch):
        from fermigate import slater

        def no_solve(*args):
            raise AssertionError("solved before the cap check")

        monkeypatch.setattr(slater, "solve_pencil", no_solve)
        with pytest.raises(CapExceededError):
            build_problem(None, NoInteraction(), DIRICHLET, 60, 8)


class TestOrbitals:
    @pytest.mark.parametrize("bc", [DIRICHLET, BoundarySpec.free(), BoundarySpec.quasiperiodic(-0.5)], ids=str)
    def test_orbitals_are_the_one_particle_modes(self, monkeypatch, bc):
        from fermigate import slater

        calls = []
        solve = slater.solve_pencil
        monkeypatch.setattr(
            slater, "solve_pencil", lambda *args: calls.append(args) or solve(*args)
        )
        prob = build_problem(Delta(0.3, -4.0), cos_kernel(build_grid_basis(9, bc)), bc, 9, 2)
        assert len(calls) == 1
        orb = prob.orbitals
        assert prob.operator.orbitals is orb
        V, A, M = orb.transform, prob.one_body.dense(), prob.overlap.dense()
        scale = np.abs(A).sum(axis=0).max()
        assert np.max(np.abs(A @ V - M @ V * orb.levels)) <= 1e-12 * scale
        assert np.max(np.abs(V.T @ M @ V - np.eye(len(V)))) <= 1e-12
        assert np.max(np.abs(orb.inverse @ V - np.eye(len(V)))) <= 1e-12
        assert np.all(np.diff(orb.levels) >= 0)
        np.testing.assert_allclose(orb.nodal, prob.grid.extension.T @ V, atol=1e-15)


class TestOrthonormalize:
    def test_identity(self):
        M = SymMatrix.from_sparse(sp.identity(5, format="csr"))
        np.testing.assert_allclose(orthonormalize_orbitals(M), np.eye(5), atol=1e-15)

    def test_diagonal_scaling(self):
        M = SymMatrix.from_sparse(sp.diags([4.0, 9.0]).tocsr())
        R = orthonormalize_orbitals(M)
        np.testing.assert_allclose(R, np.diag([0.5, 1 / 3]), atol=1e-15)

    def test_mass_matrix_whitening(self, grid7):
        basis = build_grid_basis(8, DIRICHLET)
        M = assemble_overlap(basis)
        R = orthonormalize_orbitals(M)
        G = R.T @ M.dense() @ R
        assert np.max(np.abs(G - np.eye(basis.n_dofs))) <= 1e-12

    def test_indefinite_rejected(self):
        from fermigate.errors import IndefiniteMatrixError

        M = SymMatrix.from_sparse(sp.diags([1.0, -2.0]).tocsr())
        with pytest.raises(IndefiniteMatrixError):
            orthonormalize_orbitals(M)

    def test_one_body_transform(self):
        M = SymMatrix.from_sparse(sp.diags([4.0, 9.0]).tocsr())
        A = SymMatrix.from_sparse(sp.diags([2.0, 3.0]).tocsr())
        R = orthonormalize_orbitals(M)
        out = transform_one_body(A, R).dense()
        np.testing.assert_allclose(out, np.diag([0.5, 1 / 3.0]), atol=1e-14)


class TestTwoBodyTensor:
    def test_zero_contact_is_null(self, grid7):
        # antisymmetric P1 functions vanish on x = y, so contact of any
        # strength is the null term
        M = assemble_overlap(grid7)
        for g in (0.0, 5.0, -5.0):
            T = transform_two_body(DeltaContact(g), grid7, M)
            assert T.is_null
            assert T.n_orbitals == grid7.n_dofs

    def test_disjoint_support_vanishes(self, grid7):
        # only neighbouring dof pairs are stored, and wedges of distant dofs
        # never couple, interaction included
        M = assemble_overlap(grid7)
        T = transform_two_body(cos_kernel(grid7), grid7, M)
        assert T.pair_matrix.shape == (M.data.nnz, M.data.nnz)
        prob = build_problem(None, cos_kernel(grid7), DIRICHLET, 7, 2)
        idx = prob.slater.index()
        for mat in (prob.operator.dense(), prob.operator.overlap.toarray()):
            assert mat[idx[(0, 1)], idx[(3, 5)]] == 0.0
            assert mat[idx[(0, 2)], idx[(4, 5)]] == 0.0

    def test_kernel_requires_symmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            SampledKernel(((0.0, 1.0), (0.5, 0.0)))

    @pytest.mark.parametrize(
        "bc", [DIRICHLET, BoundarySpec.free(), BoundarySpec.quasiperiodic(-0.5)], ids=str
    )
    def test_kernel_pair_tensor_matches_quadrature(self, bc):
        # pairs are the nonzeros of M; each entry is checked against
        # six-point Gauss quadrature of the exact integrand
        grid = build_grid_basis(7, bc)
        M = assemble_overlap(grid)
        T = transform_two_body(cos_kernel(grid), grid, M)
        pairs = M.data.tocoo()
        x, w = np.polynomial.legendre.leggauss(6)
        pts = ((x + 1) / 2)[None, :] * grid.h + np.arange(7)[:, None] * grid.h
        pts, wts = pts.ravel(), np.tile(w / 2 * grid.h, 7)
        hats = grid.hat_values_at(pts)
        phi = hats @ grid.extension.T.toarray()
        wpts = hats @ np.asarray(cos_kernel(grid).values) @ hats.T
        f = phi[:, pairs.row] * phi[:, pairs.col] * wts[:, None]
        assert np.max(np.abs(T.pair_matrix - f.T @ wpts @ f)) <= 1e-12

    def test_kernel_tensor_symmetries(self, grid7):
        # symmetric under exchanging the coordinates and within each pair
        M = assemble_overlap(grid7)
        W = transform_two_body(cos_kernel(grid7), grid7, M).pair_matrix
        pairs = M.data.tocoo()
        flip = {(a, c): i for i, (a, c) in enumerate(zip(pairs.row, pairs.col))}
        swap = [flip[(c, a)] for a, c in zip(pairs.row, pairs.col)]
        assert np.max(np.abs(W - W.T)) <= 1e-12
        assert np.max(np.abs(W - W[swap][:, swap])) <= 1e-12


class TestSlaterCondon:
    def test_noninteracting_diagonal_sum(self):
        eps = np.array([1.0, 2.5, 4.0, 8.0])
        h = SymMatrix.from_sparse(sp.diags(eps).tocsr())
        eye = SymMatrix.from_sparse(sp.identity(4, format="csr"))
        basis = enumerate_slater_basis(4, 2)
        op = assemble_manybody(h, eye, None, basis)
        expected = np.array([eps[a] + eps[b] for (a, b) in basis.tuples])
        np.testing.assert_allclose(op.dense(), np.diag(expected), atol=1e-14)
        np.testing.assert_allclose(op.overlap.toarray(), np.eye(basis.dim), atol=1e-14)

    def test_triple_difference_exactly_zero(self, grid7):
        prob = build_problem(None, cos_kernel(grid7), DIRICHLET, 7, 3)
        H = prob.operator.dense()
        idx = prob.slater.index()
        i = idx[(0, 1, 2)]
        j = idx[(3, 4, 5)]
        assert H[i, j] == 0.0

    @pytest.mark.parametrize(
        "v,w",
        [
            (None, NoInteraction()),
            (None, DeltaContact(5.0)),
            (Delta(0.5, -10.0), DeltaContact(-5.0)),
            (Delta(0.5, -10.0), NoInteraction()),
            ("ramp", DeltaContact(5.0)),
            (None, "cos-kernel"),
            (Delta(0.3, 4.0), "cos-kernel"),
        ],
        ids=str,
    )
    def test_matches_bruteforce_oracle(self, grid7, v, w):
        if v == "ramp":
            v = Sampled(tuple(grid7.nodes))
        if w == "cos-kernel":
            w = cos_kernel(grid7)
        prob = build_problem(v, w, DIRICHLET, 7, 2)
        oracle = assemble_manybody_bruteforce(v, w, grid7, 2)
        dev = np.max(np.abs(prob.operator.dense() - oracle.dense()))
        assert dev <= 1e-10
        assert np.max(np.abs(prob.operator.overlap.toarray() - oracle.overlap)) <= 1e-10

    @pytest.mark.parametrize(
        "bc,n_cells",
        [
            (BoundarySpec.free(), 5),
            (BoundarySpec.quasiperiodic(-1.0), 6),
            (BoundarySpec.dirichlet_left(), 6),
        ],
        ids=["free", "antiperiodic", "dirichlet-left"],
    )
    def test_matches_bruteforce_across_boundary_conditions(self, bc, n_cells):
        # six orbitals in every case; interactions exercised through a kernel
        grid = build_grid_basis(n_cells, bc)
        ker = cos_kernel(grid)
        for v, w in [(Delta(0.5, -10.0), ker), (None, DeltaContact(5.0))]:
            prob = build_problem(v, w, bc, n_cells, 2)
            oracle = assemble_manybody_bruteforce(v, w, grid, 2)
            dev = np.max(np.abs(prob.operator.dense() - oracle.dense()))
            assert dev <= 1e-10
            assert np.max(np.abs(prob.operator.overlap.toarray() - oracle.overlap)) <= 1e-10

    def test_linearity_in_v(self, grid7):
        probs = [
            build_problem(Delta(0.5, g), NoInteraction(), DIRICHLET, 7, 2).operator.dense()
            for g in (0.0, 1.0, 2.0)
        ]
        np.testing.assert_allclose(probs[2] - probs[1], probs[1] - probs[0], atol=1e-11)

    def test_linearity_in_w(self, grid7):
        nodes = grid7.nodes
        W = np.exp(-4 * (nodes[:, None] - nodes[None, :]) ** 2)
        kernels = [
            SampledKernel(tuple(map(tuple, g * W))) for g in (0.0, 1.0, 2.0)
        ]
        probs = [
            build_problem(None, k, DIRICHLET, 7, 2).operator.dense() for k in kernels
        ]
        np.testing.assert_allclose(probs[2] - probs[1], probs[1] - probs[0], atol=1e-11)

    def test_contact_diagonal_linear_in_g(self, grid7):
        # antisymmetry makes the contact term vanish: slope is zero, and the
        # assembled operators for different strengths coincide
        H0 = build_problem(None, DeltaContact(0.0), DIRICHLET, 7, 2).operator.dense()
        H1 = build_problem(None, DeltaContact(3.0), DIRICHLET, 7, 2).operator.dense()
        H2 = build_problem(None, DeltaContact(6.0), DIRICHLET, 7, 2).operator.dense()
        np.testing.assert_allclose(H2 - H1, H1 - H0, atol=1e-11)
        assert np.max(np.abs(np.diag(H1) - np.diag(H0))) <= 1e-11

    def test_exact_symmetry(self, grid7):
        for n_particles in (2, 3):
            prob = build_problem(Delta(0.4, 3.0), cos_kernel(grid7), DIRICHLET, 7, n_particles)
            for mat in (prob.operator.dense(), prob.operator.overlap.toarray()):
                assert np.array_equal(mat, mat.T)


def _bilinear_at(corners, s, t):
    c00, c01, c10, c11 = corners
    return c00 * (1 - s) * (1 - t) + c01 * (1 - s) * t + c10 * s * (1 - t) + c11 * s * t


def pairwise_oracle(v, w, grid):
    """The oracle's forms pair by pair and cell by cell, with explicit loops."""
    n, h = grid.n_cells, grid.h
    Mf, Kf = _full_overlap(n, h).toarray(), _full_stiffness(n, h).toarray()
    Pf = _full_potential(v, n, h).toarray()
    U = grid.extension.T.toarray()
    tuples = enumerate_slater_basis(grid.n_dofs, 2).tuples
    states = [(np.outer(U[:, a], U[:, b]) - np.outer(U[:, b], U[:, a])) / np.sqrt(2.0)
              for a, b in tuples]

    def corners(C, kx, ky):
        return np.array([C[kx, ky], C[kx, ky + 1], C[kx + 1, ky], C[kx + 1, ky + 1]])

    def interaction(CI, CJ):
        if isinstance(w, DeltaContact):
            t, wt = np.polynomial.legendre.leggauss(5)
            t, wt = (t + 1) / 2, wt / 2
            return 2.0 * w.g * sum(
                h * np.sum(wt * _bilinear_at(corners(CI, k, k), t, t)
                           * _bilinear_at(corners(CJ, k, k), t, t))
                for k in range(n)
            )
        if isinstance(w, SampledKernel):
            t, wt = np.polynomial.legendre.leggauss(4)
            ss, tt = np.meshgrid((t + 1) / 2, (t + 1) / 2, indexing="ij")
            wgt = np.outer(wt / 2, wt / 2)
            W = np.asarray(w.values)
            return 2.0 * sum(
                h * h * np.sum(wgt * _bilinear_at(corners(CI, kx, ky), ss, tt)
                               * _bilinear_at(corners(CJ, kx, ky), ss, tt)
                               * _bilinear_at(corners(W, kx, ky), ss, tt))
                for kx in range(n) for ky in range(n)
            )
        return 0.0

    D = len(states)
    H, G = np.zeros((D, D)), np.zeros((D, D))
    for i, CI in enumerate(states):
        for j, CJ in enumerate(states):
            G[i, j] = np.sum(CI * (Mf @ CJ @ Mf))
            H[i, j] = (np.sum(CI * (Kf @ CJ @ Mf)) + np.sum(CI * (Mf @ CJ @ Kf))
                       + np.sum(CI * (Pf @ CJ @ Mf)) + np.sum(CI * (Mf @ CJ @ Pf))
                       + interaction(CI, CJ))
    return H, G


class TestBruteForce:
    @pytest.mark.parametrize("w", ["kernel", "contact"])
    @pytest.mark.parametrize(
        "bc", [BoundarySpec.free(), BoundarySpec.quasiperiodic(-1.0)], ids=["free", "antiperiodic"]
    )
    def test_batched_forms_match_pairwise_loops(self, bc, w):
        grid = build_grid_basis(5, bc)
        w = cos_kernel(grid) if w == "kernel" else DeltaContact(3.0)
        v = HMinusOnePair(0.4, (1.0, -2.0, 0.5, 0.0, 3.0))
        H, G = pairwise_oracle(v, w, grid)
        oracle = assemble_manybody_bruteforce(v, w, grid, 2)
        assert np.max(np.abs(oracle.dense() - H)) <= 1e-12 * np.max(np.abs(H))
        assert np.max(np.abs(oracle.overlap - G)) <= 1e-12 * np.max(np.abs(G))

    def test_rejects_three_particles(self, grid7):
        with pytest.raises(ValueError):
            assemble_manybody_bruteforce(None, NoInteraction(), grid7, 3)

    def test_rejects_oversize_basis(self):
        big = build_grid_basis(20, DIRICHLET)
        with pytest.raises(CapExceededError):
            assemble_manybody_bruteforce(None, NoInteraction(), big, 2)

    def test_overlap_is_wedge_gram(self, grid7):
        # the oracle's Gram matrix of hat wedges equals P'(M (x) M)P, with P
        # the antisymmetrizing scatter written out densely
        M = assemble_overlap(grid7).dense()
        oracle = assemble_manybody_bruteforce(None, NoInteraction(), grid7, 2)
        n = grid7.n_dofs
        P = np.zeros((n * n, oracle.dim))
        for j, (a, b) in enumerate(oracle.basis.tuples):
            P[a * n + b, j] = 1 / np.sqrt(2)
            P[b * n + a, j] = -1 / np.sqrt(2)
        G = P.T @ np.kron(M, M) @ P
        assert np.max(np.abs(G - oracle.overlap)) <= 1e-12


@pytest.fixture(scope="module")
def ground2():
    prob = build_problem(None, NoInteraction(), DIRICHLET, 40, 2)
    res = solve_mb_eig(prob.operator, 2)
    psi = WaveVector(res.eigenvectors[:, 0], prob.slater)
    return prob, psi


class TestReducedDensities:
    def test_single_determinant_density_formula(self, grid7):
        prob = build_problem(None, NoInteraction(), DIRICHLET, 7, 2)
        c = np.zeros(prob.slater.dim)
        c[prob.slater.index()[(0, 1)]] = 1.0
        psi = WaveVector(c, prob.slater)
        gamma = one_body_density_matrix(psi)
        expected = np.zeros((7 - 1, 7 - 1))
        expected[0, 0] = expected[1, 1] = 1.0
        np.testing.assert_allclose(gamma, expected, atol=1e-14)
        # oracle: integrate |phi_0|^2 + |phi_1|^2 against each hat by
        # quadrature and mass-average, independent of the cell-moment path
        rho = reduced_density(psi, prob.orbitals)
        x, w = np.polynomial.legendre.leggauss(8)
        pts = ((x + 1) / 2)[None, :] * prob.grid.h + np.arange(7)[:, None] * prob.grid.h
        pts, wts = pts.ravel(), np.tile(w / 2 * prob.grid.h, 7)
        hats = prob.grid.hat_values_at(pts)
        vals = hats @ prob.orbitals.nodal
        rho_pts = vals[:, 0] ** 2 + vals[:, 1] ** 2
        moments = hats.T @ (wts * rho_pts)
        weights = np.full(prob.grid.n_nodes, prob.grid.h)
        weights[0] = weights[-1] = prob.grid.h / 2
        np.testing.assert_allclose(rho, moments / weights, atol=1e-10)

    def test_density_normalization(self, ground2):
        prob, psi = ground2
        rho = reduced_density(psi, prob.orbitals)
        w = np.full(prob.grid.n_nodes, prob.grid.h)
        w[0] = w[-1] = prob.grid.h / 2
        assert abs(float(w @ rho) - 2.0) <= 1e-10

    def test_free_ground_density_pointwise(self, ground2):
        prob, psi = ground2
        rho = reduced_density(psi, prob.orbitals)
        x = prob.grid.nodes
        exact = 2 * np.sin(np.pi * x) ** 2 + 2 * np.sin(2 * np.pi * x) ** 2
        assert np.max(np.abs(rho - exact)) <= 2e-2

    def test_pair_density_single_determinant(self, grid7):
        prob = build_problem(None, NoInteraction(), DIRICHLET, 7, 2)
        c = np.zeros(prob.slater.dim)
        c[prob.slater.index()[(0, 1)]] = 1.0
        psi = WaveVector(c, prob.slater)
        rho2 = reduced_pair_density(psi, prob.orbitals)
        # oracle: |phi0(x)phi1(y) - phi1(x)phi0(y)|^2 mass-averaged via
        # two-dimensional quadrature
        x, w = np.polynomial.legendre.leggauss(6)
        pts = ((x + 1) / 2)[None, :] * prob.grid.h + np.arange(7)[:, None] * prob.grid.h
        pts, wts = pts.ravel(), np.tile(w / 2 * prob.grid.h, 7)
        hats = prob.grid.hat_values_at(pts)
        vals = hats @ prob.orbitals.nodal
        f = np.outer(vals[:, 0], vals[:, 1]) - np.outer(vals[:, 1], vals[:, 0])
        dens = f**2
        moments = hats.T @ ((wts[:, None] * wts[None, :] * dens) @ hats)
        weights = np.full(prob.grid.n_nodes, prob.grid.h)
        weights[0] = weights[-1] = prob.grid.h / 2
        np.testing.assert_allclose(rho2, moments / np.outer(weights, weights), atol=1e-10)

    def test_pair_density_properties(self, ground2):
        prob, psi = ground2
        rho2 = reduced_pair_density(psi, prob.orbitals)
        w = np.full(prob.grid.n_nodes, prob.grid.h)
        w[0] = w[-1] = prob.grid.h / 2
        assert abs(float(w @ rho2 @ w) - 2.0) <= 1e-8
        assert np.max(np.abs(rho2 - rho2.T)) == 0.0
        assert np.min(np.diag(rho2)) >= -1e-10

    def test_pair_density_requires_two_particles(self):
        prob = build_problem(None, NoInteraction(), DIRICHLET, 7, 1)
        c = np.zeros(prob.slater.dim)
        c[0] = 1.0
        with pytest.raises(ValueError):
            reduced_pair_density(WaveVector(c, prob.slater), prob.orbitals)

    def test_pair_density_three_particles(self):
        prob = build_problem(Delta(0.4, -2.0), NoInteraction(), DIRICHLET, 12, 3)
        res = solve_mb_eig(prob.operator, 1)
        psi = WaveVector(res.eigenvectors[:, 0], prob.slater)
        rho2 = reduced_pair_density(psi, prob.orbitals)
        w = np.full(prob.grid.n_nodes, prob.grid.h)
        w[0] = w[-1] = prob.grid.h / 2
        assert abs(float(w @ rho2 @ w) - 6.0) <= 1e-8

    def test_interaction_expectation_consistency(self, grid7):
        # <W> through the pencil equals the pair-density pairing with the
        # pair tensor carried over to orbital pairs
        ker = cos_kernel(grid7)
        probk = build_problem(None, ker, DIRICHLET, 7, 2)
        prob0 = build_problem(None, NoInteraction(), DIRICHLET, 7, 2)
        res = solve_mb_eig(probk.operator, 1)
        psi = WaveVector(res.eigenvectors[:, 0], probk.slater)
        from fermigate.slater import pair_density_matrix

        G = pair_density_matrix(psi)
        x = to_nodal(probk, psi.coefficients)
        via_h = x @ ((probk.operator.matrix - prob0.operator.matrix) @ x)
        n = grid7.n_dofs
        pairs = probk.overlap.data.tocoo()
        Wd = np.zeros((n, n, n, n))
        Wd[pairs.row[:, None], pairs.col[:, None], pairs.row, pairs.col] = probk.two_body.pair_matrix
        R = probk.orbitals.transform
        T = np.einsum("acbd,ap,cr,bq,ds->prqs", Wd, R, R, R, R).reshape(n * n, n * n)
        via_rho2 = np.sum(G * T)
        assert via_h == pytest.approx(via_rho2, abs=1e-12)


class TestNonInteractingSumRule:
    @pytest.mark.parametrize("n_particles", [1, 2, 3])
    def test_spectrum_equals_orbital_sums(self, n_particles):
        prob = build_problem(Delta(0.3, 4.0), NoInteraction(), DIRICHLET, 12, n_particles)
        sp_res = solve_sp_eig(prob.stiffness, prob.potential, prob.overlap, prob.grid.n_dofs)
        sums = sorted(
            sum(c) for c in itertools.combinations(sp_res.eigenvalues, n_particles)
        )[:6]
        mb = solve_mb_eig(prob.operator, 6)
        np.testing.assert_allclose(mb.eigenvalues, sums, rtol=1e-8)


BOUNDARIES = st.one_of(
    st.sampled_from(
        [
            BoundarySpec.dirichlet_both(),
            BoundarySpec.dirichlet_left(),
            BoundarySpec.dirichlet_right(),
            BoundarySpec.free(),
        ]
    ),
    st.floats(-3.0, 3.0).filter(lambda a: abs(a) >= 0.1).map(BoundarySpec.quasiperiodic),
    st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    .filter(lambda ab: abs(ab[0]) + abs(ab[1]) >= 0.1)
    .map(lambda ab: BoundarySpec.line(*ab)),
)


@st.composite
def small_problems(draw):
    """Boundary, cell count, random sampled potential, random symmetric kernel."""
    bc = draw(BOUNDARIES)
    n_cells = draw(st.integers(4, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = Sampled(tuple(rng.uniform(-5.0, 5.0, n_cells + 1)))
    W = rng.uniform(-3.0, 3.0, (n_cells + 1, n_cells + 1))
    return bc, n_cells, v, SampledKernel(tuple(map(tuple, W + W.T)))


@st.composite
def oracle_problems(draw):
    """Any boundary, any potential kind and a kernel or contact, within the oracle's cap."""
    bc = draw(BOUNDARIES)
    extra_dofs = {"dirichlet-both": -1, "free": 1}.get(bc.kind, 0)
    n_cells = draw(st.integers(4, 12 - extra_dofs))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = draw(st.sampled_from(["none", "delta", "sampled", "hminusone"]))
    v = {
        "none": None,
        "delta": Delta(float(rng.uniform(0.0, 1.0)), float(rng.uniform(-10.0, 10.0))),
        "sampled": Sampled(tuple(rng.uniform(-5.0, 5.0, n_cells + 1))),
        "hminusone": HMinusOnePair(float(rng.uniform(-2.0, 2.0)),
                                   tuple(rng.uniform(-3.0, 3.0, n_cells))),
    }[v]
    if draw(st.booleans()):
        W = rng.uniform(-3.0, 3.0, (n_cells + 1, n_cells + 1))
        w = SampledKernel(tuple(map(tuple, W + W.T)))
    else:
        w = DeltaContact(float(rng.uniform(-20.0, 20.0)))
    return bc, n_cells, v, w


class TestPencilProperties:
    @settings(max_examples=25, deadline=None)
    @given(oracle_problems())
    def test_n2_pencil_equals_oracle(self, problem):
        bc, n_cells, v, w = problem
        op = build_problem(v, w, bc, n_cells, 2).operator
        oracle = assemble_manybody_bruteforce(v, w, build_grid_basis(n_cells, bc), 2)
        assert np.max(np.abs(op.dense() - oracle.dense())) <= 1e-10
        assert np.max(np.abs(op.overlap.toarray() - oracle.overlap)) <= 1e-10

    @settings(max_examples=15, deadline=None)
    @given(small_problems(), st.sampled_from([2, 3]))
    def test_noninteracting_spectrum_is_orbital_sums(self, problem, n_particles):
        bc, n_cells, v, _ = problem
        prob = build_problem(v, NoInteraction(), bc, n_cells, n_particles)
        sp_res = solve_sp_eig(prob.stiffness, prob.potential, prob.overlap, prob.grid.n_dofs)
        sums = np.sort([sum(c) for c in itertools.combinations(sp_res.eigenvalues, n_particles)])
        k = min(4, prob.slater.dim)
        lam = solve_mb_eig(prob.operator, k).eigenvalues
        assert np.max(np.abs(lam - sums[:k]) / np.maximum(np.abs(sums[:k]), 1.0)) <= 1e-8

    @settings(max_examples=15, deadline=None)
    @given(small_problems(), st.sampled_from([2, 3]), st.integers(1, 6))
    def test_eigensolve_matches_dense_pencil(self, problem, n_particles, k):
        # the separable start must not hide any level of the interacting pencil
        bc, n_cells, v, w = problem
        op = build_problem(v, w, bc, n_cells, n_particles).operator
        k = min(k, op.dim)
        dense = sla.eigh(op.dense(), op.overlap.toarray(), eigvals_only=True)[:k]
        lam = solve_mb_eig(op, k).eigenvalues
        assert np.max(np.abs(lam - dense) / np.maximum(np.abs(dense), 1.0)) <= 1e-10

    @settings(max_examples=15, deadline=None)
    @given(small_problems(), st.floats(-20.0, 20.0), st.sampled_from([2, 3]))
    def test_contact_yields_the_free_pencil(self, problem, g, n_particles):
        bc, n_cells, v, _ = problem
        free = build_problem(v, NoInteraction(), bc, n_cells, n_particles).operator
        contact = build_problem(v, DeltaContact(g), bc, n_cells, n_particles).operator
        assert np.array_equal(contact.dense(), free.dense())
        assert np.array_equal(contact.overlap.toarray(), free.overlap.toarray())


ALL_KINDS = [
    BoundarySpec.dirichlet_both(),
    BoundarySpec.dirichlet_left(),
    BoundarySpec.dirichlet_right(),
    BoundarySpec.free(),
    BoundarySpec.quasiperiodic(1.0),
    BoundarySpec.quasiperiodic(-1.0),
    BoundarySpec.line(2.0, -0.5),
]


def neighbour_structure(M, basis):
    """Entries (J, K) where a permutation of K is a tuple of M-neighbours of J.

    The structure H_N and M_N share before exact cancellations, read off
    M's sparsity pattern wedge pair by wedge pair.
    """
    rows = np.repeat(np.arange(M.dimension), np.diff(M.data.indptr))
    adjacent = np.zeros((M.dimension, M.dimension), dtype=bool)
    adjacent[rows, M.data.indices] = True
    T = basis.array
    full = np.zeros((basis.dim, basis.dim), dtype=bool)
    for perm in itertools.permutations(range(basis.n_particles)):
        full |= np.logical_and.reduce(
            [adjacent[np.ix_(T[:, k], T[:, p])] for k, p in enumerate(perm)]
        )
    return full


def _embed(op, n, N, first):
    """op acts on the coordinates `first`, then the rest in order; reorder to 0..N-1."""
    order = list(first) + [k for k in range(N) if k not in first]
    inv = np.argsort(order)
    T = op.reshape((n,) * (2 * N)).transpose(list(inv) + [N + i for i in inv])
    return T.reshape(n**N, n**N)


def _kron(*mats):
    out = np.ones((1, 1))
    for m in mats:
        out = np.kron(out, m)
    return out


def dense_pencil(prob):
    """P'(sum_k A_(k) M_(rest) + 2 sum_{j<k} W_(jk) M_(rest))P and P' M^(N) P, densely.

    P has N! entries +-1 per column, so both are divided by N! to match the
    pencil's wedge normalization.
    """
    n, N = prob.grid.n_dofs, prob.n_particles
    A, M = prob.one_body.dense(), prob.overlap.dense()
    P = wedge_tensor(prob.slater, np.eye(prob.slater.dim)).reshape(prob.slater.dim, -1).T
    H = sum(_embed(_kron(A, *[M] * (N - 1)), n, N, (k,)) for k in range(N))
    if not prob.two_body.is_null:
        # Wd[(a, b), (c, d)] = int int phi_a phi_c (x) w phi_b phi_d (y)
        coo = prob.overlap.data.tocoo()
        pair = {(a, c): p for p, (a, c) in enumerate(zip(coo.row, coo.col))}
        Wd = np.zeros((n * n, n * n))
        for (a, c), p in pair.items():
            for (b, d), q in pair.items():
                Wd[a * n + b, c * n + d] = prob.two_body.pair_matrix[p, q]
        for j, k in itertools.combinations(range(N), 2):
            H = H + 2.0 * _embed(_kron(Wd, *[M] * (N - 2)), n, N, (j, k))
    scale = factorial(N)
    return P.T @ H @ P / scale, P.T @ _kron(*[M] * N) @ P / scale


class TestPencilAgainstDenseReference:
    @pytest.mark.parametrize("n_particles", [2, 3, 4])
    @pytest.mark.parametrize("bc", ALL_KINDS, ids=lambda b: f"{b.kind}{b.alpha or ''}{b.a or ''}")
    @pytest.mark.parametrize("kernel", [False, True], ids=["free", "kernel"])
    def test_pencil_matches_kron_reference(self, bc, n_particles, kernel):
        n_cells = 5
        rng = np.random.default_rng(n_particles)
        v = Sampled(tuple(rng.uniform(-5.0, 5.0, n_cells + 1)))
        w = NoInteraction()
        if kernel:
            Wn = rng.uniform(-3.0, 3.0, (n_cells + 1, n_cells + 1))
            w = SampledKernel(tuple(map(tuple, Wn + Wn.T)))
        prob = build_problem(v, w, bc, n_cells, n_particles)
        H_ref, M_ref = dense_pencil(prob)
        H, M = prob.operator.matrix, prob.operator.overlap
        scale = max(np.max(np.abs(H_ref)), 1.0)
        assert np.max(np.abs(H.toarray() - H_ref)) <= 1e-12 * scale
        assert np.max(np.abs(M.toarray() - M_ref)) <= 1e-12 * np.max(np.abs(M_ref))

    @pytest.mark.parametrize("n_particles", [2, 3, 4])
    @pytest.mark.parametrize("bc", ALL_KINDS, ids=lambda b: f"{b.kind}{b.alpha or ''}{b.a or ''}")
    def test_pencil_structure(self, bc, n_particles):
        n_cells = 6
        nodes = np.linspace(0.0, 1.0, n_cells + 1)
        kernel = SampledKernel(tuple(map(tuple, np.exp(-np.subtract.outer(nodes, nodes) ** 2))))
        for w in (NoInteraction(), kernel):
            prob = build_problem(Delta(0.4, 3.0), w, bc, n_cells, n_particles)
            H, M = prob.operator.matrix, prob.operator.overlap
            full = neighbour_structure(prob.overlap, prob.slater)
            for mat in (H, M):
                assert mat.has_canonical_format
                assert mat.indices.dtype == np.int32 and mat.indptr.dtype == np.int32
                dense = mat.toarray()
                assert np.array_equal(dense, dense.T)
                # the shared structure, less the entries that cancel exactly
                assert np.all(mat.data != 0.0)
                assert not np.any(dense[~full])
            if H.nnz == M.nnz == np.count_nonzero(full):
                assert np.shares_memory(H.indices, M.indices)
                assert np.shares_memory(H.indptr, M.indptr)
        # nothing cancels in a kernel pencil at N = 2
        if n_particles == 2:
            assert np.shares_memory(H.indices, M.indices)


class TestRowBlocks:
    @pytest.mark.parametrize("n_particles", [2, 3, 4])
    @pytest.mark.parametrize("bc", ALL_KINDS, ids=lambda b: f"{b.kind}{b.alpha or ''}{b.a or ''}")
    @pytest.mark.parametrize("kernel", [False, True], ids=["free", "kernel"])
    def test_blocks_of_a_few_rows_match_one_block(self, monkeypatch, bc, n_particles, kernel):
        n_cells = 7
        rng = np.random.default_rng(10 + n_particles)
        v = Sampled(tuple(rng.uniform(-5.0, 5.0, n_cells + 1)))
        w = NoInteraction()
        if kernel:
            Wn = rng.uniform(-3.0, 3.0, (n_cells + 1, n_cells + 1))
            w = SampledKernel(tuple(map(tuple, Wn + Wn.T)))
        prob = build_problem(v, w, bc, n_cells, n_particles)
        args = (prob.one_body, prob.overlap, prob.two_body, prob.slater)
        full = neighbour_structure(prob.overlap, prob.slater)
        calls = []
        upper_block = slater_module._upper_block

        def counted(J, *rest):
            calls.append(len(J))
            return upper_block(J, *rest)

        monkeypatch.setattr(slater_module, "_upper_block", counted)
        monkeypatch.setattr(slater_module, "_BLOCK_SLOTS", 1 << 62)
        whole = assemble_manybody(*args)
        assert calls == [prob.slater.dim]
        n_slots = 3**n_particles  # every dof has at most three neighbours
        for rows in (1, 2, 5):
            calls.clear()
            monkeypatch.setattr(slater_module, "_BLOCK_SLOTS", rows * n_slots)
            op = assemble_manybody(*args)
            assert len(calls) == -(-prob.slater.dim // rows) and max(calls) == rows
            for got, want in ((op.matrix, whole.matrix), (op.overlap, whole.overlap)):
                for name in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(got, name), getattr(want, name))
            H, M = op.matrix, op.overlap
            if H.nnz == M.nnz == np.count_nonzero(full):  # nothing cancels
                assert np.shares_memory(H.indices, M.indices)
                assert np.shares_memory(H.indptr, M.indptr)

    def test_one_body_entry_outside_the_mass_pattern_rejected(self):
        grid = build_grid_basis(8, DIRICHLET)
        K = assemble_stiffness(grid).data.tolil()
        K[0, 3] = K[3, 0] = 1.0
        A = SymMatrix.from_sparse(K.tocsr())
        basis = enumerate_slater_basis(grid.n_dofs, 2)
        with pytest.raises(ValueError, match=r"dof pair \(0, 3\)"):
            assemble_manybody(A, assemble_overlap(grid), None, basis)

    @pytest.mark.parametrize(
        "bc", [BoundarySpec.line(1.0, 5e-324), BoundarySpec.quasiperiodic(5e-324)], ids=["line", "qp"]
    )
    def test_underflowed_mass_entry_leaves_no_outside_entry(self, bc):
        # M's coupling entry rounds to zero while K's stays a subnormal -2e-323
        grid = build_grid_basis(4, bc)
        op = build_problem(None, DeltaContact(14.3), bc, 4, 2).operator
        oracle = assemble_manybody_bruteforce(None, DeltaContact(14.3), grid, 2)
        assert np.max(np.abs(op.dense() - oracle.dense())) <= 1e-10
        assert np.max(np.abs(op.overlap.toarray() - oracle.overlap)) <= 1e-10

    def test_peak_memory_is_a_few_pencils(self):
        # the transient arrays of one row block, not of every contribution
        prob = build_problem(None, NoInteraction(), BoundarySpec.quasiperiodic(1.0), 40, 3)
        args = (prob.one_body, prob.overlap, prob.two_body, prob.slater)
        gc.collect()
        tracemalloc.start()
        try:
            op = assemble_manybody(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = {id(a): a for m in (op.matrix, op.overlap) for a in (m.data, m.indices, m.indptr)}
        pencil = sum(a.nbytes for a in arrays.values())  # shared arrays count once
        assert op.dim == 9880
        assert peak <= 3.0 * pencil, (peak, pencil)


class TestOracleIndependence:
    def test_oracle_runs_without_the_sparse_assembly(self, monkeypatch, grid7):
        nodes = grid7.nodes
        kernel = SampledKernel(tuple(map(tuple, np.cos(np.subtract.outer(nodes, nodes)))))
        cases = [(Delta(0.3, 4.0), kernel), (HMinusOnePair(0.5, (1.0,) * 7), DeltaContact(2.0))]
        pencils = [build_problem(v, w, DIRICHLET, 7, 2).operator for v, w in cases]

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle must not use the assembly it checks")

        monkeypatch.setattr(basis_module, "_project", forbidden)
        for name in ("assemble_manybody", "_landing", "_upper_block", "_symmetric_csr",
                     "wedge_tensor", "assemble_overlap", "assemble_stiffness", "assemble_potential"):
            monkeypatch.setattr(slater_module, name, forbidden)
        for (v, w), op in zip(cases, pencils):
            oracle = assemble_manybody_bruteforce(v, w, grid7, 2)
            assert np.max(np.abs(op.dense() - oracle.dense())) <= 1e-10
            assert np.max(np.abs(op.overlap.toarray() - oracle.overlap)) <= 1e-10


class TestWaveVector:
    def test_norm_enforced(self):
        basis = enumerate_slater_basis(4, 2)
        with pytest.raises(ValueError, match="norm"):
            WaveVector(np.ones(6), basis)

    def test_non_finite_rejected(self):
        basis = enumerate_slater_basis(4, 2)
        c = np.zeros(6)
        c[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            WaveVector(c, basis)
