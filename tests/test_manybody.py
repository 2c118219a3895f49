import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from fermigate import spectrum
from fermigate.basis import BoundarySpec, Delta, Sampled, build_grid_basis
from fermigate.errors import ConvergenceError, ShiftError
from fermigate.manybody import (
    _separable_inverse,
    _start_block,
    classify_degeneracy,
    inverse_iteration_ground,
    solve_mb_eig,
    two_grid_verdict,
)
from fermigate.slater import (
    DeltaContact,
    NoInteraction,
    SampledKernel,
    WaveVector,
    assemble_manybody_bruteforce,
    build_problem,
    enumerate_slater_basis,
    mode_product,
    wedge_coefficients,
    wedge_tensor,
)
from fermigate.spectrum import RESIDUAL_RTOL, _lobpcg
from fermigate.verify import Scenario, clear_cache, run_scenario

PI2 = np.pi**2
DIRICHLET = BoundarySpec.dirichlet_both()
PERIODIC = BoundarySpec.quasiperiodic(1.0)
ANTIPERIODIC = BoundarySpec.quasiperiodic(-1.0)
EVERY_BOUNDARY = [
    DIRICHLET,
    BoundarySpec.dirichlet_left(),
    BoundarySpec.dirichlet_right(),
    BoundarySpec.free(),
    PERIODIC,
    ANTIPERIODIC,
    BoundarySpec.line(1.0, 0.5),
]


def norm1(X):
    return float(abs(X).sum(axis=0).max())


def rayleigh(prob, c):
    """Rayleigh quotient on the pencil of orbital Slater coefficients c."""
    C = mode_product(wedge_tensor(prob.slater, c), prob.orbitals.transform)
    x = wedge_coefficients(prob.slater, C)[:, 0]
    return float(x @ (prob.operator.matrix @ x)) / float(x @ (prob.operator.overlap @ x))


@pytest.fixture(scope="module")
def free_dirichlet_40():
    return build_problem(None, NoInteraction(), DIRICHLET, 40, 2)


class TestSolveMbEig:
    def test_free_dirichlet_ground(self, free_dirichlet_40):
        res = solve_mb_eig(free_dirichlet_40.operator, 2)
        assert res.eigenvalues[0] == pytest.approx(5 * PI2, rel=2e-2)

    def test_free_periodic_degenerate_pair(self):
        prob = build_problem(None, NoInteraction(), PERIODIC, 40, 2)
        res = solve_mb_eig(prob.operator, 3)
        assert res.eigenvalues[0] == pytest.approx(4 * PI2, rel=2e-2)
        assert res.eigenvalues[1] == pytest.approx(res.eigenvalues[0], rel=1e-10)

    def test_free_antiperiodic_simple_ground(self):
        prob = build_problem(None, NoInteraction(), ANTIPERIODIC, 40, 2)
        res = solve_mb_eig(prob.operator, 3)
        assert res.eigenvalues[0] == pytest.approx(2 * PI2, rel=2e-2)
        assert res.eigenvalues[1] == pytest.approx(10 * PI2, rel=2e-2)

    def test_residual_bound(self, free_dirichlet_40):
        op = free_dirichlet_40.operator
        res = solve_mb_eig(op, 4)
        assert np.all(res.residuals <= 1e-8 * np.max(np.abs(op.dense())))
        bound = RESIDUAL_RTOL * (norm1(op.matrix) + np.abs(res.eigenvalues) * norm1(op.overlap))
        assert np.all(res.residuals <= bound)

    def test_euclidean_orthonormal(self, free_dirichlet_40):
        res = solve_mb_eig(free_dirichlet_40.operator, 4)
        G = res.eigenvectors.T @ res.eigenvectors
        assert np.max(np.abs(G - np.eye(4))) <= 1e-10

    def test_k_out_of_range(self, free_dirichlet_40):
        with pytest.raises(ValueError):
            solve_mb_eig(free_dirichlet_40.operator, 0)

    def test_variational_upper_bound(self, free_dirichlet_40):
        op = free_dirichlet_40.operator
        lam1 = solve_mb_eig(op, 1).eigenvalues[0]
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.standard_normal(op.dim)
            assert lam1 <= (x @ (op.matrix @ x)) / (x @ (op.overlap @ x)) + 1e-10

    def test_capped_iterations_raise_and_become_report_errors(self, monkeypatch):
        monkeypatch.setattr(spectrum, "LOBPCG_MAX_ITER", 1)
        nodes = np.linspace(0.0, 1.0, 25)
        kernel = SampledKernel(tuple(map(tuple, np.exp(-((nodes[:, None] - nodes) ** 2)))))
        prob = build_problem(None, kernel, DIRICHLET, 24, 2)
        with pytest.raises(ConvergenceError, match="bound"):
            solve_mb_eig(prob.operator, 2)
        # a free pencil starts at its exact eigenvectors and never iterates,
        # so the scenario needs a kernel for the cap to bite
        nodes = np.linspace(0.0, 1.0, 11)
        values = np.exp(-((nodes[:, None] - nodes) ** 2)).tolist()
        s = Scenario(
            name="capped",
            kind="simplex_positivity",
            params={"w": {"kind": "sampled-kernel", "values": values},
                    "bc": {"kind": "dirichlet-both"}, "n_particles": 3, "n_cells": 10},
        )
        clear_cache()
        rep = run_scenario(s)
        assert not rep.overall
        assert rep.error.startswith("ConvergenceError")

    def test_refinement_improves_ground_energy(self):
        exact = 5 * PI2
        errs = []
        for n in (20, 40):
            prob = build_problem(None, NoInteraction(), DIRICHLET, n, 2)
            errs.append(abs(solve_mb_eig(prob.operator, 1).eigenvalues[0] - exact))
        assert errs[1] < errs[0]


def dense_levels(op, k):
    return sla.eigh(op.dense(), op.overlap.toarray(), eigvals_only=True)[:k]


def assert_levels_match(lam, dense):
    assert np.max(np.abs(lam - dense) / np.maximum(np.abs(dense), 1.0)) <= 1e-10


def reflection_symmetric(n_cells):
    """Potential and kernel invariant under x -> 1 - x (jointly for the kernel)."""
    x = np.linspace(0.0, 1.0, n_cells + 1)
    v = Sampled(tuple(-30.0 * np.cos(2 * np.pi * x)))
    W = 100.0 * np.exp(-((x[:, None] - x) ** 2) / 0.02) + 300.0 * np.cos(np.pi * (x[:, None] + x))
    return v, SampledKernel(tuple(map(tuple, W)))


def unlocked_lobpcg(A, M, X, precond, k, a_norm, m_norm):
    """Reference LOBPCG: preconditions every column at every step and runs
    Rayleigh-Ritz on the explicit Gram matrices of [X, T R, P]; returns the
    k lowest Ritz values once the core's stopping rule holds."""
    lam, C = sla.eigh(X.T @ (A @ X), X.T @ (M @ X))
    X, P = X @ C, X[:, :0]
    for _ in range(spectrum.LOBPCG_MAX_ITER):
        R = A @ X - (M @ X) * lam
        res = np.linalg.norm(R, axis=0) / np.linalg.norm(X, axis=0)
        bound = RESIDUAL_RTOL * (a_norm + np.abs(lam) * m_norm)
        if np.all(res[:k] <= spectrum.LOBPCG_TARGET * bound[:k]):
            return lam[:k]
        Q, _ = np.linalg.qr(np.hstack([X, precond(R), P]))
        lam, C = sla.eigh(Q.T @ (A @ Q), Q.T @ (M @ Q))
        lam, C = lam[: X.shape[1]], C[:, : X.shape[1]]
        X, P = Q @ C, Q[:, X.shape[1] :] @ C[X.shape[1] :]
    raise AssertionError("reference LOBPCG did not converge")


class TestLobpcgCore:
    @pytest.mark.parametrize(
        "n_particles, n_cells, bc",
        [
            (2, 24, DIRICHLET),
            (2, 20, PERIODIC),
            (3, 12, ANTIPERIODIC),
            (3, 10, BoundarySpec.free()),
        ],
        ids=["n2-dirichlet", "n2-periodic", "n3-antiperiodic", "n3-free"],
    )
    def test_kernel_pencil(self, n_particles, n_cells, bc):
        nodes = np.linspace(0.0, 1.0, n_cells + 1)
        W = 8.0 * np.exp(-((nodes[:, None] - nodes) ** 2) / 0.02)
        kernel = SampledKernel(tuple(map(tuple, W)))
        op = build_problem(Delta(0.4, -5.0), kernel, bc, n_cells, n_particles).operator
        A, M = sp.csr_matrix(op.matrix), sp.csr_matrix(op.overlap)
        start, precond = _start_block(op, 4), _separable_inverse(op)
        columns = []

        def counted(R):
            columns.append(R.shape[1])
            return precond(R)

        lam, X, _, iterations = _lobpcg(A, M, start, counted, 4, norm1(A), norm1(M))
        assert iterations > 0
        assert np.max(np.abs(X.T @ (M @ X) - np.eye(4))) <= 1e-12
        # soft locking changes the work, not the answer
        assert sum(columns) < iterations * start.shape[1]
        ref = unlocked_lobpcg(A, M, start, precond, 4, norm1(A), norm1(M))
        assert np.max(np.abs(lam - ref) / np.abs(ref)) <= 1e-12


class TestSeparableStart:
    @pytest.mark.parametrize("bc", EVERY_BOUNDARY, ids=lambda bc: bc.kind)
    @pytest.mark.parametrize("n_particles, n_cells", [(2, 24), (3, 12)])
    @pytest.mark.parametrize("w", [NoInteraction(), DeltaContact(5.0)], ids=["free", "contact"])
    def test_free_and_contact_start_converged(self, bc, n_particles, n_cells, w):
        prob = build_problem(Delta(0.3, -4.0), w, bc, n_cells, n_particles)
        assert solve_mb_eig(prob.operator, 4).iterations == 0

    def test_kernel_iterates(self):
        v, w = reflection_symmetric(12)
        prob = build_problem(v, w, DIRICHLET, 12, 2)
        assert solve_mb_eig(prob.operator, 4).iterations > 0

    @pytest.mark.parametrize("n_particles, n_cells", [(2, 12), (3, 10)])
    def test_symmetric_kernel_reaches_every_sector(self, n_particles, n_cells):
        # v and w share the reflection, so every iterate stays in the
        # sectors its start block touches.  At k = 2 the kernel puts both
        # lowest states in the sector of the separable ground state, where
        # the wanted columns hold only one; the guard columns supply the other
        v, w = reflection_symmetric(n_cells)
        op = build_problem(v, w, DIRICHLET, n_cells, n_particles).operator
        for k in (1, 2, 7):
            assert_levels_match(solve_mb_eig(op, k).eigenvalues, dense_levels(op, k))

    def test_operator_without_orbitals_rejected(self):
        # only the oracle's operator has no orbitals; it is compared, never solved
        oracle = assemble_manybody_bruteforce(None, NoInteraction(), build_grid_basis(7, DIRICHLET))
        with pytest.raises(ValueError, match="orbitals"):
            solve_mb_eig(oracle, 3)
        with pytest.raises(ValueError, match="orbitals"):
            inverse_iteration_ground(oracle, 0.0)

    def test_block_edge_splits_a_degenerate_pair(self):
        op = build_problem(None, NoInteraction(), PERIODIC, 12, 2).operator
        dense = dense_levels(op, 8)
        split = [k for k in range(1, 8) if dense[k] - dense[k - 1] <= 1e-8 * dense[k]]
        assert split
        for k in split:
            assert_levels_match(solve_mb_eig(op, k).eigenvalues, dense[:k])


class TestSeparableInverse:
    @pytest.mark.parametrize("n_particles, n_cells", [(2, 10), (3, 8), (4, 7)])
    def test_matches_the_index_grid_reference(self, n_particles, n_cells):
        # the tie mask from int64 index grids, as the preconditioner built it before
        v, w = reflection_symmetric(n_cells)
        op = build_problem(v, w, ANTIPERIODIC, n_cells, n_particles).operator
        levels, V = op.orbitals.levels, op.orbitals.transform
        total = levels
        for _ in range(n_particles - 1):
            total = np.add.outer(total, levels)
        lowest = float(np.sum(levels[:n_particles]))
        inverse = 1.0 / (total - (lowest - max(1.0, 0.1 * abs(lowest))))
        idx = np.indices(total.shape)
        for i in range(n_particles):
            for j in range(i + 1, n_particles):
                inverse[idx[i] == idx[j]] = 0.0
        R = np.random.default_rng(n_particles).standard_normal((op.dim, 3))
        C = mode_product(wedge_tensor(op.basis, R), V.T) * inverse
        want = wedge_coefficients(op.basis, mode_product(C, V))
        assert np.array_equal(_separable_inverse(op)(R), want)


class TestClassifyDegeneracy:
    def test_periodic_three_particles_non_degenerate(self):
        rep = classify_degeneracy(None, NoInteraction(), PERIODIC, 3, (12, 24))
        assert rep.verdict == "non-degenerate"
        assert rep.gaps[1] > 4 * rep.discretization_error_estimate
        assert rep.gaps[1] == pytest.approx(12 * PI2, rel=0.15)

    def test_periodic_two_particles_degenerate(self):
        rep = classify_degeneracy(None, NoInteraction(), PERIODIC, 2, (12, 24))
        assert rep.verdict == "degenerate"

    def test_antiperiodic_three_particles_degenerate(self):
        rep = classify_degeneracy(None, NoInteraction(), ANTIPERIODIC, 3, (12, 24))
        assert rep.verdict == "degenerate"

    def test_interacting_well_non_degenerate(self):
        rep = classify_degeneracy(
            Delta(0.5, -10.0), DeltaContact(5.0), DIRICHLET, 2, (12, 24)
        )
        assert rep.verdict == "non-degenerate"

    def test_report_invariants(self):
        rep = classify_degeneracy(None, NoInteraction(), PERIODIC, 3, (12, 24))
        if rep.verdict == "non-degenerate":
            assert rep.gaps[1] > 4 * rep.discretization_error_estimate
        assert rep.discretization_error_estimate == pytest.approx(
            abs(rep.lambda1[0] - rep.lambda1[1])
        )

    def test_bad_grid_pair_rejected(self):
        with pytest.raises(ValueError, match="2n"):
            classify_degeneracy(None, NoInteraction(), PERIODIC, 2, (12, 20))

    @pytest.mark.parametrize(
        "gap_coarse,gap_fine,error,scale,verdict",
        [
            (1.0, 1.0, 0.2, 10.0, "non-degenerate"),
            (1.0, 1.0, 0.25, 10.0, "inconclusive"),  # exactly the 4x margin
            (1.0, 0.5, 0.2, 10.0, "degenerate"),  # halved under refinement
            (0.0, 1e-9, 0.0, 10.0, "degenerate"),  # below the floor 1e-9 * 10
            (0.0, 2e-8, 0.0, 10.0, "non-degenerate"),
            (0.0, 5e-10, 0.0, 0.1, "degenerate"),  # floor scale is at least 1
        ],
    )
    def test_two_grid_rule(self, gap_coarse, gap_fine, error, scale, verdict):
        assert two_grid_verdict(gap_coarse, gap_fine, error, scale) == verdict


class TestOrbitalBasis:
    @pytest.mark.parametrize("n_particles", [2, 3])
    def test_free_ground_state_is_one_determinant(self, n_particles):
        # the orbitals are the one-particle modes, so a free non-degenerate
        # ground state is the determinant of the lowest N of them
        prob = build_problem(Delta(0.3, -4.0), NoInteraction(), DIRICHLET, 16, n_particles)
        c = solve_mb_eig(prob.operator, 1).eigenvectors[:, 0]
        lowest = prob.slater.index()[tuple(range(n_particles))]
        assert abs(c[lowest]) == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(np.delete(c, lowest))) <= 1e-10


class TestInverseIteration:
    def test_one_particle_converges_to_lowest_orbital(self):
        # orbitals are the one-particle modes, so the ground state is the first
        H = build_problem(Delta(0.3, -4.0), NoInteraction(), DIRICHLET, 8, 1).operator
        psi = inverse_iteration_ground(H, 0.0)
        assert abs(psi.coefficients[0]) == pytest.approx(1.0, abs=1e-8)

    def test_matches_direct_solver_ray(self, free_dirichlet_40):
        res = solve_mb_eig(free_dirichlet_40.operator, 1)
        shift = res.eigenvalues[0] - 5.0
        psi = inverse_iteration_ground(free_dirichlet_40.operator, shift)
        overlap = abs(float(psi.coefficients @ res.eigenvectors[:, 0]))
        assert overlap >= 1.0 - 1e-8

    def test_shift_above_ground_rejected(self, free_dirichlet_40):
        res = solve_mb_eig(free_dirichlet_40.operator, 1)
        with pytest.raises(ShiftError):
            inverse_iteration_ground(free_dirichlet_40.operator, res.eigenvalues[0] + 1.0)

    def test_degenerate_case_returns_some_ground_ray(self):
        # periodic pair: any vector in the two-dimensional ground space is
        # admissible, so only the Rayleigh quotient is pinned down
        prob = build_problem(None, NoInteraction(), PERIODIC, 20, 2)
        res = solve_mb_eig(prob.operator, 2)
        psi = inverse_iteration_ground(prob.operator, res.eigenvalues[0] - 5.0)
        ray = rayleigh(prob, psi.coefficients)
        assert ray == pytest.approx(res.eigenvalues[0], abs=1e-6)
        proj = res.eigenvectors[:, :2].T @ psi.coefficients
        assert np.linalg.norm(proj) == pytest.approx(1.0, abs=1e-6)

    def test_reports_iteration_count_on_stagnation(self):
        from fermigate.errors import ConvergenceError

        H = build_problem(None, NoInteraction(), DIRICHLET, 8, 1).operator
        with pytest.raises(ConvergenceError) as err:
            inverse_iteration_ground(H, 0.0, tol=1e-16, max_iter=5)
        assert err.value.iterations == 5


class TestWaveVectorFlag:
    def test_unnormalized_allowed_when_flagged(self):
        basis = enumerate_slater_basis(4, 2)
        WaveVector(np.ones(6), basis, normalized=False)
