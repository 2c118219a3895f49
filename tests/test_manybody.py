import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fermigate import manybody, slater, spectrum
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
    assemble_manybody_bruteforce,
    build_problem,
)
from fermigate.spectrum import RESIDUAL_RTOL, _lobpcg
from fermigate.verify import Scenario, clear_cache, run_scenario

from boundary_reference import bc_id
from wedge_reference import mode_product, to_orbital, wedge_coefficients, wedge_tensor

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


def rayleigh(op, x):
    """Rayleigh quotient of the pencil at nodal wedge coefficients x."""
    return float(x @ (op.matrix @ x)) / float(x @ (op.overlap @ x))


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

    def test_m_orthonormal(self, free_dirichlet_40):
        op = free_dirichlet_40.operator
        res = solve_mb_eig(op, 4)
        G = res.eigenvectors.T @ (op.overlap @ res.eigenvectors)
        assert np.max(np.abs(G - np.eye(4))) <= 1e-10

    def test_mis_scaled_eigenvectors_raise(self, monkeypatch, free_dirichlet_40):
        lobpcg = manybody._lobpcg

        def scaled(*args):
            lam, X, res, iterations = lobpcg(*args)
            return lam, (1.0 + 1e-8) * X, res, iterations

        monkeypatch.setattr(manybody, "_lobpcg", scaled)
        with pytest.raises(ConvergenceError, match="M-orthonormal"):
            solve_mb_eig(free_dirichlet_40.operator, 2)

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
        Q, _ = np.linalg.qr(np.hstack([X, precond(R, lam), P]))
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

        def counted(R, theta):
            columns.append(R.shape[1])
            return precond(R, theta)

        lam, X, _, iterations = _lobpcg(A, M, start, counted, 4, norm1(A), norm1(M))
        assert iterations > 0
        assert np.max(np.abs(X.T @ (M @ X) - np.eye(4))) <= 1e-12
        # soft locking changes the work, not the answer
        assert sum(columns) < iterations * start.shape[1]
        ref = unlocked_lobpcg(A, M, start, precond, 4, norm1(A), norm1(M))
        assert np.max(np.abs(lam - ref) / np.abs(ref)) <= 1e-12


class TestSeparableStart:
    @pytest.mark.parametrize("bc", EVERY_BOUNDARY, ids=bc_id)
    @pytest.mark.parametrize("n_particles, n_cells", [(2, 24), (3, 12)])
    @pytest.mark.parametrize("w", [NoInteraction(), DeltaContact(5.0)], ids=["free", "contact"])
    def test_free_and_contact_start_converged(self, bc, n_particles, n_cells, w):
        prob = build_problem(Delta(0.3, -4.0), w, bc, n_cells, n_particles)
        assert solve_mb_eig(prob.operator, 4).iterations == 0

    @pytest.mark.parametrize(
        "n_particles, n_cells, bc",
        [(2, 72, BoundarySpec.free()), (3, 40, DIRICHLET), (3, 30, PERIODIC), (4, 14, ANTIPERIODIC)],
        ids=["n2-free", "n3-dirichlet", "n3-periodic", "n4-antiperiodic"],
    )
    def test_start_equals_the_dense_mode_products(self, n_particles, n_cells, bc):
        op = build_problem(Delta(0.3, -4.0), NoInteraction(), bc, n_cells, n_particles).operator
        for k in (1, 4, 7):
            products = slater.enumerate_slater_basis(k + n_particles - 1, n_particles)
            levels = op.orbitals.levels[products.array].sum(axis=1)
            unit = np.zeros((products.dim, k))
            unit[np.argsort(levels, kind="stable")[:k], np.arange(k)] = 1.0
            B = op.orbitals.transform[:, : products.n_orbitals]
            want = wedge_coefficients(op.basis, mode_product(wedge_tensor(products, unit), B))
            assert _start_block(op, k)[:, :k].tobytes() == np.ascontiguousarray(want).tobytes()

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
        # only the oracle's operator has no orbitals; solve_mb_eig needs them
        oracle = assemble_manybody_bruteforce(None, NoInteraction(), build_grid_basis(7, DIRICHLET))
        with pytest.raises(ValueError, match="orbitals"):
            solve_mb_eig(oracle, 3)

    def test_inverse_iteration_on_the_oracle_matches_the_pencil(self):
        # inverse iteration needs no orbitals: on the oracle's pencil it
        # finds the sparse pencil's ground vector
        v, grid = Delta(0.5, -10.0), build_grid_basis(7, DIRICHLET)
        w = SampledKernel(tuple(map(tuple, 5.0 * np.exp(-np.subtract.outer(grid.nodes, grid.nodes) ** 2))))
        op = build_problem(v, w, DIRICHLET, 7, 2).operator
        res = solve_mb_eig(op, 1)
        lam = float(res.eigenvalues[0])
        oracle = assemble_manybody_bruteforce(v, w, grid)
        x = inverse_iteration_ground(oracle, lam - max(1.0, 0.1 * abs(lam))).coefficients
        assert abs(float(x @ (op.overlap @ res.eigenvectors[:, 0]))) >= 1.0 - 1e-8

    def test_block_edge_splits_a_degenerate_pair(self):
        op = build_problem(None, NoInteraction(), PERIODIC, 12, 2).operator
        dense = dense_levels(op, 8)
        split = [k for k in range(1, 8) if dense[k] - dense[k - 1] <= 1e-8 * dense[k]]
        assert split
        for k in split:
            assert_levels_match(solve_mb_eig(op, k).eigenvalues, dense[:k])


def separable_levels(op):
    """The separable levels on the n^N mode grid, with its tie mask from
    int64 index grids: (levels, tied)."""
    N, levels = op.basis.n_particles, op.orbitals.levels
    total = levels
    for _ in range(N - 1):
        total = np.add.outer(total, levels)
    idx = np.indices(total.shape)
    tied = np.zeros(total.shape, dtype=bool)
    for i in range(N):
        for j in range(i + 1, N):
            tied |= idx[i] == idx[j]
    return total, tied


def float64_separable_inverse(op):
    """The preconditioner in float64, column i shifted to theta_i - delta_i
    with delta_i = max(1, |theta_i| / 10) and its weights clipped to
    1 / delta_i, by tensordot mode products: the reference for the float32
    apply."""
    V = op.orbitals.transform
    total, tied = separable_levels(op)

    def apply(R, theta):
        C = mode_product(wedge_tensor(op.basis, R), V.T)
        for i, t in enumerate(theta):
            delta = max(1.0, 0.1 * abs(t))
            weight = np.clip(1.0 / (total - (t - delta)), -1.0 / delta, 1.0 / delta)
            weight[tied] = 0.0
            C[i] *= weight
        return wedge_coefficients(op.basis, mode_product(C, V))

    return apply


def fixed_shift_inverse(op):
    """The preconditioner with one fixed shift for every column, a tenth
    of the level (at least one unit) below the lowest separable level, in
    float64: it ignores theta.  The baseline the per-column shift must beat."""
    N, levels, V = op.basis.n_particles, op.orbitals.levels, op.orbitals.transform
    total, tied = separable_levels(op)
    lowest = float(np.sum(levels[:N]))
    inverse = 1.0 / (total - (lowest - max(1.0, 0.1 * abs(lowest))))
    inverse[tied] = 0.0

    def apply(R, theta):
        C = mode_product(wedge_tensor(op.basis, R), V.T) * inverse
        return wedge_coefficients(op.basis, mode_product(C, V))

    return apply


def gaussian_kernel(n_cells, strength=20.0, width=0.1):
    x = np.linspace(0.0, 1.0, n_cells + 1)
    return SampledKernel(tuple(map(tuple, strength * np.exp(-((x[:, None] - x) ** 2) / (2 * width**2)))))


def assert_same_solve(got, want, M):
    """Equal eigenvalues at 1e-12, M-parallel eigenvectors, equal iteration counts."""
    assert got.iterations == want.iterations
    assert np.max(np.abs(got.eigenvalues - want.eigenvalues) / np.abs(want.eigenvalues)) <= 1e-12
    overlaps = np.abs(np.sum(got.eigenvectors * (M @ want.eigenvectors), axis=0))
    assert np.min(overlaps) >= 1.0 - 1e-10


class TestSeparableInverse:
    @pytest.mark.parametrize("bc", EVERY_BOUNDARY, ids=bc_id)
    @pytest.mark.parametrize("n_particles, n_cells", [(1, 10), (2, 10), (3, 8), (4, 7), (5, 7)])
    def test_matches_the_float64_reference(self, n_particles, n_cells, bc):
        v, w = reflection_symmetric(n_cells)
        op = build_problem(v, w, bc, n_cells, n_particles).operator
        R = np.random.default_rng(n_particles).standard_normal((op.dim, 3))
        # below every separable level (a definite apply), half a shift above
        # the fourth level, and at the median level (indefinite ones)
        eps = np.sort(op.orbitals.levels[op.basis.array].sum(axis=1))
        theta = np.array([eps[0] - 5.0, eps[3] + 0.5 * max(1.0, 0.1 * abs(eps[3])), np.median(eps)])
        delta = np.maximum(1.0, 0.1 * np.abs(theta))
        gaps = np.abs(eps[:, None] - (theta - delta))
        # some level lies within delta of the second shift, so its weight is clipped
        assert np.any(gaps[:, 1] < delta[1])
        got = _separable_inverse(op)(R, theta)
        want = float64_separable_inverse(op)(R, theta)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "n_particles, n_cells, bc",
        [
            (2, 20, BoundarySpec.free()),
            (2, 20, BoundarySpec.line(1.0, 0.5)),
            (2, 18, PERIODIC),
            (3, 12, DIRICHLET),
            (3, 11, BoundarySpec.free()),
            (3, 10, BoundarySpec.line(0.3, -2.0)),
            (4, 9, ANTIPERIODIC),
            (4, 8, BoundarySpec.free()),
            (5, 8, PERIODIC),
            (5, 7, BoundarySpec.line(1.0, 0.5)),
        ],
        ids=lambda p: getattr(p, "kind", str(p)),
    )
    def test_kernel_solve_matches_the_float64_preconditioner(self, monkeypatch, n_particles, n_cells, bc):
        op = build_problem(Delta(0.3, -5.0), gaussian_kernel(n_cells), bc, n_cells, n_particles).operator
        k = 4 if n_particles <= 3 else 2
        got = solve_mb_eig(op, k)
        monkeypatch.setattr(manybody, "_separable_inverse", float64_separable_inverse)
        want = solve_mb_eig(op, k)
        assert got.iterations > 0
        assert_same_solve(got, want, op.overlap)

    def test_tables_are_built_on_first_apply(self):
        # free and contact pencils return at iteration 0 and never apply it
        op = build_problem(Delta(0.3, -4.0), NoInteraction(), BoundarySpec.free(), 40, 3).operator
        n, N = op.orbitals.levels.size, op.basis.n_particles
        tracemalloc.start()
        try:
            _separable_inverse(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * n**N * 4

    def test_apply_never_forms_the_float64_tensor(self, monkeypatch):
        # every tensor the apply scatters or multiplies inside a kernel solve is float32
        op = build_problem(Delta(0.3, -5.0), gaussian_kernel(10), DIRICHLET, 10, 3).operator
        matmul, scatter = np.matmul, manybody.scatter_orderings
        operands, scattered, applies = [], [], []

        def recording_matmul(*args, **kwargs):
            operands.extend(np.asarray(a).dtype for a in args)
            return matmul(*args, **kwargs)

        def recording_scatter(table, values):
            scattered.append(values.dtype)
            return scatter(table, values)

        def traced_inverse(op_):
            apply = _separable_inverse(op_)

            def traced(R, theta):
                applies.append(R.shape)
                with monkeypatch.context() as m:
                    m.setattr(np, "matmul", recording_matmul)
                    m.setattr(manybody, "scatter_orderings", recording_scatter)
                    return apply(R, theta)

            return traced

        monkeypatch.setattr(manybody, "_separable_inverse", traced_inverse)
        res = solve_mb_eig(op, 4)
        assert res.iterations > 0 and len(applies) >= res.iterations
        # each apply changes the basis along N axes, there and back
        assert len(operands) == len(applies) * 2 * op.basis.n_particles * 2
        assert set(operands) == {np.dtype(np.float32)}
        assert scattered == [np.dtype(np.float32)] * len(applies)
        assert_levels_match(res.eigenvalues, dense_levels(op, 4))


def distance_kernel(n_cells, strength, width, distance):
    """Gaussian kernel of the line distance |x - y| or the ring distance
    min(|x - y|, 1 - |x - y|), sampled on the nodes."""
    x = np.linspace(0.0, 1.0, n_cells + 1)
    d = np.abs(np.subtract.outer(x, x))
    if distance == "ring":
        d = np.minimum(d, 1.0 - d)
    return SampledKernel(tuple(map(tuple, strength * np.exp(-(d**2) / (2 * width**2)))))


class TestPerColumnShift:
    @settings(max_examples=40, deadline=None)
    @given(
        strength=st.floats(-25.0, 25.0),
        width=st.floats(0.04, 0.4),
        distance=st.sampled_from(["line", "ring"]),
        bc=st.sampled_from(EVERY_BOUNDARY),
        n_particles=st.integers(2, 4),
        k=st.sampled_from([1, 2, 4]),
    )
    def test_kernel_solves_match_the_dense_pencil(self, strength, width, distance, bc, n_particles, k):
        # repulsive and attractive kernels move the Ritz values, and so each
        # column's shift, above separable levels; the indefinite applies must
        # still give the dense pencil's levels and M-orthonormal vectors
        n_cells = {2: 12, 3: 8, 4: 7}[n_particles]
        w = distance_kernel(n_cells, strength, width, distance)
        op = build_problem(None, w, bc, n_cells, n_particles).operator
        res = solve_mb_eig(op, k)
        assert_levels_match(res.eigenvalues, dense_levels(op, k))
        X = res.eigenvectors
        assert np.max(np.abs(X.T @ (op.overlap @ X) - np.eye(k))) <= 1e-10


def classify(v, w, bc, n_particles, grids):
    """classify_degeneracy on the k = 2 solves of the problem on both grids."""
    solves = [solve_mb_eig(build_problem(v, w, bc, n, n_particles).operator, 2) for n in grids]
    return classify_degeneracy(grids, solves)


class TestClassifyDegeneracy:
    def test_periodic_three_particles_non_degenerate(self):
        rep = classify(None, NoInteraction(), PERIODIC, 3, (12, 24))
        assert rep.verdict == "non-degenerate"
        assert rep.gaps[1] > 4 * rep.discretization_error_estimate
        assert rep.gaps[1] == pytest.approx(12 * PI2, rel=0.15)

    def test_periodic_two_particles_degenerate(self):
        rep = classify(None, NoInteraction(), PERIODIC, 2, (12, 24))
        assert rep.verdict == "degenerate"

    def test_antiperiodic_three_particles_degenerate(self):
        rep = classify(None, NoInteraction(), ANTIPERIODIC, 3, (12, 24))
        assert rep.verdict == "degenerate"

    def test_interacting_well_non_degenerate(self):
        rep = classify(Delta(0.5, -10.0), DeltaContact(5.0), DIRICHLET, 2, (12, 24))
        assert rep.verdict == "non-degenerate"

    def test_report_invariants(self):
        rep = classify(None, NoInteraction(), PERIODIC, 3, (12, 24))
        if rep.verdict == "non-degenerate":
            assert rep.gaps[1] > 4 * rep.discretization_error_estimate
        assert rep.discretization_error_estimate == pytest.approx(
            abs(rep.lambda1[0] - rep.lambda1[1])
        )

    def test_bad_grid_pair_rejected(self):
        with pytest.raises(ValueError, match="2n"):
            classify(None, NoInteraction(), PERIODIC, 2, (12, 20))

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
        c = to_orbital(prob, solve_mb_eig(prob.operator, 1).eigenvectors[:, 0])
        lowest = prob.slater.array.tolist().index(list(range(n_particles)))
        assert abs(c[lowest]) == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(np.delete(c, lowest))) <= 1e-10


class TestInverseIteration:
    def test_one_particle_converges_to_lowest_orbital(self):
        # orbitals are the one-particle modes, so the ground state is the first
        prob = build_problem(Delta(0.3, -4.0), NoInteraction(), DIRICHLET, 8, 1)
        psi = inverse_iteration_ground(prob.operator, 0.0)
        assert abs(to_orbital(prob, psi.coefficients)[0]) == pytest.approx(1.0, abs=1e-8)

    def test_matches_direct_solver_ray(self, free_dirichlet_40):
        op = free_dirichlet_40.operator
        res = solve_mb_eig(op, 1)
        shift = res.eigenvalues[0] - 5.0
        psi = inverse_iteration_ground(op, shift)
        overlap = abs(float(psi.coefficients @ (op.overlap @ res.eigenvectors[:, 0])))
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
        ray = rayleigh(prob.operator, psi.coefficients)
        assert ray == pytest.approx(res.eigenvalues[0], abs=1e-6)
        proj = res.eigenvectors[:, :2].T @ (prob.operator.overlap @ psi.coefficients)
        assert np.linalg.norm(proj) == pytest.approx(1.0, abs=1e-6)

    def test_reports_iteration_count_on_stagnation(self):
        from fermigate.errors import ConvergenceError

        H = build_problem(None, NoInteraction(), DIRICHLET, 8, 1).operator
        with pytest.raises(ConvergenceError) as err:
            inverse_iteration_ground(H, 0.0, tol=1e-16, max_iter=5)
        assert err.value.iterations == 5
