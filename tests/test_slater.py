import ast
import dataclasses
import gc
import itertools
from collections import namedtuple
import tracemalloc
from math import factorial
from pathlib import Path

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
    assemble_potential,
    assemble_stiffness,
    build_grid_basis,
)
from fermigate.errors import CapExceededError
from fermigate.manybody import solve_mb_eig
from fermigate.slater import (
    DeltaContact,
    NoInteraction,
    SampledKernel,
    SlaterBasis,
    WaveVector,
    _increasing_tuples,
    assemble_manybody,
    assemble_manybody_bruteforce,
    build_problem,
    enumerate_slater_basis,
    one_body_density_matrix,
    orthonormalize_orbitals,
    pair_density_matrix,
    permutation_sign,
    reduced_density,
    reduced_pair_density,
    scatter_orderings,
    signed_orderings,
    transform_one_body,
    transform_two_body,
)
from fermigate.spectrum import solve_sp_eig

from boundary_reference import bc_id
from wedge_reference import (
    concatenated_pencil,
    mode_product,
    pencil_parts,
    to_orbital,
    wedge_coefficients,
    wedge_tensor,
)

DIRICHLET = BoundarySpec.dirichlet_both()
ALL_KINDS = [
    BoundarySpec.dirichlet_both(),
    BoundarySpec.dirichlet_left(),
    BoundarySpec.dirichlet_right(),
    BoundarySpec.free(),
    BoundarySpec.quasiperiodic(1.0),
    BoundarySpec.quasiperiodic(-1.0),
    BoundarySpec.line(2.0, -0.5),
]


def _row(basis, t) -> int:
    """Index of the tuple t among the rows of basis.array."""
    return basis.array.tolist().index(list(t))


def to_nodal(prob, c):
    """Nodal wedge coefficients of orbital Slater coefficients c."""
    C = mode_product(wedge_tensor(prob.slater, c), prob.orbitals.transform)
    return wedge_coefficients(prob.slater, C)[:, 0]


def orbital_nodes(prob):
    """Values of the orbitals at the grid nodes, one column per orbital."""
    return prob.grid.nodal_values(prob.orbitals.transform)


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
        assert basis.array.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]

    def test_single_tuple(self):
        assert enumerate_slater_basis(3, 3).array.tolist() == [[0, 1, 2]]

    def test_binomial_count(self):
        assert enumerate_slater_basis(30, 3).dim == 4060

    def test_lexicographic_strictly_increasing(self):
        basis = enumerate_slater_basis(7, 3)
        tuples = [tuple(row) for row in basis.array.tolist()]
        assert tuples == sorted(tuples)
        assert len(set(tuples)) == basis.dim
        for t in tuples:
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


class TestSignedOrderings:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 5).flatmap(lambda N: st.tuples(st.just(N), st.integers(N, (9, 9, 8, 7, 6)[N - 1]))),
        st.integers(0, 2),
        st.data(),
    )
    def test_table_lists_every_signed_ordering(self, shape, extra, data):
        N, n = shape
        every = _increasing_tuples(n, N)
        keep = data.draw(st.lists(st.booleans(), min_size=len(every), max_size=len(every)))
        keep[data.draw(st.integers(0, len(every) - 1))] = True
        J, side = every[np.array(keep)], n + extra
        table = signed_orderings(J, side)
        assert table.dtype == np.int32 and table.shape == (side**N,)
        # each wedge appears exactly N! times
        assert np.array_equal(np.bincount(np.abs(table[table != 0]) - 1, minlength=len(J)),
                              np.full(len(J), factorial(N)))
        # entry t holds (k + 1) * sign when sorting t gives wedge k by a
        # permutation of that sign, 0 when t ties or its sort is no wedge
        t = np.indices((side,) * N).reshape(N, -1).T
        order = np.argsort(t, axis=1, kind="stable")
        ordered = np.take_along_axis(t, order, axis=1)
        wedge = np.full(side**N, -1)
        wedge[np.ravel_multi_index(tuple(J.T), (side,) * N)] = np.arange(len(J))
        k = wedge[np.ravel_multi_index(tuple(ordered.T), (side,) * N)]
        k[np.any(ordered[:, 1:] == ordered[:, :-1], axis=1)] = -1
        want = np.zeros(side**N, dtype=int)
        for perm in itertools.permutations(range(N)):
            at = np.all(order == perm, axis=1) & (k >= 0)
            want[at] = permutation_sign(perm) * (k[at] + 1)
        assert np.array_equal(table, want)
        # a scatter through the table is the dense reference, bit for bit
        basis = SlaterBasis(side, N, J)
        values = np.random.default_rng(len(J)).standard_normal((len(J), 2))
        values[::3] = 0.0
        got = scatter_orderings(table, values.T)
        assert got.tobytes() == wedge_tensor(basis, values).reshape(2, -1).tobytes()

    def test_no_other_signed_expansion_in_src(self):
        # every signed ordering table comes from signed_orderings; only it
        # and the rest-splitting of _split may loop over N!
        allowed = {("slater.py", "signed_orderings"), ("slater.py", "_split")}
        found = set()
        for path in sorted(Path(slater_module.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                name = getattr(top, "name", None) or ast.unparse(getattr(top, "targets", [top])[0])
                for node in ast.walk(top):
                    func = getattr(node, "func", None)
                    if (
                        isinstance(node, ast.Call)
                        and ast.unparse(func).split(".")[-1] == "permutations"
                        and node.args
                        and isinstance(node.args[0], ast.Call)
                        and ast.unparse(node.args[0].func) == "range"
                    ):
                        found.add((path.name, name))
        assert found == allowed


class TestGaussPoints:
    def test_only_the_oracle_integrates_at_gauss_points(self):
        # every other form is contracted from closed-form cell moments, so
        # the oracle cannot share a quadrature error with what it checks
        found = set()
        for path in sorted(Path(slater_module.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                for node in ast.walk(top):
                    func = getattr(node, "func", None)
                    if isinstance(node, ast.Call) and ast.unparse(func).split(".")[-1] == "leggauss":
                        found.add((path.name, getattr(top, "name", None)))
        assert found == {("slater.py", "_gauss_unit")}


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
        A, M, _ = pencil_parts(prob)
        V, A, M = orb.transform, A.dense(), M.dense()
        scale = np.abs(A).sum(axis=0).max()
        assert np.max(np.abs(A @ V - M @ V * orb.levels)) <= 1e-12 * scale
        assert np.max(np.abs(V.T @ M @ V - np.eye(len(V)))) <= 1e-12
        assert np.all(np.diff(orb.levels) >= 0)


class TestProblemRecord:
    def test_problem_keeps_its_operator_and_specs_only(self, grid7):
        # grid, orbitals, basis and particle count are read off the operator;
        # the dof matrices and the pair tensor are not kept
        v, w = Delta(0.3, -4.0), cos_kernel(grid7)
        prob = build_problem(v, w, DIRICHLET, 7, 2)
        assert [f.name for f in dataclasses.fields(prob)] == ["operator", "v", "w"]
        op = prob.operator
        assert (prob.v, prob.w) == (v, w)
        assert prob.orbitals is op.orbitals and prob.grid is op.orbitals.grid
        assert prob.slater is op.basis and prob.n_particles == op.basis.n_particles == 2
        oracle = assemble_manybody_bruteforce(v, w, grid7)
        for pencil in (op, oracle):
            assert sp.isspmatrix_csr(pencil.matrix) and sp.isspmatrix_csr(pencil.overlap)


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


def random_kernel(grid, seed):
    W = np.random.default_rng(seed).uniform(-3.0, 3.0, (grid.n_nodes,) * 2)
    return SampledKernel(tuple(map(tuple, W + W.T)))


def gauss_pair_tensor(kernel, grid, M):
    """The pair tensor over M's pairs by six-point Gauss quadrature per cell,
    exact for the kernel's bilinear interpolant against pair products."""
    pairs = M.data.tocoo()
    x, w = np.polynomial.legendre.leggauss(6)
    pts = ((x + 1) / 2)[None, :] * grid.h + np.arange(grid.n_cells)[:, None] * grid.h
    pts, wts = pts.ravel(), np.tile(w / 2 * grid.h, grid.n_cells)
    hats = grid.hat_values_at(pts)
    phi = hats @ grid.nodal_values(np.eye(grid.n_dofs))
    wpts = hats @ np.asarray(kernel.values) @ hats.T
    f = phi[:, pairs.row] * phi[:, pairs.col] * wts[:, None]
    return f.T @ wpts @ f


class TestTwoBodyTensor:
    def test_zero_contact_is_null(self, grid7):
        # antisymmetric P1 functions vanish on x = y, so contact of any
        # strength is the null term
        M = assemble_overlap(grid7)
        for g in (0.0, 5.0, -5.0):
            T = transform_two_body(DeltaContact(g), grid7, M)
            assert T.is_null
            assert T.n_orbitals == grid7.n_dofs

    @pytest.mark.parametrize("g", [np.nan, np.inf, -np.inf])
    def test_non_finite_contact_strength_rejected(self, g):
        # a NaN contact is invisible to fermions: it would solve as the free problem
        with pytest.raises(ValueError, match="contact strength must be finite"):
            DeltaContact(g)

    def test_disjoint_support_vanishes(self, grid7):
        # only neighbouring dof pairs are stored, and wedges of distant dofs
        # never couple, interaction included
        M = assemble_overlap(grid7)
        T = transform_two_body(cos_kernel(grid7), grid7, M)
        assert T.pair_matrix.shape == (M.data.nnz, M.data.nnz)
        prob = build_problem(None, cos_kernel(grid7), DIRICHLET, 7, 2)
        basis = prob.slater
        for mat in (prob.operator.dense(), prob.operator.overlap.toarray()):
            assert mat[_row(basis, (0, 1)), _row(basis, (3, 5))] == 0.0
            assert mat[_row(basis, (0, 2)), _row(basis, (4, 5))] == 0.0

    def test_kernel_requires_symmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            SampledKernel(((0.0, 1.0), (0.5, 0.0)))

    @pytest.mark.parametrize("bc", ALL_KINDS, ids=bc_id)
    @settings(max_examples=12, deadline=None)
    @given(st.integers(4, 40), st.integers(0, 2**32 - 1))
    def test_kernel_pair_tensor_matches_quadrature(self, bc, n_cells, seed):
        # pairs are the nonzeros of M; each entry is checked against
        # six-point Gauss quadrature of the exact integrand
        grid = build_grid_basis(n_cells, bc)
        M = assemble_overlap(grid)
        kernel = random_kernel(grid, seed)
        T = transform_two_body(kernel, grid, M)
        assert np.max(np.abs(T.pair_matrix - gauss_pair_tensor(kernel, grid, M))) <= 1e-12

    def test_pair_outside_the_mass_pattern_is_dropped(self):
        # with the corner coupling (0, last) taken out of M, its moments
        # land on no other pair
        grid = build_grid_basis(9, BoundarySpec.quasiperiodic(-1.0))
        full = assemble_overlap(grid).data
        M = full.tolil()
        last = grid.n_dofs - 1
        M[0, last] = M[last, 0] = 0.0
        M = SymMatrix.from_sparse(M.tocsr())
        assert M.data.nnz == full.nnz - 2
        kernel = random_kernel(grid, 4)
        T = transform_two_body(kernel, grid, M)
        assert T.pair_matrix.shape == (M.data.nnz,) * 2
        assert np.max(np.abs(T.pair_matrix - gauss_pair_tensor(kernel, grid, M))) <= 1e-12

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
        expected = np.array([eps[a] + eps[b] for (a, b) in basis.array.tolist()])
        np.testing.assert_allclose(op.dense(), np.diag(expected), atol=1e-14)
        np.testing.assert_allclose(op.overlap.toarray(), np.eye(basis.dim), atol=1e-14)

    def test_triple_difference_exactly_zero(self, grid7):
        prob = build_problem(None, cos_kernel(grid7), DIRICHLET, 7, 3)
        H = prob.operator.dense()
        i = _row(prob.slater, (0, 1, 2))
        j = _row(prob.slater, (3, 4, 5))
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
        oracle = assemble_manybody_bruteforce(v, w, grid7)
        dev = np.max(np.abs(prob.operator.dense() - oracle.dense()))
        assert dev <= 1e-10
        assert np.max(np.abs(prob.operator.overlap.toarray() - oracle.overlap.toarray())) <= 1e-10

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
            oracle = assemble_manybody_bruteforce(v, w, grid)
            dev = np.max(np.abs(prob.operator.dense() - oracle.dense()))
            assert dev <= 1e-10
            assert np.max(np.abs(prob.operator.overlap.toarray() - oracle.overlap.toarray())) <= 1e-10

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
    U = grid.nodal_values(np.eye(grid.n_dofs))
    tuples = enumerate_slater_basis(grid.n_dofs, 2).array.tolist()
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
        oracle = assemble_manybody_bruteforce(v, w, grid)
        assert np.max(np.abs(oracle.dense() - H)) <= 1e-12 * np.max(np.abs(H))
        assert np.max(np.abs(oracle.overlap.toarray() - G)) <= 1e-12 * np.max(np.abs(G))

    def test_rejects_oversize_basis(self):
        big = build_grid_basis(20, DIRICHLET)
        with pytest.raises(CapExceededError):
            assemble_manybody_bruteforce(None, NoInteraction(), big)

    def test_overlap_is_wedge_gram(self, grid7):
        # the oracle's Gram matrix of hat wedges equals P'(M (x) M)P, with P
        # the antisymmetrizing scatter written out densely
        M = assemble_overlap(grid7).dense()
        oracle = assemble_manybody_bruteforce(None, NoInteraction(), grid7)
        n = grid7.n_dofs
        P = np.zeros((n * n, oracle.dim))
        for j, (a, b) in enumerate(oracle.basis.array.tolist()):
            P[a * n + b, j] = 1 / np.sqrt(2)
            P[b * n + a, j] = -1 / np.sqrt(2)
        G = P.T @ np.kron(M, M) @ P
        assert np.max(np.abs(G - oracle.overlap.toarray())) <= 1e-12


@pytest.fixture(scope="module")
def ground2():
    prob = build_problem(None, NoInteraction(), DIRICHLET, 40, 2)
    res = solve_mb_eig(prob.operator, 2)
    psi = WaveVector(res.eigenvectors[:, 0], prob.slater)
    return prob, psi


class TestReducedDensities:
    @pytest.mark.parametrize("n_orbitals, n_particles", [(5, 1), (6, 2), (6, 3), (7, 4)])
    def test_density_matrices_match_the_dense_tensor(self, n_orbitals, n_particles):
        basis = enumerate_slater_basis(n_orbitals, n_particles)
        c = np.random.default_rng(n_particles).standard_normal(basis.dim)
        psi, C, n = WaveVector(c, basis), wedge_tensor(basis, c)[0], n_orbitals
        F = C.reshape(n, -1)
        gamma = F @ F.T / factorial(n_particles - 1)
        assert np.max(np.abs(one_body_density_matrix(psi) - gamma)) <= 1e-12
        if n_particles >= 2:
            F = C.reshape(n * n, -1)
            G = (F @ F.T).reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
            assert np.max(np.abs(pair_density_matrix(psi) - G / factorial(n_particles - 2))) <= 1e-12

    def test_single_determinant_density_formula(self, grid7):
        prob = build_problem(None, NoInteraction(), DIRICHLET, 7, 2)
        c = np.zeros(prob.slater.dim)
        c[_row(prob.slater, (0, 1))] = 1.0
        gamma = one_body_density_matrix(WaveVector(c, prob.slater))
        expected = np.zeros((7 - 1, 7 - 1))
        expected[0, 0] = expected[1, 1] = 1.0
        np.testing.assert_allclose(gamma, expected, atol=1e-14)
        # oracle: integrate |phi_0|^2 + |phi_1|^2 against each hat by
        # quadrature and mass-average, independent of the cell-moment path
        rho = reduced_density(WaveVector(to_nodal(prob, c), prob.slater), prob.orbitals)
        x, w = np.polynomial.legendre.leggauss(8)
        pts = ((x + 1) / 2)[None, :] * prob.grid.h + np.arange(7)[:, None] * prob.grid.h
        pts, wts = pts.ravel(), np.tile(w / 2 * prob.grid.h, 7)
        hats = prob.grid.hat_values_at(pts)
        vals = hats @ orbital_nodes(prob)
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
        c[_row(prob.slater, (0, 1))] = 1.0
        psi = WaveVector(to_nodal(prob, c), prob.slater)
        rho2 = reduced_pair_density(psi, prob.orbitals)
        # oracle: |phi0(x)phi1(y) - phi1(x)phi0(y)|^2 mass-averaged via
        # two-dimensional quadrature
        x, w = np.polynomial.legendre.leggauss(6)
        pts = ((x + 1) / 2)[None, :] * prob.grid.h + np.arange(7)[:, None] * prob.grid.h
        pts, wts = pts.ravel(), np.tile(w / 2 * prob.grid.h, 7)
        hats = prob.grid.hat_values_at(pts)
        vals = hats @ orbital_nodes(prob)
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
        x = solve_mb_eig(probk.operator, 1).eigenvectors[:, 0]
        G = pair_density_matrix(WaveVector(to_orbital(probk, x), probk.slater))
        via_h = x @ ((probk.operator.matrix - prob0.operator.matrix) @ x)
        n = grid7.n_dofs
        _, M, two_body = pencil_parts(probk)
        pairs = M.data.tocoo()
        Wd = np.zeros((n, n, n, n))
        Wd[pairs.row[:, None], pairs.col[:, None], pairs.row, pairs.col] = two_body.pair_matrix
        R = probk.orbitals.transform
        T = np.einsum("acbd,ap,cr,bq,ds->prqs", Wd, R, R, R, R).reshape(n * n, n * n)
        via_rho2 = np.sum(G * T)
        assert via_h == pytest.approx(via_rho2, abs=1e-12)


class TestNonInteractingSumRule:
    @pytest.mark.parametrize("n_particles", [1, 2, 3])
    def test_spectrum_equals_orbital_sums(self, n_particles):
        v = Delta(0.3, 4.0)
        prob = build_problem(v, NoInteraction(), DIRICHLET, 12, n_particles)
        grid = prob.grid
        sp_res = solve_sp_eig(assemble_stiffness(grid), assemble_potential(grid, v), assemble_overlap(grid),
                              grid.n_dofs)
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
        oracle = assemble_manybody_bruteforce(v, w, build_grid_basis(n_cells, bc))
        assert np.max(np.abs(op.dense() - oracle.dense())) <= 1e-10
        assert np.max(np.abs(op.overlap.toarray() - oracle.overlap.toarray())) <= 1e-10

    @settings(max_examples=15, deadline=None)
    @given(small_problems(), st.sampled_from([2, 3]))
    def test_noninteracting_spectrum_is_orbital_sums(self, problem, n_particles):
        bc, n_cells, v, _ = problem
        prob = build_problem(v, NoInteraction(), bc, n_cells, n_particles)
        grid = prob.grid
        sp_res = solve_sp_eig(assemble_stiffness(grid), assemble_potential(grid, v), assemble_overlap(grid),
                              grid.n_dofs)
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
    A, M, two_body = pencil_parts(prob)
    coo = M.data.tocoo()
    A, M = A.dense(), M.dense()
    P = wedge_tensor(prob.slater, np.eye(prob.slater.dim)).reshape(prob.slater.dim, -1).T
    H = sum(_embed(_kron(A, *[M] * (N - 1)), n, N, (k,)) for k in range(N))
    if not two_body.is_null:
        # Wd[(a, b), (c, d)] = int int phi_a phi_c (x) w phi_b phi_d (y)
        pair = {(a, c): p for p, (a, c) in enumerate(zip(coo.row, coo.col))}
        Wd = np.zeros((n * n, n * n))
        for (a, c), p in pair.items():
            for (b, d), q in pair.items():
                Wd[a * n + b, c * n + d] = two_body.pair_matrix[p, q]
        for j, k in itertools.combinations(range(N), 2):
            H = H + 2.0 * _embed(_kron(Wd, *[M] * (N - 2)), n, N, (j, k))
    scale = factorial(N)
    return P.T @ H @ P / scale, P.T @ _kron(*[M] * N) @ P / scale


class TestPencilAgainstDenseReference:
    @pytest.mark.parametrize("n_particles", [2, 3, 4])
    @pytest.mark.parametrize("bc", ALL_KINDS, ids=bc_id)
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
    @pytest.mark.parametrize("bc", ALL_KINDS, ids=bc_id)
    def test_pencil_structure(self, bc, n_particles):
        n_cells = 6
        nodes = np.linspace(0.0, 1.0, n_cells + 1)
        kernel = SampledKernel(tuple(map(tuple, np.exp(-np.subtract.outer(nodes, nodes) ** 2))))
        for w in (NoInteraction(), kernel):
            prob = build_problem(Delta(0.4, 3.0), w, bc, n_cells, n_particles)
            H, M = prob.operator.matrix, prob.operator.overlap
            full = neighbour_structure(pencil_parts(prob)[1], prob.slater)
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


def assert_same_pencil(op, reference):
    """op's H_N and M_N equal the reference pair bit for bit, arrays, dtypes
    and the arrays the two matrices share."""
    pairs = ((op.matrix, reference[0]), (op.overlap, reference[1]))
    for got, want in pairs:
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in ("indices", "indptr"):
        shared = [np.shares_memory(getattr(H, name), getattr(M, name)) for H, M in zip(*pairs)]
        assert shared[0] == shared[1], name


class TestRowBlocks:
    @pytest.mark.parametrize("n_particles", [2, 3, 4])
    @pytest.mark.parametrize("bc", ALL_KINDS, ids=bc_id)
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
        args = (*pencil_parts(prob), prob.slater)
        full = neighbour_structure(args[1], prob.slater)
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

    @pytest.mark.parametrize("n_particles", [1, 2, 3, 4])
    @pytest.mark.parametrize("bc", ALL_KINDS, ids=bc_id)
    @pytest.mark.parametrize("kernel", [False, True], ids=["free", "kernel"])
    def test_pencil_equals_the_concatenated_reference(self, bc, n_particles, kernel):
        # no potential: at N = 3 the kinetic terms cancel in entries of H
        grid = build_grid_basis(7, bc)
        w = random_kernel(grid, 30 + n_particles) if kernel else NoInteraction()
        prob = build_problem(None, w, bc, 7, n_particles)
        args = (*pencil_parts(prob), prob.slater)
        assert_same_pencil(assemble_manybody(*args), concatenated_pencil(*args))

    def test_cancelling_overlap_entries_match_the_concatenated_reference(self):
        # every 2 x 2 minor of an all-ones tridiagonal M on a diagonal wedge
        # vanishes, so M_N drops its diagonal and H_N keeps it
        ones = sp.diags([1.0, 1.0, 1.0], [-1, 0, 1], shape=(6, 6), format="csr")
        M = SymMatrix.from_sparse(ones)
        A = SymMatrix.from_sparse(sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(6, 6), format="csr"))
        args = (A, M, None, enumerate_slater_basis(6, 2))
        op = assemble_manybody(*args)
        assert op.overlap.nnz < op.matrix.nnz
        assert_same_pencil(op, concatenated_pencil(*args))

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
        oracle = assemble_manybody_bruteforce(None, DeltaContact(14.3), grid)
        assert np.max(np.abs(op.dense() - oracle.dense())) <= 1e-10
        assert np.max(np.abs(op.overlap.toarray() - oracle.overlap.toarray())) <= 1e-10

    @pytest.mark.parametrize(
        "bc", [BoundarySpec.line(1.0, 5e-324), BoundarySpec.quasiperiodic(5e-324)], ids=["line", "qp"]
    )
    def test_underflowed_mass_entry_leaves_no_kernel_entry_outside(self, bc):
        # the kernel's cell moments at the coupled dof's far node underflow
        # with M's coupling entry; the pair tensor keeps M's pattern
        grid = build_grid_basis(4, bc)
        kernel = random_kernel(grid, 3)
        op = build_problem(None, kernel, bc, 4, 2).operator
        oracle = assemble_manybody_bruteforce(None, kernel, grid)
        assert np.max(np.abs(op.dense() - oracle.dense())) <= 1e-10
        assert np.max(np.abs(op.overlap.toarray() - oracle.overlap.toarray())) <= 1e-10

    @staticmethod
    def traced_peak_and_pencil(n_cells, n_particles):
        prob = build_problem(None, NoInteraction(), BoundarySpec.quasiperiodic(1.0), n_cells, n_particles)
        args = (*pencil_parts(prob), prob.slater)
        gc.collect()
        tracemalloc.start()
        try:
            op = assemble_manybody(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = {id(a): a for m in (op.matrix, op.overlap) for a in (m.data, m.indices, m.indptr)}
        return op.dim, peak, sum(a.nbytes for a in arrays.values())  # shared arrays count once

    def test_peak_memory_is_a_few_pencils(self):
        # the transient arrays of one row block, not of every contribution,
        # and one copy of each array of the pencil's tail
        dim, peak, pencil = self.traced_peak_and_pencil(40, 3)
        assert dim == 9880
        assert peak <= 1.5 * pencil, (peak, pencil)

    def test_peak_memory_at_two_particles_is_a_few_pencils(self):
        # nothing cancels: H_N and M_N share their structure
        dim, peak, pencil = self.traced_peak_and_pencil(320, 2)
        assert dim == 51040
        assert peak <= 1.5 * pencil, (peak, pencil)

    def test_pair_tensor_peak_memory_is_two_pair_matrices(self):
        # node-by-pair moments, never point-by-pair or point-by-point arrays
        bc = BoundarySpec.quasiperiodic(1.0)
        grid = build_grid_basis(320, bc)
        M = assemble_overlap(grid)
        d = np.abs(np.subtract.outer(grid.nodes, grid.nodes))
        kernel = SampledKernel(tuple(map(tuple, 20.0 * np.exp(-np.minimum(d, 1.0 - d) ** 2 / 0.02))))
        gc.collect()
        tracemalloc.start()
        try:
            T = transform_two_body(kernel, grid, M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert T.pair_matrix.shape == (960, 960)
        assert peak <= 2.0 * T.pair_matrix.nbytes, (peak, T.pair_matrix.nbytes)


ParityLanding = namedtuple("ParityLanding", "nb slots rank parity")


def parity_landing(M, basis):
    """_landing as it was before the signed_orderings table: a rank and an
    int8 parity array over the (n + 1)^N flat tuple indices."""
    n, N, D = basis.n_orbitals, basis.n_particles, basis.dim
    deg = np.diff(M.indptr)
    width = int(deg.max())
    ok = np.arange(width) < deg[:, None]
    nb = np.where(ok, M.indices[np.where(ok, M.indptr[:-1, None] + np.arange(width), 0)], n)
    J = basis.array
    rank = np.full((n + 1) ** N, -1, dtype=np.int32)
    parity = np.zeros(rank.size, dtype=np.int8)
    for perm in itertools.permutations(range(N)):
        at = np.ravel_multi_index(J[:, perm].T, (n + 1,) * N)
        rank[at] = np.arange(D)
        parity[at] = permutation_sign(perm)
    slots = np.array(list(itertools.product(range(width), repeat=N)), dtype=np.int32)
    return ParityLanding(nb, slots.reshape(-1, N), rank, parity)


def parity_upper_block(J, first, land, M, adata, W):
    """_upper_block as it was before the signed_orderings table."""
    nb, slots, rank, parity = land
    n, N = nb.shape[0], J.shape[1]
    n_slots = slots.shape[0]
    flat = np.zeros((J.shape[0], n_slots), dtype=np.int32)
    for k in range(N):
        flat *= n + 1
        flat += np.take(np.take(nb, J[:, k], axis=0), slots[:, k], axis=1)
    col = rank[flat]
    key = col * n_slots + np.arange(n_slots, dtype=np.int32)
    key[col < np.arange(first, first + J.shape[0], dtype=np.int32)[:, None]] = -1
    key.sort(axis=1)
    at = np.flatnonzero(key >= 0)
    row = at // n_slots
    col, slot = np.divmod(key.ravel()[at], n_slots)
    new = np.empty(col.size, dtype=bool)
    new[:1] = True
    new[1:] = (col[1:] != col[:-1]) | (row[1:] != row[:-1])
    counts = np.bincount(row[new], minlength=J.shape[0])
    ucol = col[new]
    entry = np.cumsum(new, dtype=np.int32) - 1
    sign = parity[flat.ravel()[row * n_slots + slot]].astype(float)
    pos = [M.indptr[J[:, k]][row] + slots[:, k][slot] for k in range(N)]
    mv = [M.data[p] for p in pos]
    av = [adata[p] for p in pos]

    def mass_except(*skip):
        out = np.ones(sign.shape)
        for k in range(N):
            if k not in skip:
                out = out * mv[k]
        return out

    hval = sum(av[k] * mass_except(k) for k in range(N))
    if W is not None:
        for j, k in itertools.combinations(range(N), 2):
            hval = hval + 2.0 * W[pos[j], pos[k]] * mass_except(j, k)
    hu = np.bincount(entry, weights=sign * hval, minlength=ucol.size)
    mu = np.bincount(entry, weights=sign * mass_except(), minlength=ucol.size)
    return counts, ucol, hu, mu


class TestPencilBits:
    @pytest.mark.parametrize(
        "n_particles, n_cells, bc, kernel",
        [
            (2, 72, BoundarySpec.free(), False),
            (3, 40, DIRICHLET, True),
            (3, 30, BoundarySpec.quasiperiodic(1.0), False),
            (4, 14, BoundarySpec.quasiperiodic(-1.0), True),
        ],
        ids=["n2-free", "n3-dirichlet", "n3-periodic", "n4-antiperiodic"],
    )
    def test_pencil_equals_the_parity_assembly(self, monkeypatch, n_particles, n_cells, bc, kernel):
        x = np.linspace(0.0, 1.0, n_cells + 1)
        w = SampledKernel(tuple(map(tuple, 5.0 * np.exp(-np.subtract.outer(x, x) ** 2 / 0.02))))
        prob = build_problem(Delta(0.3, -4.0), w if kernel else NoInteraction(), bc, n_cells, n_particles)
        args = (*pencil_parts(prob), prob.slater)
        got = assemble_manybody(*args)
        monkeypatch.setattr(slater_module, "_landing", parity_landing)
        monkeypatch.setattr(slater_module, "_upper_block", parity_upper_block)
        want = assemble_manybody(*args)
        for a, b in ((got.matrix, want.matrix), (got.overlap, want.overlap)):
            for name in ("data", "indices", "indptr"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


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
                     "signed_orderings", "scatter_orderings", "assemble_overlap",
                     "assemble_stiffness", "assemble_potential"):
            monkeypatch.setattr(slater_module, name, forbidden)
        for (v, w), op in zip(cases, pencils):
            oracle = assemble_manybody_bruteforce(v, w, grid7)
            assert np.max(np.abs(op.dense() - oracle.dense())) <= 1e-10
            assert np.max(np.abs(op.overlap.toarray() - oracle.overlap.toarray())) <= 1e-10


class TestWaveVector:
    def test_non_finite_rejected(self):
        basis = enumerate_slater_basis(4, 2)
        c = np.zeros(6)
        c[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            WaveVector(c, basis)
