import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

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
    norm1,
)
from fermigate.spectrum import _definite_factor, _PathFactor

from boundary_reference import bc_id

ALL_BCS = [
    BoundarySpec.dirichlet_both(),
    BoundarySpec.dirichlet_left(),
    BoundarySpec.dirichlet_right(),
    BoundarySpec.free(),
    BoundarySpec.quasiperiodic(1.0),
    BoundarySpec.quasiperiodic(-1.0),
    BoundarySpec.quasiperiodic(0.7),
    BoundarySpec.line(2.0, 3.0),
]


MAP_BCS = ALL_BCS + [
    BoundarySpec.line(2.3, -0.7),
    BoundarySpec.line(0.0, 1.5),
    BoundarySpec.line(1.0, 0.0),
    BoundarySpec.line(1e-300, 3.0),
]


def _hats(basis):
    """Nodal values of the dof hats, one row per dof."""
    return basis.nodal_values(np.eye(basis.n_dofs)).T


def _definition_extension(basis):
    """Dof-to-node extension E (one row per dof) from the boundary kind's
    definition: every node under 'free', else the interior nodes in order,
    and under a line span{(a, b)} one coupled dof a * phi_0 + b * phi_n
    after them."""
    bc, n = basis.bc, basis.n_cells
    nodes = np.eye(n + 1)
    if bc.kind == "line":
        return np.vstack([nodes[1:n], bc.a * nodes[0] + bc.b * nodes[n]])
    return nodes if bc.kind == "free" else nodes[1:n]


class TestBoundarySpec:
    def test_quasiperiodic_zero_alpha_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            BoundarySpec.quasiperiodic(0.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_quasiperiodic_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="nonzero and finite"):
            BoundarySpec.quasiperiodic(alpha)

    def test_line_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            BoundarySpec.line(0.0, 0.0)

    @pytest.mark.parametrize("a, b", [(np.nan, 1.0), (1.0, np.inf), (-np.inf, 0.0)])
    def test_line_non_finite_direction_rejected(self, a, b):
        with pytest.raises(ValueError, match="finite and nonzero"):
            BoundarySpec.line(a, b)

    def test_presets_are_lines(self):
        assert BoundarySpec.dirichlet_left() == BoundarySpec("line", a=0.0, b=1.0)
        assert BoundarySpec.dirichlet_right() == BoundarySpec("line", a=1.0, b=0.0)
        assert BoundarySpec.quasiperiodic(-0.3) == BoundarySpec("line", a=-0.3, b=1.0)
        assert [f.name for f in dataclasses.fields(BoundarySpec)] == ["kind", "a", "b"]
        for kind in ("dirichlet-left", "dirichlet-right", "quasiperiodic"):
            with pytest.raises(ValueError, match="unknown boundary kind"):
                BoundarySpec(kind)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            BoundarySpec("robin")

    @pytest.mark.parametrize("kind", ["free", "dirichlet-both"])
    @pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.0, -2.0), (np.nan, 0.0)])
    def test_direction_only_on_a_line(self, kind, a, b):
        # the grid ignores it, so it would make a second, unequal spec of one subspace
        with pytest.raises(ValueError, match="takes no direction"):
            BoundarySpec(kind, a=a, b=b)
        assert BoundarySpec(kind, a=0.0, b=-0.0) == BoundarySpec(kind)


class TestBuildGridBasis:
    def test_dof_counts(self):
        assert build_grid_basis(8, BoundarySpec.dirichlet_both()).n_dofs == 7
        assert build_grid_basis(8, BoundarySpec.free()).n_dofs == 9
        assert build_grid_basis(8, BoundarySpec.dirichlet_left()).n_dofs == 8
        assert build_grid_basis(8, BoundarySpec.dirichlet_right()).n_dofs == 8
        assert build_grid_basis(8, BoundarySpec.quasiperiodic(-1.0)).n_dofs == 8
        assert build_grid_basis(8, BoundarySpec.line(1.0, 2.0)).n_dofs == 8

    def test_dirichlet_all_zero_trace(self):
        basis = build_grid_basis(8, BoundarySpec.dirichlet_both())
        assert np.all(_hats(basis)[:, [0, 8]] == 0.0)

    def test_free_has_two_boundary_dofs(self):
        basis = build_grid_basis(8, BoundarySpec.free())
        traces = _hats(basis)[:, [0, 8]]
        assert np.count_nonzero(np.any(traces != 0.0, axis=1)) == 2

    def test_quasiperiodic_coupled_trace_pair(self):
        basis = build_grid_basis(8, BoundarySpec.quasiperiodic(-1.0))
        # the coupled dof is the one dof that two nodes carry
        (coupled,) = np.flatnonzero(np.bincount(basis.dof)[: basis.n_dofs] == 2)
        t0, t1 = _hats(basis)[:, [0, 8]][coupled].tolist()
        assert (t0, t1) == (-1.0, 1.0)
        # constraint residual is exactly zero: t0 - alpha*t1
        assert t0 - (-1.0) * t1 == 0.0

    @pytest.mark.parametrize("bc", ALL_BCS, ids=bc_id)
    def test_every_trace_pair_lies_in_the_subspace(self, bc):
        basis = build_grid_basis(8, bc)
        for t0, t1 in _hats(basis)[:, [0, 8]].tolist():
            if bc.kind == "dirichlet-both":
                assert (t0, t1) == (0.0, 0.0)
            elif bc.kind == "line":
                assert t0 * bc.b - t1 * bc.a == 0.0

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError, match="n_cells"):
            build_grid_basis(3, BoundarySpec.free())

    @pytest.mark.parametrize("n_cells", [4, 9])
    @pytest.mark.parametrize("bc", MAP_BCS, ids=bc_id)
    def test_node_to_dof_map_invariants(self, bc, n_cells):
        basis = build_grid_basis(n_cells, bc)
        dof, weight, m = basis.dof, basis.weight, basis.n_dofs
        assert dof.shape == weight.shape == (basis.n_nodes,)
        assert np.all((dof >= 0) & (dof <= m))
        # a node carries nothing exactly when its dof is the sentinel m,
        # and then its weight is zero
        assert np.array_equal(dof == m, weight == 0.0)
        # every dof is carried by one node, or by exactly the two endpoints
        for j in range(m):
            carriers = np.flatnonzero(dof == j).tolist()
            assert len(carriers) == 1 or carriers == [0, n_cells], (j, carriers)
        assert np.count_nonzero(np.bincount(dof, minlength=m + 1)[:m] == 2) == (
            bc.kind == "line" and bc.a != 0.0 and bc.b != 0.0
        )

    @pytest.mark.parametrize("bc", MAP_BCS, ids=bc_id)
    def test_nodal_values_of_a_block_is_column_by_column(self, bc):
        basis = build_grid_basis(7, bc)
        block = np.random.default_rng(3).standard_normal((basis.n_dofs, 4))
        block[1, 2] = -0.0
        values = basis.nodal_values(block)
        assert values.shape == (basis.n_nodes, 4)
        for j in range(4):
            assert np.array_equal(values[:, j], basis.nodal_values(block[:, j]))
            assert np.array_equal(np.signbit(values[:, j]), np.signbit(basis.nodal_values(block[:, j])))
        # and the map it gathers through is the definition's extension
        assert np.array_equal(values, _definition_extension(basis).T @ block)
        with pytest.raises(ValueError, match="dof coefficients"):
            basis.nodal_values(np.zeros(basis.n_dofs + 1))


class TestOverlap:
    def test_interior_entries(self):
        basis = build_grid_basis(8, BoundarySpec.dirichlet_both())
        M = assemble_overlap(basis).dense()
        h = basis.h
        assert M[2, 2] == pytest.approx(2 * h / 3, rel=1e-15)
        assert M[2, 3] == pytest.approx(h / 6, rel=1e-15)
        assert M[0, 5] == 0.0

    @pytest.mark.parametrize("bc", ALL_BCS, ids=bc_id)
    def test_positive_definite(self, bc):
        # the one-body pattern takes the odd-even reduction of a path
        M = assemble_overlap(build_grid_basis(16, bc))
        assert isinstance(_definite_factor(M.data), _PathFactor)
        assert _definite_factor(-M.data) is None

    @pytest.mark.parametrize(
        "bc",
        [
            BoundarySpec.dirichlet_both(),
            BoundarySpec.free(),
            BoundarySpec.quasiperiodic(-1.0),
            BoundarySpec.dirichlet_left(),
            BoundarySpec.dirichlet_right(),
            BoundarySpec.quasiperiodic(1.0),
            BoundarySpec.quasiperiodic(0.7),
            BoundarySpec.line(2.0, 3.0),
        ],
        ids=["dirichlet", "free", "antiperiodic", "dirichlet-left", "dirichlet-right",
             "periodic", "quasiperiodic0.7", "line"],
    )
    def test_positive_definite_large(self, bc):
        M = assemble_overlap(build_grid_basis(10_000, bc))
        factor = _definite_factor(M.data)
        assert isinstance(factor, _PathFactor)
        x = np.random.default_rng(7).standard_normal(M.dimension)
        assert np.linalg.norm(factor.solve(M @ x) - x) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("bc", ALL_BCS, ids=bc_id)
    def test_exact_symmetry(self, bc):
        basis = build_grid_basis(12, bc)
        for mat in (assemble_overlap(basis), assemble_stiffness(basis)):
            assert (mat.data != mat.data.T).nnz == 0


class TestStiffness:
    def test_interior_entries(self):
        basis = build_grid_basis(8, BoundarySpec.dirichlet_both())
        K = assemble_stiffness(basis).dense()
        h = basis.h
        assert K[2, 2] == pytest.approx(2 / h, rel=1e-15)
        assert K[2, 3] == pytest.approx(-1 / h, rel=1e-15)

    def test_free_constants_in_kernel(self):
        basis = build_grid_basis(8, BoundarySpec.free())
        K = assemble_stiffness(basis)
        assert np.max(np.abs(K @ np.ones(basis.n_dofs))) == 0.0

    @pytest.mark.parametrize(
        "bc,expected",
        [
            (BoundarySpec.free(), 1),
            (BoundarySpec.quasiperiodic(1.0), 1),
            (BoundarySpec.line(2.0, 2.0), 1),
            (BoundarySpec.dirichlet_both(), 0),
            (BoundarySpec.dirichlet_left(), 0),
            (BoundarySpec.dirichlet_right(), 0),
            (BoundarySpec.quasiperiodic(-1.0), 0),
            (BoundarySpec.quasiperiodic(2.0), 0),
        ],
        ids=lambda x: str(x),
    )
    def test_kernel_dimension(self, bc, expected):
        K = assemble_stiffness(build_grid_basis(24, bc))
        w = sla.eigvalsh(K.dense())
        assert int(np.sum(np.abs(w) <= 1e-12 * K.norm1())) == expected


class TestPotential:
    def test_delta_at_node(self):
        basis = build_grid_basis(8, BoundarySpec.dirichlet_both())
        P = assemble_potential(basis, Delta(0.5, 3.0)).dense()
        # dof 3 is the hat at node 4 = x0
        assert P[3, 3] == 3.0
        assert P[0, 0] == 0.0
        assert P[5, 6] == 0.0

    def test_delta_between_nodes(self):
        basis = build_grid_basis(8, BoundarySpec.dirichlet_both())
        x0 = 0.5 + basis.h / 3
        P = assemble_potential(basis, Delta(x0, 2.0)).dense()
        # rank one with trace g*(phi_4^2 + phi_5^2) at the hat values
        vals = np.zeros(basis.n_dofs)
        vals[3], vals[4] = 2 / 3, 1 / 3
        np.testing.assert_allclose(P, 2.0 * np.outer(vals, vals), atol=1e-14)

    def test_delta_endpoint_dirichlet_is_zero(self):
        basis = build_grid_basis(8, BoundarySpec.dirichlet_both())
        P = assemble_potential(basis, Delta(0.0, 5.0)).dense()
        assert np.max(np.abs(P)) == 0.0

    def test_delta_endpoint_quasiperiodic_couples(self):
        bc = BoundarySpec.quasiperiodic(-1.0)
        basis = build_grid_basis(8, bc)
        P = assemble_potential(basis, Delta(0.0, 1.0)).dense()
        # only the coupled dof sees the endpoint, with value alpha
        assert P[-1, -1] == pytest.approx(1.0, rel=1e-15)
        assert np.count_nonzero(P) == 1

    def test_delta_outside_interval_rejected(self):
        with pytest.raises(ValueError):
            Delta(1.5, 1.0)

    @pytest.mark.parametrize("bc", ALL_BCS, ids=bc_id)
    def test_sampled_ones_equals_overlap(self, bc):
        basis = build_grid_basis(12, bc)
        P = assemble_potential(basis, Sampled((1.0,) * basis.n_nodes))
        M = assemble_overlap(basis)
        assert np.max(np.abs(P.dense() - M.dense())) <= 1e-14

    def test_sampled_wrong_length_rejected(self):
        basis = build_grid_basis(8, BoundarySpec.free())
        with pytest.raises(ValueError, match="nodal values"):
            assemble_potential(basis, Sampled((1.0,) * 5))

    def test_sampled_exactness_against_quadrature(self):
        basis = build_grid_basis(8, BoundarySpec.free())
        rng = np.random.default_rng(3)
        vnod = rng.standard_normal(basis.n_nodes)
        P = assemble_potential(basis, Sampled(tuple(vnod))).dense()
        x, w = np.polynomial.legendre.leggauss(4)
        pts = ((x + 1) / 2)[None, :] * basis.h + np.arange(8)[:, None] * basis.h
        pts, wts = pts.ravel(), np.tile(w / 2 * basis.h, 8)
        hats = basis.hat_values_at(pts)
        vvals = hats @ vnod
        ref = (hats * (wts * vvals)[:, None]).T @ hats
        np.testing.assert_allclose(P, ref, atol=1e-14)

    def test_hminusone_recovers_overlap(self):
        basis = build_grid_basis(8, BoundarySpec.dirichlet_both())
        P = assemble_potential(basis, HMinusOnePair(1.0, (0.0,) * 8))
        M = assemble_overlap(basis)
        assert np.max(np.abs(P.dense() - M.dense())) == 0.0

    def test_hminusone_flux_telescopes(self):
        basis = build_grid_basis(8, BoundarySpec.free())
        V = tuple(float(i + 1) for i in range(8))
        P = assemble_potential(basis, HMinusOnePair(0.0, V)).dense()
        # sum_c V_c * int_c (phi_i phi_j)' is diagonal for hat functions
        assert np.max(np.abs(P - np.diag(np.diag(P)))) == 0.0
        # value of sum_c V_c (phi_i(right)^2 - phi_i(left)^2) at interior node i
        assert P[3, 3] == pytest.approx(V[2] - V[3], rel=1e-15)

    def test_hminusone_wrong_length_rejected(self):
        basis = build_grid_basis(8, BoundarySpec.free())
        with pytest.raises(ValueError, match="per-cell"):
            assemble_potential(basis, HMinusOnePair(1.0, (0.0,) * 7))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "make",
        [
            lambda x: Delta(0.5, x),
            lambda x: Sampled((0.0, x, 1.0, 2.0, 3.0)),
            lambda x: HMinusOnePair(x, (0.0,) * 4),
            lambda x: HMinusOnePair(1.0, (0.0, x, 0.0, 0.0)),
        ],
        ids=["delta-strength", "sampled", "hminusone-alpha", "hminusone-cells"],
    )
    def test_non_finite_value_rejected(self, make, bad):
        with pytest.raises(ValueError, match="must be finite"):
            make(bad)

    def test_overflowing_potential_rejected(self):
        # finite cell values whose flux sum V_(k-1) - V_k overflows
        V = (1e308, -1e308, 1e308, -1e308)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="matrix entries must be finite"):
            assemble_potential(build_grid_basis(4, BoundarySpec.free()), HMinusOnePair(0.0, V))


@settings(max_examples=20, deadline=None)
@given(
    n_cells=st.integers(min_value=4, max_value=24),
    alpha=st.floats(min_value=-3.0, max_value=3.0).filter(lambda a: abs(a) > 1e-3),
)
def test_quasiperiodic_constraint_exact_for_any_alpha(n_cells, alpha):
    basis = build_grid_basis(n_cells, BoundarySpec.quasiperiodic(alpha))
    assert basis.n_dofs == n_cells
    for t0, t1 in _hats(basis)[:, [0, n_cells]].tolist():
        assert t0 - alpha * t1 == 0.0


# ---------------------------------------------------------------------------
# the one-body matrices against the sparse product E F E'

REFERENCE_BCS = [
    BoundarySpec.dirichlet_both(),
    BoundarySpec.dirichlet_left(),
    BoundarySpec.dirichlet_right(),
    BoundarySpec.free(),
    BoundarySpec.quasiperiodic(1.0),
    BoundarySpec.quasiperiodic(-1.0),
    BoundarySpec.line(2.0, -3.0),
    BoundarySpec.line(0.0, 1.5),
]


def _potentials(n_cells):
    rng = np.random.default_rng(n_cells)
    node = (n_cells // 2) / n_cells
    return {
        "none": None,
        "delta-node": Delta(node, -3.0),
        "delta-between": Delta((2 + 1 / 3) / n_cells, 2.5),
        "delta-x0=0": Delta(0.0, 4.0),
        "delta-x0=1": Delta(1.0, -2.0),
        "sampled": Sampled(tuple(rng.uniform(-5.0, 5.0, n_cells + 1))),
        "hminusone": HMinusOnePair(0.7, tuple(rng.uniform(-2.0, 2.0, n_cells))),
    }


def _reference(basis, full):
    """E F E' by sparse products, F the full-grid tridiagonal matrix and E
    the extension by the boundary kind's definition."""
    F = sp.diags([full.off, full.main, full.off], [-1, 0, 1], format="csr")
    e = sp.csr_matrix(_definition_extension(basis))
    return (e @ F @ e.T).toarray()


@pytest.mark.parametrize("n_cells", [4, 5, 7, 200])
@pytest.mark.parametrize("bc", REFERENCE_BCS, ids=bc_id)
def test_one_body_matrices_match_sparse_reference(bc, n_cells):
    basis = build_grid_basis(n_cells, bc)
    n, h = basis.n_cells, basis.h
    cases = {"overlap": (assemble_overlap(basis), _full_overlap(n, h)),
             "stiffness": (assemble_stiffness(basis), _full_stiffness(n, h))}
    for name, v in _potentials(n_cells).items():
        cases[name] = (assemble_potential(basis, v), _full_potential(v, n, h))
    for name, (mat, full) in cases.items():
        ref = _reference(basis, full)
        csr = mat.data
        assert mat.dimension == basis.n_dofs, name
        assert csr.has_canonical_format, name
        assert csr.indices.dtype == np.int32, name
        # the stored pattern is exactly the nonzeros of the reference
        stored = np.zeros(ref.shape, dtype=bool)
        stored[np.repeat(np.arange(mat.dimension), np.diff(csr.indptr)), csr.indices] = True
        assert np.array_equal(stored, ref != 0.0), name
        scale = max(np.max(np.abs(ref)), 1.0)
        assert np.max(np.abs(mat.dense() - ref)) <= 1e-15 * scale, name
        dense = mat.dense()
        assert np.array_equal(dense, dense.T), name


def _same_sym_matrix(got, want):
    assert got.dimension == want.dimension
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got.data, name), getattr(want.data, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("n_cells", [4, 7, 200])
@pytest.mark.parametrize("bc", MAP_BCS, ids=bc_id)
def test_one_body_matrices_are_symmetric_by_construction(bc, n_cells):
    # the projection and the sum skip from_sparse, which would change nothing
    basis = build_grid_basis(n_cells, bc)
    K = assemble_stiffness(basis)
    for mat in (assemble_overlap(basis), K):
        _same_sym_matrix(mat, SymMatrix.from_sparse(mat.data.copy()))
    for name, v in _potentials(n_cells).items():
        P = assemble_potential(basis, v)
        _same_sym_matrix(P, SymMatrix.from_sparse(P.data.copy()))
        _same_sym_matrix(K + P, SymMatrix.from_sparse(K.data + P.data))


def test_sum_takes_only_sym_matrices():
    K = assemble_stiffness(build_grid_basis(4, BoundarySpec.free()))
    with pytest.raises(TypeError):
        K + K.data


class TestFromSparse:
    def test_rejects_an_asymmetric_matrix(self):
        with pytest.raises(ValueError, match="symmetric"):
            SymMatrix.from_sparse(sp.csr_matrix(np.array([[2.0, 1.0], [1.0 + 1e-15, 2.0]])))

    def test_rejects_an_asymmetric_pattern(self):
        with pytest.raises(ValueError, match="symmetric"):
            SymMatrix.from_sparse(sp.csr_matrix(np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0],
                                                          [0.0, 0.0, 1.0]])))

    def test_rejects_a_non_square_matrix(self):
        with pytest.raises(ValueError, match="square"):
            SymMatrix.from_sparse(sp.csr_matrix(np.ones((2, 3))))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_a_non_finite_entry(self, bad):
        # no shift makes such a pencil definite: the LOBPCG branch of
        # solve_pencil would lower its shift forever
        with pytest.raises(ValueError, match="finite"):
            SymMatrix.from_sparse(sp.csr_matrix(np.array([[2.0, 1.0], [1.0, bad]])))

    def test_accepts_unsorted_duplicate_entries(self):
        # (0, 1) is given as two halves and the rows are unsorted
        mat = sp.csr_matrix(
            (np.array([0.5, 3.0, 0.5, 1.0, 4.0]), np.array([1, 0, 1, 0, 1]), np.array([0, 3, 5])),
            shape=(2, 2),
        )
        sym = SymMatrix.from_sparse(mat)
        np.testing.assert_array_equal(sym.dense(), [[3.0, 1.0], [1.0, 4.0]])


def _column_norm1(X) -> float:
    """The column-sum reference: a weighted bincount over the column indices."""
    X = sp.csr_matrix(X)
    return float(np.bincount(X.indices, np.abs(X.data), X.shape[1]).max(initial=0.0))


class TestNorm1:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=30), st.integers(0, 2**32 - 1))
    def test_row_sums_match_the_column_sums_of_a_symmetric_matrix(self, empty, seed):
        # the rows flagged in `empty` hold no entry: runs of them, and the last row, occur
        rng = np.random.default_rng(seed)
        live = ~np.asarray(empty)
        B = rng.standard_normal((live.size,) * 2) * (rng.random((live.size,) * 2) < 0.4) * np.outer(live, live)
        X = SymMatrix.from_sparse(np.triu(B) + np.triu(B, 1).T).data
        # row i's sorted entries are column i's in row order: the same sums, bit for bit
        assert norm1(X) == _column_norm1(X)

    def test_all_zero_matrix(self):
        assert norm1(sp.csr_matrix((5, 5))) == _column_norm1(sp.csr_matrix((5, 5))) == 0.0

    def test_one_by_one_matrix(self):
        assert norm1(sp.csr_matrix([[-3.0]])) == _column_norm1(sp.csr_matrix([[-3.0]])) == 3.0
