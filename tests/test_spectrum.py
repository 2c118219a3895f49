import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from fermigate import spectrum
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
    norm1,
)
from fermigate.errors import IndefiniteMatrixError
from fermigate.manybody import GAP_FLOOR_RTOL
from fermigate.slater import NoInteraction, build_problem
from fermigate.spectrum import RESIDUAL_RTOL, gap_report, solve_pencil, solve_sp_eig

from boundary_reference import bc_id

PI2 = np.pi**2


def free_problem(n_cells, bc):
    basis = build_grid_basis(n_cells, bc)
    K = assemble_stiffness(basis)
    M = assemble_overlap(basis)
    P = SymMatrix.from_sparse(sp.csr_matrix((basis.n_dofs, basis.n_dofs)))
    return basis, K, P, M


# ---------------------------------------------------------------------------
# shooting oracle for the centered point well with Dirichlet walls.
#
# Even bound state (energy -kappa^2): matching at the midpoint gives
# tanh(kappa/2) = -2 kappa / g; even scattering states: tan(k/2) = -2k/g;
# odd states are blind to the centered well: lambda = (2 m pi)^2.


def delta_well_even_bound(g):
    f = lambda kap: np.tanh(kap / 2) - (-2 * kap / g)
    return -brentq(f, 1e-9 + abs(g) / 4, abs(g)) ** 2


def delta_well_even_positive(g, bracket):
    f = lambda k: np.tan(k / 2) - (-2 * k / g)
    return brentq(f, *bracket) ** 2


# frozen oracle outputs for g = -10 (recomputed below to guard the freeze)
ORACLE_LAMBDA1 = -24.286360408404068
ORACLE_LAMBDA3 = 69.64225323922851


class TestSolveSpEig:
    def test_free_dirichlet_spectrum(self):
        _, K, P, M = free_problem(200, BoundarySpec.dirichlet_both())
        res = solve_sp_eig(K, P, M, 5)
        k = np.arange(1, 6)
        rel = np.abs(res.eigenvalues - k**2 * PI2) / (k**2 * PI2)
        assert np.all(rel <= 2e-3)

    def test_free_periodic_spectrum(self):
        _, K, P, M = free_problem(200, BoundarySpec.quasiperiodic(1.0))
        res = solve_sp_eig(K, P, M, 3)
        scale = abs(res.eigenvalues[-1])
        assert abs(res.eigenvalues[0]) <= 1e-8 * scale
        for lam in res.eigenvalues[1:3]:
            assert lam == pytest.approx(4 * PI2, rel=2e-3)

    def test_free_antiperiodic_spectrum(self):
        _, K, P, M = free_problem(200, BoundarySpec.quasiperiodic(-1.0))
        res = solve_sp_eig(K, P, M, 2)
        for lam in res.eigenvalues:
            assert lam == pytest.approx(PI2, rel=2e-3)

    def test_m_orthonormality_and_residuals(self):
        basis, K, P, M = free_problem(120, BoundarySpec.quasiperiodic(0.7))
        res = solve_sp_eig(K, P, M, 6)
        G = res.eigenvectors.T @ (M.data @ res.eigenvectors)
        assert np.max(np.abs(G - np.eye(6))) <= 1e-10
        A = SymMatrix.from_sparse(K.data + P.data)
        res.check(A.norm1(), M.norm1())
        assert np.all(np.diff(res.eigenvalues) >= 0)

    def test_delta_well_matches_shooting_oracle(self):
        # guard the frozen values against the oracle itself
        assert delta_well_even_bound(-10.0) == pytest.approx(ORACLE_LAMBDA1, rel=1e-12)
        assert delta_well_even_positive(-10.0, (2 * np.pi + 1e-9, 3 * np.pi - 1e-9)) == pytest.approx(
            ORACLE_LAMBDA3, rel=1e-12
        )
        basis = build_grid_basis(800, BoundarySpec.dirichlet_both())
        K = assemble_stiffness(basis)
        M = assemble_overlap(basis)
        P = assemble_potential(basis, Delta(0.5, -10.0))
        res = solve_sp_eig(K, P, M, 3)
        lam = res.eigenvalues
        assert lam[0] < PI2
        # 4 significant digits against the matching-condition oracle
        assert lam[0] == pytest.approx(ORACLE_LAMBDA1, rel=1e-4)
        # the odd state ignores the centered well
        assert lam[1] == pytest.approx(4 * PI2, rel=1e-4)
        assert lam[2] == pytest.approx(ORACLE_LAMBDA3, rel=1e-4)

    def test_convergence_order_h2(self):
        errs = []
        for n in (100, 200, 400):
            _, K, P, M = free_problem(n, BoundarySpec.dirichlet_both())
            res = solve_sp_eig(K, P, M, 5)
            k = np.arange(1, 6)
            errs.append(np.abs(res.eigenvalues - k**2 * PI2))
        errs = np.array(errs)
        ratios = errs[:-1] / errs[1:]
        assert np.all(ratios >= 3.5)

    def test_domain_monotonicity_fixed_grid(self):
        v = Delta(0.3, -4.0)
        lam = []
        for bc in (BoundarySpec.free(), BoundarySpec.dirichlet_left(), BoundarySpec.dirichlet_both()):
            basis = build_grid_basis(60, bc)
            res = solve_sp_eig(
                assemble_stiffness(basis),
                assemble_potential(basis, v),
                assemble_overlap(basis),
                1,
            )
            lam.append(res.eigenvalues[0])
        assert lam[0] <= lam[1] <= lam[2]

    def test_indefinite_overlap_signalled(self):
        bad = SymMatrix.from_sparse(sp.diags([1.0, -1.0, 1.0, 1.0]).tocsr())
        K = SymMatrix.from_sparse(sp.identity(4, format="csr"))
        P = SymMatrix.from_sparse(sp.csr_matrix((4, 4)))
        with pytest.raises(IndefiniteMatrixError):
            solve_sp_eig(K, P, bad, 2)

    def test_k_out_of_range(self):
        _, K, P, M = free_problem(8, BoundarySpec.dirichlet_both())
        with pytest.raises(ValueError):
            solve_sp_eig(K, P, M, 0)
        with pytest.raises(ValueError):
            solve_sp_eig(K, P, M, 99)

    def test_full_spectrum_allowed(self):
        _, K, P, M = free_problem(8, BoundarySpec.dirichlet_both())
        res = solve_sp_eig(K, P, M, 7)
        assert res.eigenvalues.size == 7

    @pytest.mark.parametrize("k", [11, 12])
    def test_whole_spectrum_above_dense_cap(self, monkeypatch, k):
        # a whole or near-whole spectrum, 3 (k + 2) >= dim, stays dense above the cap
        monkeypatch.setattr(spectrum, "DENSE_DIM_CAP", 4)
        _, K, _, M = free_problem(13, BoundarySpec.dirichlet_both())
        res = solve_pencil(K, M, k)
        assert res.iterations is None
        # the P1 Dirichlet pencil is diagonalized by the sine modes
        h, c = 1.0 / 13, np.cos(np.arange(1, k + 1) * np.pi / 13)
        exact = 6.0 * (1.0 - c) / (h**2 * (2.0 + c))
        assert res.eigenvalues.size == k
        np.testing.assert_allclose(res.eigenvalues, exact, rtol=1e-12)

    def test_few_pairs_of_a_large_pencil_skip_dense_factorizations(self, monkeypatch):
        # LOBPCG factors and diagonalizes nothing wider than its 3 (k + 2) Ritz basis
        k = 4
        for name in ("eigh", "cholesky", "inv"):
            def narrow(a, *args, _call=getattr(np.linalg, name), _name=name, **kwargs):
                assert np.shape(a)[-1] <= 3 * (k + 2), f"np.linalg.{_name} of shape {np.shape(a)}"
                return _call(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, narrow)
        n = 4000
        _, K, P, M = free_problem(n, BoundarySpec.quasiperiodic(-1.0))
        res = solve_sp_eig(K, P, M, k)
        # the antiperiodic P1 levels, each twice: 6 (1 - cos t) / (h^2 (2 + cos t)),
        # t = (2 m + 1) pi h, with 1 - cos t = 2 sin^2(t / 2); rtol 1e-11 needs
        # the closing Rayleigh-Ritz step on fresh products
        s2 = 2.0 * np.sin(np.pi * np.array([1, 1, 3, 3]) / (2 * n)) ** 2
        np.testing.assert_allclose(res.eigenvalues, 6.0 * n**2 * s2 / (3.0 - s2), rtol=1e-11)

    def test_indefinite_overlap_signalled_above_dense_cap(self, monkeypatch):
        monkeypatch.setattr(spectrum, "DENSE_DIM_CAP", 4)
        _, K, _, M = free_problem(40, BoundarySpec.free())
        bad = M.data.tolil()
        bad[7, 7] = -bad[7, 7]
        with pytest.raises(IndefiniteMatrixError):
            solve_pencil(K, SymMatrix.from_sparse(bad), 2)


# ---------------------------------------------------------------------------
# the LOBPCG branch against the dense reference


LOBPCG_BCS = [
    BoundarySpec.dirichlet_both(),
    BoundarySpec.dirichlet_left(),
    BoundarySpec.dirichlet_right(),
    BoundarySpec.free(),
    BoundarySpec.quasiperiodic(1.0),
    BoundarySpec.quasiperiodic(-1.0),
    BoundarySpec.quasiperiodic(0.6),
    BoundarySpec.line(2.0, -3.0),
    BoundarySpec.line(0.0, 1.5),
]


def _potential(kind, n_cells, strength, rng):
    if kind == "delta":
        return Delta(rng.uniform(0.0, 1.0), strength)
    if kind == "sampled":
        return Sampled(tuple(strength * rng.uniform(-1.0, 1.0, n_cells + 1)))
    if kind == "h-minus-one":
        return HMinusOnePair(strength, tuple(strength * rng.uniform(-1.0, 1.0, n_cells)))
    return None


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_cells=st.integers(40, 160),
    bc=st.sampled_from(LOBPCG_BCS),
    kind=st.sampled_from(["none", "delta", "sampled", "h-minus-one"]),
    strength=st.floats(-60.0, 60.0),
    k=st.integers(1, 8),
)
# wells far below the first shift, -1: lambda_0 is about -strength^2 / 4
@example(seed=1, n_cells=80, bc=BoundarySpec.dirichlet_both(), kind="delta", strength=-40.0, k=3)
@example(seed=2, n_cells=150, bc=BoundarySpec.quasiperiodic(1.0), kind="delta", strength=-60.0, k=8)
# free pencils with degenerate pairs up to the block edge
@example(seed=3, n_cells=100, bc=BoundarySpec.quasiperiodic(1.0), kind="none", strength=0.0, k=8)
@example(seed=4, n_cells=100, bc=BoundarySpec.quasiperiodic(-1.0), kind="none", strength=0.0, k=7)
def test_lobpcg_branch_matches_dense_reference(seed, n_cells, bc, kind, strength, k):
    basis = build_grid_basis(n_cells, bc)
    v = _potential(kind, n_cells, strength, np.random.default_rng(seed))
    A = SymMatrix.from_sparse(assemble_stiffness(basis).data + assemble_potential(basis, v).data)
    M = assemble_overlap(basis)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectrum, "DENSE_DIM_CAP", 4)
        res = solve_pencil(A, M, k)
    assert res.iterations is not None
    ref, _ = spectrum._dense_pencil_eigh(A.data, M.dense(), k)
    lam, X = res.eigenvalues, res.eigenvectors
    assert np.all(np.abs(lam - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))

    R = A.data @ X - (M.data @ X) * lam
    bound = RESIDUAL_RTOL * (A.norm1() + np.abs(lam) * M.norm1())
    assert np.all(np.linalg.norm(R, axis=0) <= bound)
    assert np.max(np.abs(X.T @ (M.data @ X) - np.eye(k))) <= 1e-10

    if v is None and bc.kind == "line" and bc.b == 1.0 and abs(bc.a) == 1.0:
        # the free (anti)periodic pencil pairs every level above the first
        # periodic one: pairs (1, 2), (3, 4), ... or (0, 1), (2, 3), ...
        first = 1 if bc.a > 0 else 0
        for j in range(first, k - 1, 2):
            floor = GAP_FLOOR_RTOL * max(1.0, abs(lam[j + 1]))
            assert lam[j + 1] - lam[j] <= 1e-2 * floor


# the strict-pair patterns gap_report used before the rule lived on
# BoundarySpec: odd pairs for alpha > 0, even pairs for alpha < 0, every pair
# for local conditions (alpha = a / b on a line, a = 0 or b = 0 local)
ALL, ODD, EVEN = [True] * 8, [m % 2 == 1 for m in range(1, 9)], [m % 2 == 0 for m in range(1, 9)]
PARITY_PATTERNS = [
    (BoundarySpec.dirichlet_both(), ALL),
    (BoundarySpec.dirichlet_left(), ALL),
    (BoundarySpec.dirichlet_right(), ALL),
    (BoundarySpec.free(), ALL),
    (BoundarySpec.quasiperiodic(1.0), ODD),
    (BoundarySpec.quasiperiodic(2.5), ODD),
    (BoundarySpec.quasiperiodic(-1.0), EVEN),
    (BoundarySpec.quasiperiodic(-0.5), EVEN),
    (BoundarySpec.line(1.0, 0.5), ODD),
    (BoundarySpec.line(-1.0, -0.5), ODD),
    (BoundarySpec.line(-1.0, 0.5), EVEN),
    (BoundarySpec.line(1.0, -2.0), EVEN),
    (BoundarySpec.line(0.0, -2.0), ALL),
    (BoundarySpec.line(3.0, 0.0), ALL),
]


@pytest.mark.parametrize(
    "bc, pattern", PARITY_PATTERNS, ids=[bc_id(bc) for bc, _ in PARITY_PATTERNS]
)
def test_parity_rule_gives_the_strict_pair_pattern(bc, pattern):
    assert [bc.guarantees_simple_ground(m) for m in range(1, 9)] == pattern
    res = spectrum.SpectralResult(np.arange(9.0), np.eye(9), np.zeros(9))
    assert list(gap_report(res, bc).required_strict) == pattern


class TestGapReport:
    def test_periodic_pattern(self):
        _, K, P, M = free_problem(200, BoundarySpec.quasiperiodic(1.0))
        res = solve_sp_eig(K, P, M, 7)
        rep = gap_report(res, BoundarySpec.quasiperiodic(1.0))
        assert rep.verdicts[0] == "strict"
        assert rep.verdicts[1] == "degenerate-within-tolerance"
        assert rep.verdicts[3] == "degenerate-within-tolerance"
        assert rep.ok

    def test_antiperiodic_pattern(self):
        _, K, P, M = free_problem(200, BoundarySpec.quasiperiodic(-1.0))
        res = solve_sp_eig(K, P, M, 4)
        rep = gap_report(res, BoundarySpec.quasiperiodic(-1.0))
        assert rep.verdicts[0] == "degenerate-within-tolerance"
        assert rep.verdicts[1] == "strict"
        assert rep.ok

    def test_dirichlet_all_strict(self):
        _, K, P, M = free_problem(200, BoundarySpec.dirichlet_both())
        res = solve_sp_eig(K, P, M, 6)
        rep = gap_report(res, BoundarySpec.dirichlet_both())
        assert all(v == "strict" for v in rep.verdicts)
        assert all(rep.required_strict)

    def test_violation_detected_for_required_pair(self):
        # a periodic-like spectrum under a separable condition violates
        _, K, P, M = free_problem(200, BoundarySpec.quasiperiodic(1.0))
        res = solve_sp_eig(K, P, M, 4)
        rep = gap_report(res, BoundarySpec.dirichlet_both())
        assert "violation" in rep.verdicts
        assert not rep.ok

    def test_verdicts_recomputable_from_fields(self):
        _, K, P, M = free_problem(100, BoundarySpec.quasiperiodic(-1.0))
        res = solve_sp_eig(K, P, M, 5)
        rep = gap_report(res, BoundarySpec.quasiperiodic(-1.0))
        lam = res.eigenvalues
        for i, (gap, verdict, required) in enumerate(
            zip(rep.gaps, rep.verdicts, rep.required_strict)
        ):
            scale = max(1.0, abs(lam[i]), abs(lam[i + 1]))
            strict = gap > rep.deg_tol * scale
            if strict:
                assert verdict == "strict"
            elif required:
                assert verdict == "violation"
            else:
                assert verdict == "degenerate-within-tolerance"

    @pytest.mark.parametrize("deg_tol", [np.nan, -1.0, np.inf])
    def test_deg_tol_must_be_finite_and_non_negative(self, deg_tol):
        # nan would call every pair a violation, -1 a degenerate pair strict
        _, K, P, M = free_problem(8, BoundarySpec.quasiperiodic(1.0))
        res = solve_sp_eig(K, P, M, 3)
        with pytest.raises(ValueError, match="deg_tol must be finite and >= 0"):
            gap_report(res, BoundarySpec.quasiperiodic(1.0), deg_tol)

    def test_needs_two_eigenvalues(self):
        _, K, P, M = free_problem(8, BoundarySpec.dirichlet_both())
        res = solve_sp_eig(K, P, M, 1)
        with pytest.raises(ValueError):
            gap_report(res, BoundarySpec.dirichlet_both())


# ---------------------------------------------------------------------------
# the spectrum does not depend on the dof basis


BASIS_BCS = [
    BoundarySpec.dirichlet_both(),
    BoundarySpec.dirichlet_left(),
    BoundarySpec.free(),
    BoundarySpec.quasiperiodic(1.0),
    BoundarySpec.quasiperiodic(-1.0),
]


def _well_conditioned(rng, n):
    """Random T = Q diag(s) with Q orthogonal and s in [1/2, 2]: cond(T) <= 4."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.exp(rng.uniform(-np.log(2.0), np.log(2.0), n))


def _congruence(X, T) -> SymMatrix:
    Y = T.T @ (X @ T)
    return SymMatrix.from_sparse((Y + Y.T) / 2)  # exactly symmetric


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_cells=st.integers(4, 40),
    bc=st.sampled_from(BASIS_BCS),
    well=st.floats(-20.0, 20.0),
)
def test_spectrum_invariant_under_change_of_dof_basis(seed, n_cells, bc, well):
    basis = build_grid_basis(n_cells, bc)
    A = SymMatrix.from_sparse(
        assemble_stiffness(basis).data + assemble_potential(basis, Delta(0.37, well)).data
    )
    M = assemble_overlap(basis)
    rng = np.random.default_rng(seed)
    T = _well_conditioned(rng, basis.n_dofs)
    k = basis.n_dofs
    ref = solve_pencil(A, M, k).eigenvalues
    lam = solve_pencil(_congruence(A.dense(), T), _congruence(M.dense(), T), k).eigenvalues
    scale = np.maximum(np.abs(ref), 1.0)
    assert np.all(np.abs(lam - ref) <= 1e-10 * scale)

    # an indefinite overlap is caught by the dense branch's Cholesky factorization
    signs = np.ones(basis.n_dofs)
    signs[rng.integers(basis.n_dofs)] = -1.0
    indefinite = _congruence(np.diag(signs * rng.uniform(0.5, 2.0, basis.n_dofs)), T)
    with pytest.raises(IndefiniteMatrixError):
        solve_pencil(A, indefinite, 1)


# ---------------------------------------------------------------------------
# definite L D L' factorizations against dense eigenvalues


def _check_factor(S, seed, kind):
    """The factor of S exists exactly when S is positive definite, and solves to 1e-12.

    Matrices within 1e-8 (relative) of singular carry no verdict.
    """
    eigs = np.linalg.eigvalsh(S.toarray())
    assume(abs(eigs[0]) > 1e-8 * np.abs(eigs).max())
    factor = spectrum._definite_factor(S)
    assert (factor is not None) == (eigs[0] > 0.0)
    if factor is None:
        return
    assert isinstance(factor, kind)
    R = np.random.default_rng(seed).standard_normal((S.shape[0], 3))
    X = factor.solve(R)
    residual = np.linalg.norm(S @ X - R, axis=0)
    assert np.all(residual <= 1e-12 * norm1(S) * np.linalg.norm(X, axis=0))
    x = factor.solve(R[:, 0])  # a vector solves like a one-column block
    assert x.shape == (S.shape[0],)
    if isinstance(factor, spectrum._PathFactor):  # every step elementwise: bit for bit
        assert np.array_equal(x, factor.solve(R[:, :1])[:, 0])
        assert np.array_equal(x, X[:, 0])
    np.testing.assert_allclose(x, X[:, 0], rtol=0.0, atol=1e-12 * np.abs(X[:, 0]).max())


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_cells=st.integers(4, 160),
    bc=st.sampled_from(LOBPCG_BCS),
    kind=st.sampled_from(["none", "delta", "sampled", "h-minus-one"]),
    strength=st.floats(-60.0, 60.0),
    offset=st.floats(-2.0, 2.0),
)
# near singular, with a corner: a vector solve must match a block solve bit for bit
@example(0, 9, BoundarySpec.quasiperiodic(-1.0), "none", 0.0, -6.103515625e-05)
def test_path_factor_matches_dense_verdict(seed, n_cells, bc, kind, strength, offset):
    # every one-body pattern: a path, or a path plus the coupled dof on both its ends
    basis = build_grid_basis(n_cells, bc)
    v = _potential(kind, n_cells, strength, np.random.default_rng(seed))
    A = assemble_stiffness(basis).data + assemble_potential(basis, v).data
    M = assemble_overlap(basis)
    lam0 = spectrum._dense_pencil_eigh(A, M.dense(), 1)[0][0]
    _check_factor(A - (lam0 + offset * max(1.0, abs(lam0))) * M.data, seed, spectrum._PathFactor)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 80),
    corner=st.booleans(),
    shift=st.floats(-3.0, 3.0),
)
def test_path_factor_matches_dense_verdict_on_any_signs(seed, n, corner, shift):
    # indefinite diagonals put negative pivots on every reduction level, not
    # only on the last
    rng = np.random.default_rng(seed)
    main, off = rng.standard_normal(n) + shift, rng.standard_normal(n - 1)
    S = sp.diags([off, main, off], [-1, 0, 1], format="lil")
    if corner:
        S[0, n - 1] = S[n - 1, 0] = rng.standard_normal()
    _check_factor(S.tocsr(), seed, spectrum._PathFactor)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_particles=st.sampled_from([2, 3]),
    n_cells=st.integers(5, 10),
    bc=st.sampled_from(LOBPCG_BCS),
    strength=st.floats(-40.0, 40.0),
    offset=st.floats(-2.0, 2.0),
)
def test_level_factor_matches_dense_verdict(seed, n_particles, n_cells, bc, strength, offset):
    # a many-body pencil shifted to either side of its lowest level
    v = Delta(np.random.default_rng(seed).uniform(0.0, 1.0), strength)
    op = build_problem(v, NoInteraction(), bc, n_cells, n_particles).operator
    H, M = sp.csr_matrix(op.matrix), sp.csr_matrix(op.overlap)
    lam0 = spectrum._dense_pencil_eigh(H, M.toarray(), 1)[0][0]
    _check_factor(H - (lam0 + offset * max(1.0, abs(lam0))) * M, seed, spectrum._LevelFactor)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_level_factor_over_disconnected_components(sign):
    # a component the breadth-first search never reaches starts a level of its own
    block = sp.csr_matrix(np.array([[4.0, 1.0, 1.0], [1.0, 4.0, 1.0], [1.0, 1.0, 4.0]]))
    S = sp.block_diag([block, sign * block, block], format="csr")
    factor = spectrum._definite_factor(S)
    if sign < 0.0:
        assert factor is None
        return
    assert isinstance(factor, spectrum._LevelFactor)
    r = np.arange(9.0)
    np.testing.assert_allclose(S @ factor.solve(r), r, rtol=0.0, atol=1e-13)
