"""Many-body eigensolves, degeneracy classification, inverse iteration.

Every solve works on the nodal pencil (H, M) and its orbitals, the (A, M)
modes.  The eigensolver is the LOBPCG of spectrum, preconditioned here by
the inverse of the pencil's separable part shifted, column by column, a
tenth (at least one unit) below that column's Ritz value (Davidson's
shift): in the orbital basis the non-interacting pencil is diagonal, so
its inverse is a mode product, a clipped division and a mode product (fast
diagonalization; Lynch, Rice & Thomas, Numer. Math. 6 (1964)), applied as
GEMMs in float32.  Once a Ritz value lies above some separable levels the
apply is indefinite.  Only the search directions see the shift and the
rounding; Ritz values, residuals, their bound and the orthonormality
check stay in float64.  The orbitals also give the start
block: the lowest separable eigenstates, which are exact for free and
contact pencils (these return at iteration 0) and close for kernel ones,
plus two seeded random guard columns that reach every symmetry sector.
Eigenvectors come back in the pencil's own coordinates, the nodal wedge
coefficients.

Ground-state degeneracy is never judged from a single grid: the spectral
gap is tracked under one refinement step and the verdict compares the gap
against the measured discretization error, since discretization splits
exact degeneracies (and splits near-degeneracies) at second order in the
mesh size.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ShiftError
from .slater import (
    ManyBodyOperator,
    WaveVector,
    enumerate_slater_basis,
    scatter_orderings,
    signed_orderings,
)
from .spectrum import LOBPCG_SEED, SpectralResult, _definite_factor, _lobpcg, norm1

__all__ = [
    "DegeneracyReport",
    "solve_mb_eig",
    "two_grid_verdict",
    "classify_degeneracy",
    "inverse_iteration_ground",
]

# gaps below this (relative) floor are treated as exactly degenerate
GAP_FLOOR_RTOL = 1e-9
# a gap or ordering is established only when it exceeds this multiple of
# the measured discretization error
REFINEMENT_MARGIN = 4.0


def _contract(C: np.ndarray, B: np.ndarray, Bt: np.ndarray, N: int) -> np.ndarray:
    """B along every axis of the (m, s^N) tensor C, as GEMMs on reshapes.

    B is (n, s) and Bt its transpose; the result is (m, n^N).  The last
    axis goes as m GEMMs, not one: OpenBLAS threads a single
    (m n^(N-1), s) x (s, n) product already at N=3, n=24, and on a shared
    2-core host some processes then wait 4-8 ms in every such call for the
    second thread.
    """
    m, (n, s) = C.shape[0], B.shape
    for k in range(N - 1):
        C = np.matmul(B, C.reshape(m * n**k, s, s ** (N - k - 1)))
    return np.matmul(C.reshape(m, -1, s), Bt).reshape(m, -1)


def _separable_inverse(op: ManyBodyOperator):
    """Inverse of N A (x) M^(N-1) - sigma_i M_N on the wedge space, column by column, in float32.

    Column i of the block is shifted to its own Ritz value theta_i (Davidson,
    J. Comput. Phys. 17 (1975)): sigma_i = theta_i - delta_i with
    delta_i = max(1, |theta_i| / 10).  In the orbital basis the inverse
    scales the mode at separable level epsilon by 1 / (epsilon - sigma_i),
    clipped to at most 1 / delta_i in size, so levels near or below the
    shift get a bounded weight.  Once theta_i lies above some separable
    levels the apply is indefinite; that is safe because it only steers the
    search: LOBPCG M-orthonormalizes its directions and runs Rayleigh-Ritz
    on them, and the Ritz values, residuals, their bound and the
    orthonormality check stay in float64.  apply(R, theta) takes and
    returns float64 columns, but scatters them through the basis's
    signed_orderings table into the (m, n^N) antisymmetric tensor, changes
    it to the orbital basis, scales it, changes it back and reads the
    wedges off in float32.  Its tables, the float32 level sums with +inf at
    tied mode indices (which carry no antisymmetric weight, so their weight
    is exactly 0), are built on the first apply, so free and contact
    pencils, which return at iteration 0, never build them.
    """
    basis, orbitals = op.basis, op.orbitals
    N = basis.n_particles

    @functools.cache
    def tables():
        levels, J = orbitals.levels, basis.array
        n = levels.size
        orderings = signed_orderings(J, n)
        gather = np.ravel_multi_index(tuple(J.T), (n,) * N).astype(np.int32)
        total = levels
        for _ in range(N - 1):
            total = np.add.outer(total, levels)
        sums = total.astype(np.float32).reshape(-1)
        sums[orderings == 0] = np.inf
        V = orbitals.transform.astype(np.float32)
        return orderings, gather, sums, V, np.ascontiguousarray(V.T)

    def apply(R: np.ndarray, theta: np.ndarray) -> np.ndarray:
        orderings, gather, sums, V, Vt = tables()
        C = scatter_orderings(orderings, R.T.astype(np.float32))
        C = _contract(C, Vt, V, N)
        weight = np.empty_like(sums)
        for row, t in zip(C, theta):
            delta = max(1.0, 0.1 * abs(t))
            np.subtract(sums, np.float32(t - delta), out=weight)
            np.reciprocal(weight, out=weight)
            np.clip(weight, -1.0 / delta, 1.0 / delta, out=weight)
            row *= weight
        C = _contract(C, V, Vt, N)
        return np.take(C, gather, axis=1).T.astype(np.float64)

    return apply


def _start_block(op: ManyBodyOperator, k: int) -> np.ndarray:
    """LOBPCG start: the k lowest separable eigenstates and two guard columns.

    The separable eigenstates are the antisymmetrized products of the
    orbitals, ranked by the sum of their levels with ties in tuple order;
    the k lowest use only orbitals below s = k + N - 1.  Each is scattered
    as a unit column through the signed_orderings table of those products,
    contracted with the first s orbitals in float64 and read off at the
    wedges.  The guard columns are seeded random, so sectors of a symmetry
    shared by v and w that the wanted columns miss stay reachable.
    """
    N, orbitals = op.basis.n_particles, op.orbitals
    products = enumerate_slater_basis(min(op.basis.n_orbitals, k + N - 1), N)
    levels = orbitals.levels[products.array].sum(axis=1)
    unit = np.zeros((k, products.dim))
    unit[np.arange(k), np.argsort(levels, kind="stable")[:k]] = 1.0
    C = scatter_orderings(signed_orderings(products.array, products.n_orbitals), unit)
    B = orbitals.transform[:, : products.n_orbitals]
    C = _contract(C, B, B.T, N)
    n = op.basis.n_orbitals
    wedges = np.take(C, np.ravel_multi_index(tuple(op.basis.array.T), (n,) * N), axis=1)
    guard = np.random.default_rng(LOBPCG_SEED).standard_normal((op.dim, min(2, op.dim - k)))
    return np.hstack([wedges.T, guard])


def solve_mb_eig(H: ManyBodyOperator, k: int) -> SpectralResult:
    """Lowest k eigenpairs of the many-body pencil by preconditioned LOBPCG.

    The start block holds the k lowest separable eigenstates and two seeded
    random guard columns (see _start_block).  Eigenvectors are the pencil's
    own coordinates, nodal wedge coefficients; residuals are those of the
    pencil at unit-norm vectors.  Raises ConvergenceError unless each
    residual meets RESIDUAL_RTOL * (|H|_1 + |lambda| |M|_1) and
    max |X' M X - I| <= 1e-10, and ValueError for an operator without
    orbitals.
    """
    if H.orbitals is None:
        raise ValueError("the operator carries no orbitals; solve the pencil of build_problem")
    if not 1 <= k <= H.dim:
        raise ValueError(f"k must lie in [1, {H.dim}], got {k}")
    A, M = H.matrix, H.overlap
    a_norm, m_norm = norm1(A), norm1(M)
    lam, X, res, iterations = _lobpcg(
        A, M, _start_block(H, k), _separable_inverse(H), k, a_norm, m_norm
    )
    result = SpectralResult(lam, X, res, iterations)
    result.check(a_norm, m_norm)
    gram = float(np.max(np.abs(X.T @ (M @ X) - np.eye(k))))
    if not gram <= 1e-10:
        raise ConvergenceError(
            f"eigenvectors not M-orthonormal: max |X'MX - I| = {gram:.3g}", iterations=iterations
        )
    return result


@dataclass(frozen=True)
class DegeneracyReport:
    """Two-grid evidence for a ground-state degeneracy verdict.

    The verdict is two_grid_verdict's, with the discretization error
    estimate |lambda1(h) - lambda1(h/2)|.
    """

    grids: tuple[int, int]
    lambda1: tuple[float, float]
    gaps: tuple[float, float]
    refinement_ratio: float
    discretization_error_estimate: float
    verdict: str


def two_grid_verdict(gap_coarse: float, gap_fine: float, error: float, scale: float) -> str:
    """Verdict on a spectral gap tracked under one refinement step.

    'non-degenerate' when the fine gap exceeds REFINEMENT_MARGIN times the
    discretization error and the floor GAP_FLOOR_RTOL * max(1, |scale|);
    'degenerate' when it is at most the floor or half the coarse gap;
    'inconclusive' otherwise.
    """
    floor = GAP_FLOOR_RTOL * max(1.0, abs(scale))
    if gap_fine > REFINEMENT_MARGIN * error and gap_fine > floor:
        return "non-degenerate"
    if gap_fine <= max(floor, 0.5 * gap_coarse):
        return "degenerate"
    return "inconclusive"


def classify_degeneracy(
    grids: tuple[int, int], solves: tuple[SpectralResult, SpectralResult]
) -> DegeneracyReport:
    """Classify the ground-state gap on a coarse/fine grid pair.

    solves are solve_mb_eig results with k >= 2 of one problem on the two
    grids, in grid order.
    """
    n_coarse, n_fine = grids
    if n_fine != 2 * n_coarse:
        raise ValueError("grids must be (n, 2n)")
    lam1 = [float(res.eigenvalues[0]) for res in solves]
    lam2 = [float(res.eigenvalues[1]) for res in solves]
    gaps = (lam2[0] - lam1[0], lam2[1] - lam1[1])
    err = abs(lam1[0] - lam1[1])
    floor = GAP_FLOOR_RTOL * max(1.0, abs(lam1[1]))
    ratio = gaps[1] / gaps[0] if gaps[0] > floor else 0.0
    return DegeneracyReport(
        grids=grids,
        lambda1=(lam1[0], lam1[1]),
        gaps=gaps,
        refinement_ratio=ratio,
        discretization_error_estimate=err,
        verdict=two_grid_verdict(gaps[0], gaps[1], err, lam1[1]),
    )


def inverse_iteration_ground(
    H: ManyBodyOperator,
    shift: float,
    tol: float = 1e-12,
    max_iter: int = 500,
) -> WaveVector:
    """Ground-state vector of the pencil by inverse iteration with a fixed shift.

    Returns the pencil's coordinates, as solve_mb_eig does, normalized in
    M.  The shift must lie strictly below the lowest eigenvalue.  This is
    detected through an L D L' factorization of H - shift*M without
    pivoting (spectrum._definite_factor; block elimination over
    breadth-first level sets for N >= 2): its pivots are all positive
    exactly when the shifted pencil is positive definite.  Raises
    ShiftError otherwise.  Needs no orbitals, so it also runs on the
    oracle's operator.
    """
    A, M = H.matrix, H.overlap
    factor = _definite_factor(A - shift * M)
    if factor is None:
        raise ShiftError(
            f"shift {shift} is not below the lowest eigenvalue (indefinite factorization)"
        )
    x = np.full(H.dim, 1.0)
    x /= np.sqrt(x @ (M @ x))
    rayleigh = x @ (A @ x)
    for it in range(1, max_iter + 1):
        Mx = M @ x
        y = factor.solve(Mx)
        y /= np.sqrt(y @ (M @ y))
        new_rayleigh = y @ (A @ y)
        drift = abs(new_rayleigh - rayleigh)
        align = abs(float(y @ Mx))
        x, rayleigh = y, new_rayleigh
        if drift <= tol * max(1.0, abs(rayleigh)) and 1.0 - align <= tol:
            return WaveVector(x, H.basis)
    raise ConvergenceError(
        f"inverse iteration stagnated after {max_iter} iterations", iterations=max_iter
    )
