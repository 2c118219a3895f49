"""Many-body eigensolves, degeneracy classification, inverse iteration.

Every solve works on the nodal pencil (H, M) and its orbitals, the (A, M)
modes.  The eigensolver is the LOBPCG of spectrum, preconditioned here by
the exact inverse of the pencil's separable part: in the orbital basis the
non-interacting pencil is diagonal, so its inverse is a mode product, a
division and a mode product (fast diagonalization; Lynch, Rice & Thomas,
Numer. Math. 6 (1964)).  The orbitals also give the start block: the
lowest separable eigenstates, which are exact for free and contact
pencils (these return at iteration 0) and close for kernel ones, plus two
seeded random guard columns that reach every symmetry sector.

Ground-state degeneracy is never judged from a single grid: the spectral
gap is tracked under one refinement step and the verdict compares the gap
against the measured discretization error, since discretization splits
exact degeneracies (and splits near-degeneracies) at second order in the
mesh size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import BoundarySpec, PotentialSpec
from .errors import ConvergenceError, ShiftError
from .slater import (
    InteractionSpec,
    ManyBodyOperator,
    ManyBodyProblem,
    WaveVector,
    build_problem,
    enumerate_slater_basis,
    mode_product,
    wedge_coefficients,
    wedge_tensor,
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


def _require_orbitals(op: ManyBodyOperator) -> None:
    if op.orbitals is None:
        raise ValueError("the operator carries no orbitals; solve the pencil of build_problem")


def _separable_inverse(op: ManyBodyOperator):
    """Exact inverse of N A (x) M^(N-1) - shift M_N on the wedge space.

    The shift sits a tenth of the level (at least one unit) below the
    lowest separable level, so the inverse is positive definite.
    """
    basis, V = op.basis, op.orbitals.transform
    levels = op.orbitals.levels
    total = levels
    for _ in range(basis.n_particles - 1):
        total = np.add.outer(total, levels)
    lowest = float(np.sum(levels[: basis.n_particles]))
    shift = lowest - max(1.0, 0.1 * abs(lowest))
    inverse = 1.0 / (total - shift)
    # tied mode indices carry no antisymmetric weight; keep round-off there out
    N, index = basis.n_particles, np.arange(levels.size)
    for i, j in itertools.combinations(range(N), 2):
        tie = index.reshape((-1,) + (1,) * (N - 1 - i)) == index.reshape((-1,) + (1,) * (N - 1 - j))
        np.copyto(inverse, 0.0, where=tie)

    def apply(R: np.ndarray) -> np.ndarray:
        C = mode_product(wedge_tensor(basis, R), V.T) * inverse
        return wedge_coefficients(basis, mode_product(C, V))

    return apply


def _start_block(op: ManyBodyOperator, k: int) -> np.ndarray:
    """LOBPCG start: the k lowest separable eigenstates and two guard columns.

    The separable eigenstates are the antisymmetrized products of the
    orbitals, ranked by the sum of their levels with ties in tuple order;
    the k lowest use only orbitals below k + N - 1.  The guard columns are
    seeded random, so sectors of a symmetry shared by v and w that the
    wanted columns miss stay reachable.
    """
    N, orbitals = op.basis.n_particles, op.orbitals
    products = enumerate_slater_basis(min(op.basis.n_orbitals, k + N - 1), N)
    levels = orbitals.levels[products.array].sum(axis=1)
    unit = np.zeros((products.dim, k))
    unit[np.argsort(levels, kind="stable")[:k], np.arange(k)] = 1.0
    C = mode_product(wedge_tensor(products, unit), orbitals.transform[:, : products.n_orbitals])
    guard = np.random.default_rng(LOBPCG_SEED).standard_normal((op.dim, min(2, op.dim - k)))
    return np.hstack([wedge_coefficients(op.basis, C), guard])


def solve_mb_eig(H: ManyBodyOperator, k: int) -> SpectralResult:
    """Lowest k eigenpairs of the many-body pencil by preconditioned LOBPCG.

    The start block holds the k lowest separable eigenstates and two seeded
    random guard columns (see _start_block).  Eigenvectors are returned as
    Euclidean-orthonormal Slater coefficients over the operator's orbitals;
    residuals are those of the pencil at unit-norm vectors, and each must
    meet RESIDUAL_RTOL * (|H|_1 + |lambda| |M|_1).  Raises ValueError for
    an operator without orbitals.
    """
    _require_orbitals(H)
    if not 1 <= k <= H.dim:
        raise ValueError(f"k must lie in [1, {H.dim}], got {k}")
    A, M = sp.csr_matrix(H.matrix), sp.csr_matrix(H.overlap)
    a_norm, m_norm = norm1(A), norm1(M)
    lam, X, res, iterations = _lobpcg(
        A, M, _start_block(H, k), _separable_inverse(H), k, a_norm, m_norm
    )
    result = SpectralResult(lam, H.orbital_coefficients(X), res, k, iterations)
    result.check(a_norm, m_norm)
    return result


@dataclass(frozen=True)
class DegeneracyReport:
    """Two-grid evidence for a ground-state degeneracy verdict.

    The verdict is two_grid_verdict's, with the discretization error
    estimate |lambda1(h) - lambda1(h/2)|.
    """

    grids: tuple[int, int]
    lambda1: tuple[float, float]
    lambda2: tuple[float, float]
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
    v: PotentialSpec | None,
    w: InteractionSpec,
    bc: BoundarySpec,
    n_particles: int,
    grids: tuple[int, int],
    problems: tuple[ManyBodyProblem, ManyBodyProblem] | None = None,
) -> DegeneracyReport:
    """Solve on a coarse/fine grid pair and classify the ground-state gap."""
    n_coarse, n_fine = grids
    if n_fine != 2 * n_coarse:
        raise ValueError("grids must be (n, 2n)")
    lam1, lam2 = [], []
    for n_cells, prob in zip(grids, problems or (None, None)):
        if prob is None:
            prob = build_problem(v, w, bc, n_cells, n_particles)
        res = solve_mb_eig(prob.operator, 2)
        lam1.append(float(res.eigenvalues[0]))
        lam2.append(float(res.eigenvalues[1]))
    gaps = (lam2[0] - lam1[0], lam2[1] - lam1[1])
    err = abs(lam1[0] - lam1[1])
    floor = GAP_FLOOR_RTOL * max(1.0, abs(lam1[1]))
    ratio = gaps[1] / gaps[0] if gaps[0] > floor else 0.0
    return DegeneracyReport(
        grids=grids,
        lambda1=(lam1[0], lam1[1]),
        lambda2=(lam2[0], lam2[1]),
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

    The shift must lie strictly below the lowest eigenvalue.  This is
    detected through a symmetric sparse factorization of H - shift*M without
    pivoting: its pivots are all positive exactly when the shifted pencil is
    positive definite.  Raises ValueError for an operator without orbitals.
    """
    _require_orbitals(H)
    A, M = sp.csr_matrix(H.matrix), sp.csr_matrix(H.overlap)
    lu = _definite_factor(A - shift * M)
    if lu is None:
        raise ShiftError(
            f"shift {shift} is not below the lowest eigenvalue (indefinite factorization)"
        )
    x = np.full(H.dim, 1.0)
    x /= np.sqrt(x @ (M @ x))
    rayleigh = x @ (A @ x)
    for it in range(1, max_iter + 1):
        Mx = M @ x
        y = lu.solve(Mx)
        y /= np.sqrt(y @ (M @ y))
        new_rayleigh = y @ (A @ y)
        drift = abs(new_rayleigh - rayleigh)
        align = abs(float(y @ Mx))
        x, rayleigh = y, new_rayleigh
        if drift <= tol * max(1.0, abs(rayleigh)) and 1.0 - align <= tol:
            c = H.orbital_coefficients(x[:, None])[:, 0]
            return WaveVector(c / np.linalg.norm(c), H.basis)
    raise ConvergenceError(
        f"inverse iteration stagnated after {max_iter} iterations", iterations=max_iter
    )
