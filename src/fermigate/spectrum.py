"""Generalized symmetric eigensolves and spectral gap classification.

Solves (K + P) x = lambda M x for the lowest eigenpairs with M-orthonormal
eigenvectors.  Small pencils and whole or near-whole spectra are reduced to
standard form through the Cholesky factor of M and solved by
numpy.linalg.eigh.  A few pairs of a larger pencil come from block LOBPCG
(Knyazev, SIAM J. Sci. Comput. 23 (2001)), the one iterative solver, which
the many-body solves share; it preconditions only the columns that have
not converged (soft locking; Hetmaniuk & Lehoucq, J. Comput. Phys. 218
(2006)).  Dense algebra runs on numpy.linalg alone (scipy bundles a second
BLAS whose thread pool stalls numpy's); SuperLU is the only scipy code a
solve calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .basis import BoundarySpec, SymMatrix, norm1
from .errors import ConvergenceError, IndefiniteMatrixError

__all__ = [
    "SpectralResult",
    "GapReport",
    "solve_sp_eig",
    "solve_pencil",
    "solve_dense_symmetric",
    "gap_report",
]

# measured crossover on 2 cores: the dense solve wins at 200 dofs (k = 7),
# LOBPCG at 300
DENSE_DIM_CAP = 300

# residual tolerance promised by SpectralResult
RESIDUAL_RTOL = 1e-8

LOBPCG_MAX_ITER = 500
# LOBPCG iterates until every wanted residual is this fraction of its
# RESIDUAL_RTOL bound, so eigenvalues (quadratic in the residual) reach
# round-off even where the bound alone would leave them at 1e-10
LOBPCG_TARGET = 1e-4
LOBPCG_SEED = 0


@dataclass(frozen=True)
class SpectralResult:
    """Ascending eigenvalues with M-orthonormal eigenvectors and residuals.

    iterations counts the iterations of an iterative solver (None for
    direct ones).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column i is the i-th eigenvector
    residuals: np.ndarray
    k_requested: int
    iterations: int | None = None

    def check(self, A_norm1: float, M_norm1: float) -> None:
        """Raise ConvergenceError unless the advertised invariants hold."""
        lam = self.eigenvalues
        if np.any(np.diff(lam) < 0):
            raise ConvergenceError("eigenvalues not non-decreasing", iterations=self.iterations)
        bound = RESIDUAL_RTOL * (A_norm1 + np.abs(lam) * M_norm1)
        if not np.all(self.residuals <= bound):
            worst = float(np.max(self.residuals / bound))
            raise ConvergenceError(
                f"residual {worst:.3g} times its bound RESIDUAL_RTOL*(|A|_1 + |lambda| |M|_1)",
                iterations=self.iterations,
            )


def _residuals(A, M, lam: np.ndarray, X: np.ndarray) -> np.ndarray:
    R = A @ X - (M @ X) * lam[None, :]
    return np.linalg.norm(R, axis=0)


def _dense_pencil_eigh(A, M: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenpairs of a symmetric-definite pencil with dense M.

    With M = L L', the pencil's eigenvectors are L^-T Y for the eigenvectors
    Y of the standard problem L^-1 A L^-T; A may be dense or sparse.  The
    Cholesky factorization is the definiteness check: it raises
    IndefiniteMatrixError when M is not positive definite.
    """
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise IndefiniteMatrixError("overlap matrix is not positive definite") from exc
    Linv = np.linalg.inv(L)
    del L  # one n^2 factor less while eigh holds its workspace
    lam, Y = np.linalg.eigh(Linv @ (A @ Linv.T))
    return lam[:k], Linv.T @ Y[:, :k]


def _definite_factor(S) -> spla.SuperLU | None:
    """Sparse LU of the symmetric matrix S, or None unless S is positive definite.

    SuperLU in symmetric mode without threshold pivoting keeps every pivot
    on the diagonal of a symmetrically permuted S, so its U carries the
    pivots of an L D L' factorization; by Sylvester's law of inertia S is
    positive definite exactly when all of them are positive.
    """
    try:
        lu = spla.splu(
            sp.csc_matrix(S),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError:  # exactly singular
        return None
    if np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0.0):
        return lu
    return None


def _sq_norms(X: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", X, X)


def _orthonormalize(Z: np.ndarray, MZ: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """M-orthonormal basis of span(Z) by SVQB, dropping dependent directions.

    Z has no zero columns; MZ = M Z is transformed along, so the products
    are not recomputed.
    """
    for _ in range(2):
        G = Z.T @ MZ
        d = np.sqrt(np.diag(G))
        theta, U = np.linalg.eigh(G / np.outer(d, d))
        keep = theta > 1e-12 * theta[-1]
        T = U[:, keep] / (d[:, None] * np.sqrt(theta[keep]))
        Z, MZ = Z @ T, MZ @ T
    return Z, MZ


def _rayleigh_ritz(A, X: np.ndarray, MX: np.ndarray):
    """Ritz values and vectors of (A, M) on span(X), X M-orthonormal, from a fresh A X."""
    HX = A @ X
    lam, C = np.linalg.eigh(X.T @ HX)
    return lam, X @ C, HX @ C, MX @ C


def _lobpcg(A, M, X: np.ndarray, precond, k: int, a_norm: float, m_norm: float):
    """Block LOBPCG for the k lowest eigenpairs of the pencil (A, M).

    X is the start block; its columns beyond k are guards, which keep every
    symmetry sector reachable.  Each step M-orthonormalizes the new
    directions Z (preconditioned residuals and conjugate directions) against
    X and among themselves, so the Rayleigh-Ritz matrix on [X, Z] is
    diag(lam) bordered by Z'HX and Z'HZ, and X, HX and MX update by block
    products.  Only the guards and the wanted columns whose residual at a
    unit-norm vector exceeds LOBPCG_TARGET times its SpectralResult bound
    (from the 1-norms a_norm, m_norm) are preconditioned and carry
    conjugate directions.  Returns (lam, X, res, iterations) for the k
    lowest Ritz pairs, with X M-orthonormal and res those residuals.
    """
    lam, X, HX, MX = _rayleigh_ritz(A, *_orthonormalize(X, M @ X))
    m = X.shape[1]
    P = X[:, :0]
    for it in range(LOBPCG_MAX_ITER + 1):
        R = HX - MX * lam
        res = np.sqrt(_sq_norms(R) / _sq_norms(X))
        active = res > LOBPCG_TARGET * RESIDUAL_RTOL * (a_norm + np.abs(lam) * m_norm)
        if not active[:k].any() or it == LOBPCG_MAX_ITER:
            break
        active[k:] = True
        Z = precond(R[:, active])
        if P.shape[1]:
            Z = np.hstack([Z, P[:, active]])
        size = _sq_norms(Z)
        for _ in range(2):
            Z -= X @ (MX.T @ Z)
        # directions that lay in span(X) up to round-off carry no information
        Z = Z[:, _sq_norms(Z) > 1e-20 * size]
        if Z.shape[1] == 0:
            break
        Z, MZ = _orthonormalize(Z, M @ Z)
        HZ = A @ Z
        T = np.zeros((m + Z.shape[1],) * 2)
        np.fill_diagonal(T[:m, :m], lam)
        T[m:, :m] = Z.T @ HX
        T[m:, m:] = Z.T @ HZ
        theta, C = np.linalg.eigh(T)  # reads the lower triangle only
        lam, Cx, Cz = theta[:m], C[:m, :m], C[m:, :m]
        P = Z @ Cz
        X = X @ Cx + P
        HX = HX @ Cx + HZ @ Cz
        MX = MX @ Cx + MZ @ Cz
    if it:  # updated products drift by round-off: end on a fresh A X
        lam, X, HX, MX = _rayleigh_ritz(A, X, MX)
        res = np.sqrt(_sq_norms(HX - MX * lam) / _sq_norms(X))
    return lam[:k], X[:, :k], res[:k], it


def solve_pencil(A: SymMatrix, M: SymMatrix, k: int) -> SpectralResult:
    """Lowest k eigenpairs of the symmetric-definite pencil (A, M).

    Up to DENSE_DIM_CAP, and for whole or near-whole spectra
    (3 (k + 2) >= dim), the pencil is solved densely by numpy.linalg, the
    Cholesky factorization of M serving as its definiteness check.  Larger
    pencils go to LOBPCG with k + 2 seeded random start columns, after a
    pivot check of M, preconditioned by the exact inverse of A - sigma M:
    sigma starts at min(0, 2 d) - 1 for the smallest diagonal ratio d of
    the pencil and moves twice as far below zero until every pivot of the
    factorization is positive, which puts it below the spectrum.  Raises
    IndefiniteMatrixError for an M that is not positive definite and
    ConvergenceError when a residual misses its bound.
    """
    dim = A.dimension
    if M.dimension != dim:
        raise ValueError("dimension mismatch between A and M")
    if not 1 <= k <= dim:
        raise ValueError(f"k must lie in [1, {dim}], got {k}")

    a_norm, m_norm, iterations = A.norm1(), M.norm1(), None
    if dim <= DENSE_DIM_CAP or 3 * (k + 2) >= dim:
        lam, X = _dense_pencil_eigh(A.data, M.dense(), k)
    else:
        if _definite_factor(M.data) is None:
            raise IndefiniteMatrixError("overlap matrix is not positive definite")
        d = float(np.min(A.data.diagonal() / M.data.diagonal()))
        sigma = min(0.0, 2.0 * d) - 1.0
        while (lu := _definite_factor(A.data - sigma * M.data)) is None:
            sigma -= max(1.0, abs(sigma))
        X = np.random.default_rng(LOBPCG_SEED).standard_normal((dim, k + 2))
        lam, X, _, iterations = _lobpcg(A.data, M.data, X, lu.solve, k, a_norm, m_norm)

    result = SpectralResult(lam, X, _residuals(A.data, M.data, lam, X), k, iterations)
    result.check(a_norm, m_norm)
    return result


def solve_sp_eig(K: SymMatrix, P: SymMatrix, M: SymMatrix, k: int) -> SpectralResult:
    """Lowest k eigenpairs of (K + P) x = lambda M x."""
    if not (K.dimension == P.dimension == M.dimension):
        raise ValueError("K, P, M dimensions disagree")
    A = SymMatrix.from_sparse(K.data + P.data)
    return solve_pencil(A, M, k)


def solve_dense_symmetric(H, k: int) -> SpectralResult:
    """Lowest k eigenpairs of a small symmetric matrix (M = I), numpy.linalg.eigh."""
    H = H.toarray() if sp.issparse(H) else np.asarray(H)
    if not 1 <= k <= H.shape[0]:
        raise ValueError(f"k must lie in [1, {H.shape[0]}], got {k}")
    lam, X = np.linalg.eigh(H)
    lam, X = lam[:k], X[:, :k]
    result = SpectralResult(
        eigenvalues=lam, eigenvectors=X, residuals=_residuals(H, np.eye(len(H)), lam, X),
        k_requested=k,
    )
    result.check(norm1(H), 1.0)
    return result


# ---------------------------------------------------------------------------
# gap laws


@dataclass(frozen=True)
class GapReport:
    """Consecutive-gap verdicts against the boundary-condition gap pattern.

    Pair m, (lambda_m, lambda_(m+1)), must be strict exactly when the
    parity rule guarantees a simple m-particle ground state: the odd pairs
    for a coupling alpha > 0, the even pairs for alpha < 0, every pair for
    local conditions.  Pairs not required strict may be degenerate within
    tolerance.
    """

    gaps: tuple[float, ...]
    verdicts: tuple[str, ...]
    required_strict: tuple[bool, ...]
    deg_tol: float

    @property
    def ok(self) -> bool:
        return "violation" not in self.verdicts


def gap_report(result: SpectralResult, bc: BoundarySpec, deg_tol: float = 1e-6) -> GapReport:
    """Classify consecutive eigenvalue gaps as strict/degenerate/violation."""
    lam = result.eigenvalues
    if lam.size < 2:
        raise ValueError("need at least two eigenvalues")
    n_pairs = lam.size - 1
    required = [bc.guarantees_simple_ground(m) for m in range(1, n_pairs + 1)]
    gaps, verdicts = [], []
    for i in range(n_pairs):
        gap = float(lam[i + 1] - lam[i])
        scale = max(1.0, abs(float(lam[i])), abs(float(lam[i + 1])))
        strict = gap > deg_tol * scale
        gaps.append(gap)
        if strict:
            verdicts.append("strict")
        elif required[i]:
            verdicts.append("violation")
        else:
            verdicts.append("degenerate-within-tolerance")
    return GapReport(
        gaps=tuple(gaps),
        verdicts=tuple(verdicts),
        required_strict=tuple(required),
        deg_tol=deg_tol,
    )
