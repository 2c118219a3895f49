"""Generalized symmetric eigensolves and spectral gap classification.

Solves (K + P) x = lambda M x for the lowest eigenpairs with M-orthonormal
eigenvectors.  Up to a dimension cap and for whole spectra the pencil is
reduced to standard form through the Cholesky factor of M and solved by
numpy.linalg.eigh; otherwise by shift-invert Lanczos with a deterministic
start vector.  Every dense factorization and eigensolve goes through
numpy.linalg, so a solve uses numpy's BLAS alone (scipy bundles a second
BLAS with its own thread pool, and alternating between the two pools
stalls both).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .basis import BoundarySpec, SymMatrix, has_positive_pivots
from .errors import ConvergenceError, IndefiniteMatrixError

__all__ = [
    "SpectralResult",
    "GapReport",
    "solve_sp_eig",
    "solve_pencil",
    "solve_dense_symmetric",
    "gap_report",
]

DENSE_DIM_CAP = 5000

# residual tolerance promised by SpectralResult
RESIDUAL_RTOL = 1e-8


def norm1(X) -> float:
    """Largest absolute column sum of a dense or sparse matrix."""
    return float(abs(X).sum(axis=0).max())


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


def solve_pencil(A: SymMatrix, M: SymMatrix, k: int) -> SpectralResult:
    """Lowest k eigenpairs of the symmetric-definite pencil (A, M).

    Up to DENSE_DIM_CAP, and whenever k >= dim - 1 (ARPACK cannot return
    that many pairs), the pencil is solved densely by numpy.linalg, the
    Cholesky factorization of M serving as its definiteness check; larger
    problems go to shift-invert ARPACK after a pivot check of M.  Raises
    IndefiniteMatrixError for an M that is not positive definite and
    ConvergenceError when a residual misses its bound.
    """
    dim = A.dimension
    if M.dimension != dim:
        raise ValueError("dimension mismatch between A and M")
    if not 1 <= k <= dim:
        raise ValueError(f"k must lie in [1, {dim}], got {k}")

    if dim <= DENSE_DIM_CAP or k >= dim - 1:
        lam, X = _dense_pencil_eigh(A.data, M.dense(), k)
    else:
        if not has_positive_pivots(M):
            raise IndefiniteMatrixError("overlap matrix is not positive definite")
        # shift below the spectrum via a Gershgorin bound on the pencil
        d = A.data.diagonal() / M.data.diagonal()
        sigma = float(np.min(d)) - abs(float(np.min(d))) - 1.0
        v0 = np.full(dim, 1.0 / np.sqrt(dim))
        try:
            lam, X = spla.eigsh(
                A.data, k=k, M=M.data, sigma=sigma, which="LM", v0=v0, tol=0
            )
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceError(
                f"eigensolver did not converge ({len(exc.eigenvalues)} of {k} pairs)",
                iterations=k,
            ) from exc
        order = np.argsort(lam)
        lam, X = lam[order], X[:, order]

    res = _residuals(A.data, M.data, lam, X)
    result = SpectralResult(eigenvalues=lam, eigenvectors=X, residuals=res, k_requested=k)
    result.check(A.norm1(), M.norm1())
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
