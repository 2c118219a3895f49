"""Generalized symmetric eigensolves and spectral gap classification.

Solves (K + P) x = lambda M x for the lowest eigenpairs with M-orthonormal
eigenvectors.  Small pencils and whole or near-whole spectra are reduced to
standard form through the Cholesky factor of M and solved by
numpy.linalg.eigh.  A few pairs of a larger pencil come from block LOBPCG
(Knyazev, SIAM J. Sci. Comput. 23 (2001)), the one iterative solver, which
the many-body solves share; it preconditions only the columns that have
not converged (soft locking; Hetmaniuk & Lehoucq, J. Comput. Phys. 218
(2006)).  Sparse definiteness checks and shifted inverses are L D L'
factorizations in numpy: odd-even reduction of the one-body paths down to
one dof, each solve step elementwise, and block elimination over
breadth-first level sets otherwise.  All linear algebra runs on numpy
(scipy bundles a second BLAS whose thread pool stalls numpy's); scipy
only stores the sparse matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

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
LOBPCG_TARGET = 1e-2
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


# ---------------------------------------------------------------------------
# definite L D L' factorizations
#
# Each factors a symmetric S as P S P' = L D L' without pivoting, with D
# diagonal or block diagonal, and yields None unless every pivot (block) is
# positive definite: by Sylvester's law of inertia that is exactly when S is.


class _PathFactor(NamedTuple):
    """L D L' of a tridiagonal matrix, with the last dof optionally a border.

    levels holds, per odd-even reduction level, the inverse pivots of the
    eliminated even dofs and the multipliers of their left and right odd
    neighbours; the last level eliminates the one dof left.  The border dof
    couples to both ends of the path before it: border holds its coupling
    column u, T^-1 u for the path's matrix T, and its Schur pivot.
    """

    levels: list
    size: int
    border: tuple | None = None

    def _solve_path(self, R: np.ndarray) -> np.ndarray:
        """T^-1 applied to the rows of R, shape (columns, size).

        Every step is elementwise, so a vector solves exactly like a
        one-column block.
        """
        r = np.zeros((R.shape[0], (1 << self.size.bit_length()) - 1))  # padded as factored
        r[:, : self.size] = R
        reduced = []
        for _, fl, fr in self.levels:
            reduced.append(r)
            r = r[:, 1::2] - fl * r[:, :-1:2] - fr * r[:, 2::2]
        x = r  # no dof left
        for (inv, fl, fr), r in zip(reversed(self.levels), reversed(reduced)):
            out = np.empty_like(r)
            even = out[:, 0::2]
            np.multiply(r[:, 0::2], inv, out=even)
            even[:, :-1] -= fl * x
            even[:, 1:] -= fr * x
            out[:, 1::2] = x
            x = out
        return x[:, : self.size]

    def solve(self, R: np.ndarray) -> np.ndarray:
        """S^-1 R for a vector or a block of columns R."""
        R = np.asarray(R, dtype=float)
        Rt = R.reshape(R.shape[0], -1).T
        if self.border is None:
            X = self._solve_path(Rt)
        else:
            u, w, pivot = self.border
            y = self._solve_path(Rt[:, :-1])
            last = (Rt[:, -1] - (y[:, 0] * u[0] + y[:, -1] * u[-1])) / pivot  # u is zero inside
            X = np.hstack([y - last[:, None] * w, last[:, None]])
        return X.T.reshape(R.shape)


def _path_factor(main: np.ndarray, off: np.ndarray, corner: float) -> _PathFactor | None:
    """Definite L D L' of the tridiagonal (main, off) plus the corner pair S[0, -1].

    A nonzero corner makes the last dof a border of the path before it.
    The path is padded with unit pivots to 2^p - 1 dofs and reduced
    odd-even (cyclic reduction): each level eliminates the even dofs, which
    are mutually uncoupled, so their pivots are their diagonal entries, and
    leaves a tridiagonal Schur complement on the odd dofs, down to one dof,
    whose pivot is its own level.  The border's pivot is its scalar Schur
    complement.  Factoring and solving take O(log n) numpy calls.
    """
    if corner != 0.0:
        u = np.zeros(main.size - 1)
        u[0], u[-1] = corner, off[-1]
        main, off, border_diag = main[:-1], off[:-1], main[-1]
    m = main.size
    d = np.ones((1 << m.bit_length()) - 1)
    d[:m] = main
    e = np.zeros(d.size - 1)
    e[: m - 1] = off
    levels = []
    while d.size:
        pivots = d[0::2]
        if not np.all(pivots > 0.0):
            return None
        inv = 1.0 / pivots
        fl, fr = e[0::2] * inv[:-1], e[1::2] * inv[1:]
        levels.append((inv, fl, fr))
        d, e = d[1::2] - fl * e[0::2] - fr * e[1::2], -fr[:-1] * e[2::2]
    factor = _PathFactor(levels, m)
    if corner == 0.0:
        return factor
    w = factor.solve(u)
    pivot = border_diag - u @ w
    return factor._replace(border=(u, w, pivot)) if pivot > 0.0 else None


class _LevelFactor(NamedTuple):
    """Block L D L' over chunks of breadth-first level sets.

    Chunk c holds the dofs order[bounds[c]:bounds[c + 1]]; subs[c] is the
    block S[c, c-1] (None for c = 0) and inverses[c] is D_c^-1, so chunk c's
    multiplier is subs[c] inverses[c - 1].
    """

    order: np.ndarray
    bounds: np.ndarray
    subs: list
    inverses: list

    def solve(self, R: np.ndarray) -> np.ndarray:
        """S^-1 R for a vector or a block of columns R."""
        b, B, Dinv = self.bounds, self.subs, self.inverses
        y = np.asarray(R, dtype=float)[self.order]
        for c in range(1, len(Dinv)):
            y[b[c] : b[c + 1]] -= B[c] @ (Dinv[c - 1] @ y[b[c - 1] : b[c]])
        x = np.empty_like(y)
        x[b[-2] :] = Dinv[-1] @ y[b[-2] :]
        for c in range(len(Dinv) - 2, -1, -1):
            x[b[c] : b[c + 1]] = Dinv[c] @ (y[b[c] : b[c + 1]] - B[c + 1].T @ x[b[c + 1] : b[c + 2]])
        out = np.empty_like(x)
        out[self.order] = x
        return out


def _bfs_levels(S: sp.csr_matrix, rows: np.ndarray) -> np.ndarray:
    """Breadth-first level of every dof from dof 0.

    A component the search does not reach starts at the next level from its
    first dof; it shares no entry with the levels before it.
    """
    n = S.shape[0]
    level = np.full(n, -1)
    front = np.zeros(n, dtype=bool)
    front[0] = True
    for depth in range(n):
        level[front] = depth
        reached = np.zeros(n, dtype=bool)
        reached[S.indices[front[rows]]] = True
        front = reached & (level < 0)
        if not front.any():
            unreached = np.flatnonzero(level < 0)
            if unreached.size == 0:
                break
            front[unreached[0]] = True
    return level


def _level_factor(S: sp.csr_matrix) -> _LevelFactor | None:
    """Definite block L D L' of any sparse symmetric S.

    Breadth-first level sets make S block tridiagonal, and so do runs of
    consecutive levels, which are merged while a chunk stays no larger than
    the largest level.  Each chunk's Schur complement D_c is checked by its
    Cholesky factorization and inverted densely.
    """
    n = S.shape[0]
    rows = np.repeat(np.arange(n), np.diff(S.indptr))
    level = _bfs_levels(S, rows)
    order = np.argsort(level, kind="stable")
    sizes = np.bincount(level)
    starts, cap = np.concatenate([[0], np.cumsum(sizes)]), sizes.max()
    chunk_of_level, bounds = np.empty(sizes.size, dtype=np.intp), [0]
    for lv in range(sizes.size):
        if starts[lv + 1] - bounds[-1] > cap:
            bounds.append(starts[lv])
        chunk_of_level[lv] = len(bounds) - 1
    bounds = np.append(bounds, n)
    sz = np.diff(bounds)

    # scatter the diagonal and subdiagonal blocks into flat buffers
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
    chunk = chunk_of_level[level]
    cr, cc = chunk[rows], chunk[S.indices]
    lr, lc = pos[rows] - bounds[cr], pos[S.indices] - bounds[cc]
    doff = np.concatenate([[0], np.cumsum(sz * sz)])
    soff = np.concatenate([[0], np.cumsum(sz[1:] * sz[:-1])])
    diag, sub = cr == cc, cr == cc + 1
    dbuf = np.bincount(
        doff[cr[diag]] + lr[diag] * sz[cr[diag]] + lc[diag], S.data[diag], doff[-1]
    )
    sbuf = np.bincount(
        soff[cr[sub] - 1] + lr[sub] * sz[cc[sub]] + lc[sub], S.data[sub], soff[-1]
    )

    # each Schur block, then its inverse, overwrites its diagonal block
    B, Dinv = [None], []
    for c in range(sz.size):
        D = dbuf[doff[c] : doff[c + 1]].reshape(sz[c], sz[c])
        if c:
            B.append(sbuf[soff[c - 1] : soff[c]].reshape(sz[c], sz[c - 1]))
            D -= (B[-1] @ Dinv[-1]) @ B[-1].T
        try:
            np.linalg.cholesky(D)
        except np.linalg.LinAlgError:
            return None
        D[...] = np.linalg.inv(D)
        Dinv.append(D)
    return _LevelFactor(order, bounds, B, Dinv)


def _tridiagonal_parts(S: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray, float] | None:
    """(main, off, corner) when S is tridiagonal but for the pair S[0, -1], else None."""
    n = S.shape[0]
    if n < 3:
        return None
    main, off = S.diagonal(), S.diagonal(1)
    first = slice(S.indptr[0], S.indptr[1])
    corner = float(S.data[first][S.indices[first] == n - 1].sum())
    stored = np.count_nonzero(main) + 2 * np.count_nonzero(off) + 2 * (corner != 0.0)
    return (main, off, corner) if np.count_nonzero(S.data) == stored else None


def _definite_factor(S) -> _PathFactor | _LevelFactor | None:
    """L D L' factorization of the sparse symmetric S, or None unless S is positive definite.

    Every P1 one-body matrix is a path, tridiagonal, or a path plus one dof
    coupled to both its ends, and goes to _path_factor; any other pattern
    (a many-body pencil) goes to _level_factor.  The result's solve applies
    S^-1 to a vector or a block of columns.
    """
    S = sp.csr_matrix(S)
    parts = _tridiagonal_parts(S)
    return _path_factor(*parts) if parts is not None else _level_factor(S)


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
    conjugate directions: precond(R, theta) gets their residual columns R
    and current Ritz values theta, so it may shift each column to its own
    eigenvalue estimate.  Such a shift can make the preconditioner
    indefinite, which is safe: it only proposes directions, which are
    M-orthonormalized against X and go through Rayleigh-Ritz, and the Ritz
    values and residuals are always those of (A, M) in float64.  Returns
    (lam, X, res, iterations) for the k lowest Ritz pairs, with X
    M-orthonormal and res those residuals.
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
        Z = precond(R[:, active], lam[active])
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
    pencils go to LOBPCG with k + 2 seeded random start columns, after an
    L D L' check of M, preconditioned by the exact inverse of A - sigma M
    (see _definite_factor), one sigma for every column: sigma starts at
    min(0, 2 d) - 1 for the smallest diagonal ratio d of the pencil and
    moves twice as far below zero until every pivot of the factorization is
    positive, which puts it below the spectrum.  Raises IndefiniteMatrixError for an M that is not
    positive definite and ConvergenceError when a residual misses its bound.
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
        while (factor := _definite_factor(A.data - sigma * M.data)) is None:
            sigma -= max(1.0, abs(sigma))
        X = np.random.default_rng(LOBPCG_SEED).standard_normal((dim, k + 2))
        lam, X, _, iterations = _lobpcg(
            A.data, M.data, X, lambda R, _: factor.solve(R), k, a_norm, m_norm
        )

    result = SpectralResult(lam, X, _residuals(A.data, M.data, lam, X), iterations)
    result.check(a_norm, m_norm)
    return result


def solve_sp_eig(K: SymMatrix, P: SymMatrix, M: SymMatrix, k: int) -> SpectralResult:
    """Lowest k eigenpairs of (K + P) x = lambda M x."""
    if not (K.dimension == P.dimension == M.dimension):
        raise ValueError("K, P, M dimensions disagree")
    return solve_pencil(K + P, M, k)


def solve_dense_symmetric(H, k: int) -> SpectralResult:
    """Lowest k eigenpairs of a small symmetric matrix (M = I), numpy.linalg.eigh."""
    H = H.toarray() if sp.issparse(H) else np.asarray(H)
    if not 1 <= k <= H.shape[0]:
        raise ValueError(f"k must lie in [1, {H.shape[0]}], got {k}")
    lam, X = np.linalg.eigh(H)
    lam, X = lam[:k], X[:, :k]
    result = SpectralResult(lam, X, _residuals(H, np.eye(len(H)), lam, X))
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
    if not 0.0 <= deg_tol < np.inf:
        raise ValueError(f"deg_tol must be finite and >= 0, got {deg_tol!r}")
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
