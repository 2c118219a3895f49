"""Antisymmetric Galerkin sector of the P1 space as a sparse nodal pencil.

The N-particle space is spanned by the nodal wedges phi_a ^ phi_b (^ ...)
over strictly increasing tuples of grid dofs.  In that basis the
Hamiltonian and the Gram matrix form a sparse symmetric pencil

    H_N = P'(N A (x) M^(N-1) + N(N-1) W (x) M^(N-2)) P,    M_N = P' M^(N) P,

where A = K + P_v and M are the one-particle dof matrices, W is the local
pair tensor of the interaction and P scatters wedge coefficients into
antisymmetric dof tensors.  Every term is local: phi_a phi_c vanishes
unless a and c are neighbours, so a wedge couples only to wedges of
neighbouring dofs.  A contact interaction is the null term, because
antisymmetric P1 functions vanish on the diagonal x = y exactly.

The orbitals are the one-particle modes, the M-orthonormal eigenvectors V
of (A, M) from one eigensolve per problem.  A WaveVector holds Slater
coefficients over them, indexed by the same tuples as the wedges and
obtained from nodal coefficients by mode products with V^{-1} = V' M.  An
independent dense tensor-grid assembly of the N = 2 pencil is the oracle.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import comb, factorial

import numpy as np
import scipy.sparse as sp

from .basis import (
    BoundarySpec,
    GridBasis,
    PotentialSpec,
    SymMatrix,
    assemble_overlap,
    assemble_potential,
    assemble_stiffness,
    build_grid_basis,
    _symmetrize_exact,
)
from .errors import CapExceededError, IndefiniteMatrixError
from .spectrum import solve_pencil

__all__ = [
    "SlaterBasis",
    "InteractionSpec",
    "NoInteraction",
    "DeltaContact",
    "SampledKernel",
    "TwoBodyTensor",
    "OrbitalSet",
    "ManyBodyOperator",
    "WaveVector",
    "ManyBodyProblem",
    "enumerate_slater_basis",
    "permutation_sign",
    "orthonormalize_orbitals",
    "transform_one_body",
    "transform_two_body",
    "wedge_tensor",
    "wedge_coefficients",
    "mode_product",
    "assemble_manybody",
    "assemble_manybody_bruteforce",
    "reduced_density",
    "reduced_pair_density",
    "one_body_density_matrix",
    "pair_density_matrix",
    "build_problem",
]

DETERMINANT_CAP = 100_000

# moments int_0^1 l0^(3-k) l1^k dt for cubic cell products, k = 0..3
_CUBIC = np.array([1 / 4, 1 / 12, 1 / 12, 1 / 4])


# ---------------------------------------------------------------------------
# basis enumeration


@dataclass(frozen=True)
class SlaterBasis:
    """All strictly increasing index tuples in lexicographic order.

    The tuples label both the nodal wedges of the pencil (indices are grid
    dofs) and the Slater determinants of the orthonormal orbitals.
    """

    n_orbitals: int
    n_particles: int
    tuples: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.tuples)

    @cached_property
    def array(self) -> np.ndarray:
        """The tuples as a (dim, n_particles) integer array."""
        return np.array(self.tuples, dtype=np.intp).reshape(self.dim, self.n_particles)

    def index(self) -> dict[tuple[int, ...], int]:
        return {t: i for i, t in enumerate(self.tuples)}


def enumerate_slater_basis(n_orbitals: int, n_particles: int) -> SlaterBasis:
    if not 1 <= n_particles <= n_orbitals:
        raise ValueError(
            f"need 1 <= n_particles <= n_orbitals, got ({n_orbitals}, {n_particles})"
        )
    count = comb(n_orbitals, n_particles)
    if count > DETERMINANT_CAP:
        raise CapExceededError(f"{count} determinants exceed cap {DETERMINANT_CAP}")
    tuples = tuple(itertools.combinations(range(n_orbitals), n_particles))
    return SlaterBasis(n_orbitals=n_orbitals, n_particles=n_particles, tuples=tuples)


# ---------------------------------------------------------------------------
# antisymmetric tensors


def permutation_sign(perm) -> int:
    """Parity sign of a permutation given by its image tuple."""
    return -1 if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 else 1


def wedge_tensor(basis: SlaterBasis, coeffs: np.ndarray) -> np.ndarray:
    """Antisymmetric tensors C[sigma J] = sign(sigma) c_J of coefficient columns.

    coeffs is (dim,) or (dim, m); the result has shape (m, n, ..., n) and is
    zero wherever two indices tie.
    """
    c = np.asarray(coeffs, dtype=float).reshape(basis.dim, -1).T
    C = np.zeros((c.shape[0],) + (basis.n_orbitals,) * basis.n_particles)
    J = basis.array
    for perm in itertools.permutations(range(basis.n_particles)):
        C[(slice(None),) + tuple(J[:, p] for p in perm)] = permutation_sign(perm) * c
    return C


def wedge_coefficients(basis: SlaterBasis, C: np.ndarray) -> np.ndarray:
    """Inverse of wedge_tensor on antisymmetric tensors, as (dim, m) columns."""
    return C[(slice(None),) + tuple(basis.array.T)].T


def mode_product(C: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Apply the matrix B along every axis of C after the first (column) axis."""
    for _ in range(C.ndim - 1):
        C = np.tensordot(C, B, axes=([1], [1]))
    return C


# ---------------------------------------------------------------------------
# orbitals


@dataclass(frozen=True)
class OrbitalSet:
    """The one-particle modes A v = lambda M v as orthonormal orbitals.

    levels ascend; column a of transform V is the M-orthonormal mode of
    level a, so V' M V = I; inverse is V^{-1} = V' M, which maps dof
    coefficients to orbital coefficients; column a of `nodal` holds the
    values of orbital a at the grid nodes.
    """

    grid: GridBasis
    levels: np.ndarray = field(repr=False)
    transform: np.ndarray = field(repr=False)
    inverse: np.ndarray = field(repr=False)
    nodal: np.ndarray = field(repr=False)


def orthonormalize_orbitals(M: SymMatrix) -> np.ndarray:
    """Triangular transform R with R' M R = identity (deterministic)."""
    try:
        L = np.linalg.cholesky(M.dense())
    except np.linalg.LinAlgError as exc:
        raise IndefiniteMatrixError("overlap matrix is not positive definite") from exc
    return np.linalg.inv(L).T


def make_orbitals(grid: GridBasis, A: SymMatrix, M: SymMatrix) -> OrbitalSet:
    """All modes of the pencil (A, M) from one eigensolve."""
    res = solve_pencil(A, M, grid.n_dofs)
    V, nodal = res.eigenvectors, np.asarray(grid.extension.T @ res.eigenvectors)
    return OrbitalSet(grid, res.eigenvalues, V, inverse=(M.data @ V).T, nodal=nodal)


def transform_one_body(A: SymMatrix, R: np.ndarray) -> SymMatrix:
    """One-body matrix in the orthonormal orbital basis: R' A R."""
    if A.dimension != R.shape[0]:
        raise ValueError("transform shape does not match matrix dimension")
    dense = R.T @ (A.data @ R)
    return SymMatrix.from_sparse(_symmetrize_exact(sp.csr_matrix(dense)))


# ---------------------------------------------------------------------------
# interactions


class InteractionSpec:
    """Marker base class for two-body interaction descriptions."""


@dataclass(frozen=True)
class NoInteraction(InteractionSpec):
    pass


@dataclass(frozen=True)
class DeltaContact(InteractionSpec):
    """Contact interaction g * delta(x - y); spinless fermions do not see it."""

    g: float


@dataclass(frozen=True)
class SampledKernel(InteractionSpec):
    """Symmetric kernel w(x, y) given by its values on the node grid."""

    values: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        vals = tuple(tuple(float(x) for x in row) for row in self.values)
        object.__setattr__(self, "values", vals)
        arr = np.asarray(vals)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("kernel samples must form a square array")
        if np.max(np.abs(arr - arr.T)) > 1e-14:
            raise ValueError("kernel samples must be symmetric to 1e-14")


@dataclass(frozen=True)
class TwoBodyTensor:
    """Local pair tensor of a two-body interaction over grid dofs.

    Pairs are the nonzeros (a, c) of the mass matrix in CSR order, the only
    dof pairs whose product phi_a phi_c is not identically zero.  Element
    [p, q] of pair_matrix for p = (a, c), q = (b, d) is
    int int phi_a(x) phi_c(x) w(x, y) phi_b(y) phi_d(y) dx dy.
    None marks the identically zero interaction.
    """

    n_orbitals: int
    pair_matrix: np.ndarray | None = field(repr=False, default=None)

    @property
    def is_null(self) -> bool:
        return self.pair_matrix is None


def _gauss_cells(grid: GridBasis, order: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre points/weights on every cell, mapped to (0,1)."""
    x, w = np.polynomial.legendre.leggauss(order)
    t = (x + 1.0) / 2.0
    wt = w / 2.0
    starts = np.arange(grid.n_cells) * grid.h
    pts = (starts[:, None] + t[None, :] * grid.h).ravel()
    wts = np.tile(wt * grid.h, grid.n_cells)
    return pts, wts


def transform_two_body(w: InteractionSpec, basis: GridBasis, M: SymMatrix) -> TwoBodyTensor:
    """Local pair tensor of w over the dofs of `basis`; pairs follow M's pattern.

    Four Gauss points per cell integrate the kernel's bilinear interpolant
    against pair products exactly (cubic per cell in each variable).
    """
    if M.dimension != basis.n_dofs:
        raise ValueError("mass matrix must match the basis dof count")
    if isinstance(w, (NoInteraction, DeltaContact)):
        return TwoBodyTensor(n_orbitals=basis.n_dofs)
    if not isinstance(w, SampledKernel):
        raise TypeError(f"unsupported interaction {type(w).__name__}")
    wnod = np.asarray(w.values)
    if wnod.shape[0] != basis.n_nodes:
        raise ValueError(
            f"kernel needs {basis.n_nodes}x{basis.n_nodes} nodal samples, got {wnod.shape}"
        )
    pts, wts = _gauss_cells(basis, order=4)
    hats = basis.hat_values_at(pts)  # (Q, n_nodes)
    phi = (basis.extension @ hats.T).T  # dof values at the quadrature points
    pairs = M.data.tocoo()
    B = phi[:, pairs.row] * phi[:, pairs.col] * wts[:, None]
    G = hats @ wnod @ hats.T  # bilinear kernel at point pairs
    return TwoBodyTensor(n_orbitals=basis.n_dofs, pair_matrix=B.T @ G @ B)


# ---------------------------------------------------------------------------
# many-body pencil


@dataclass(frozen=True)
class ManyBodyOperator:
    """Symmetric pencil (H, M) over the wedges of a Slater basis.

    orbitals, which build_problem attaches, precondition the eigensolve and
    map its eigenvectors to orbital Slater coefficients.  Only the oracle's
    operator has none; it is compared, never solved.
    """

    matrix: object = field(repr=False)  # dense ndarray or scipy CSR
    basis: SlaterBasis
    overlap: object = field(repr=False, compare=False)
    orbitals: OrbitalSet | None = field(default=None, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dense(self) -> np.ndarray:
        return self.matrix.toarray() if sp.issparse(self.matrix) else self.matrix

    def orbital_coefficients(self, X: np.ndarray) -> np.ndarray:
        """Orbital Slater coefficients of the pencil's coefficient columns X.

        M-orthonormal columns map to Euclidean-orthonormal ones.
        """
        C = mode_product(wedge_tensor(self.basis, X), self.orbitals.inverse)
        return wedge_coefficients(self.basis, C)


@dataclass(frozen=True)
class WaveVector:
    """Coefficients over a Slater basis, Euclidean norm 1 when normalized."""

    coefficients: np.ndarray = field(repr=False)
    basis: SlaterBasis
    normalized: bool = True

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        if c.shape != (self.basis.dim,):
            raise ValueError("coefficient length does not match basis size")
        if self.normalized and abs(np.linalg.norm(c) - 1.0) > 1e-12:
            raise ValueError("coefficients flagged normalized but norm != 1")
        object.__setattr__(self, "coefficients", c)


def assemble_manybody(
    A: SymMatrix, M: SymMatrix, two_body: TwoBodyTensor | None, basis: SlaterBasis
) -> ManyBodyOperator:
    """Sparse pencil (H_N, M_N) over the nodal wedges of `basis`.

    A must be supported on M's pattern, as every P1 one-body matrix is.
    Row J of the pencil sums the full tensor operator over the dof tuples b
    with b_k a neighbour of J_k; a tuple without ties lands on its sorted
    tuple with the sign of the sorting permutation.  Because the full
    operator commutes with coordinate permutations, these row sums equal
    P'(.)P exactly.
    """
    n, N, D = basis.n_orbitals, basis.n_particles, basis.dim
    if A.dimension != n or M.dimension != n:
        raise ValueError("one-body dimension does not match orbital count")
    has_two = two_body is not None and not two_body.is_null
    if has_two and two_body.n_orbitals != n:
        raise ValueError("two-body tensor orbital count mismatch")

    Ad = A.dense()
    # slot s of dof a is the s-th nonzero of row a of M (its s-th neighbour)
    csr = M.data
    deg = np.diff(csr.indptr)
    ok = np.arange(deg.max()) < deg[:, None]
    pos = np.where(ok, csr.indptr[:-1, None] + np.arange(deg.max()), 0)
    nb = np.where(ok, csr.indices[pos], -1)
    mval = np.where(ok, csr.data[pos], 0.0)
    aval = np.where(ok, Ad[np.arange(n)[:, None], np.maximum(nb, 0)], 0.0)

    J = basis.array
    slots = np.array(list(itertools.product(range(deg.max()), repeat=N)))

    def per_axis(table):
        return [table[J[:, k]][:, slots[:, k]] for k in range(N)]

    mv, av = per_axis(mval), per_axis(aval)

    def mass_except(*skip):
        out = np.ones(mv[0].shape)
        for k in range(N):
            if k not in skip:
                out = out * mv[k]
        return out

    hval = sum(av[k] * mass_except(k) for k in range(N))
    if has_two:
        W = two_body.pair_matrix
        pv, okv = per_axis(pos), per_axis(ok)
        for j, k in itertools.combinations(range(N), 2):
            hval = hval + 2.0 * W[pv[j], pv[k]] * (okv[j] & okv[k]) * mass_except(j, k)

    target = np.stack(per_axis(nb), axis=-1)  # (D, slots, N)
    valid = np.all(target >= 0, axis=-1)
    inversions = np.zeros(valid.shape, dtype=np.intp)
    for i, j in itertools.combinations(range(N), 2):
        valid &= target[..., i] != target[..., j]
        inversions += target[..., i] > target[..., j]
    sign = np.where(inversions[valid] % 2, -1.0, 1.0)
    rank = np.full(n**N, -1, dtype=np.intp)
    rank[np.ravel_multi_index(J.T, (n,) * N)] = np.arange(D)
    cols = rank[np.ravel_multi_index(np.sort(target[valid], axis=-1).T, (n,) * N)]
    rows = np.broadcast_to(np.arange(D)[:, None], valid.shape)[valid]

    def pencil_matrix(vals):
        mat = sp.csr_matrix((sign * vals[valid], (rows, cols)), shape=(D, D))
        return _symmetrize_exact(mat)

    return ManyBodyOperator(
        matrix=pencil_matrix(hval), basis=basis, overlap=pencil_matrix(mass_except())
    )


# ---------------------------------------------------------------------------
# brute-force oracle (N = 2)


def _bilinear_at(corners: np.ndarray, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    c00, c01, c10, c11 = corners
    return (
        c00 * (1 - s) * (1 - t)
        + c01 * (1 - s) * t
        + c10 * s * (1 - t)
        + c11 * s * t
    )


def assemble_manybody_bruteforce(
    v: PotentialSpec | None,
    w: InteractionSpec,
    basis: GridBasis,
    n_particles: int = 2,
) -> ManyBodyOperator:
    """Direct two-particle assembly of the pencil on the tensor grid.

    Builds the wedge of every pair of dof hats as a nodal array and
    evaluates the Gram, kinetic, potential and interaction forms with
    explicit 2D quadrature, including g * delta(x - y).  Independent of the
    sparse assembly; used as its oracle.
    """
    if n_particles != 2:
        raise ValueError("brute-force assembly is implemented for two particles only")
    if basis.n_dofs > 12:
        raise CapExceededError("brute-force oracle capped at 12 dofs")

    from .basis import _full_overlap, _full_stiffness  # full-grid hat matrices

    n, h = basis.n_cells, basis.h
    Mf = _full_overlap(n, h).toarray()
    Kf = _full_stiffness(n, h).toarray()
    Pf = assemble_potential(build_grid_basis(n, BoundarySpec.free()), v).dense()

    slater = enumerate_slater_basis(basis.n_dofs, 2)
    U = basis.extension.T.toarray()  # nodal values of the dof hats
    states = [
        (np.outer(U[:, a], U[:, b]) - np.outer(U[:, b], U[:, a])) / np.sqrt(2.0)
        for (a, b) in slater.tuples
    ]

    gl_t, gl_w = np.polynomial.legendre.leggauss(5)
    gl_t = (gl_t + 1.0) / 2.0
    gl_w = gl_w / 2.0

    def contact_term(CI, CJ, g):
        total = 0.0
        for k in range(n):
            cor_i = np.array([CI[k, k], CI[k, k + 1], CI[k + 1, k], CI[k + 1, k + 1]])
            cor_j = np.array([CJ[k, k], CJ[k, k + 1], CJ[k + 1, k], CJ[k + 1, k + 1]])
            fi = _bilinear_at(cor_i, gl_t, gl_t)
            fj = _bilinear_at(cor_j, gl_t, gl_t)
            total += h * np.sum(gl_w * fi * fj)
        return 2.0 * g * total

    def kernel_term(CI, CJ, wnod):
        gx, gw = np.polynomial.legendre.leggauss(4)
        gx = (gx + 1.0) / 2.0
        gw = gw / 2.0
        total = 0.0
        ss, tt = np.meshgrid(gx, gx, indexing="ij")
        wgt = np.outer(gw, gw)
        for kx in range(n):
            for ky in range(n):
                cor_i = np.array([CI[kx, ky], CI[kx, ky + 1], CI[kx + 1, ky], CI[kx + 1, ky + 1]])
                cor_j = np.array([CJ[kx, ky], CJ[kx, ky + 1], CJ[kx + 1, ky], CJ[kx + 1, ky + 1]])
                cor_w = np.array(
                    [wnod[kx, ky], wnod[kx, ky + 1], wnod[kx + 1, ky], wnod[kx + 1, ky + 1]]
                )
                fi = _bilinear_at(cor_i, ss, tt)
                fj = _bilinear_at(cor_j, ss, tt)
                fw = _bilinear_at(cor_w, ss, tt)
                total += h * h * np.sum(wgt * fi * fj * fw)
        return 2.0 * total

    D = slater.dim
    H = np.zeros((D, D))
    G = np.zeros((D, D))
    for i in range(D):
        CI = states[i]
        for j in range(i, D):
            CJ = states[j]
            G[i, j] = G[j, i] = np.sum(CI * (Mf @ CJ @ Mf))
            val = np.sum(CI * (Kf @ CJ @ Mf)) + np.sum(CI * (Mf @ CJ @ Kf))
            val += np.sum(CI * (Pf @ CJ @ Mf)) + np.sum(CI * (Mf @ CJ @ Pf))
            if isinstance(w, DeltaContact) and w.g != 0.0:
                val += contact_term(CI, CJ, w.g)
            elif isinstance(w, SampledKernel):
                val += kernel_term(CI, CJ, np.asarray(w.values))
            H[i, j] = val
            H[j, i] = val
    return ManyBodyOperator(matrix=H, basis=slater, overlap=G)


# ---------------------------------------------------------------------------
# reduced densities


def one_body_density_matrix(psi: WaveVector) -> np.ndarray:
    """One-particle reduced density matrix over orthonormal orbitals."""
    basis = psi.basis
    C = wedge_tensor(basis, psi.coefficients).reshape(basis.n_orbitals, -1)
    return (C @ C.T) / factorial(basis.n_particles - 1)


def pair_density_matrix(psi: WaveVector) -> np.ndarray:
    """Pair-space density matrix G with rho2(x, y) = b(x)' G b(y).

    Here b(x)[(p, r)] = phi_p(x) phi_r(x), so G[(p, r), (q, s)] sums
    C[p, q, rest] C[r, s, rest] over the antisymmetric coefficient tensor.
    """
    basis = psi.basis
    if basis.n_particles < 2:
        raise ValueError("pair density requires at least two particles")
    n = basis.n_orbitals
    C = wedge_tensor(basis, psi.coefficients).reshape(n * n, -1)
    G = (C @ C.T).reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    return G / factorial(basis.n_particles - 2)


def _trapezoid_weights(grid: GridBasis) -> np.ndarray:
    w = np.full(grid.n_nodes, grid.h)
    w[0] = w[-1] = grid.h / 2.0
    return w


def reduced_density(psi: WaveVector, orbitals: OrbitalSet) -> np.ndarray:
    """Single-particle density at the grid nodes.

    Nodal values are local mass averages of the piecewise-quadratic orbital
    density, so the trapezoid rule integrates them to exactly the particle
    count.
    """
    gamma = one_body_density_matrix(psi)
    U = orbitals.nodal
    A = U @ gamma @ U.T  # nodal density matrix
    grid = orbitals.grid
    h = grid.h
    d = np.diag(A)
    r0, r2 = d[:-1], d[1:]
    r1 = 2.0 * np.diag(A, 1)
    moments = np.zeros(grid.n_nodes)
    moments[:-1] += h * (r0 * _CUBIC[0] + r1 * _CUBIC[1] + r2 * _CUBIC[2])
    moments[1:] += h * (r0 * _CUBIC[2] + r1 * _CUBIC[1] + r2 * _CUBIC[0])
    return moments / _trapezoid_weights(grid)


def reduced_pair_density(psi: WaveVector, orbitals: OrbitalSet) -> np.ndarray:
    """Pair density on the node grid, symmetric, trapezoid-exact to N(N-1).

    On each pair of cells the state is multilinear in its corner values, so
    the hat moments of its square need only the products of corner values
    summed over the other coordinates: sixteen numbers per cell pair, never
    the n^4 pair-density matrix.  The other coordinates stay in orthonormal
    orbitals, where summing is integrating.
    """
    basis = psi.basis
    if basis.n_particles < 2:
        raise ValueError("pair density requires at least two particles")
    grid = orbitals.grid
    n = grid.n_cells
    C = wedge_tensor(basis, psi.coefficients)[0]
    U = orbitals.nodal
    F = np.einsum("ip,kq,pq...->ik...", U, U, C, optimize=True)
    # corner (a, e) of cell pair (c, d), the remaining coordinates flattened
    G = np.stack([F[a : a + n, e : e + n].reshape(n, n, -1) for a in (0, 1) for e in (0, 1)])
    P = np.einsum("icdr,jcdr->ijcd", G, G).reshape(2, 2, 2, 2, n, n)
    # W[t, a, b] = int_cell phi_t phi_a phi_b over the cell's two hats
    W = grid.h * _CUBIC[np.indices((2, 2, 2)).sum(axis=0)]
    Z = np.einsum("tab,uef,aebfcd->tucd", W, W, P)
    rho2 = np.zeros((grid.n_nodes, grid.n_nodes))
    for t, u in itertools.product((0, 1), repeat=2):
        rho2[t : t + n, u : u + n] += Z[t, u]
    w = _trapezoid_weights(grid)
    rho2 /= np.outer(w, w) * factorial(basis.n_particles - 2)
    return 0.5 * (rho2 + rho2.T)


# ---------------------------------------------------------------------------
# problem wiring


@dataclass(frozen=True)
class ManyBodyProblem:
    """Assembled many-body problem: grid, dof matrices, orbitals, pencil.

    one_body is A = K + P over grid dofs; operator is the nodal pencil.
    """

    grid: GridBasis
    overlap: SymMatrix
    stiffness: SymMatrix
    potential: SymMatrix
    orbitals: OrbitalSet
    one_body: SymMatrix
    two_body: TwoBodyTensor
    slater: SlaterBasis
    operator: ManyBodyOperator
    v: PotentialSpec | None
    w: InteractionSpec
    n_particles: int


def build_problem(
    v: PotentialSpec | None,
    w: InteractionSpec,
    bc: BoundarySpec,
    n_cells: int,
    n_particles: int,
) -> ManyBodyProblem:
    """Assemble the full pipeline from problem data to the nodal pencil."""
    grid = build_grid_basis(n_cells, bc)
    slater = enumerate_slater_basis(grid.n_dofs, n_particles)  # over-cap fails before any solve
    M = assemble_overlap(grid)
    K = assemble_stiffness(grid)
    P = assemble_potential(grid, v)
    A = SymMatrix.from_sparse(K.data + P.data)
    orbitals = make_orbitals(grid, A, M)
    two_body = transform_two_body(w, grid, M)
    op = dataclasses.replace(assemble_manybody(A, M, two_body, slater), orbitals=orbitals)
    return ManyBodyProblem(
        grid=grid,
        overlap=M,
        stiffness=K,
        potential=P,
        orbitals=orbitals,
        one_body=A,
        two_body=two_body,
        slater=slater,
        operator=op,
        v=v,
        w=w,
        n_particles=n_particles,
    )
