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

One assembly walks the wedge rows in blocks, in row order.  A block finds
where its row sums land (the neighbour tuples, their sorting signs and
columns), sums its H_N and M_N contributions into its own upper-triangle
entries and drops its index arrays, so beyond the pencil an assembly holds
its upper entries and one block's contributions.  Both matrices share the
full CSR structure, which mirrors the upper entries by a transpose, so they
are exactly symmetric by construction; every entry sums the same terms in
the same order whatever the block size.

The orbitals are the one-particle modes, the M-orthonormal eigenvectors V
of (A, M) from one eigensolve per problem.  A WaveVector holds Slater
coefficients over them, indexed by the same tuples as the wedges and
obtained from nodal coefficients by mode products with V^{-1} = V' M.  An
independent dense tensor-grid assembly of the N = 2 pencil is the oracle:
it stacks the wedge states as nodal arrays and evaluates every form as
batched matrix products from the full-grid element matrices and its own
quadrature.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import comb, factorial
from typing import NamedTuple

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
    _full_overlap,
    _full_potential,
    _full_stiffness,
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
        flat = itertools.chain.from_iterable(self.tuples)
        count = self.dim * self.n_particles
        return np.fromiter(flat, dtype=np.intp, count=count).reshape(self.dim, self.n_particles)

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
    return SymMatrix.from_sparse(np.triu(dense) + np.triu(dense, 1).T)


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


# rows of a block carry about this many neighbour-slot tuples between them;
# the per-contribution index and value arrays of an assembly exist for one
# block at a time
_BLOCK_SLOTS = 1 << 15


class _Landing(NamedTuple):
    """Where the row sums of the pencil land, shared by every row block."""

    nb: np.ndarray  # nb[a, t]: the t-th neighbour of dof a, n for none
    slots: np.ndarray  # (width^N, N) neighbour-slot tuples
    rank: np.ndarray  # flat tuple index over (n + 1)^N -> wedge, or -1
    parity: np.ndarray  # flat tuple index -> sign of its sorting permutation


def _landing(M: sp.csr_matrix, basis: SlaterBasis) -> _Landing:
    n, N, D = basis.n_orbitals, basis.n_particles, basis.dim
    # slot t of dof a is the t-th nonzero of row a of M (its t-th neighbour);
    # n stands for no neighbour
    deg = np.diff(M.indptr)
    width = int(deg.max())
    ok = np.arange(width) < deg[:, None]
    nb = np.where(ok, M.indices[np.where(ok, M.indptr[:-1, None] + np.arange(width), 0)], n)

    # every ordering of every wedge tuple over (n + 1)^N flat tuple indices,
    # with its wedge and the sign of its sorting permutation; tuples with a
    # tie or a missing neighbour keep rank -1
    J = basis.array
    rank = np.full((n + 1) ** N, -1, dtype=np.int32)
    parity = np.zeros(rank.size, dtype=np.int8)
    for perm in itertools.permutations(range(N)):
        at = np.ravel_multi_index(J[:, perm].T, (n + 1,) * N)
        rank[at] = np.arange(D)
        parity[at] = permutation_sign(perm)
    slots = np.array(list(itertools.product(range(width), repeat=N)), dtype=np.int32)
    return _Landing(nb, slots.reshape(-1, N), rank, parity)


def _upper_block(J, first, land, M, adata, W):
    """Upper-triangle entries of the wedge rows J = basis.array[first:...].

    A contribution is a row and a neighbour-slot tuple whose neighbour dofs
    have no ties and sort to a column K >= the row.  Returns the entry
    count of each row, the entry columns in CSR order and the H_N and M_N
    entry values.
    """
    n, N = land.nb.shape[0], J.shape[1]
    n_slots = land.slots.shape[0]
    flat = np.zeros((J.shape[0], n_slots), dtype=np.int32)
    for k in range(N):
        flat *= n + 1
        flat += np.take(np.take(land.nb, J[:, k], axis=0), land.slots[:, k], axis=1)
    col = land.rank[flat]

    # sort the contributions of each row by column, then slot; -1 marks a
    # tuple that does not land or lands below the diagonal
    key = col * n_slots + np.arange(n_slots, dtype=np.int32)
    key[col < np.arange(first, first + J.shape[0], dtype=np.int32)[:, None]] = -1
    del col
    key.sort(axis=1)
    at = np.flatnonzero(key >= 0)
    row = at // n_slots
    col, slot = np.divmod(key.ravel()[at], n_slots)
    del key, at
    # number the distinct (row, column) entries; an entry's contributions
    # are adjacent and in slot order, the order bincount sums them in
    new = np.empty(col.size, dtype=bool)
    new[:1] = True
    new[1:] = (col[1:] != col[:-1]) | (row[1:] != row[:-1])
    counts = np.bincount(row[new], minlength=J.shape[0])
    ucol = col[new]
    entry = np.cumsum(new, dtype=np.int32) - 1
    del col, new

    # pos[k] is the position in M's CSR data of the pair (J_k, b_k)
    sign = land.parity[flat.ravel()[row * n_slots + slot]].astype(float)
    pos = [M.indptr[J[:, k]][row] + land.slots[:, k][slot] for k in range(N)]
    del flat, row, slot
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


def _symmetric_csr(counts: np.ndarray, ucol: np.ndarray) -> tuple[np.ndarray, ...]:
    """CSR structure of the full symmetric matrix from its upper entries.

    counts and ucol are the per-row entry counts and the columns of the
    upper triangle in CSR order.  Returns indptr, indices and mirror, the
    upper entry each full entry copies.  The lower triangle is the
    transpose of the upper one (a counting sort) and the sum with the
    strictly upper part merges the two; entries carry their upper entry
    number plus one, so the diagonal entries dropped as zeros from the
    strictly upper part come from the transpose alone.
    """
    D = counts.size
    indptr = np.zeros(D + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    number = np.arange(1, ucol.size + 1, dtype=np.int32)
    lower = sp.csr_matrix((number, ucol, indptr), shape=(D, D)).T.tocsr()
    number[ucol == np.repeat(np.arange(D, dtype=np.int32), counts)] = 0
    full = lower + sp.csr_matrix((number, ucol, indptr), shape=(D, D))
    return full.indptr, full.indices, full.data - 1


def assemble_manybody(
    A: SymMatrix, M: SymMatrix, two_body: TwoBodyTensor | None, basis: SlaterBasis
) -> ManyBodyOperator:
    """Sparse pencil (H_N, M_N) over the nodal wedges of `basis`.

    A must be supported on M's pattern, as every P1 one-body matrix is; an
    entry outside it above round-off (eps times the largest |A| entry)
    raises ValueError.  Row J of the pencil sums the full tensor operator
    over the dof tuples b with b_k a neighbour of J_k; a tuple without ties
    lands on its sorted tuple with the sign of the sorting permutation.
    Because the full operator commutes with coordinate permutations, these
    row sums equal P'(.)P exactly.

    The rows are assembled in blocks of about _BLOCK_SLOTS neighbour-slot
    tuples, in row order; the sort keys, positions, signs and products of
    the individual contributions exist for one block at a time, so beyond
    the result an assembly needs its upper-triangle entries (20 bytes
    each) and one block.  Only the contributions to the upper triangle
    are summed, each entry in slot order whatever the block size, and the
    lower triangle mirrors them, so both matrices are exactly symmetric.
    They share one CSR structure, less the entries that cancel to exactly
    zero in either; at N >= 3 the kinetic terms of a uniform grid cancel
    in many entries of H.
    """
    n, N, D = basis.n_orbitals, basis.n_particles, basis.dim
    if A.dimension != n or M.dimension != n:
        raise ValueError("one-body dimension does not match orbital count")
    has_two = two_body is not None and not two_body.is_null
    if has_two and two_body.n_orbitals != n:
        raise ValueError("two-body tensor orbital count mismatch")

    csr = M.data
    rows = np.repeat(np.arange(n), np.diff(csr.indptr))
    dense = A.dense()
    adata = dense[rows, csr.indices]  # A on M's pattern
    # an M entry that underflows to zero leaves a round-off A entry behind
    round_off = np.finfo(float).eps * np.abs(dense).max()
    dense[rows, csr.indices] = 0.0
    outside = np.abs(dense) > round_off
    if outside.any():
        a, b = np.argwhere(outside)[0]
        raise ValueError(f"one-body entry at dof pair ({a}, {b}) lies outside M's pattern")
    W = two_body.pair_matrix if has_two else None

    land = _landing(csr, basis)
    step = max(1, _BLOCK_SLOTS // land.slots.shape[0])
    J = basis.array
    blocks = [
        _upper_block(J[first : first + step], first, land, csr, adata, W)
        for first in range(0, D, step)
    ]
    del land
    counts, ucol, hu, mu = (np.concatenate(part) for part in zip(*blocks))
    del blocks
    indptr, indices, mirror = _symmetric_csr(counts, ucol)

    def pencil_matrix(upper):
        mat = sp.csr_matrix((upper[mirror], indices, indptr), shape=(D, D))
        if not mat.data.all():  # entries that cancel exactly are not stored
            mat = mat.copy()  # eliminate_zeros works in place on the shared arrays
            mat.eliminate_zeros()
        return mat

    return ManyBodyOperator(matrix=pencil_matrix(hu), basis=basis, overlap=pencil_matrix(mu))


# ---------------------------------------------------------------------------
# brute-force oracle (N = 2)


def _cell_hats(n: int, t: np.ndarray) -> np.ndarray:
    """Values of the n + 1 full-grid hats at the points t of every cell.

    Row k * len(t) + q holds the hats at x = (k + t_q) / n.
    """
    E = np.zeros((n, t.size, n + 1))
    k = np.arange(n)
    E[k, :, k] = 1.0 - t
    E[k, :, k + 1] = t
    return E.reshape(n * t.size, n + 1)


def _gauss_unit(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre points and weights on (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(order)
    return (x + 1.0) / 2.0, w / 2.0


def assemble_manybody_bruteforce(
    v: PotentialSpec | None,
    w: InteractionSpec,
    basis: GridBasis,
    n_particles: int = 2,
) -> ManyBodyOperator:
    """Direct two-particle assembly of the pencil on the tensor grid.

    Builds the wedge of every pair of dof hats as a nodal array S_i and
    evaluates the Gram, kinetic and potential forms <S_i, L S_j R'> with
    the full-grid element matrices, and the interaction with its own
    quadrature: a 5-point rule on the diagonal cells for g * delta(x - y),
    a 4 x 4 rule on every cell pair for a sampled kernel.  Independent of
    the dof projection and of the sparse assembly; used as its oracle.
    """
    if n_particles != 2:
        raise ValueError("brute-force assembly is implemented for two particles only")
    if basis.n_dofs > 12:
        raise CapExceededError("brute-force oracle capped at 12 dofs")

    n, h = basis.n_cells, basis.h
    Mf = _full_overlap(n, h).toarray()
    Kf = _full_stiffness(n, h).toarray()
    Pf = _full_potential(v, n, h).toarray()

    slater = enumerate_slater_basis(basis.n_dofs, 2)
    U = basis.extension.T.toarray()  # nodal values of the dof hats
    a, b = slater.array.T
    S = np.einsum("pi,qi->ipq", U[:, a], U[:, b])
    S = (S - S.transpose(0, 2, 1)) / np.sqrt(2.0)  # (D, n + 1, n + 1)
    D = slater.dim
    flat = S.reshape(D, -1)

    def form(L, R):  # [i, j] = <S_i, L S_j R'>
        return flat @ (L @ S @ R.T).reshape(D, -1).T

    G = form(Mf, Mf)
    H = form(Kf, Mf) + form(Mf, Kf) + form(Pf, Mf) + form(Mf, Pf)
    if isinstance(w, DeltaContact) and w.g != 0.0:
        t, wt = _gauss_unit(5)
        E = _cell_hats(n, t)
        F = np.sum((E @ S) * E, axis=-1)  # values on the diagonal x = y
        H += 2.0 * w.g * (F * np.tile(h * wt, n)) @ F.T
    elif isinstance(w, SampledKernel):
        t, wt = _gauss_unit(4)
        E = _cell_hats(n, t)
        wq = np.tile(h * wt, n)
        kernel = (E @ np.asarray(w.values) @ E.T) * np.outer(wq, wq)
        F = (E @ S @ E.T).reshape(D, -1)  # values at the point pairs
        H += 2.0 * (F * kernel.ravel()) @ F.T
    return ManyBodyOperator(
        matrix=0.5 * (H + H.T), basis=slater, overlap=0.5 * (G + G.T)
    )


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
