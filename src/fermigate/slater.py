"""Antisymmetric Galerkin sector of the P1 space as a sparse nodal pencil.

The N-particle space is spanned by the nodal wedges phi_a ^ phi_b (^ ...)
over strictly increasing tuples of grid dofs.  In that basis the
Hamiltonian and the Gram matrix form a sparse symmetric pencil

    H_N = P'(N A (x) M^(N-1) + N(N-1) W (x) M^(N-2)) P,    M_N = P' M^(N) P,

where A = K + P_v and M are the one-particle dof matrices, W is the local
pair tensor of the interaction and P scatters wedge coefficients into
antisymmetric dof tensors (scatter_wedges, and gather_wedges is P');
wedge_of finds the wedge of any ordering of its indices by rank, so no
other module knows how wedges are encoded.  W, like A and M, is exact: the
kernel's bilinear interpolant against products of hats, from closed-form
cell moments.  Every term is local: phi_a phi_c vanishes unless a and c
are neighbours, so a wedge couples only to wedges of neighbouring dofs.  A
contact interaction is the null term, because antisymmetric P1 functions
vanish on the diagonal x = y exactly.

One assembly walks the wedge rows in blocks, in row order.  A block finds
where its row sums land (the neighbour tuples, their sorting signs and
columns), sums its H_N and M_N contributions into its own upper-triangle
entries and drops its index arrays, so beyond the pencil an assembly holds
its upper entries and one block's contributions.  Both matrices share the
full CSR structure, which mirrors the upper entries by a transpose, so they
are exactly symmetric by construction; every entry sums the same terms in
the same order whatever the block size.

A state is a vector of the pencil's own coordinates: a WaveVector holds
its nodal wedge coefficients, M_N-normalized, and every post-processing
step reads them through the grid's node -> dof map (see simplex).
The orbitals are the one-particle modes, the M-orthonormal eigenvectors V
of (A, M) from one eigensolve per problem; they precondition and start
the many-body eigensolve.  A ManyBodyProblem is the pencil with its
orbitals and the specs v and w it came from; the dof matrices A, M and
the pair tensor exist only while build_problem assembles it.  An
independent dense tensor-grid assembly of the N = 2 pencil is the oracle:
it stacks the wedge states as nodal arrays and evaluates every form as
batched matrix products from the full-grid element matrices and its own
Gauss quadrature, the only integration at points in the package.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from functools import cache, reduce
from math import comb, perm

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
    "wedge_of",
    "scatter_wedges",
    "gather_wedges",
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


def _cell_moments(h: float) -> np.ndarray:
    """Triple-hat moments of a cell of width h: [t, a, b] = int phi_t phi_a phi_b.

    Index 0 is the cell's left hat and 1 its right one.  Every product of
    three P1 functions on a cell integrates exactly from these.
    """
    return h * _CUBIC[np.indices((2, 2, 2)).sum(axis=0)]


# ---------------------------------------------------------------------------
# basis enumeration


@dataclass(frozen=True)
class SlaterBasis:
    """All strictly increasing index tuples in lexicographic order.

    The tuples, the rows of the (dim, n_particles) integer array, label both
    the nodal wedges of the pencil (indices are grid dofs) and the Slater
    determinants of the orthonormal orbitals.
    """

    n_orbitals: int
    n_particles: int
    array: np.ndarray = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.array.shape[0]


def _increasing_tuples(n_nodes: int, N: int) -> np.ndarray:
    """Every strictly increasing N-tuple of node indices, in lexicographic order.

    Built column by column: a tuple ending at l extends to l + 1, ..., n - 1.
    The (count, N) result is the transpose of its columns, laid out as
    argwhere lays out its indices.
    """
    columns = [np.arange(n_nodes)]
    for _ in range(N - 1):
        last = columns[-1]
        count = n_nodes - 1 - last
        # within the run of each tuple the new entries are last + 1, last + 2, ...
        offset = np.repeat(np.cumsum(count) - count - last - 1, count)
        columns = [np.repeat(c, count) for c in columns] + [np.arange(count.sum()) - offset]
    return np.stack(columns).T


def enumerate_slater_basis(n_orbitals: int, n_particles: int) -> SlaterBasis:
    if not 1 <= n_particles <= n_orbitals:
        raise ValueError(
            f"need 1 <= n_particles <= n_orbitals, got ({n_orbitals}, {n_particles})"
        )
    count = comb(n_orbitals, n_particles)
    if count > DETERMINANT_CAP:
        raise CapExceededError(f"{count} determinants exceed cap {DETERMINANT_CAP}")
    return SlaterBasis(n_orbitals, n_particles, _increasing_tuples(n_orbitals, n_particles))


# ---------------------------------------------------------------------------
# antisymmetric tensors


def permutation_sign(perm) -> int:
    """Parity sign of a permutation given by its image tuple."""
    return -1 if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 else 1


@cache
def _rank_terms(n: int, N: int) -> np.ndarray:
    """wedge_of's rank terms C(n - 1 - t, q + 1) at [t * N + q], capped at C(n, N), 0 at t = n."""
    terms = [[min(comb(n - 1 - t, q + 1), comb(n, N)) for q in range(N)] for t in range(n)] + [[0] * N]
    return np.array(terms, dtype=np.int32).ravel()


def wedge_of(columns, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The wedge each index tuple orders, and the sign of that ordering.

    columns are the tuples' N index arrays, of one shape, over 0..n-1 with
    n for none.  A tuple of distinct indices below n gets the lexicographic
    rank k of its sorted tuple among the rows of _increasing_tuples(n, N)
    and its ordering's sign, any other tuple -1 and 0.  With q_i the count
    of indices above t_i, k = C(n, N) - 1 - sum_i C(n - 1 - t_i, q_i + 1)
    (the combinatorial number system; Knuth, TAOCP 4A, 7.2.1.3); the sign
    is the parity of the pairs out of order.  No sort, no n^N table.
    """
    N, D, shape = len(columns), comb(n, len(columns)), np.shape(columns[0])
    above = [np.full(shape, N - 1 - i, dtype=np.int8) for i in range(N)]  # q_i; a tie counts as above
    ok, odd, down = np.ones(shape, dtype=bool), np.zeros(shape, dtype=bool), np.empty(shape, dtype=bool)
    for i, j in itertools.combinations(range(N), 2):
        odd ^= np.greater(columns[i], columns[j], out=down)
        above[i] -= down
        above[j] += down
        ok &= np.not_equal(columns[i], columns[j], out=down)
    wedge, at = np.full(shape, D - 1, dtype=np.int32), np.empty(shape, dtype=np.int32)
    for t, q in zip(columns, above):
        ok &= np.less(t, n, out=down)
        wedge -= _rank_terms(n, N).take(np.add(np.multiply(t, N, out=at), q, out=at))
    wedge[~ok] = -1
    return wedge, np.where(odd, np.int8(-1), np.int8(1)) * ok


def _orderings(tuples: np.ndarray, side: int):
    """Each permutation's sign and the raveled (side,)^N index of every
    wedge's ordering by it, in lexicographic order of the permutations;
    tuples is the (D, N) array of strictly increasing wedge tuples."""
    columns = list(tuples.T.astype(np.intp))
    for perm in itertools.permutations(range(len(columns))):
        at = columns[perm[0]]
        for j in perm[1:]:
            at = at * side + columns[j]
        yield permutation_sign(perm), at


def scatter_wedges(values: np.ndarray, tuples: np.ndarray, side: int) -> np.ndarray:
    """values[..., k] at every ordering of wedge k, with its sign, and 0 elsewhere:
    over the last axis, (..., D) wedge values become (..., side^N) entries."""
    out = np.zeros(values.shape[:-1] + (side ** tuples.shape[1],), dtype=values.dtype)
    rows, v = out.reshape(-1, out.shape[-1]), values.reshape(-1, values.shape[-1])
    for sign, at in _orderings(tuples, side):
        for row, r in zip(rows, v if sign > 0 else -v):
            row[at] = r  # row by row: numpy's fast path for a 1-d scatter
    return out


def gather_wedges(values: np.ndarray, tuples: np.ndarray, side: int) -> np.ndarray:
    """The transpose of scatter_wedges: (..., side^N) values become (..., D), each
    wedge's signed sum over its orderings, from 0 in ascending raveled index."""
    out = np.zeros(values.shape[:-1] + (tuples.shape[0],), dtype=values.dtype)
    for sign, at in _orderings(tuples, side):
        (np.add if sign > 0 else np.subtract)(out, np.take(values, at, axis=-1), out=out)
    return out


# ---------------------------------------------------------------------------
# orbitals


@dataclass(frozen=True)
class OrbitalSet:
    """The one-particle modes A v = lambda M v as orthonormal orbitals.

    levels ascend; column a of transform V is the M-orthonormal mode of
    level a, so V' M V = I.
    """

    grid: GridBasis
    levels: np.ndarray = field(repr=False)
    transform: np.ndarray = field(repr=False)


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
    return OrbitalSet(grid, res.eigenvalues, res.eigenvectors)


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

    def __post_init__(self):
        if not np.isfinite(self.g):
            raise ValueError(f"contact strength must be finite, got {self.g}")


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
        if not np.all(np.isfinite(arr)):
            raise ValueError("kernel samples must be finite")
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


def _pair_moments(basis: GridBasis, M: SymMatrix) -> np.ndarray:
    """C[i, p] = int hat_i phi_a phi_c over the pairs p = (a, c) of M, dense.

    On a cell the three factors are the cell's two hats, scaled by the
    weights of the dofs their nodes carry, so the cell's triple-hat moments
    scatter straight to C.  A pair is found in M's CSR order by a sorted
    search of a * n_dofs + c; a contribution to a pair that M does not
    store (a coupling entry that underflowed to zero) is dropped.
    """
    n = basis.n_dofs
    dof, weight = basis.dof, basis.weight
    # the nodes of corner triple (t, a, c) of cell k, one column per triple
    t, a, c = np.arange(basis.n_cells)[:, None] + np.indices((2, 2, 2)).reshape(3, 1, 8)
    val = _cell_moments(basis.h).ravel() * weight[a] * weight[c]
    a, c = dof[a], dof[c]
    csr = M.data
    keys = np.repeat(np.arange(n), np.diff(csr.indptr)) * n + csr.indices  # ascending
    key = a * n + c
    pos = np.minimum(np.searchsorted(keys, key), keys.size - 1)
    keep = (a < n) & (c < n) & (keys[pos] == key)
    C = np.zeros((basis.n_nodes, keys.size))
    np.add.at(C, (t[keep], pos[keep]), val[keep])
    return C


def transform_two_body(w: InteractionSpec, basis: GridBasis, M: SymMatrix) -> TwoBodyTensor:
    """Local pair tensor of w over the dofs of `basis`; pairs follow M's pattern.

    The kernel is its bilinear interpolant sum_ij W_ij hat_i(x) hat_j(y)
    over the nodal samples W, so the tensor is C' W C with
    C = _pair_moments, exact from closed-form cell moments: beyond the
    result it holds C, W and W C, each one row per node.
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
    C = _pair_moments(basis, M)
    return TwoBodyTensor(n_orbitals=basis.n_dofs, pair_matrix=C.T @ (wnod @ C))


# ---------------------------------------------------------------------------
# many-body pencil


@dataclass(frozen=True)
class ManyBodyOperator:
    """Symmetric pencil (H, M) over the wedges of a Slater basis, both CSR.

    orbitals, which build_problem attaches, precondition the eigensolve and
    give its start block.  Only the oracle's operator has none; it is
    never handed to solve_mb_eig.
    """

    matrix: sp.csr_matrix = field(repr=False)
    basis: SlaterBasis
    overlap: sp.csr_matrix = field(repr=False, compare=False)
    orbitals: OrbitalSet | None = field(default=None, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()


@dataclass(frozen=True)
class WaveVector:
    """A state as its nodal wedge coefficients, one per tuple of the basis.

    These are the pencil's own coordinates: the eigenvectors of
    solve_mb_eig and inverse_iteration_ground, normalized in M_N, so the
    state has unit L2 norm.
    """

    coefficients: np.ndarray = field(repr=False)
    basis: SlaterBasis

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        if c.shape != (self.basis.dim,):
            raise ValueError("coefficient length does not match basis size")
        object.__setattr__(self, "coefficients", c)


# rows of a block carry about this many neighbour-slot tuples between them;
# the per-contribution index and value arrays of an assembly exist for one
# block at a time
_BLOCK_SLOTS = 1 << 15


def _landing(M: sp.csr_matrix, basis: SlaterBasis) -> tuple[np.ndarray, np.ndarray]:
    """Where the row sums of the pencil land, shared by every row block: nb[a, t],
    the t-th neighbour of dof a (the t-th nonzero of row a of M), n for none,
    and the (width^N, N) neighbour-slot tuples."""
    n, N = basis.n_orbitals, basis.n_particles
    deg = np.diff(M.indptr)
    width = int(deg.max())
    ok = np.arange(width) < deg[:, None]
    nb = np.where(ok, M.indices[np.where(ok, M.indptr[:-1, None] + np.arange(width), 0)], n)
    return nb, np.array(list(itertools.product(range(width), repeat=N)), dtype=np.int32)


def _upper_block(J, first, land, M, adata, W):
    """Upper-triangle entries of the wedge rows J = basis.array[first:...].

    A contribution is a row and a neighbour-slot tuple whose neighbour dofs
    have no ties and sort to a column K >= the row.  Returns the entry
    count of each row, the entry columns in CSR order and the H_N and M_N
    entry values.
    """
    (nb, slots), N = land, J.shape[1]
    n, n_slots = nb.shape[0], slots.shape[0]
    col, sign = wedge_of([np.take(nb[J[:, k]], slots[:, k], axis=1) for k in range(N)], n)

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
    sign = sign.ravel()[row * n_slots + slot].astype(float)
    pos = [M.indptr[J[:, k]][row] + slots[:, k][slot] for k in range(N)]
    del row, slot
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
    del lower, number
    full.data -= 1
    return full.indptr, full.indices, full.data


def assemble_manybody(
    A: SymMatrix, M: SymMatrix, two_body: TwoBodyTensor | None, basis: SlaterBasis
) -> ManyBodyOperator:
    """Sparse pencil (H_N, M_N) over the nodal wedges of `basis`.

    A must be supported on M's pattern, as every P1 one-body matrix is; an
    entry outside it above round-off (eps times the largest |A| entry)
    raises ValueError.  Row J of the pencil sums the full tensor operator
    over the dof tuples b with b_k a neighbour of J_k; a tuple without ties
    lands on the wedge it orders, with the sign of that ordering, both from
    wedge_of.  Because the full operator commutes with coordinate
    permutations, these row sums equal P'(.)P exactly.

    The rows are assembled in blocks of about _BLOCK_SLOTS neighbour-slot
    tuples, in row order; the sort keys, positions, signs and products of
    the individual contributions exist for one block at a time, so while
    the rows are summed an assembly holds its upper-triangle entries (20
    bytes each) and one block.  Only the contributions to the upper
    triangle are summed, each entry in slot order whatever the block size,
    and the lower triangle mirrors them, so both matrices are exactly
    symmetric.  They share one CSR structure, less the entries that cancel
    to exactly zero in either; at N >= 3 the kinetic terms of a uniform
    grid cancel in many entries of H.

    Past the rows an assembly keeps one copy of each array: the blocks'
    parts are joined one at a time, each matrix's data is gathered once
    from its upper entries, which then go, and a matrix's exact zeros are
    dropped by one mask over the full structure.  Beyond the result it
    holds at most the upper entries while _symmetric_csr merges the
    structure (the CSR arrays of the upper and lower triangles and their
    sum), or the unmasked data of a matrix that drops entries and its mask;
    traced peaks are 1.17 to 1.43 times the pencil at N = 2 to 5.
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
    step = max(1, _BLOCK_SLOTS // land[1].shape[0])
    J = basis.array
    blocks = [
        _upper_block(J[first : first + step], first, land, csr, adata, W)
        for first in range(0, D, step)
    ]
    del land
    # join one part at a time; each part's block list goes once it is joined
    counts, ucol, hu, mu = map(list, zip(*blocks))
    del blocks
    counts = np.concatenate(counts)
    ucol = np.concatenate(ucol)
    hu = np.concatenate(hu)
    mu = np.concatenate(mu)
    indptr, indices, mirror = _symmetric_csr(counts, ucol)
    del counts, ucol
    hfull = hu[mirror]
    del hu
    mfull = mu[mirror]
    del mu, mirror

    def pencil_matrix(data):
        keep = data != 0.0  # entries that cancel exactly are not stored
        if keep.all():
            return sp.csr_matrix((data, indices, indptr), shape=(D, D))
        kept = np.zeros(keep.size + 1, dtype=indptr.dtype)
        np.cumsum(keep, out=kept[1:])  # kept[p]: entries kept before position p
        kept = kept[indptr]
        return sp.csr_matrix((data[keep], indices[keep], kept), shape=(D, D))

    H = pencil_matrix(hfull)
    del hfull
    return ManyBodyOperator(matrix=H, basis=basis, overlap=pencil_matrix(mfull))


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
    v: PotentialSpec | None, w: InteractionSpec, basis: GridBasis
) -> ManyBodyOperator:
    """Direct two-particle assembly of the pencil on the tensor grid.

    Builds the wedge of every pair of dof hats as a nodal array S_i and
    evaluates the Gram, kinetic and potential forms <S_i, L S_j R'> with
    the full-grid element matrices, and the interaction with its own
    quadrature: a 5-point rule on the diagonal cells for g * delta(x - y),
    a 4 x 4 rule on every cell pair for a sampled kernel.  Independent of
    the dof projection and of the sparse assembly; used as its oracle.
    """
    if basis.n_dofs > 12:
        raise CapExceededError("brute-force oracle capped at 12 dofs")

    n, h = basis.n_cells, basis.h
    Mf = _full_overlap(n, h).toarray()
    Kf = _full_stiffness(n, h).toarray()
    Pf = _full_potential(v, n, h).toarray()

    slater = enumerate_slater_basis(basis.n_dofs, 2)
    U = basis.nodal_values(np.eye(basis.n_dofs))  # nodal values of the dof hats
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
        matrix=sp.csr_matrix(0.5 * (H + H.T)), basis=slater, overlap=sp.csr_matrix(0.5 * (G + G.T))
    )


# ---------------------------------------------------------------------------
# reduced densities


def _split(psi: WaveVector, m: int) -> sp.csr_matrix:
    """The antisymmetric coefficient tensor C[i_1..i_m, rest] as a sparse matrix.

    One column per increasing rest tuple: wedge J puts sign * c_J at every
    ordered choice of m of its indices, the sign of the permutation that
    moves them first.  Summed over increasing rests, a product of two rows
    is the sum over all ordered rests divided by (N - m)!.
    """
    J, c, n, N = psi.basis.array, psi.coefficients, psi.basis.n_orbitals, psi.basis.n_particles

    def key(columns):  # the raveled index of these columns of J
        return J[:, columns] @ n ** np.arange(len(columns))[::-1]

    parts = []
    for pick in itertools.permutations(range(N), m):
        rest = tuple(k for k in range(N) if k not in pick)
        parts.append((key(pick), key(rest), permutation_sign(pick + rest) * c))
    rows, rests, vals = map(np.concatenate, zip(*parts))
    col = np.unique(rests, return_inverse=True)[1]
    return sp.csr_matrix((vals, (rows, col)), shape=(n**m, col.max() + 1))


def one_body_density_matrix(psi: WaveVector) -> np.ndarray:
    """One-particle reduced density matrix of coefficients over orthonormal orbitals.

    The coefficients must be Slater coefficients over an orthonormal
    one-particle basis, not the pencil's nodal wedge coefficients.
    """
    S = _split(psi, 1)
    return (S @ S.T).toarray()


def pair_density_matrix(psi: WaveVector) -> np.ndarray:
    """Pair-space density matrix G with rho2(x, y) = b(x)' G b(y).

    Here b(x)[(p, r)] = phi_p(x) phi_r(x) over orthonormal orbitals phi, the
    basis of psi's coefficients, so G[(p, r), (q, s)] sums
    C[p, q, rest] C[r, s, rest] over the antisymmetric coefficient tensor.
    """
    basis = psi.basis
    if basis.n_particles < 2:
        raise ValueError("pair density requires at least two particles")
    n = basis.n_orbitals
    S = _split(psi, 2)
    return (S @ S.T).toarray().reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)


def _trapezoid_weights(grid: GridBasis) -> np.ndarray:
    w = np.full(grid.n_nodes, grid.h)
    w[0] = w[-1] = grid.h / 2.0
    return w


def _reduced(psi: WaveVector, orbitals: OrbitalSet, k: int) -> np.ndarray:
    """The k-body density at the grid nodes, trapezoid-exact to N! / (N - k)!.

    On each k-tuple of cells the state is multilinear in its corner values,
    so the hat moments of its square need only products of corner values,
    paired over the other coordinates of the nodal tensor through their
    mass matrices.  Nodal values are those moments over trapezoid weights.
    """
    from .simplex import nodal_tensor  # simplex builds on this module

    grid, N, n = orbitals.grid, psi.basis.n_particles, orbitals.grid.n_cells
    if N < k:
        raise ValueError(f"a {k}-body density needs at least {k} particles")
    T = MT = nodal_tensor(psi, orbitals)
    mass = _full_overlap(n, grid.h)
    for axis in range(k, N):
        MT = mass.along(MT, axis)
    corners = list(itertools.product((0, 1), repeat=k))

    def at(e):  # corner e of every k-tuple of cells
        return tuple(slice(a, a + n) for a in e)

    W = _cell_moments(grid.h)
    shape = (n,) * k + (-1,)  # the other coordinates flattened
    rho = np.zeros((grid.n_nodes,) * k)
    for e, f in itertools.product(corners, repeat=2):
        P = np.einsum("...r,...r->...", T[at(e)].reshape(shape), MT[at(f)].reshape(shape))
        for t in corners:
            rho[at(t)] += np.prod(W[t, e, f]) * P
    rho *= perm(N, k) / reduce(np.multiply.outer, [_trapezoid_weights(grid)] * k)
    return 0.5 * (rho + rho.T)


def reduced_density(psi: WaveVector, orbitals: OrbitalSet) -> np.ndarray:
    """Single-particle density at the grid nodes, trapezoid-exact to N.

    Reads orbitals.grid only.
    """
    return _reduced(psi, orbitals, 1)


def reduced_pair_density(psi: WaveVector, orbitals: OrbitalSet) -> np.ndarray:
    """Pair density on the node grid, symmetric, trapezoid-exact to N(N-1).

    Sixteen corner products per cell pair, never the n^4 pair-density
    matrix.  Reads orbitals.grid only.
    """
    return _reduced(psi, orbitals, 2)


# ---------------------------------------------------------------------------
# problem wiring


@dataclass(frozen=True)
class ManyBodyProblem:
    """Assembled many-body problem: the nodal pencil and the specs v and w.

    The grid, orbitals and Slater basis are the operator's own.
    """

    operator: ManyBodyOperator
    v: PotentialSpec | None
    w: InteractionSpec

    @property
    def grid(self) -> GridBasis:
        return self.operator.orbitals.grid

    @property
    def orbitals(self) -> OrbitalSet:
        return self.operator.orbitals

    @property
    def slater(self) -> SlaterBasis:
        return self.operator.basis

    @property
    def n_particles(self) -> int:
        return self.operator.basis.n_particles


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
    A = assemble_stiffness(grid) + assemble_potential(grid, v)
    orbitals = make_orbitals(grid, A, M)
    op = assemble_manybody(A, M, transform_two_body(w, grid, M), slater)
    return ManyBodyProblem(dataclasses.replace(op, orbitals=orbitals), v, w)
