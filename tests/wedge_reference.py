"""Dense antisymmetric tensors of wedge coefficients, built by an N!-step loop.

The reference for fermigate's wedge lookup, scatter and gather, and for
the tests that map states between nodal and orbital coefficients;
swap_gather finds wedges by sorting instead.  A problem keeps
only its pencil, so pencil_parts assembles its dof matrices again.
concatenated_pencil is the reference for the tail of assemble_manybody.
"""

import itertools
from math import factorial

import numpy as np
import scipy.sparse as sp

from fermigate import slater
from fermigate.basis import SymMatrix, assemble_overlap, assemble_potential, assemble_stiffness
from fermigate.slater import permutation_sign, transform_two_body


def pencil_parts(prob):
    """A = K + P_v, M and the pair tensor of w over the dofs of prob, as
    build_problem assembles them from prob.grid, prob.v and prob.w."""
    grid = prob.grid
    M = assemble_overlap(grid)
    A = SymMatrix.from_sparse(assemble_stiffness(grid).data + assemble_potential(grid, prob.v).data)
    return A, M, transform_two_body(prob.w, grid, M)


def concatenated_pencil(A, M, two_body, basis):
    """assemble_manybody's (H_N, M_N) as it was built before the tail kept one
    copy of each array: the same row blocks, every part concatenated at once,
    the structure from _symmetric_csr's transpose-and-add and each matrix's
    exact zeros dropped from a copy by eliminate_zeros."""
    csr, D = M.data, basis.dim
    adata = A.dense()[np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr)), csr.indices]
    W = None if two_body is None or two_body.is_null else two_body.pair_matrix
    land = slater._landing(csr, basis)
    step = max(1, slater._BLOCK_SLOTS // land[1].shape[0])
    blocks = [
        slater._upper_block(basis.array[first : first + step], first, land, csr, adata, W)
        for first in range(0, D, step)
    ]
    counts, ucol, hu, mu = (np.concatenate(part) for part in zip(*blocks))
    indptr, indices, mirror = slater._symmetric_csr(counts, ucol)

    def pencil_matrix(upper):
        mat = sp.csr_matrix((upper[mirror], indices, indptr), shape=(D, D))
        if not mat.data.all():
            mat = mat.copy()
            mat.eliminate_zeros()
        return mat

    return pencil_matrix(hu), pencil_matrix(mu)


def wedge_tensor(basis, coeffs):
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


def wedge_coefficients(basis, C):
    """Inverse of wedge_tensor on antisymmetric tensors, as (dim, m) columns."""
    return C[(slice(None),) + tuple(basis.array.T)].T


def mode_product(C, B):
    """Apply the matrix B along every axis of C after the first (column) axis."""
    for _ in range(C.ndim - 1):
        C = np.tensordot(C, B, axes=([1], [1]))
    return C


def transposed_extension(values, n_particles):
    """extend_from_simplex as the signed sum of the N! coordinate transposes."""
    scale = 1.0 / np.sqrt(factorial(n_particles))
    out = np.zeros_like(values)
    for perm in itertools.permutations(range(n_particles)):
        out += permutation_sign(perm) * scale * np.transpose(values, perm)
    return out


def to_orbital(prob, x):
    """Orbital Slater coefficients of nodal wedge coefficients x (V^-1 = V'M)."""
    inverse = (assemble_overlap(prob.grid).data @ prob.orbitals.transform).T
    return wedge_coefficients(prob.slater, mode_product(wedge_tensor(prob.slater, x), inverse))[:, 0]


def swap_gather(psi, grid):
    """simplex._ordered_values by pairwise swaps: sort each node tuple's dofs,
    flip the determinant's sign per swap, and find the wedge by searchsorted
    on the raveled tuples."""
    basis = psi.basis
    n, N = basis.n_orbitals, basis.n_particles
    tuples = slater._increasing_tuples(grid.n_nodes, N)
    dof, weight = np.where(grid.dof < n, grid.dof, -1), grid.weight
    d = dof[tuples.T]
    ok = d.min(axis=0) >= 0
    det = np.prod(weight[tuples.T], axis=0)
    below = np.zeros_like(d)
    for j, k in itertools.combinations(range(N), 2):
        ok &= d[j] != d[k]
        swap = d[j] > d[k]
        below[j] += swap
        below[k] += ~swap
        det[swap] *= -1.0
    key = np.sum(d * n ** (N - 1 - below), axis=0)
    table = 0
    for column in basis.array.T:
        table = table * n + column
    values = np.zeros(len(tuples))
    values[ok] = det[ok] * psi.coefficients[np.searchsorted(table, key[ok])]
    return tuples, values
