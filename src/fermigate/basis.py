"""Single-particle P1 finite-element basis on the unit interval.

The discrete space is a subspace of H^1(0,1) selected by a boundary
condition: the subspace {0}, a line span{(a, b)} or R^2 that the trace pair
(psi(0), psi(1)) lies in.  {0} drops the endpoint hats; a line, which
covers the one-sided Dirichlet conditions and the quasi-periodic coupling
psi(0) = alpha*psi(1), is realised exactly by a single coupled degree of
freedom combining the two endpoint half-hats.
All element integrals are closed-form, so assembled matrices carry no
quadrature error.

The grid is its node -> dof map: each node carries at most one dof, with a
weight, and the coupled dof is the one carried by two nodes.  Every
full-grid element matrix is symmetric tridiagonal and is built as its main
and off diagonal, so a dof matrix is one weighted scatter of those
diagonals through the map, for every boundary kind, with no sparse
products and no symmetrization step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

__all__ = [
    "BoundarySpec",
    "GridBasis",
    "PotentialSpec",
    "Delta",
    "Sampled",
    "HMinusOnePair",
    "SymMatrix",
    "build_grid_basis",
    "assemble_overlap",
    "assemble_stiffness",
    "assemble_potential",
]


# ---------------------------------------------------------------------------
# boundary conditions


@dataclass(frozen=True)
class BoundarySpec:
    """Boundary condition: the subspace the trace pair (psi(0), psi(1)) lies in.

    kind is 'dirichlet-both' ({0}), 'line' (span{(a, b)}, a finite nonzero
    direction) or 'free' (R^2); only a line takes a direction, so each
    subspace has one spec.  dirichlet_left, dirichlet_right and
    quasiperiodic are the lines (0, 1), (1, 0) and (alpha, 1), the last
    one psi(0) = alpha * psi(1).
    """

    kind: str
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if self.kind not in ("dirichlet-both", "line", "free"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "line" and not (np.isfinite([self.a, self.b]).all() and (self.a or self.b)):
            raise ValueError("line boundary direction must be finite and nonzero")
        if self.kind != "line" and (self.a or self.b):
            raise ValueError(f"{self.kind} boundary takes no direction, got ({self.a}, {self.b})")

    @staticmethod
    def dirichlet_both() -> "BoundarySpec":
        return BoundarySpec("dirichlet-both")

    @staticmethod
    def dirichlet_left() -> "BoundarySpec":
        return BoundarySpec.line(0.0, 1.0)

    @staticmethod
    def dirichlet_right() -> "BoundarySpec":
        return BoundarySpec.line(1.0, 0.0)

    @staticmethod
    def free() -> "BoundarySpec":
        return BoundarySpec("free")

    @staticmethod
    def quasiperiodic(alpha: float) -> "BoundarySpec":
        if not np.isfinite(alpha) or alpha == 0.0:
            raise ValueError("quasiperiodic alpha must be nonzero and finite")
        return BoundarySpec.line(alpha, 1.0)

    @staticmethod
    def line(a: float, b: float) -> "BoundarySpec":
        return BoundarySpec("line", a=float(a), b=float(b))

    def guarantees_simple_ground(self, n_particles: int) -> bool:
        """Parity rule: the N-particle ground state is simple under local
        conditions (a line with a = 0 or b = 0 counts as local) and, for a
        coupling psi(0) = alpha psi(1) (alpha = a / b), when
        alpha (-1)^(N-1) > 0."""
        if self.kind != "line" or self.a == 0.0 or self.b == 0.0:
            return True
        alpha_positive = (self.a > 0.0) == (self.b > 0.0)
        return alpha_positive == (n_particles % 2 == 1)  # alpha (-1)^(N-1) > 0


@dataclass(frozen=True)
class GridBasis:
    """P1 basis for a uniform grid on (0,1) restricted by a boundary condition.

    Node i carries dof[i] with weight[i], so dof j's hat is the sum of
    weight[i] * hat_i over the nodes i that carry it.  A node that carries
    no dof has dof n_dofs and weight 0.
    """

    n_cells: int
    h: float
    bc: BoundarySpec
    n_dofs: int
    dof: np.ndarray = field(repr=False, compare=False)  # (n_nodes,) int
    weight: np.ndarray = field(repr=False, compare=False)  # (n_nodes,)

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_nodes)

    def nodal_values(self, dof_coeffs: np.ndarray) -> np.ndarray:
        """Nodal values on the full grid of a dof vector or a block of dof columns.

        Zeros read +0.0, as in a sum over the dofs.
        """
        c = np.asarray(dof_coeffs)
        if c.shape[:1] != (self.n_dofs,):
            raise ValueError(f"expected {self.n_dofs} dof coefficients, got shape {c.shape}")
        padded = np.concatenate([c, np.zeros((1,) + c.shape[1:], dtype=c.dtype)])  # dof n_dofs: 0
        return self.weight.reshape((-1,) + (1,) * (c.ndim - 1)) * padded[self.dof] + 0.0

    def hat_values_at(self, x: np.ndarray) -> np.ndarray:
        """Full-grid hat function values, shape (len(x), n_nodes)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        c = np.clip(x, 0.0, 1.0) / self.h
        k = np.minimum(c.astype(int), self.n_cells - 1)
        t = c - k
        vals = np.zeros((x.size, self.n_nodes))
        rows = np.arange(x.size)
        vals[rows, k] = 1.0 - t
        vals[rows, k + 1] = t
        return vals


def build_grid_basis(n_cells: int, bc: BoundarySpec) -> GridBasis:
    """Construct the P1 basis for the given boundary condition.

    'free' keeps every node as its own dof.  Every other kind drops the two
    endpoint nodes, keeping the interior nodes in order, and a line adds
    one coupled dof a * phi_0 + b * phi_n last; an endpoint whose weight is
    zero carries no dof.  Requires n_cells >= 4 so that the coupled boundary
    dof never overlaps itself and every interior pattern occurs at least
    once.
    """
    if n_cells < 4:
        raise ValueError(f"n_cells must be >= 4, got {n_cells}")
    n = n_cells
    first = 0 if bc.kind == "free" else 1
    n_dofs = n + 1 - 2 * first
    dof, weight = np.full(n + 1, n_dofs), np.zeros(n + 1)
    dof[first : n + 1 - first], weight[first : n + 1 - first] = np.arange(n_dofs), 1.0
    if bc.kind == "line":
        dof[[0, n]], weight[[0, n]] = n_dofs, (bc.a, bc.b)
        n_dofs += 1
        dof[weight == 0.0] = n_dofs
    return GridBasis(n_cells=n, h=1.0 / n, bc=bc, n_dofs=n_dofs, dof=dof, weight=weight)


# ---------------------------------------------------------------------------
# potentials


class PotentialSpec:
    """Marker base class for external potential descriptions."""


@dataclass(frozen=True)
class Delta(PotentialSpec):
    """Point potential strength * delta(x - x0); endpoints allowed."""

    x0: float
    strength: float

    def __post_init__(self):
        if not 0.0 <= self.x0 <= 1.0:
            raise ValueError(f"delta position must lie in [0,1], got {self.x0}")
        if not np.isfinite(self.strength):
            raise ValueError(f"delta strength must be finite, got {self.strength}")


@dataclass(frozen=True)
class Sampled(PotentialSpec):
    """Piecewise-linear potential given by its values at the grid nodes."""

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not np.isfinite(self.values).all():
            raise ValueError("sampled potential values must be finite")


@dataclass(frozen=True)
class HMinusOnePair(PotentialSpec):
    """Dual-space potential v(phi) = alpha*int(phi) + sum_c V_c * int_c(phi').

    V is piecewise constant per cell; the per-cell flux integrals are exact
    for products of P1 functions.
    """

    alpha: float
    V: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "V", tuple(float(v) for v in self.V))
        if not np.isfinite([self.alpha, *self.V]).all():
            raise ValueError("H^-1 pair alpha and cell values must be finite")


# ---------------------------------------------------------------------------
# symmetric matrices


def norm1(X) -> float:
    """Largest absolute column sum of a dense or sparse matrix.  Of a sparse one it sums rows: for the
    exactly symmetric, index-sorted CSR matrices all callers pass (SymMatrix data and assemble_manybody's
    pencils), row i adds column i's terms in the same order, so the two sums agree bit for bit."""
    if sp.issparse(X):
        X = sp.csr_matrix(X)
        abs_X = sp.csr_matrix((np.abs(X.data), X.indices, X.indptr), shape=X.shape)
        return float((abs_X @ np.ones(X.shape[1])).max(initial=0.0))
    return float(np.abs(X).sum(axis=0).max())


@dataclass(frozen=True)
class SymMatrix:
    """Exactly symmetric sparse real matrix in canonical CSR form.

    from_sparse checks a matrix from outside; the one-body assembly and the
    sum of two SymMatrix are symmetric by construction and skip the check.
    """

    data: sp.csr_matrix = field(repr=False)
    dimension: int

    @staticmethod
    def from_sparse(mat) -> "SymMatrix":
        if not isinstance(mat, sp.csr_matrix):
            mat = sp.csr_matrix(mat)
        mat.sum_duplicates()
        mat.sort_indices()
        dim = mat.shape[0]
        if mat.shape[0] != mat.shape[1]:
            raise ValueError("matrix must be square")
        if not np.all(np.isfinite(mat.data)):
            raise ValueError("matrix entries must be finite")
        # the CSC arrays of a matrix are the CSR arrays of its transpose
        t = mat.tocsc()
        if not (
            np.array_equal(t.indptr, mat.indptr)
            and np.array_equal(t.indices, mat.indices)
            and np.array_equal(t.data, mat.data)
        ):
            raise ValueError("matrix must be exactly symmetric")
        return SymMatrix(data=mat, dimension=dim)

    def dense(self) -> np.ndarray:
        return self.data.toarray()

    def norm1(self) -> float:
        return norm1(self.data)

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        """The sum, with no re-check: scipy adds two canonical CSR matrices
        entry by entry, dropping exact zeros, so the sum of two exactly
        symmetric ones is canonical and exactly symmetric too."""
        if not isinstance(other, SymMatrix):
            return NotImplemented
        return SymMatrix(data=self.data + other.data, dimension=self.dimension)

    def __matmul__(self, other):
        return self.data @ other


# ---------------------------------------------------------------------------
# full-grid (unconstrained hat) element matrices


class _Tridiag(NamedTuple):
    """Symmetric tridiagonal matrix over the n + 1 grid nodes."""

    main: np.ndarray  # (n + 1,)
    off: np.ndarray  # (n,), both the sub- and the superdiagonal

    def toarray(self) -> np.ndarray:
        return np.diag(self.main) + np.diag(self.off, 1) + np.diag(self.off, -1)

    def along(self, T: np.ndarray, axis: int) -> np.ndarray:
        """This matrix applied along one axis of the array T, by its diagonals."""
        S = np.moveaxis(T, axis, 0)
        main, off = (d.reshape((-1,) + (1,) * (S.ndim - 1)) for d in self)
        out = main * S
        out[1:] += off * S[:-1]
        out[:-1] += off * S[1:]
        return np.moveaxis(out, 0, axis)


def _full_overlap(n: int, h: float) -> _Tridiag:
    main = np.full(n + 1, 2.0 * h / 3.0)
    main[0] = main[-1] = h / 3.0
    return _Tridiag(main, np.full(n, h / 6.0))


def _full_stiffness(n: int, h: float) -> _Tridiag:
    main = np.full(n + 1, 2.0 / h)
    main[0] = main[-1] = 1.0 / h
    return _Tridiag(main, np.full(n, -1.0 / h))


def _full_sampled(values: np.ndarray, n: int, h: float) -> _Tridiag:
    """Exact integral of (piecewise-linear v) * phi_i * phi_j.

    Per cell with endpoint potential values (vl, vr):
        int v*phiL*phiL = h*(vl/4 + vr/12)
        int v*phiL*phiR = h*(vl + vr)/12
        int v*phiR*phiR = h*(vl/12 + vr/4)
    """
    vl, vr = values[:-1], values[1:]
    diag = np.zeros(n + 1)
    diag[:-1] += h * (vl / 4.0 + vr / 12.0)
    diag[1:] += h * (vl / 12.0 + vr / 4.0)
    return _Tridiag(diag, h * (vl + vr) / 12.0)


def _full_delta(x0: float, strength: float, n: int, h: float) -> _Tridiag:
    c = x0 / h
    k = min(int(np.floor(c)), n - 1)
    t = c - k
    vk, vk1 = 1.0 - t, t  # hat values of nodes k and k + 1 at x0
    main, off = np.zeros(n + 1), np.zeros(n)
    main[k] = strength * (vk * vk)
    main[k + 1] = strength * (vk1 * vk1)
    off[k] = strength * (vk * vk1)
    return _Tridiag(main, off)


def _full_hminusone(alpha: float, V: np.ndarray, n: int, h: float) -> _Tridiag:
    # int_cell (phi_i phi_j)' telescopes to endpoint products, which for hat
    # functions is e_{k+1}e_{k+1}' - e_k e_k' per cell.
    diag = np.zeros(n + 1)
    diag[1:] += V
    diag[:-1] -= V
    overlap = _full_overlap(n, h)
    return _Tridiag(alpha * overlap.main + diag, alpha * overlap.off)


def _full_potential(v: PotentialSpec | None, n: int, h: float) -> _Tridiag:
    """Full-grid matrix v(phi_i phi_j) of the hats; v None is zero."""
    if v is None:
        return _Tridiag(np.zeros(n + 1), np.zeros(n))
    if isinstance(v, Delta):
        return _full_delta(v.x0, v.strength, n, h)
    if isinstance(v, Sampled):
        values = np.asarray(v.values, dtype=float)
        if values.size != n + 1:
            raise ValueError(
                f"sampled potential needs {n + 1} nodal values, got {values.size}"
            )
        return _full_sampled(values, n, h)
    if isinstance(v, HMinusOnePair):
        V = np.asarray(v.V, dtype=float)
        if V.size != n:
            raise ValueError(f"per-cell V needs {n} entries, got {V.size}")
        return _full_hminusone(v.alpha, V, n, h)
    raise TypeError(f"unsupported potential {type(v).__name__}")


# ---------------------------------------------------------------------------
# assembly in the boundary-restricted basis


def _project(basis: GridBasis, full: _Tridiag) -> SymMatrix:
    """The dof matrix of a full-grid tridiagonal F, one scatter through the node -> dof map.

    Node i adds w_i F_ii w_i to its dof's diagonal, and consecutive nodes
    add w_i F_i,i+1 w_(i+1) to their dof pair and its mirror, which for
    the coupled dof carried by nodes 0 and n gives the corner pair.  Only
    diagonal entries can sum two terms.  Exact zeros of the sums are not
    stored.  The sums and the CSR order come from bincount and lexsort,
    which the rest of a solve calls too: a first np.unique or scipy COO
    conversion in a process maps new code pages, 0.1-0.25 MB of its RSS.
    A pair and its mirror store one value and no dof pair occurs twice, so
    the result is exactly symmetric and canonical by construction and
    skips SymMatrix.from_sparse's re-check; only finiteness is checked.
    """
    d, o = full
    m, dof, w = basis.n_dofs, basis.dof, basis.weight
    main = np.bincount(dof, w * d * w, m + 1)[:m]  # dof m: none
    pair = (dof[:-1] < m) & (dof[1:] < m)
    left, right, off = dof[:-1][pair], dof[1:][pair], (w[:-1] * o * w[1:])[pair]
    i = np.arange(m)
    rows = np.concatenate([i, left, right])
    cols = np.concatenate([i, right, left])
    vals = np.concatenate([main, off, off])
    if not np.isfinite(vals).all():
        raise ValueError("matrix entries must be finite")
    keep = vals != 0.0
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    order = np.lexsort((cols, rows))
    indptr = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
    mat = sp.csr_matrix((vals[order], cols[order].astype(np.int32), indptr), shape=(m, m))
    return SymMatrix(data=mat, dimension=m)


def assemble_overlap(basis: GridBasis) -> SymMatrix:
    """Mass matrix M_ij = int phi_i phi_j; positive definite."""
    return _project(basis, _full_overlap(basis.n_cells, basis.h))


def assemble_stiffness(basis: GridBasis) -> SymMatrix:
    """Stiffness matrix K_ij = int phi_i' phi_j'; positive semi-definite."""
    return _project(basis, _full_stiffness(basis.n_cells, basis.h))


def assemble_potential(basis: GridBasis, v: PotentialSpec | None) -> SymMatrix:
    """Potential matrix P_ij = v(phi_i phi_j); v None is the zero potential."""
    return _project(basis, _full_potential(v, basis.n_cells, basis.h))
