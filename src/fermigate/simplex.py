"""Ordered-simplex machinery for antisymmetric states on the hypercube.

The open box (0,1)^N is tiled by the N! permutation reflections of the
ordered region {x_1 < x_2 < ... < x_N}.  Antisymmetric functions are in
bijection with their restriction to that region (scaled by sqrt(N!)), and
both directions of the correspondence preserve the L2 and H1 norms.  This
module implements the correspondence on nodal tensor data, sampling,
exact quadrature over the ordered region, and sign-statistics reports used
by the positivity checks.

A state enters as its nodal wedge coefficients (a WaveVector).  Its
ordered-region values at the node tuples are one signed gather of them,
through the signed_orderings table of its wedges, and everything else is
built from those values: the full nodal tensor scatters them through the
table of the increasing node tuples, and point values and the densities
of slater read that tensor.

The quadrature integrates a nodal tensor cell by cell over the part of each
grid cell that lies in the ordered region.  That part is fixed by the cell's
tie pattern (which corner indices are equal), so every pattern has its own
P1 element forms on the 2^N corner values: mass, stiffness and potential
forms built once from closed-form integrals of monomials over ordered
sub-simplices.  A norm is then one contraction of the gathered corner
values of all cells of a pattern with that pattern's forms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from math import factorial

import numpy as np

from .basis import GridBasis, _full_overlap, _full_stiffness
from .slater import (
    OrbitalSet,
    WaveVector,
    _increasing_tuples,
    scatter_orderings,
    signed_orderings,
)

__all__ = [
    "SimplexSample",
    "PositivityReport",
    "extend_from_simplex",
    "restrict_full_tensor",
    "restrict_to_simplex",
    "evaluate_state",
    "nodal_tensor",
    "positivity_report",
    "box_norms",
    "simplex_norms",
    "simplex_potential_energy",
]


# ---------------------------------------------------------------------------
# nodal extension / restriction


def _sorted_mask(n_nodes: int, N: int) -> np.ndarray:
    # open grids: they broadcast against each other, so no n^N index arrays
    idx = np.ogrid[(slice(n_nodes),) * N]
    mask = np.ones((n_nodes,) * N, dtype=bool)
    for a in range(N - 1):
        mask &= idx[a] <= idx[a + 1]
    return mask


def _antisymmetric(table: np.ndarray, ordered: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The tensor with +-ordered / sqrt(N!) at every ordering of each
    increasing node tuple, scattered through their signed_orderings table.

    Its zeros are +0.0, as in a sum of signed coordinate transposes.
    """
    full = scatter_orderings(table, (1.0 / np.sqrt(factorial(len(shape)))) * ordered)
    full += 0.0
    return full.reshape(shape)


def extend_from_simplex(values: np.ndarray, n_particles: int) -> np.ndarray:
    """Antisymmetric nodal tensor from ordered-region nodal data.

    `values` is a full (n_nodes,)^N array supported on the strictly
    increasing index tuples; the result puts each of their values, scaled
    by 1/sqrt(N!) and signed, at every ordering of its tuple.  Restricting
    the result back (see restrict_full_tensor) reproduces the input.
    """
    values = np.asarray(values, dtype=float)
    N = n_particles
    if values.ndim != N:
        raise ValueError(f"expected a rank-{N} nodal array")
    n_nodes = values.shape[0]
    if values.shape != (n_nodes,) * N:
        raise ValueError("nodal array must be hypercubic")
    tuples = _increasing_tuples(n_nodes, N)
    table = signed_orderings(tuples, n_nodes)
    ordered = values.reshape(-1)[np.ravel_multi_index(tuple(tuples.T), values.shape)]
    if np.count_nonzero(values) > np.count_nonzero(ordered):
        # a nonzero off the increasing tuples: tied ones order no wedge
        if np.any(table[np.flatnonzero(values)] == 0):
            raise ValueError("tied-index nodal values must be exactly zero")
        raise ValueError("values outside the ordered index region must be zero")
    return _antisymmetric(table, ordered, values.shape)


def restrict_full_tensor(full: np.ndarray, n_particles: int) -> np.ndarray:
    """Ordered-region nodal data sqrt(N!) * Psi from an antisymmetric tensor."""
    full = np.asarray(full, dtype=float)
    N = n_particles
    n_nodes = full.shape[0]
    mask = _sorted_mask(n_nodes, N)
    return np.where(mask, np.sqrt(factorial(N)) * full, 0.0)


# ---------------------------------------------------------------------------
# state evaluation


def _ordered_values(psi: WaveVector, grid: GridBasis) -> tuple[np.ndarray, np.ndarray]:
    """The strictly increasing node tuples t and sqrt(N!) * Psi(t), by one signed gather.

    sqrt(N!) Psi(t) = sum_J c_J det E[t, J] over the wedges J, with
    E[i, j] = grid.weight[i] where grid.dof[i] = j.  A node carries at most
    one dof, so only the wedge J that the dofs of t order can contribute,
    and only when those dofs are distinct; its determinant is the sign of
    that ordering times the product of the node weights.  So the dof tuples
    of t, looked up in the basis's signed_orderings table, scatter +-c_J to
    t.
    """
    basis = psi.basis
    if basis.n_orbitals != grid.n_dofs:
        raise ValueError("state and grid disagree on the number of dofs")
    n, N = basis.n_orbitals, basis.n_particles
    tuples = _increasing_tuples(grid.n_nodes, N)
    dof, weight = grid.dof, grid.weight  # dof n: none
    code = signed_orderings(basis.array, n + 1)[np.ravel_multi_index(dof[tuples.T], (n + 1,) * N)]
    values = np.prod(weight[tuples.T], axis=0) * scatter_orderings(code, psi.coefficients)
    values[code == 0] = 0.0  # +0.0 where no wedge lands, whatever the weights' signs
    return tuples, values


def nodal_tensor(psi: WaveVector, orbitals: OrbitalSet) -> np.ndarray:
    """Nodal values of the state on the full tensor grid.

    Its values at the increasing node tuples, scattered over every ordering
    through their signed_orderings table (as extend_from_simplex does,
    without validating a full input array).  Reads orbitals.grid only.
    """
    tuples, ordered = _ordered_values(psi, orbitals.grid)
    n_nodes = orbitals.grid.n_nodes
    return _antisymmetric(signed_orderings(tuples, n_nodes), ordered, (n_nodes,) * tuples.shape[1])


def evaluate_state(psi: WaveVector, orbitals: OrbitalSet, points: np.ndarray) -> np.ndarray:
    """Values of the state at arbitrary points in [0,1]^N.

    The state is multilinear on every grid cell: its nodal tensor
    contracted with the hat values of each coordinate.  Reads orbitals.grid
    only.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != psi.basis.n_particles:
        raise ValueError("point dimension does not match particle count")
    full = nodal_tensor(psi, orbitals)
    vals = np.broadcast_to(full, (len(points),) + full.shape)
    for x in points.T:
        vals = np.einsum("pi...,pi->p...", vals, orbitals.grid.hat_values_at(x))
    return vals


# ---------------------------------------------------------------------------
# samples and reports


TAG_INTERIOR = "interior"
TAG_NEAR_INTERNAL = "near-internal-boundary"
TAG_NEAR_OUTER = "near-outer-boundary"


@dataclass(frozen=True)
class SimplexSample:
    """Scaled restriction values sqrt(N!)*Psi at points of the ordered region."""

    points: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    tags: tuple[str, ...] = field(repr=False)

    @property
    def interior(self) -> np.ndarray:
        return np.asarray(self.tags) == TAG_INTERIOR

    def __len__(self) -> int:
        return len(self.values)


def _tag_points(points: np.ndarray, h: float) -> tuple[str, ...]:
    """Tag sorted points by their distance to the outer and internal faces.

    Points within h of x_1 = 0 or x_N = 1 are near the outer boundary; of
    the rest, those within h of a face x_i = x_(i+1) (distance
    (x_(i+1) - x_i)/sqrt(2)) are near an internal one.
    """
    points = np.asarray(points, dtype=float)
    dist_out = np.minimum(points[:, 0], 1.0 - points[:, -1])
    dist_int = np.diff(points, axis=1).min(axis=1, initial=np.inf) / np.sqrt(2.0)
    tags = np.where(
        dist_out < h,
        TAG_NEAR_OUTER,
        np.where(dist_int < h, TAG_NEAR_INTERNAL, TAG_INTERIOR),
    )
    return tuple(tags.tolist())


def restrict_to_simplex(psi: WaveVector, orbitals: OrbitalSet) -> SimplexSample:
    """Sample sqrt(N!)*Psi at the strictly increasing grid node tuples.

    Reads orbitals.grid only.
    """
    grid = orbitals.grid
    tuples, values = _ordered_values(psi, grid)
    points = tuples * grid.h
    return SimplexSample(points=points, values=values, tags=_tag_points(points, grid.h))


@dataclass(frozen=True)
class PositivityReport:
    """Sign statistics over interior sample points after sign fixing."""

    sign_consistency: float
    excluded_fraction: float
    n_interior: int


def positivity_report(sample: SimplexSample, exclusion_frac: float = 1e-6) -> PositivityReport:
    """Fraction of non-excluded interior points sharing the fixed sign.

    The overall sign is fixed so the largest-magnitude interior value is
    positive; points with magnitude below exclusion_frac times the maximum
    are excluded from the statistic, so exclusion_frac must lie in [0, 1).
    """
    if not 0.0 <= exclusion_frac < 1.0:
        raise ValueError(f"exclusion_frac must lie in [0, 1), got {exclusion_frac!r}")
    mask = sample.interior
    if not np.any(mask):
        raise ValueError("sample has no interior points")
    vals = sample.values[mask]
    vmax_idx = int(np.argmax(np.abs(vals)))
    vmax = abs(vals[vmax_idx])
    if vmax == 0.0:
        raise ValueError("sample is identically zero on the interior")
    fixed = vals * np.sign(vals[vmax_idx])
    excluded = np.abs(fixed) <= exclusion_frac * vmax
    kept = fixed[~excluded]
    consistency = float(np.mean(kept > 0.0)) if kept.size else 1.0
    return PositivityReport(
        sign_consistency=consistency,
        excluded_fraction=float(np.mean(excluded)),
        n_interior=int(vals.size),
    )


# ---------------------------------------------------------------------------
# exact quadrature over the box and the ordered region


def box_norms(full: np.ndarray, h: float) -> tuple[float, float]:
    """(L2^2, H1-seminorm^2) of a nodal tensor over the whole box."""
    full = np.asarray(full, dtype=float)
    M, K = _full_overlap(full.shape[0] - 1, h), _full_stiffness(full.shape[0] - 1, h)

    def form(stiff_axis):  # the mass matrix on every axis but stiff_axis
        T = full
        for axis in range(full.ndim):
            T = (K if axis == stiff_axis else M).along(T, axis)
        return float(np.sum(T * full))

    return form(None), sum(form(axis) for axis in range(full.ndim))


def _ordered_weights(pattern: tuple[int, ...], degrees: tuple[int, ...]) -> np.ndarray:
    """Integrals of all monomials up to `degrees` over a tied-cell region.

    pattern lists the sizes of consecutive coordinate groups constrained to
    be increasing within the unit cell; monomial integral per group is
    prod_k 1/(a_1 + ... + a_k + k).
    """
    shape = tuple(d + 1 for d in degrees)
    weights = np.zeros(shape)
    for mono in itertools.product(*[range(s) for s in shape]):
        val = 1.0
        pos = 0
        for size in pattern:
            acc = 0
            for k in range(size):
                acc += mono[pos + k]
                val /= acc + k + 1
            pos += size
        weights[mono] = val
    return weights


_CORNER_TO_MONO = np.array([[1.0, -1.0], [0.0, 1.0]])  # rows: (1-s), s
_CORNER_TO_SLOPE = np.array([[-1.0, 0.0], [1.0, 0.0]])  # rows: (1-s)', s'


@lru_cache(maxsize=None)
def _corner_forms(pattern: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Element forms on the 2^N corner values of a cell with this tie pattern.

    Each form is T W T' with T the corner-hat-to-monomial map and
    W[a, b] the ordered-region integral of s^(a+b) in cell coordinates.
    Returns norms[0] (mass), norms[1] (stiffness summed over axes) and
    potential[k, e], the mass form weighted by the hat of end e on axis k.
    """
    N = sum(pattern)
    mono = np.array(list(itertools.product((0, 1), repeat=N)))
    degree = mono[:, None, :] + mono[None, :, :]
    w = _ordered_weights(pattern, (3,) * N)

    def gram(T, shift=0):
        return T @ w[tuple(np.moveaxis(degree + shift, -1, 0))] @ T.T

    T = reduce(np.kron, [_CORNER_TO_MONO] * N)
    mass = gram(T)
    stiff = sum(
        gram(reduce(np.kron, [_CORNER_TO_SLOPE if j == k else _CORNER_TO_MONO for j in range(N)]))
        for k in range(N)
    )
    # the hat of end e on axis k is C[e, 0] + C[e, 1] * s_k
    C, unit = _CORNER_TO_MONO, np.eye(N, dtype=int)
    potential = np.array(
        [[C[e, 0] * mass + C[e, 1] * gram(T, unit[k]) for e in (0, 1)] for k in range(N)]
    )
    norms = np.array([mass, stiff])
    norms.flags.writeable = potential.flags.writeable = False
    return norms, potential


def _ordered_cells(full: np.ndarray):
    """(tie pattern, lower corners, corner values) of the cells meeting the
    ordered region, one triple per pattern.

    A cell's lower corner is non-decreasing; its pattern lists the run
    lengths of equal corner indices, the coordinate groups that must also
    increase inside the cell.
    """
    N = full.ndim
    corners = np.argwhere(_sorted_mask(full.shape[0] - 1, N))
    ties = corners[:, 1:] == corners[:, :-1]
    offsets = np.array(list(itertools.product((0, 1), repeat=N)))
    for tie in itertools.product((False, True), repeat=N - 1):
        cells = corners[np.all(ties == tie, axis=1)]
        if len(cells) == 0:
            continue
        breaks = [0] + [k + 1 for k, tied in enumerate(tie) if not tied] + [N]
        idx = cells[:, None, :] + offsets
        yield tuple(np.diff(breaks).tolist()), cells, full[tuple(np.moveaxis(idx, -1, 0))]


def simplex_norms(full: np.ndarray, h: float) -> tuple[float, float]:
    """(L2^2, H1-seminorm^2) of a nodal tensor over the ordered region.

    Exact: cells cut by tied indices are integrated with closed-form
    ordered-monomial weights.
    """
    full = np.asarray(full, dtype=float)
    N = full.ndim
    l2 = h1 = 0.0
    for pattern, _, V in _ordered_cells(full):
        mass, stiff = np.sum((V @ _corner_forms(pattern)[0]) * V, axis=(1, 2))
        l2 += mass
        h1 += stiff
    return h**N * float(l2), h ** (N - 2) * float(h1)


def simplex_potential_energy(full: np.ndarray, h: float, v_nodal: np.ndarray) -> float:
    """Exact integral over the ordered region of (sum_k v(x_k)) * psi^2.

    v_nodal holds nodal values of a piecewise-linear potential.
    """
    full = np.asarray(full, dtype=float)
    v_nodal = np.asarray(v_nodal, dtype=float)
    total = 0.0
    for pattern, cells, V in _ordered_cells(full):
        v_ends = v_nodal[cells[:, :, None] + np.arange(2)]  # (cells, axis, end)
        forms = np.einsum("cke,keab->cab", v_ends, _corner_forms(pattern)[1])
        total += np.einsum("ca,cab,cb->", V, forms, V)
    return h**full.ndim * float(total)
