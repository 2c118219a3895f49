"""Ordered-simplex machinery for antisymmetric states on the hypercube.

The open box (0,1)^N is tiled by the N! permutation reflections of the
ordered region {x_1 < x_2 < ... < x_N}.  Antisymmetric functions are in
bijection with their restriction to that region (scaled by sqrt(N!)), and
both directions of the correspondence preserve the L2 and H1 norms.  This
module implements the correspondence on nodal tensor data, point location
and sampling, exact quadrature over the ordered region, and sign-statistics
reports used by the positivity checks.

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

from .slater import OrbitalSet, WaveVector, mode_product, permutation_sign, wedge_tensor

__all__ = [
    "Permutation",
    "SimplexSample",
    "PositivityReport",
    "locate_cell",
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
# permutations


@dataclass(frozen=True)
class Permutation:
    """Permutation of {0..N-1} with its parity sign."""

    image: tuple[int, ...]
    sign: int

    @staticmethod
    def from_image(image) -> "Permutation":
        image = tuple(int(i) for i in image)
        if sorted(image) != list(range(len(image))):
            raise ValueError(f"not a permutation of 0..{len(image) - 1}: {image}")
        return Permutation(image=image, sign=permutation_sign(image))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(image=tuple(range(n)), sign=1)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.image)
        for i, v in enumerate(self.image):
            inv[v] = i
        return Permutation(image=tuple(inv), sign=self.sign)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Permute coordinates: (sigma x)_i = x_{sigma(i)}."""
        x = np.asarray(x)
        return x[..., list(self.image)]


def locate_cell(x) -> tuple[Permutation, float]:
    """Permutation sorting the point into the ordered region, with margin.

    Returns sigma such that sigma^{-1} x has non-decreasing coordinates and
    the minimal consecutive difference of the sorted coordinates.  A strictly
    positive margin identifies a unique tile; ties give margin 0.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("expected a single point")
    if np.any(x <= 0.0) or np.any(x >= 1.0):
        raise ValueError("point must lie in the open box (0,1)^N")
    order = np.argsort(x, kind="stable")
    srt = x[order]
    margin = float(np.min(np.diff(srt))) if x.size > 1 else min(srt[0], 1 - srt[0])
    sigma = Permutation.from_image(order).inverse()
    return sigma, margin


# ---------------------------------------------------------------------------
# nodal extension / restriction


def _index_grids(shape: tuple[int, ...]) -> np.ndarray:
    return np.indices(shape)


def _tie_mask(n_nodes: int, N: int) -> np.ndarray:
    idx = _index_grids((n_nodes,) * N)
    mask = np.zeros((n_nodes,) * N, dtype=bool)
    for a, b in itertools.combinations(range(N), 2):
        mask |= idx[a] == idx[b]
    return mask


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


def _sorted_mask(n_nodes: int, N: int) -> np.ndarray:
    idx = _index_grids((n_nodes,) * N)
    mask = np.ones((n_nodes,) * N, dtype=bool)
    for a in range(N - 1):
        mask &= idx[a] <= idx[a + 1]
    return mask


def extend_from_simplex(values: np.ndarray, n_particles: int) -> np.ndarray:
    """Antisymmetric nodal tensor from ordered-region nodal data.

    `values` is a full (n_nodes,)^N array supported on the non-decreasing
    index region with zeros at every tied index; the result is the signed
    sum of its coordinate transposes scaled by 1/sqrt(N!).  Restricting the
    result back (see restrict_full_tensor) reproduces the input.
    """
    values = np.asarray(values, dtype=float)
    N = n_particles
    if values.ndim != N:
        raise ValueError(f"expected a rank-{N} nodal array")
    n_nodes = values.shape[0]
    if values.shape != (n_nodes,) * N:
        raise ValueError("nodal array must be hypercubic")
    if np.any(values[_tie_mask(n_nodes, N)] != 0.0):
        raise ValueError("tied-index nodal values must be exactly zero")
    if np.any(values[~_sorted_mask(n_nodes, N)] != 0.0):
        raise ValueError("values outside the ordered index region must be zero")
    scale = 1.0 / np.sqrt(factorial(N))
    out = np.zeros_like(values)
    for perm in itertools.permutations(range(N)):
        out += permutation_sign(perm) * scale * np.transpose(values, perm)
    return out


def restrict_full_tensor(full: np.ndarray, n_particles: int) -> np.ndarray:
    """Ordered-region nodal data sqrt(N!) * Psi from an antisymmetric tensor."""
    full = np.asarray(full, dtype=float)
    N = n_particles
    n_nodes = full.shape[0]
    mask = _sorted_mask(n_nodes, N)
    return np.where(mask, np.sqrt(factorial(N)) * full, 0.0)


# ---------------------------------------------------------------------------
# state evaluation


def _antisymmetric_coefficients(psi: WaveVector) -> np.ndarray:
    """Dense antisymmetric coefficient tensor over orbital indices."""
    if psi.basis.n_particles > 4:
        raise ValueError("dense evaluation supported for up to 4 particles")
    return wedge_tensor(psi.basis, psi.coefficients)[0]


_EVAL_EINSUM = {
    1: "pa,a->p",
    2: "pa,pb,ab->p",
    3: "pa,pb,pc,abc->p",
    4: "pa,pb,pc,pd,abcd->p",
}


def evaluate_state(psi: WaveVector, orbitals: OrbitalSet, points: np.ndarray) -> np.ndarray:
    """Values of the represented wavefunction at arbitrary points in [0,1]^N."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    N = psi.basis.n_particles
    if points.shape[1] != N:
        raise ValueError("point dimension does not match particle count")
    C = _antisymmetric_coefficients(psi)
    mats = [orbitals.grid.hat_values_at(points[:, k]) @ orbitals.nodal for k in range(N)]
    vals = np.einsum(_EVAL_EINSUM[N], *mats, C, optimize=True)
    return vals / np.sqrt(factorial(N))


def nodal_tensor(psi: WaveVector, orbitals: OrbitalSet) -> np.ndarray:
    """Nodal values of the wavefunction on the full tensor grid."""
    C = _antisymmetric_coefficients(psi)
    T = mode_product(C[None], orbitals.nodal)[0]
    return T / np.sqrt(factorial(psi.basis.n_particles))


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
    spacing: float

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
    """Sample sqrt(N!)*Psi at the strictly increasing grid node tuples."""
    grid = orbitals.grid
    N = psi.basis.n_particles
    full = nodal_tensor(psi, orbitals)
    n_nodes = grid.n_nodes
    tuples = _increasing_tuples(n_nodes, N)
    vals = np.sqrt(factorial(N)) * full[tuple(tuples[:, k] for k in range(N))]
    points = tuples * grid.h
    return SimplexSample(
        points=points,
        values=vals,
        tags=_tag_points(points, grid.h),
        spacing=grid.h,
    )


@dataclass(frozen=True)
class PositivityReport:
    """Sign statistics over interior sample points after sign fixing."""

    sign_consistency: float
    excluded_fraction: float
    n_interior: int
    n_excluded: int
    epsilon: float


def positivity_report(sample: SimplexSample, exclusion_frac: float = 1e-6) -> PositivityReport:
    """Fraction of non-excluded interior points sharing the fixed sign.

    The overall sign is fixed so the largest-magnitude interior value is
    positive; points with magnitude below exclusion_frac times the maximum
    are excluded from the statistic.
    """
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
        n_excluded=int(np.sum(excluded)),
        epsilon=exclusion_frac,
    )


# ---------------------------------------------------------------------------
# exact quadrature over the box and the ordered region


def box_norms(full: np.ndarray, h: float) -> tuple[float, float]:
    """(L2^2, H1-seminorm^2) of a nodal tensor over the whole box."""
    full = np.asarray(full, dtype=float)
    N = full.ndim
    n_nodes = full.shape[0]
    n = n_nodes - 1
    from .basis import _full_overlap, _full_stiffness

    Mf = _full_overlap(n, h).toarray()
    Kf = _full_stiffness(n, h).toarray()

    def contract(mats):
        T = full
        for mat in mats:
            T = np.tensordot(T, mat, axes=([0], [0]))
        return float(np.sum(T * full))

    l2 = contract([Mf] * N)
    h1 = sum(contract([Kf if k == axis else Mf for k in range(N)]) for axis in range(N))
    return l2, h1


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
