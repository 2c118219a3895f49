"""Ordered-simplex machinery for antisymmetric states on the hypercube.

The open box (0,1)^N is tiled by the N! permutation reflections of the
ordered region {x_1 < x_2 < ... < x_N}.  Antisymmetric functions are in
bijection with their restriction to that region (scaled by sqrt(N!)), and
both directions of the correspondence preserve the L2 and H1 norms.  This
module implements the correspondence on nodal tensor data, point location
and sampling, exact quadrature over the ordered region, and sign-statistics
reports used by the positivity checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
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
    "sample_state",
    "evaluate_state",
    "nodal_tensor",
    "positivity_report",
    "nodal_volume_estimate",
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


def _sorted_mask(n_nodes: int, N: int, strict: bool) -> np.ndarray:
    idx = _index_grids((n_nodes,) * N)
    mask = np.ones((n_nodes,) * N, dtype=bool)
    for a in range(N - 1):
        mask &= (idx[a] < idx[a + 1]) if strict else (idx[a] <= idx[a + 1])
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
    if np.any(values[~_sorted_mask(n_nodes, N, strict=False)] != 0.0):
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
    mask = _sorted_mask(n_nodes, N, strict=False)
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
    tuples = np.argwhere(_sorted_mask(n_nodes, N, strict=True))
    vals = np.sqrt(factorial(N)) * full[tuple(tuples[:, k] for k in range(N))]
    points = tuples * grid.h
    return SimplexSample(
        points=points,
        values=vals,
        tags=_tag_points(points, grid.h),
        spacing=grid.h,
    )


def sample_state(
    psi: WaveVector,
    orbitals: OrbitalSet,
    n_points: int,
    rng: np.random.Generator,
) -> SimplexSample:
    """Monte-Carlo sample of sqrt(N!)*Psi on the ordered region."""
    N = psi.basis.n_particles
    pts = np.sort(rng.uniform(0.0, 1.0, size=(n_points, N)), axis=1)
    vals = np.sqrt(factorial(N)) * evaluate_state(psi, orbitals, pts)
    return SimplexSample(
        points=pts,
        values=vals,
        tags=_tag_points(pts, orbitals.grid.h),
        spacing=orbitals.grid.h,
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


def nodal_volume_estimate(sample: SimplexSample, thresholds) -> np.ndarray:
    """Fractions of interior points with |value| <= t * max, per threshold t."""
    thresholds = np.asarray(thresholds, dtype=float)
    if np.any(np.diff(thresholds) >= 0):
        raise ValueError("thresholds must be strictly descending")
    if len(sample) < 1000:
        raise ValueError("need at least 1000 sample points")
    vals = np.abs(sample.values[sample.interior])
    vmax = vals.max()
    return np.asarray([float(np.mean(vals <= t * vmax)) for t in thresholds])


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


@lru_cache(maxsize=None)
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


def _cell_pattern(corner: tuple[int, ...]) -> tuple[int, ...]:
    sizes = []
    run = 1
    for a, b in zip(corner, corner[1:]):
        if a == b:
            run += 1
        else:
            sizes.append(run)
            run = 1
    sizes.append(run)
    return tuple(sizes)


_CORNER_TO_MONO = np.array([[1.0, -1.0], [0.0, 1.0]])  # rows: (1-s), s


def _corner_to_poly(corner_vals: np.ndarray) -> np.ndarray:
    """Multilinear corner data to monomial coefficients, degree <= 1 per axis."""
    P = corner_vals
    N = corner_vals.ndim
    for _ in range(N):
        P = np.tensordot(P, _CORNER_TO_MONO, axes=([0], [0]))
    return P


def _poly_square(P: np.ndarray) -> np.ndarray:
    """Square a multivariate polynomial given as a dense coefficient array."""
    N = P.ndim
    out_shape = tuple(2 * (s - 1) + 1 for s in P.shape)
    out = np.zeros(out_shape)
    flat = list(np.ndenumerate(P))
    for (d1, c1) in flat:
        if c1 == 0.0:
            continue
        for (d2, c2) in flat:
            if c2 == 0.0:
                continue
            out[tuple(a + b for a, b in zip(d1, d2))] += c1 * c2
    return out


def _poly_mul_axis_linear(P: np.ndarray, const: float, lin: float, axis: int) -> np.ndarray:
    """Multiply by (const + lin * s_axis)."""
    shape = list(P.shape)
    shape[axis] += 1
    out = np.zeros(shape)
    sl_lo = [slice(None)] * P.ndim
    sl_lo[axis] = slice(0, P.shape[axis])
    sl_hi = [slice(None)] * P.ndim
    sl_hi[axis] = slice(1, P.shape[axis] + 1)
    out[tuple(sl_lo)] += const * P
    out[tuple(sl_hi)] += lin * P
    return out


def _iter_ordered_cells(n_cells: int, N: int):
    return itertools.combinations_with_replacement(range(n_cells), N)


def _cell_corner_values(full: np.ndarray, corner: tuple[int, ...]) -> np.ndarray:
    N = len(corner)
    sl = tuple(slice(c, c + 2) for c in corner)
    block = full[sl]
    assert block.shape == (2,) * N
    return block


def simplex_norms(full: np.ndarray, h: float) -> tuple[float, float]:
    """(L2^2, H1-seminorm^2) of a nodal tensor over the ordered region.

    Exact: cells cut by tied indices are integrated with closed-form
    ordered-monomial weights.
    """
    full = np.asarray(full, dtype=float)
    N = full.ndim
    n_cells = full.shape[0] - 1
    l2 = 0.0
    h1 = 0.0
    for corner in _iter_ordered_cells(n_cells, N):
        pattern = _cell_pattern(corner)
        vals = _cell_corner_values(full, corner)
        P = _corner_to_poly(vals)
        sq = _poly_square(P)
        w = _ordered_weights(pattern, tuple(s - 1 for s in sq.shape))
        l2 += h**N * float(np.sum(sq * w))
        for axis in range(N):
            D = np.take(P, 1, axis=axis)
            D = np.expand_dims(D, axis=axis)
            dsq = _poly_square(D)
            wd = _ordered_weights(pattern, tuple(s - 1 for s in dsq.shape))
            h1 += h ** (N - 2) * float(np.sum(dsq * wd))
    return l2, h1


def simplex_potential_energy(full: np.ndarray, h: float, v_nodal: np.ndarray) -> float:
    """Exact integral over the ordered region of (sum_k v(x_k)) * psi^2.

    v_nodal holds nodal values of a piecewise-linear potential.
    """
    full = np.asarray(full, dtype=float)
    v_nodal = np.asarray(v_nodal, dtype=float)
    N = full.ndim
    n_cells = full.shape[0] - 1
    total = 0.0
    for corner in _iter_ordered_cells(n_cells, N):
        pattern = _cell_pattern(corner)
        vals = _cell_corner_values(full, corner)
        sq = _poly_square(_corner_to_poly(vals))
        for axis in range(N):
            vl = v_nodal[corner[axis]]
            vr = v_nodal[corner[axis] + 1]
            # v restricted to the cell along this axis: vl + (vr - vl) s
            term = _poly_mul_axis_linear(sq, vl, vr - vl, axis)
            w = _ordered_weights(pattern, tuple(s - 1 for s in term.shape))
            total += h**N * float(np.sum(term * w))
    return total
