"""Correctness gates applied to every operation the benchmark issues.

Each check returns a list of failure strings; an empty list means the
operation passed.  Checks run outside the timed operation, and in a traced
pass with the tracer paused, so they never count toward a layer.
"""

from __future__ import annotations

import itertools

import numpy as np

DENSITY_TOL = 1e-10  # trapezoid integral of the density against N, absolute
ORACLE_RTOL = 1e-8  # many-body levels against sorted orbital-energy sums
TWIN_RTOL = 1e-10  # delta-contact levels against the free twin's


def norm1(H) -> float:
    """Largest absolute column sum of a dense or sparse matrix."""
    return float(abs(H).sum(axis=0).max())


def spectral(res, H, rtol: float) -> list[str]:
    """Ascending eigenvalues, residuals inside the SpectralResult bound."""
    fails = []
    lam = np.asarray(res.eigenvalues)
    if np.any(np.diff(lam) < 0):
        fails.append("eigenvalues not ascending")
    bound = rtol * (norm1(H) + np.abs(lam))
    if not np.all(np.asarray(res.residuals) <= bound):
        worst = float(np.max(np.asarray(res.residuals) / bound))
        fails.append(f"residual {worst:.3g}x its bound")
    return fails


def density(rho, grid, n_particles: int) -> list[str]:
    w = np.full(grid.n_nodes, grid.h)
    w[0] = w[-1] = grid.h / 2.0
    total = float(w @ rho)
    if not abs(total - n_particles) <= DENSITY_TOL:
        return [f"density integrates to {total!r}, not {n_particles}"]
    return []


def simplex_sample(sample, n_nodes: int, n_particles: int) -> list[str]:
    expected = len(list(itertools.combinations(range(n_nodes), n_particles)))
    fails = []
    if len(sample) != expected:
        fails.append(f"simplex sample has {len(sample)} points, expected {expected}")
    if not np.all(np.isfinite(sample.values)):
        fails.append("simplex sample has non-finite values")
    return fails


def orbital_sums(lam, sp_levels, n_particles: int) -> list[str]:
    """Non-interacting levels equal sorted sums of single-particle levels."""
    sums = np.sort([sum(c) for c in itertools.combinations(sp_levels, n_particles)])
    sums = sums[: len(lam)]
    dev = float(np.max(np.abs(np.asarray(lam) - sums) / np.maximum(np.abs(sums), 1.0)))
    if not dev <= ORACLE_RTOL:
        return [f"levels deviate from orbital sums by {dev:.3g} (relative)"]
    return []


def contact_twin(lam, lam_free) -> list[str]:
    """Spinless fermions do not see a contact interaction (Pauli)."""
    lam, lam_free = np.asarray(lam), np.asarray(lam_free)
    dev = float(np.max(np.abs(lam - lam_free) / np.maximum(np.abs(lam_free), 1.0)))
    if not dev <= TWIN_RTOL:
        return [f"delta-contact levels differ from the free twin by {dev:.3g}"]
    return []


def kernel_twin(lam1: float, lam1_free: float) -> list[str]:
    """A non-negative kernel cannot lower the ground energy."""
    if not lam1 >= lam1_free - TWIN_RTOL * max(1.0, abs(lam1_free)):
        return [f"kernel lambda1 {lam1!r} below the free twin's {lam1_free!r}"]
    return []


def manifest_report(doc: dict) -> dict[str, list[str]]:
    """Failures per scenario of a `fermigate verify` JSON report."""
    out = {}
    for r in doc.get("scenarios", []):
        fails = []
        if r.get("error"):
            fails.append(f"error: {r['error']}")
        if r.get("overall") is not True:
            fails.append("overall is not true")
        out[r["name"]] = fails
    return out
