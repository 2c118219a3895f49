"""The weak boundary flux of one or two particles from dense full-grid forms.

The reference for verify.neumann_trace_weak, which reads the flux off the
production pencil at any N.  Here every form is a dense product of the
full-grid element matrices, and the kernel term is integrated with
six-point Gauss quadrature on every cell pair.
"""

import numpy as np

from fermigate.basis import _full_overlap, _full_potential, _full_stiffness
from fermigate.slater import DeltaContact, NoInteraction, SampledKernel
from fermigate.verify import _beta_profile


def kernel_pairing(A, B, w, grid):
    """2 int int A(x, y) B(x, y) w(x, y) over the bilinear interpolants of
    nodal matrices, by six-point Gauss quadrature on every cell pair (exact:
    each factor is linear per cell in each variable).

    A contact term vanishes: antisymmetric nodal matrices are zero on x = y.
    """
    if isinstance(w, (NoInteraction, DeltaContact)):
        return 0.0
    if not isinstance(w, SampledKernel):
        raise TypeError(f"unsupported interaction {type(w).__name__}")
    x, wt = np.polynomial.legendre.leggauss(6)
    pts = (np.arange(grid.n_cells)[:, None] + (x + 1.0) / 2.0).ravel() * grid.h
    wts = np.tile(wt / 2.0 * grid.h, grid.n_cells)
    H = grid.hat_values_at(pts)
    values = [H @ X @ H.T for X in (A, B, np.asarray(w.values))]
    return 2.0 * np.einsum("i,j,ij,ij,ij->", wts, wts, *values)


def weak_flux(nodal, lam, grid, v, w, face, profile, width_cells=1):
    """a(Psi, P_N F) - lam <Psi, P_N F> for N = 1 (vector) or 2 (matrix)."""
    nodal = np.asarray(nodal, dtype=float)
    n, h = grid.n_cells, grid.h
    Kf = _full_stiffness(n, h).toarray()
    Mf = _full_overlap(n, h).toarray()
    Pf = _full_potential(v, n, h).toarray()
    beta = _beta_profile(grid, face, width_cells)
    if nodal.ndim == 1:
        F = float(profile) * beta
        return float(nodal @ ((Kf + Pf) @ F) - lam * (nodal @ (Mf @ F)))
    F = np.outer(beta, np.asarray(profile, dtype=float))
    G = 0.5 * (F - F.T)  # antisymmetric projection of the extension
    A = Kf + Pf
    val = np.sum(nodal * (A @ G @ Mf)) + np.sum(nodal * (Mf @ G @ A))
    val += kernel_pairing(nodal, G, w, grid)
    val -= lam * np.sum(nodal * (Mf @ G @ Mf))
    return float(val)
