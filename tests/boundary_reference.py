"""Boundary conditions in tests: readable ids, and grids by the six-kind rule.

BoundarySpec has the kinds 'dirichlet-both', 'line' and 'free'; the
one-sided Dirichlet and quasi-periodic conditions are presets of 'line'.
six_kind_grid builds a grid with each of them as a kind of its own, the
reference that the presets' grids must reproduce.
"""

import numpy as np

from fermigate.basis import BoundarySpec, GridBasis

_PRESET_NAMES = {
    BoundarySpec.dirichlet_left(): "dirichlet-left",
    BoundarySpec.dirichlet_right(): "dirichlet-right",
}


def bc_id(bc: BoundarySpec) -> str:
    """Test id of a boundary condition: its preset's name, else kind and direction."""
    if bc in _PRESET_NAMES:
        return _PRESET_NAMES[bc]
    if bc.kind == "line" and bc.b == 1.0:
        return f"quasiperiodic{bc.a}"
    return f"line{bc.a},{bc.b}" if bc.kind == "line" else bc.kind


def six_kind_grid(n_cells: int, kind: str, alpha: float = 0.0) -> GridBasis:
    """The grid of kind 'dirichlet-both', 'dirichlet-left', 'dirichlet-right',
    'free' or 'quasiperiodic' (psi(0) = alpha psi(1)) by the six-kind rule:
    each kept node from the first to the last is a dof, except that a
    quasi-periodic grid drops both endpoints and adds the coupled dof
    alpha * phi_0 + phi_n last."""
    n = n_cells
    first = 0 if kind in ("dirichlet-right", "free") else 1
    last = n if kind in ("dirichlet-left", "free") else n - 1
    n_dofs = last + 1 - first
    dof, weight = np.full(n + 1, n_dofs), np.zeros(n + 1)
    dof[first : last + 1], weight[first : last + 1] = np.arange(n_dofs), 1.0
    if kind == "quasiperiodic":
        dof[[0, n]], weight[[0, n]] = n_dofs, (alpha, 1.0)
        n_dofs += 1
    preset = {
        "dirichlet-both": BoundarySpec.dirichlet_both,
        "dirichlet-left": BoundarySpec.dirichlet_left,
        "dirichlet-right": BoundarySpec.dirichlet_right,
        "free": BoundarySpec.free,
        "quasiperiodic": lambda: BoundarySpec.quasiperiodic(alpha),
    }[kind]()
    return GridBasis(n_cells=n, h=1.0 / n, bc=preset, n_dofs=n_dofs, dof=dof, weight=weight)
