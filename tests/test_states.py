"""States as nodal wedge coefficients, against the orbital Slater reference.

The pencil's eigenvectors are read by one signed gather through the
grid's node -> dof map.  The reference here is the orbital route: map the
coefficients to Slater coefficients over the orthonormal orbitals (mode
products with V^-1 = V'M over the dense antisymmetric tensor), then to
nodal values through the orbitals' nodal values.  Both must agree at
round-off for every boundary kind and N = 2..4.
"""

import dataclasses
import functools
import itertools
from math import comb, factorial

import numpy as np
import pytest

from fermigate import cli, simplex, slater, verify
from fermigate.basis import BoundarySpec, Delta, build_grid_basis
from fermigate.manybody import solve_mb_eig
from fermigate.simplex import evaluate_state, nodal_tensor, restrict_to_simplex
from fermigate.slater import (
    SampledKernel,
    WaveVector,
    _CUBIC,
    _increasing_tuples,
    _trapezoid_weights,
    build_problem,
    reduced_density,
    reduced_pair_density,
)

from boundary_reference import bc_id
from wedge_reference import mode_product, to_orbital, transposed_extension, wedge_tensor

RTOL = 1e-12

BOUNDARIES = [
    BoundarySpec.dirichlet_both(),
    BoundarySpec.dirichlet_left(),
    BoundarySpec.dirichlet_right(),
    BoundarySpec.free(),
    BoundarySpec.quasiperiodic(-0.7),
    BoundarySpec.line(0.3, -2.0),
]


def gaussian_kernel(n_cells: int) -> SampledKernel:
    x = np.linspace(0.0, 1.0, n_cells + 1)
    return SampledKernel(tuple(map(tuple, 6.0 * np.exp(-np.subtract.outer(x, x) ** 2 / 0.05))))


class OrbitalReference:
    """The state through its orbital Slater coefficients, as computed before
    the states were kept as nodal wedge coefficients."""

    def __init__(self, prob, x):
        self.prob, self.N = prob, prob.n_particles
        self.C = wedge_tensor(prob.slater, to_orbital(prob, x))[0]
        self.U = prob.grid.nodal_values(prob.orbitals.transform)  # orbital nodal values

    def nodal_tensor(self):
        return mode_product(self.C[None], self.U)[0] / np.sqrt(factorial(self.N))

    def ordered(self, tuples):
        return np.sqrt(factorial(self.N)) * self.nodal_tensor()[tuple(tuples.T)]

    def evaluate(self, points):
        letters = "abcdefgh"[: self.N]
        spec = ",".join(f"p{a}" for a in letters) + f",{letters}->p"
        mats = [self.prob.grid.hat_values_at(points[:, k]) @ self.U for k in range(self.N)]
        return np.einsum(spec, *mats, self.C, optimize=True) / np.sqrt(factorial(self.N))

    def density(self):
        n, grid = self.C.shape[0], self.prob.grid
        C = self.C.reshape(n, -1)
        A = self.U @ ((C @ C.T) / factorial(self.N - 1)) @ self.U.T
        d, r1, h = np.diag(A), 2.0 * np.diag(A, 1), grid.h
        r0, r2 = d[:-1], d[1:]
        moments = np.zeros(grid.n_nodes)
        moments[:-1] += h * (r0 * _CUBIC[0] + r1 * _CUBIC[1] + r2 * _CUBIC[2])
        moments[1:] += h * (r0 * _CUBIC[2] + r1 * _CUBIC[1] + r2 * _CUBIC[0])
        return moments / _trapezoid_weights(grid)

    def pair_density(self):
        grid, U = self.prob.grid, self.U
        n = grid.n_cells
        F = np.einsum("ip,kq,pq...->ik...", U, U, self.C, optimize=True)
        G = np.stack([F[a : a + n, e : e + n].reshape(n, n, -1) for a in (0, 1) for e in (0, 1)])
        P = np.einsum("icdr,jcdr->ijcd", G, G).reshape(2, 2, 2, 2, n, n)
        W = grid.h * _CUBIC[np.indices((2, 2, 2)).sum(axis=0)]
        Z = np.einsum("tab,uef,aebfcd->tucd", W, W, P)
        rho2 = np.zeros((grid.n_nodes, grid.n_nodes))
        for t, u in itertools.product((0, 1), repeat=2):
            rho2[t : t + n, u : u + n] += Z[t, u]
        w = _trapezoid_weights(grid)
        rho2 /= np.outer(w, w) * factorial(self.N - 2)
        return 0.5 * (rho2 + rho2.T)


def swap_gather(psi, grid):
    """simplex._ordered_values as it was before the signed_orderings table:
    sort each tuple's dofs by pairwise swaps, flip the determinant's sign
    per swap, and find the wedge by searchsorted on the raveled tuples."""
    basis = psi.basis
    n, N = basis.n_orbitals, basis.n_particles
    tuples = _increasing_tuples(grid.n_nodes, N)
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


def assert_close(got, want):
    assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want))


@functools.lru_cache(maxsize=None)
def solved(bc, n_particles):
    n_cells = 10
    prob = build_problem(Delta(0.3, -4.0), gaussian_kernel(n_cells), bc, n_cells, n_particles)
    x = solve_mb_eig(prob.operator, 1).eigenvectors[:, 0]
    return prob, WaveVector(x, prob.slater), OrbitalReference(prob, x)


@pytest.fixture(params=[2, 3, 4], ids=lambda N: f"n{N}")
def n_particles(request):
    return request.param


@pytest.fixture(params=BOUNDARIES, ids=bc_id)
def state(request, n_particles):
    return solved(request.param, n_particles)


class TestAgainstOrbitalReference:
    def test_simplex_sample(self, state):
        prob, psi, ref = state
        sample = restrict_to_simplex(psi, prob.orbitals)
        tuples = np.round(sample.points / prob.grid.h).astype(int)
        assert_close(sample.values, ref.ordered(tuples))

    def test_nodal_tensor(self, state):
        prob, psi, ref = state
        assert_close(nodal_tensor(psi, prob.orbitals), ref.nodal_tensor())

    def test_density(self, state):
        prob, psi, ref = state
        assert_close(reduced_density(psi, prob.orbitals), ref.density())

    def test_pair_density(self, state):
        prob, psi, ref = state
        assert_close(reduced_pair_density(psi, prob.orbitals), ref.pair_density())

    def test_evaluate_state(self, state):
        prob, psi, ref = state
        pts = np.random.default_rng(3).uniform(0.0, 1.0, size=(40, prob.n_particles))
        assert_close(evaluate_state(psi, prob.orbitals, pts), ref.evaluate(pts))

    @pytest.mark.parametrize("bc", [bc for bc in BOUNDARIES if bc.kind == "line" and bc.a and bc.b], ids=bc_id)
    def test_trace_law_values(self, bc, n_particles):
        # psi(0) = (a / b) psi(1) on the trace line span{(a, b)}
        prob, psi, ref = solved(bc, n_particles)
        a, b = bc.a, bc.b
        N, last = n_particles, prob.grid.n_nodes - 1
        inner = np.array(list(itertools.combinations(range(1, last), N - 1))).reshape(-1, N - 1)
        lhs = ref.ordered(np.pad(inner, ((0, 0), (1, 0))))
        rhs = ref.ordered(np.pad(inner, ((0, 0), (0, 1)), constant_values=last))
        want = np.max(np.abs(lhs - (-1) ** (N - 1) * a / b * rhs)) / np.max(np.abs(lhs))
        dev = verify._trace_law_deviation(restrict_to_simplex(psi, prob.orbitals), prob, a, b)
        assert abs(dev - want) <= RTOL
        assert dev <= 1e-12  # the coupled dof imposes the law exactly


class TestGatherBits:
    def test_ordered_values_and_nodal_tensor_equal_the_swap_gather(self, state):
        # exact zeros among the coefficients, so every zero's sign counts
        prob, psi, _ = state
        c = psi.coefficients.copy()
        c[::4] = 0.0
        psi = WaveVector(c, prob.slater)
        tuples, values = simplex._ordered_values(psi, prob.grid)
        want_tuples, want = swap_gather(psi, prob.grid)
        assert np.array_equal(tuples, want_tuples) and values.tobytes() == want.tobytes()
        full = np.zeros((prob.grid.n_nodes,) * prob.n_particles)
        full[tuple(want_tuples.T)] = want
        want_full = transposed_extension(full, prob.n_particles)
        assert nodal_tensor(psi, prob.orbitals).tobytes() == want_full.tobytes()


class TestFiveParticles:
    def test_post_processing_runs(self):
        n_cells = 10
        prob = build_problem(Delta(0.3, -4.0), gaussian_kernel(n_cells), BoundarySpec.quasiperiodic(1.0),
                             n_cells, 5)
        psi = WaveVector(solve_mb_eig(prob.operator, 1).eigenvectors[:, 0], prob.slater)
        rho = reduced_density(psi, prob.orbitals)
        assert abs(float(_trapezoid_weights(prob.grid) @ rho) - 5.0) <= 1e-10
        pts = np.random.default_rng(5).uniform(0.05, 0.95, size=(30, 5))
        v1 = evaluate_state(psi, prob.orbitals, pts)
        v2 = evaluate_state(psi, prob.orbitals, pts[:, [0, 1, 4, 3, 2]])
        assert np.max(np.abs(v1 + v2)) <= 1e-12 * np.max(np.abs(v1))
        sample = restrict_to_simplex(psi, prob.orbitals)
        assert len(sample) == comb(n_cells + 1, 5) and np.all(np.isfinite(sample.values))
        assert np.max(np.abs(sample.values)) > 0


def test_post_processing_never_forms_the_orbital_tensor(monkeypatch):
    # post-processing reads orbitals.grid only: orbitals without levels or
    # modes give the same values and the same scenario report bytes
    scenario = verify.make_scenario("simplex_positivity_antiperiodic_n2", {"n_cells": 16})
    key = verify._problems(scenario)[0]
    verify.clear_cache()
    try:
        prob = verify.cached_problem(*key)
        res = verify.cached_mb_eig(prob, 1)
        want = verify.run_scenario(scenario, seed=1)
        psi = WaveVector(res.eigenvectors[:, 0], prob.slater)
        grid_only = slater.OrbitalSet(prob.grid, None, None)
        points = np.array([[0.2, 0.7], [0.9, 0.4]])
        sample, expected = restrict_to_simplex(psi, grid_only), restrict_to_simplex(psi, prob.orbitals)
        assert sample.values.tobytes() == expected.values.tobytes() and sample.tags == expected.tags
        for step, args in [
            (nodal_tensor, ()),
            (reduced_density, ()),
            (reduced_pair_density, ()),
            (evaluate_state, (points,)),
        ]:
            got, expected = step(psi, grid_only, *args), step(psi, prob.orbitals, *args)
            assert got.tobytes() == expected.tobytes(), step.__name__
        # the scenario reads the cached solve of the same problem key
        op = dataclasses.replace(prob.operator, orbitals=grid_only)
        monkeypatch.setattr(verify, "cached_problem", lambda *_: dataclasses.replace(prob, operator=op))
        report = verify.run_scenario(scenario, seed=1)
    finally:
        verify.clear_cache()
    assert report.error is None and report.overall
    assert cli.emit_report([report]) == cli.emit_report([want])


def test_gather_rejects_a_foreign_grid():
    prob = build_problem(None, slater.NoInteraction(), BoundarySpec.dirichlet_both(), 8, 2)
    psi = WaveVector(solve_mb_eig(prob.operator, 1).eigenvectors[:, 0], prob.slater)
    with pytest.raises(ValueError, match="dofs"):
        restrict_to_simplex(psi, slater.OrbitalSet(build_grid_basis(8, BoundarySpec.free()), None, None))
