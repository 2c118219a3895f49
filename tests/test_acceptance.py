"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; tolerances are fixed here and nowhere else.
"""

import itertools
import time
from contextlib import contextmanager
from math import factorial, pi

import numpy as np
import pytest

from fermigate.basis import BoundarySpec, Delta, Sampled, build_grid_basis
from fermigate.cli import emit_report
from fermigate.simplex import (
    box_norms,
    extend_from_simplex,
    nodal_tensor,
    restrict_full_tensor,
    simplex_norms,
)
from fermigate.slater import (
    DeltaContact,
    NoInteraction,
    WaveVector,
    assemble_manybody_bruteforce,
    build_problem,
    reduced_density,
    reduced_pair_density,
)
from fermigate.verify import (
    cached_mb_eig,
    cached_problem,
    make_scenario,
    monotonicity_suite,
    neumann_trace_limit,
    neumann_trace_weak,
    run_scenario,
    slater_sum_oracle,
    _sp_solve,
)

PI2 = pi**2
_SUITE_T0 = time.time()


@contextmanager
def criterion(number, description):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} [{description}]: FAIL ({time.time() - t0:.1f}s)")
        raise
    print(f"ACCEPTANCE {number:02d} [{description}]: PASS ({time.time() - t0:.1f}s)")


def test_criterion_01_single_particle_free_spectra():
    with criterion(1, "single-particle free spectra"):
        t0 = time.time()
        res = _sp_solve(None, BoundarySpec.dirichlet_both(), 200, 5)
        for k in range(1, 6):
            exact = k**2 * PI2
            assert abs(res.eigenvalues[k - 1] - exact) / exact <= 2e-3
        assert time.time() - t0 < 2.0

        t0 = time.time()
        res_p = _sp_solve(None, BoundarySpec.quasiperiodic(1.0), 200, 3)
        assert abs(res_p.eigenvalues[0]) <= 1e-6
        for lam in res_p.eigenvalues[1:3]:
            assert abs(lam - 4 * PI2) / (4 * PI2) <= 2e-3
        assert time.time() - t0 < 2.0

        t0 = time.time()
        res_a = _sp_solve(None, BoundarySpec.quasiperiodic(-1.0), 200, 2)
        for lam in res_a.eigenvalues:
            assert abs(lam - PI2) / PI2 <= 2e-3
        assert time.time() - t0 < 2.0


@pytest.mark.parametrize(
    "name",
    [
        "single_particle_gaps_periodic_free",
        "single_particle_gaps_periodic_delta",
        "single_particle_gaps_antiperiodic_free",
    ],
)
def test_criterion_02_gap_law(name):
    with criterion(2, f"gap law: {name}"):
        rep = run_scenario(make_scenario(name))
        assert rep.error is None
        assert rep.overall, [c for c in rep.checks if not c.passed]


def test_criterion_03_slater_sum_oracle():
    with criterion(3, "non-interacting levels are orbital sums"):
        t0 = time.time()
        cases = [
            (2, BoundarySpec.dirichlet_both(), 32),
            (3, BoundarySpec.dirichlet_both(), 16),
            (2, BoundarySpec.quasiperiodic(-1.0), 32),
            (3, BoundarySpec.quasiperiodic(1.0), 16),
        ]
        for v in (None, Delta(0.3, 4.0)):
            for n_particles, bc, n_cells in cases:
                dev, _ = slater_sum_oracle(v, bc, n_particles, 6, n_cells)
                assert dev <= 1e-8, (v, bc.kind, n_particles, dev)
        assert time.time() - t0 < 30.0


def test_criterion_04_slater_condon_vs_bruteforce():
    with criterion(4, "excitation rules match dense tensor oracle"):
        grid = build_grid_basis(7, BoundarySpec.dirichlet_both())
        ramp = Sampled(tuple(grid.nodes))
        for v in (None, Delta(0.5, -10.0), ramp):
            for w in (NoInteraction(), DeltaContact(5.0), DeltaContact(-5.0)):
                prob = build_problem(v, w, BoundarySpec.dirichlet_both(), 7, 2)
                oracle = assemble_manybody_bruteforce(v, w, grid)
                dev = float(np.max(np.abs(prob.operator.dense() - oracle.dense())))
                assert dev <= 1e-10, (type(v).__name__, w, dev)


def test_criterion_05_nondegeneracy_with_interaction():
    with criterion(5, "interacting ground state is simple (local walls)"):
        t0 = time.time()
        rep = run_scenario(make_scenario("nondegeneracy_local"))
        assert rep.error is None
        assert rep.overall, [c for c in rep.checks if not c.passed]
        assert time.time() - t0 < 60.0


@pytest.mark.parametrize(
    "name,expected",
    [
        ("nondegeneracy_nonlocal_periodic_n3", "pass"),
        ("nondegeneracy_nonlocal_periodic_n2", "negative-control"),
        ("nondegeneracy_nonlocal_antiperiodic_n2", "pass"),
        ("nondegeneracy_nonlocal_antiperiodic_n3", "negative-control"),
    ],
)
def test_criterion_06_parity_condition(name, expected):
    with criterion(6, f"parity condition: {name}"):
        scenario = make_scenario(name)
        assert scenario.expected == expected
        rep = run_scenario(scenario)
        assert rep.error is None
        assert rep.overall, [c for c in rep.checks if not c.passed]


@pytest.mark.parametrize(
    "name",
    [
        "simplex_positivity_local",
        "simplex_positivity_periodic_n3",
        "simplex_positivity_antiperiodic_n2",
    ],
)
def test_criterion_07_simplex_positivity(name):
    with criterion(7, f"ordered-region positivity: {name}"):
        rep = run_scenario(make_scenario(name))
        assert rep.error is None
        assert rep.overall, [c for c in rep.checks if not c.passed]
        ground = [c for c in rep.checks if c.name == "ground_sign_consistency"]
        assert ground and ground[0].measured >= 0.999
        if name == "simplex_positivity_local":
            excited = [c for c in rep.checks if c.name == "excited_sign_consistency"]
            assert excited and excited[0].measured <= 0.99


@pytest.mark.parametrize("w", [NoInteraction(), DeltaContact(5.0)], ids=["free", "contact"])
def test_criterion_08_monotonicity(w):
    with criterion(8, f"Dirichlet-set monotonicity ({type(w).__name__})"):
        chain = [
            BoundarySpec.free(),
            BoundarySpec.dirichlet_left(),
            BoundarySpec.dirichlet_both(),
        ]
        pairs = monotonicity_suite(None, w, 2, chain, 40)
        for pair in pairs:
            assert pair["margin"] >= 0.5
            assert pair["margin"] > 4.0 * pair["error_estimate"]
            assert pair["strict"]


def test_criterion_09_neumann_trace():
    with criterion(9, "weak flux formula vs trace limit"):
        analytic = -np.sqrt(2.0) * pi
        res = _sp_solve(None, BoundarySpec.dirichlet_both(), 200, 1)
        grid = build_grid_basis(200, BoundarySpec.dirichlet_both())
        nodal = grid.nodal_values(res.eigenvectors[:, 0])
        if nodal[grid.n_nodes // 2] < 0:
            nodal = -nodal
        lam = float(res.eigenvalues[0])
        weak = neumann_trace_weak(nodal, lam, grid, None, NoInteraction(), "left", 1.0, 1)
        weak2 = neumann_trace_weak(nodal, lam, grid, None, NoInteraction(), "left", 1.0, 2)
        h = grid.h
        limit, _ = neumann_trace_limit(nodal, grid, "left", 1.0, [8 * h, 4 * h, 2 * h, h])
        assert abs(weak - analytic) / abs(analytic) <= 2e-2
        assert abs(limit - analytic) / abs(analytic) <= 2e-2
        assert abs(weak - weak2) <= 1e-10

        prob = cached_problem(None, NoInteraction(), BoundarySpec.dirichlet_both(), 80, 2)
        mb = cached_mb_eig(prob, 1)
        psi = WaveVector(mb.eigenvectors[:, 0], prob.slater)
        tensor = nodal_tensor(psi, prob.orbitals)
        lam2 = float(mb.eigenvalues[0])
        f = np.sin(pi * prob.grid.nodes)
        w1 = neumann_trace_weak(tensor, lam2, prob.grid, None, NoInteraction(), "left", f, 1)
        w2 = neumann_trace_weak(tensor, lam2, prob.grid, None, NoInteraction(), "left", f, 2)
        h = prob.grid.h
        lim2, _ = neumann_trace_limit(tensor, prob.grid, "left", f, [8 * h, 4 * h, 2 * h, h])
        assert abs(w1 - lim2) / abs(w1) <= 2e-2
        assert abs(w1 - w2) <= 1e-10


def test_criterion_10_structural_invariants():
    with criterion(10, "structural invariants and determinism"):
        rng = np.random.default_rng(0)
        # extension isometry and round trips at 1e-12
        for n_particles, n_cells in ((2, 12), (3, 8)):
            nn = n_cells + 1
            vals = np.zeros((nn,) * n_particles)
            for t in itertools.combinations(range(nn), n_particles):
                vals[t] = rng.standard_normal()
            full = extend_from_simplex(vals, n_particles)
            l2b, h1b = box_norms(full, 1.0 / n_cells)
            scale = np.sqrt(float(factorial(n_particles)))
            l2s, h1s = simplex_norms(scale * full, 1.0 / n_cells)
            assert abs(l2b - l2s) <= 1e-12 * l2b
            assert abs(h1b - h1s) <= 1e-12 * h1b
            back = restrict_full_tensor(full, n_particles)
            assert np.max(np.abs(back - vals)) <= 1e-12 * np.max(np.abs(vals))
            again = extend_from_simplex(back, n_particles)
            assert np.max(np.abs(again - full)) <= 1e-12 * np.max(np.abs(full))

        # tessellation uniqueness on 1e5 points
        pts = rng.uniform(0.0, 1.0, size=(100_000, 3))
        margins = np.min(np.diff(np.sort(pts, axis=1), axis=1), axis=1)
        assert np.all(margins > 0.0)

        # density normalizations on an interacting ground state
        prob = cached_problem(
            Delta(0.5, -10.0), DeltaContact(5.0), BoundarySpec.dirichlet_both(), 40, 2
        )
        res = cached_mb_eig(prob, 1)
        psi = WaveVector(res.eigenvectors[:, 0], prob.slater)
        wts = np.full(prob.grid.n_nodes, prob.grid.h)
        wts[0] = wts[-1] = prob.grid.h / 2
        rho = reduced_density(psi, prob.orbitals)
        assert abs(float(wts @ rho) - 2.0) <= 1e-10
        rho2 = reduced_pair_density(psi, prob.orbitals)
        assert abs(float(wts @ rho2 @ wts) - 2.0) <= 1e-8

        # antisymmetry under coordinate swap
        from fermigate.simplex import evaluate_state

        pts2 = rng.uniform(0.05, 0.95, size=(100, 2))
        v1 = evaluate_state(psi, prob.orbitals, pts2)
        v2 = evaluate_state(psi, prob.orbitals, pts2[:, ::-1])
        assert np.max(np.abs(v1 + v2)) <= 1e-12 * np.max(np.abs(v1))

        # determinism: identical seed gives byte-identical reports
        s = make_scenario("single_particle_gaps_antiperiodic_free")
        b1 = emit_report([run_scenario(s, seed=5)], "json")
        b2 = emit_report([run_scenario(s, seed=5)], "json")
        assert b1 == b2


def test_full_suite_runtime_budget():
    with criterion(10, "acceptance module runtime under five minutes"):
        assert time.time() - _SUITE_T0 < 300.0
