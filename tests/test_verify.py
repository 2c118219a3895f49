import ast
import collections
import dataclasses
import json
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trace_reference
from fermigate import cli, verify
from fermigate import slater as slater_module
from fermigate.basis import (
    BoundarySpec,
    Delta,
    HMinusOnePair,
    Sampled,
    SymMatrix,
    _full_overlap,
    assemble_overlap,
    assemble_potential,
    assemble_stiffness,
    build_grid_basis,
)
from fermigate.manybody import solve_mb_eig
from fermigate.simplex import nodal_tensor
from fermigate.slater import (
    DETERMINANT_CAP,
    DeltaContact,
    NoInteraction,
    SampledKernel,
    WaveVector,
    build_problem,
)
from fermigate.verify import (
    Scenario,
    cached_problem,
    clear_cache,
    default_manifest,
    make_scenario,
    monotonicity_suite,
    neumann_trace_limit,
    neumann_trace_weak,
    run_manifest,
    run_scenario,
    slater_sum_oracle,
)

PI2 = np.pi**2
DIRICHLET = BoundarySpec.dirichlet_both()
SQRT2PI = np.sqrt(2.0) * np.pi


@pytest.fixture(autouse=True, scope="module")
def _fresh_cache():
    clear_cache()
    yield


class TestSlaterSumOracle:
    def test_free_dirichlet_two_particles(self):
        dev, info = slater_sum_oracle(None, DIRICHLET, 2, 6, 32)
        assert dev <= 1e-8
        assert len(info["many_body"]) == 6

    def test_delta_three_particles(self):
        dev, _ = slater_sum_oracle(Delta(0.3, 4.0), DIRICHLET, 3, 4, 16)
        assert dev <= 1e-8

    def test_single_particle_coincidence(self):
        # with one particle the operator over determinants IS the orbital one
        dev, info = slater_sum_oracle(Delta(0.3, 4.0), DIRICHLET, 1, 6, 24)
        assert dev <= 1e-12


class TestMonotonicity:
    def test_free_two_particle_chain(self):
        chain = [BoundarySpec.free(), BoundarySpec.dirichlet_left(), DIRICHLET]
        pairs = monotonicity_suite(None, NoInteraction(), 2, chain, 24)
        assert all(p["strict"] for p in pairs)
        assert all(p["margin"] >= 0.5 for p in pairs)
        # filled free orbitals {0, pi^2} -> pi^2; half-pinned {pi^2/4, 9pi^2/4}
        # -> 2.5 pi^2; the first margin is therefore 1.5 pi^2
        assert pairs[0]["margin"] == pytest.approx(1.5 * PI2, rel=5e-2)
        assert pairs[1]["margin"] == pytest.approx(2.5 * PI2, rel=5e-2)

    def test_single_particle_chain(self):
        chain = [BoundarySpec.free(), DIRICHLET]
        pairs = monotonicity_suite(None, NoInteraction(), 1, chain, 24)
        assert pairs[0]["strict"]
        assert pairs[0]["margin"] == pytest.approx(PI2, rel=5e-3)

    def test_contact_chain_same_ordering(self):
        chain = [BoundarySpec.free(), BoundarySpec.dirichlet_left(), DIRICHLET]
        pairs = monotonicity_suite(None, DeltaContact(5.0), 2, chain, 24)
        assert all(p["strict"] for p in pairs)


@pytest.fixture(scope="module")
def ground():
    from fermigate.verify import _sp_solve

    n_cells = 200
    res = _sp_solve(None, DIRICHLET, n_cells, 1)
    grid = build_grid_basis(n_cells, DIRICHLET)
    nodal = grid.nodal_values(res.eigenvectors[:, 0])
    if nodal[grid.n_nodes // 2] < 0:
        nodal = -nodal
    return grid, nodal, float(res.eigenvalues[0])


class TestNeumannTraceSingleParticle:

    def test_weak_form_matches_analytic(self, ground):
        grid, nodal, lam = ground
        val = neumann_trace_weak(nodal, lam, grid, None, NoInteraction(), "left", 1.0)
        assert val == pytest.approx(-SQRT2PI, rel=2e-2)

    def test_zero_profile_gives_zero(self, ground):
        grid, nodal, lam = ground
        val = neumann_trace_weak(nodal, lam, grid, None, NoInteraction(), "left", 0.0)
        assert val == 0.0

    def test_extension_independence(self, ground):
        grid, nodal, lam = ground
        v1 = neumann_trace_weak(nodal, lam, grid, None, NoInteraction(), "left", 1.0, 1)
        v2 = neumann_trace_weak(nodal, lam, grid, None, NoInteraction(), "left", 1.0, 2)
        v3 = neumann_trace_weak(nodal, lam, grid, None, NoInteraction(), "left", 1.0, 5)
        assert abs(v1 - v2) <= 1e-10
        assert abs(v1 - v3) <= 1e-10

    def test_limit_formula_matches_analytic(self, ground):
        grid, nodal, lam = ground
        h = grid.h
        val, diag = neumann_trace_limit(nodal, grid, "left", 1.0, [8 * h, 4 * h, 2 * h, h])
        assert val == pytest.approx(-SQRT2PI, rel=2e-2)
        assert diag["fit_residual"] <= 1e-2 * abs(val)

    def test_limit_sequence_monotone(self, ground):
        grid, nodal, lam = ground
        h = grid.h
        _, diag = neumann_trace_limit(nodal, grid, "left", 1.0, [8 * h, 4 * h, 2 * h, h])
        vals = np.asarray(diag["values"])  # ordered by descending eps
        assert np.all(np.diff(np.abs(vals)) >= 0.0)

    def test_right_face_symmetric_ground(self, ground):
        grid, nodal, lam = ground
        left = neumann_trace_weak(nodal, lam, grid, None, NoInteraction(), "left", 1.0)
        right = neumann_trace_weak(nodal, lam, grid, None, NoInteraction(), "right", 1.0)
        assert right == pytest.approx(left, rel=1e-10)

    def test_requires_vanishing_trace(self):
        from fermigate.verify import _sp_solve

        res = _sp_solve(None, BoundarySpec.free(), 40, 1)
        grid = build_grid_basis(40, BoundarySpec.free())
        nodal = grid.nodal_values(res.eigenvectors[:, 0])
        with pytest.raises(ValueError, match="vanish"):
            neumann_trace_limit(nodal, grid, "left", 1.0, [grid.h, 2 * grid.h])

    def test_eps_must_align_with_grid(self, ground):
        grid, nodal, _ = ground
        with pytest.raises(ValueError, match="multiples"):
            neumann_trace_limit(nodal, grid, "left", 1.0, [1.5 * grid.h])

    @pytest.mark.parametrize("trace", ["weak", "limit"])
    def test_unknown_face_is_rejected(self, trace):
        # neither reads a face other than 'left' as the right one
        grid = build_grid_basis(8, DIRICHLET)
        nodal, h = np.sin(np.pi * grid.nodes), grid.h
        with pytest.raises(ValueError, match="face must be"):
            if trace == "weak":
                neumann_trace_weak(nodal, PI2, grid, None, NoInteraction(), "top", 1.0)
            else:
                neumann_trace_limit(nodal, grid, "top", 1.0, [h, 2 * h, 3 * h])

    @pytest.mark.parametrize("face", ["left", "right"])
    @pytest.mark.parametrize("eps", [0.0, 1.2])
    def test_eps_must_lie_in_the_interval(self, ground, face, eps):
        # a node past the far face must not wrap round to the near one
        grid, nodal, _ = ground
        with pytest.raises(ValueError, match="multiples"):
            neumann_trace_limit(nodal, grid, face, 1.0, [grid.h, eps])


@pytest.fixture(scope="module")
def mb_ground_80():
    prob = build_problem(None, NoInteraction(), DIRICHLET, 80, 2)
    res = solve_mb_eig(prob.operator, 1)
    psi = WaveVector(res.eigenvectors[:, 0], prob.slater)
    nodal = nodal_tensor(psi, prob.orbitals)
    # fix the arbitrary phase: positive on the ordered region x1 < x2
    if nodal[20, 60] < 0:
        nodal = -nodal
    return prob, nodal, float(res.eigenvalues[0])


class TestNeumannTraceTwoParticles:

    def test_weak_matches_limit(self, mb_ground_80):
        prob, nodal, lam = mb_ground_80
        grid = prob.grid
        f = np.sin(np.pi * grid.nodes)
        weak = neumann_trace_weak(nodal, lam, grid, None, NoInteraction(), "left", f)
        h = grid.h
        limit, _ = neumann_trace_limit(nodal, grid, "left", f, [8 * h, 4 * h, 2 * h, h])
        assert weak == pytest.approx(limit, rel=2e-2)

    def test_weak_matches_analytic(self, mb_ground_80):
        # with the state positive on x1 < x2, the outward flux against the
        # nonnegative profile sin(pi y) is -sqrt(2) pi, as in one dimension
        prob, nodal, lam = mb_ground_80
        f = np.sin(np.pi * prob.grid.nodes)
        weak = neumann_trace_weak(nodal, lam, prob.grid, None, NoInteraction(), "left", f)
        assert weak == pytest.approx(-SQRT2PI, rel=2e-2)

    def test_extension_independence(self, mb_ground_80):
        prob, nodal, lam = mb_ground_80
        f = np.sin(np.pi * prob.grid.nodes)
        v1 = neumann_trace_weak(nodal, lam, prob.grid, None, NoInteraction(), "left", f, 1)
        v2 = neumann_trace_weak(nodal, lam, prob.grid, None, NoInteraction(), "left", f, 2)
        assert abs(v1 - v2) <= 1e-10

    def test_symmetry_mismatch_gives_zero(self):
        # the second level is the determinant of the two reflection-even
        # orbitals, so its traces near the face are even; pairing with an
        # odd profile cancels exactly on the symmetric grid
        prob = build_problem(None, NoInteraction(), DIRICHLET, 40, 2)
        res = solve_mb_eig(prob.operator, 2)
        psi = WaveVector(res.eigenvectors[:, 1], prob.slater)
        nodal = nodal_tensor(psi, prob.orbitals)
        grid = prob.grid
        f_odd = np.sin(2 * np.pi * grid.nodes)
        h = grid.h
        limit, _ = neumann_trace_limit(nodal, grid, "left", f_odd, [4 * h, 2 * h, h])
        f_ref = np.sin(np.pi * grid.nodes)
        ref, _ = neumann_trace_limit(nodal, grid, "left", f_ref, [4 * h, 2 * h, h])
        assert abs(limit) <= 1e-10 * abs(ref)

    def test_scenario_environment_ignores_eigenvector_sign(self, monkeypatch):
        s = make_scenario("neumann_trace_mb", {"n_cells": 40})
        plain = run_scenario(s)

        def negated(prob, k):
            res = solve_mb_eig(prob.operator, k)
            return dataclasses.replace(res, eigenvectors=-res.eigenvectors)

        monkeypatch.setattr(verify, "cached_mb_eig", negated)
        flipped = run_scenario(s)
        assert plain.error is None and flipped.error is None
        assert flipped.environment == plain.environment
        # the state is positive on x1 < x2, so its outward flux is negative
        assert plain.environment["weak"] < 0


class TestNeumannTraceThreeParticles:
    @pytest.fixture(scope="class")
    def ground3(self):
        prob = build_problem(None, NoInteraction(), DIRICHLET, 20, 3)
        res = solve_mb_eig(prob.operator, 1)
        nodal = nodal_tensor(WaveVector(res.eigenvectors[:, 0], prob.slater), prob.orbitals)
        y = prob.grid.nodes
        s1, s2 = np.sin(np.pi * y), np.sin(2 * np.pi * y)
        return prob.grid, nodal, float(res.eigenvalues[0]), np.outer(s1, s2) - np.outer(s2, s1)

    def test_weak_matches_analytic(self, ground3):
        # only the cofactor of the third orbital, 2 f, pairs with f: the flux
        # is sqrt(2) 3 pi / sqrt(6) <f, 2 f> = sqrt(3) pi
        grid, nodal, lam, f = ground3
        weak1 = neumann_trace_weak(nodal, lam, grid, None, NoInteraction(), "left", f, 1)
        weak2 = neumann_trace_weak(nodal, lam, grid, None, NoInteraction(), "left", f, 2)
        assert abs(weak1) == pytest.approx(np.sqrt(3.0) * np.pi, rel=2e-2)
        assert abs(weak1 - weak2) <= 1e-10

    @pytest.mark.parametrize("face", ["left", "right"])
    def test_limit_pairs_the_profile_on_both_other_axes(self, ground3, face):
        grid, nodal, _, f = ground3
        h = grid.h
        Mf = _full_overlap(grid.n_cells, h).toarray()
        _, diag = neumann_trace_limit(nodal, grid, face, f, [4 * h, 2 * h, h])
        node = {"left": lambda i: i, "right": lambda i: grid.n_cells - i}[face]
        want = [-np.sum(nodal[node(i)] * (Mf @ f @ Mf)) / (i * h) for i in (4, 2, 1)]
        assert np.allclose(diag["values"], want, rtol=1e-12, atol=0.0)


class TestLimitFit:
    def test_quadratic_values_extrapolate_exactly(self):
        # -<trace_eps, 1>/eps = 2 + 3 eps + 5 eps^2: the limit 2, the slope 3
        grid = build_grid_basis(40, DIRICHLET)
        x, h = grid.nodes, grid.h
        val, diag = neumann_trace_limit(-x * (2 + 3 * x + 5 * x**2), grid, "left", 1.0, [8 * h, 4 * h, 2 * h, h])
        assert val == pytest.approx(2.0, rel=1e-12)
        assert diag["slope"] == pytest.approx(3.0, rel=1e-9)
        assert diag["fit_residual"] <= 1e-12

    @pytest.mark.parametrize("steps", [(1, 2), (2, 2, 1, 1)])
    def test_fit_needs_three_distinct_eps(self, ground, steps):
        grid, nodal, _ = ground
        with pytest.raises(ValueError, match="three distinct"):
            neumann_trace_limit(nodal, grid, "left", 1.0, [k * grid.h for k in steps])


@pytest.fixture
def scratch_cache():
    held = set(verify._cache)
    yield
    for key in set(verify._cache) - held:
        del verify._cache[key]


class TestOneFluxRunner:
    """Both flux kinds run one runner on the cached Dirichlet free problem;
    only the face profile, the phase node and the closed form depend on N."""

    @pytest.mark.parametrize("n_cells", [8, 13, 50, 200])
    def test_one_particle_pencil_is_the_one_body_pencil(self, scratch_cache, n_cells):
        op = cached_problem(None, NoInteraction(), DIRICHLET, n_cells, 1).operator
        grid = build_grid_basis(n_cells, DIRICHLET)
        A = SymMatrix.from_sparse(assemble_stiffness(grid).data + assemble_potential(grid, None).data)
        for got, want in ((op.matrix, A.data), (op.overlap, assemble_overlap(grid).data)):
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))

    def test_every_manifest_kind_has_a_runner(self):
        kinds = {s.kind for s in default_manifest()}
        assert set(verify._RUNNERS) == kinds
        assert set(verify._PROBLEMS) <= kinds
        flux = ("neumann_trace_sp", "neumann_trace_mb")
        assert {verify._RUNNERS[k] for k in flux} == {verify._run_neumann}
        assert {verify._PROBLEMS[k].func for k in flux} == {verify._neumann_problems}

    @pytest.mark.parametrize(
        "kind, params, n_cells, n_particles",
        [
            ("neumann_trace_sp", {}, 200, 1),
            ("neumann_trace_mb", {}, 80, 2),
            ("neumann_trace_sp", {"n_particles": 2}, 200, 2),
            ("neumann_trace_mb", {"n_cells": 40, "n_particles": 3}, 40, 3),
        ],
    )
    def test_declaration_defaults(self, kind, params, n_cells, n_particles):
        (key,) = verify._problems(Scenario("flux", kind, params))
        assert key == (None, NoInteraction(), DIRICHLET, n_cells, n_particles)

    def test_profile_rule(self):
        y = build_grid_basis(20, DIRICHLET).nodes
        s1, s2 = np.sin(np.pi * y), np.sin(2 * np.pi * y)
        assert verify._face_profile(y, 1) == 1.0
        assert np.array_equal(verify._face_profile(y, 2), s1)
        assert np.array_equal(verify._face_profile(y, 3), np.outer(s1, s2) - np.outer(s2, s1))
        S = np.sin(np.outer(y, np.pi * np.arange(1, 4)))
        rows = np.indices((y.size,) * 3).reshape(3, -1).T
        assert np.allclose(verify._face_profile(y, 4).ravel(), np.linalg.det(S[rows]), rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("name, n_particles", [("neumann_trace_sp", 1), ("neumann_trace_mb", 2)])
    def test_closed_form_checks_at_one_and_two(self, name, n_particles):
        r = run_scenario(make_scenario(name, {"n_cells": 40}), seed=1)
        assert r.overall and r.environment["n_particles"] == n_particles
        assert [c.name for c in r.checks] == ["weak_vs_limit_rel", "extension_independence", "zero_profile",
                                              "weak_vs_analytic_rel", "limit_vs_analytic_rel"]
        assert r.environment["analytic"] == -SQRT2PI

    def test_three_particle_flux_scenario(self):
        r = run_scenario(make_scenario("neumann_trace_mb", {"n_cells": 40, "n_particles": 3}), seed=1)
        assert r.error is None and r.overall
        checks = {c.name: c.measured for c in r.checks}
        assert list(checks) == ["weak_vs_limit_rel", "extension_independence", "zero_profile"]
        assert abs(r.environment["weak"]) == pytest.approx(np.sqrt(3.0) * np.pi, rel=5e-3)
        assert checks["weak_vs_limit_rel"] <= 2e-2

    @pytest.mark.parametrize("n_particles", [1, 3])
    def test_environment_ignores_eigenvector_sign(self, monkeypatch, n_particles):
        s = make_scenario("neumann_trace_mb", {"n_cells": 20, "n_particles": n_particles})
        plain = run_scenario(s)

        def negated(prob, k):
            res = solve_mb_eig(prob.operator, k)
            return dataclasses.replace(res, eigenvectors=-res.eigenvectors)

        monkeypatch.setattr(verify, "cached_mb_eig", negated)
        flipped = run_scenario(s)
        assert plain.error is None and flipped.error is None
        assert flipped.environment == plain.environment


BOUNDARIES = st.sampled_from(
    [
        DIRICHLET,
        BoundarySpec.dirichlet_left(),
        BoundarySpec.dirichlet_right(),
        BoundarySpec.free(),
        BoundarySpec.quasiperiodic(1.0),
        BoundarySpec.quasiperiodic(-0.6),
        BoundarySpec.line(2.0, 3.0),
    ]
)


@st.composite
def weak_trace_inputs(draw):
    """neumann_trace_weak's arguments: a random N = 1 or 2 state of any
    boundary kind, any potential kind, no, contact or kernel interaction."""
    n_particles = draw(st.sampled_from([1, 2]))
    grid = build_grid_basis(draw(st.integers(5, 12)), draw(BOUNDARIES))
    width, face = draw(st.integers(1, 3)), draw(st.sampled_from(["left", "right"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = grid.n_cells
    v = {
        "none": None,
        "delta": Delta(float(rng.uniform(0.0, 1.0)), float(rng.uniform(-10.0, 10.0))),
        "sampled": Sampled(tuple(rng.uniform(-5.0, 5.0, n + 1))),
        "hminusone": HMinusOnePair(float(rng.uniform(-2.0, 2.0)), tuple(rng.uniform(-3.0, 3.0, n))),
    }[draw(st.sampled_from(["none", "delta", "sampled", "hminusone"]))]
    W = rng.uniform(-3.0, 3.0, (n + 1, n + 1))
    w = {
        "none": NoInteraction(),
        "contact": DeltaContact(float(rng.uniform(-20.0, 20.0))),
        "kernel": SampledKernel(tuple(map(tuple, W + W.T))),
    }[draw(st.sampled_from(["none", "contact", "kernel"]))]
    E = grid.nodal_values(np.eye(grid.n_dofs))
    if n_particles == 1:
        nodal, profile = E @ rng.standard_normal(grid.n_dofs), float(rng.uniform(-2.0, 2.0))
    else:
        X = rng.standard_normal((grid.n_dofs, grid.n_dofs))
        nodal, profile = E @ (X - X.T) @ E.T, rng.standard_normal(grid.n_nodes)
    lam = float(rng.uniform(-50.0, 500.0))
    return nodal, lam, grid, v, w, face, profile, width


class TestWeakTraceReference:
    @settings(max_examples=60, deadline=None)
    @given(weak_trace_inputs())
    def test_pencil_form_matches_dense_forms(self, args):
        got, want = neumann_trace_weak(*args), trace_reference.weak_flux(*args)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_free_basis_over_the_determinant_cap(self):
        # the free grid keeps both endpoints, so its wedges may exceed the
        # cap while the Dirichlet problem's stay under it
        n = 448
        assert comb(n - 1, 2) <= DETERMINANT_CAP < comb(n + 1, 2)
        grid = build_grid_basis(n, DIRICHLET)
        s1, s2 = (np.sqrt(2.0) * np.sin(k * np.pi * grid.nodes) for k in (1, 2))
        nodal = (np.outer(s1, s2) - np.outer(s2, s1)) / np.sqrt(2.0)
        args = (nodal, 5 * PI2, grid, None, NoInteraction(), "left", np.sin(np.pi * grid.nodes))
        got, want = neumann_trace_weak(*args), trace_reference.weak_flux(*args)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_builds_no_problem_and_caches_nothing(self, monkeypatch, mb_ground_80):
        # the free pencil alone: no orbital solve, no cache entry
        prob, nodal, lam = mb_ground_80
        f = np.sin(np.pi * prob.grid.nodes)
        want = neumann_trace_weak(nodal, lam, prob.grid, None, NoInteraction(), "left", f)
        held = dict(verify._cache)

        def refuse(*args):
            raise AssertionError("the weak trace solved or cached a problem")

        monkeypatch.setattr(slater_module, "solve_pencil", refuse)
        monkeypatch.setattr(verify, "build_problem", refuse)
        monkeypatch.setattr(verify, "cached_problem", refuse)
        assert neumann_trace_weak(nodal, lam, prob.grid, None, NoInteraction(), "left", f) == want
        assert verify._cache == held

    def test_profile_rank_must_be_n_minus_one(self, ground):
        grid, nodal, lam = ground
        with pytest.raises(ValueError, match="profile"):
            neumann_trace_weak(nodal, lam, grid, None, NoInteraction(), "left", np.ones(grid.n_nodes))


class TestElementForms:
    def test_verify_imports_no_element_form(self):
        # the weak flux is the pencil's own form: the element matrices and
        # cell moments stay in basis, slater and the oracle
        tree = ast.parse(Path(verify.__file__).read_text())
        names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
        assert not names & {"_full_stiffness", "_full_potential", "_cell_moments"}


class TestMemo:
    """verify's cache builds each key once."""

    def test_builds_a_key_once(self):
        table, keys = {}, [("memo-test", i) for i in range(4)]
        calls = collections.Counter()

        def builder(key):
            def build():
                calls[key] += 1
                return object()

            return build

        first = [verify._memo(table, k, builder(k)) for k in keys]
        again = [verify._memo(table, k, builder(k)) for k in keys]
        assert all(a is b for a, b in zip(first, again))
        assert len({id(v) for v in first}) == len(keys)
        assert all(calls[k] == 1 for k in keys)

    def test_failed_build_leaves_no_entry(self):
        table, key = {}, ("memo-test", "fails")

        def build():
            raise RuntimeError("build failed")

        with pytest.raises(RuntimeError, match="build failed"):
            verify._memo(table, key, build)
        assert key not in table
        assert verify._memo(table, key, lambda: 7) == 7  # the next caller builds afresh
        assert table[key] == 7


class TestScenarios:
    def test_contact_reuses_the_free_problem(self):
        # the contact pencil is the free one, so one cache entry serves both
        args = (DIRICHLET, 8, 2)
        free = cached_problem(Delta(0.5, -10.0), NoInteraction(), *args)
        assert cached_problem(Delta(0.5, -10.0), DeltaContact(5.0), *args) is free
        assert cached_problem(Delta(0.5, -10.0), DeltaContact(-1.0), *args) is free
        assert cached_problem(Delta(0.4, -10.0), DeltaContact(5.0), *args) is not free

    def test_manifest_is_well_formed(self):
        scenarios = default_manifest()
        names = [s.name for s in scenarios]
        assert len(names) == len(set(names))
        assert "nondegeneracy_local" in names
        assert "structural_invariants" in names

    def test_negative_control_confirms(self):
        s = make_scenario("nondegeneracy_nonlocal_periodic_n2", {"grids": [12, 24]})
        assert s.expected == "negative-control"
        rep = run_scenario(s)
        assert rep.overall
        assert rep.checks[0].name == "verdict_degenerate"

    @pytest.mark.parametrize("name, bc", [
        # a = -b is the antiperiodic coupling: simple for N = 2
        ("nondegeneracy_nonlocal_periodic_n2", {"kind": "line", "a": 1.0, "b": -1.0}),
        ("nondegeneracy_nonlocal_antiperiodic_n3", {"kind": "dirichlet-both"}),
    ])
    def test_override_of_a_negative_control_expects_pass(self, name, bc):
        assert make_scenario(name).expected == "negative-control"
        s = make_scenario(name, {"bc": bc, "grids": [12, 24]})
        assert s.expected == "pass"
        rep = run_scenario(s)
        assert rep.overall and rep.error is None
        assert rep.checks[0].name == "verdict_non_degenerate"

    def test_auto_negative_control_from_parity(self):
        s = make_scenario(
            "nondegeneracy_nonlocal_periodic_n3",
            {"bc": {"kind": "quasiperiodic", "alpha": 1.0}, "n_particles": 2, "grids": [12, 24]},
        )
        assert s.expected == "negative-control"
        s2 = make_scenario(
            "nondegeneracy_nonlocal_periodic_n3",
            {"bc": {"kind": "quasiperiodic", "alpha": -1.0}, "n_particles": 2, "grids": [12, 24]},
        )
        assert s2.expected == "pass"
        s3 = make_scenario("nondegeneracy_nonlocal_periodic_n3", {"bc": {"kind": "line", "a": 2.0, "b": 2.0},
                                                                 "n_particles": 2})
        assert s3.expected == "negative-control"

    def test_solver_failure_becomes_report_error(self):
        s = Scenario(
            name="broken",
            kind="slater_sum",
            params={"v": {"kind": "none"}, "bc": {"kind": "dirichlet-both"},
                    "n_particles": 50, "k": 2, "n_cells": 8},
        )
        rep = run_scenario(s)
        assert not rep.overall
        assert rep.error is not None

    @pytest.mark.parametrize("target", [-78.9, 0.0, np.nan, np.inf])
    def test_gap_target_must_be_positive_and_finite(self, target):
        # a negative target made the relative deviation negative, so it passed
        s = make_scenario("nondegeneracy_nonlocal_antiperiodic_n2", {"gap_target": target, "grids": [12, 24]})
        rep = run_scenario(s)
        assert not rep.overall
        assert rep.error.startswith("ValueError: gap_target must be positive and finite")

    @pytest.mark.parametrize("frac", [1.0, np.nan])
    def test_exclusion_frac_outside_the_unit_interval_is_a_report_error(self, frac):
        # a fraction of 1 excluded every interior point and passed the ground check
        s = make_scenario("simplex_positivity_local", {"exclusion_frac": frac, "n_cells": 16})
        rep = run_scenario(s)
        assert not rep.overall
        assert rep.error.startswith("ValueError: exclusion_frac must lie in [0, 1)")

    def test_structural_isometry_catches_a_tiling_fault(self, monkeypatch):
        # an extension that leaves the half x_2 < x_1 of the box empty no
        # longer tiles it by signed copies of the ordered region
        extend = verify.extend_from_simplex

        def half_empty(values, n_particles):
            full = extend(values, n_particles)
            i = np.indices(full.shape)
            return np.where(i[1] < i[0], 0.0, full)

        monkeypatch.setattr(verify, "extend_from_simplex", half_empty)
        rep = run_scenario(make_scenario("structural_invariants"), seed=1)
        failed = {c.name for c in rep.checks if not c.passed}
        assert failed == {"isometry_l2_n2", "isometry_h1_n2", "isometry_l2_n3", "isometry_h1_n3"}
        assert min(c.measured for c in rep.checks if c.name in failed) > 1e-6

    def test_bad_manifest_entry_becomes_report_error(self, monkeypatch, tmp_path):
        bad = Scenario(name="missing_bc", kind="slater_sum", params={"n_particles": 2, "n_cells": 8})
        good = make_scenario("sp_free_spectra")
        first, second = run_manifest([bad, good])
        assert not first.overall
        assert first.error.startswith("KeyError")
        assert second.overall and second.error is None
        monkeypatch.setattr(cli, "default_manifest", lambda: [bad, good])
        out = tmp_path / "report.json"
        assert cli.main(["verify", "--out", str(out)]) != 0
        doc = json.loads(out.read_text())
        assert doc["scenarios"][0]["error"].startswith("KeyError")
        assert doc["scenarios"][1]["overall"] is True

    def test_bad_inner_field_becomes_report_error_with_its_path(self):
        dirichlet = {"kind": "dirichlet-both"}
        missing = Scenario(name="missing_x0", kind="slater_sum", params={
            "v": {"kind": "delta", "strength": -4.0}, "bc": dirichlet, "n_particles": 2, "n_cells": 8})
        mistyped = dataclasses.replace(
            make_scenario("simplex_positivity_local", {"w": {"kind": "delta-contact", "strength": "strong"}}),
            name="mistyped_strength")
        rejected = dataclasses.replace(
            make_scenario("slater_sum_dirichlet_n2_free", {"bc": {"kind": "line", "a": 0.0, "b": 0.0}}),
            name="zero_line")
        unknown = dataclasses.replace(
            make_scenario("slater_sum_dirichlet_n2_free", {"v": {"kind": "gaussian"}}), name="unknown_v")
        good = make_scenario("sp_free_spectra")
        reports = run_manifest([missing, mistyped, rejected, unknown, good])
        assert [r.error for r in reports[:4]] == [
            "SpecError: v.x0: required field is missing",
            "SpecError: w.strength: expected real, got 'strong'",
            "SpecError: bc.a: line boundary direction must be finite and nonzero",
            "SpecError: v.kind: unknown kind 'gaussian', expected one of none, delta, sampled, hminusone",
        ]
        assert not any(r.overall for r in reports[:4])
        assert reports[4].overall and reports[4].error is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario kind"):
            run_scenario(Scenario(name="x", kind="nope", params={}))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            make_scenario("not-a-scenario")

    def test_overall_is_conjunction(self):
        s = make_scenario("sp_free_spectra")
        rep = run_scenario(s)
        assert rep.overall == all(c.passed for c in rep.checks)

    _SHARING = (
        ("sp_free_spectra", None),
        ("single_particle_gaps_antiperiodic_free", None),
        ("nondegeneracy_nonlocal_periodic_n3", {"grids": [12, 24]}),
        ("nondegeneracy_local", {"grids": [20, 40]}),
    )

    def test_run_manifest_matches_each_scenario_run_alone(self):
        # the shared cache and the run order change no report; the solves are
        # redone alone, so the seeded LOBPCG start and inverse iteration count
        scenarios = [make_scenario(n, o) for n, o in self._SHARING]
        clear_cache()
        together = run_manifest(scenarios, seed=3)
        alone = []
        for s in scenarios:
            clear_cache()
            alone.append(run_scenario(s, seed=3))
        clear_cache()
        assert [r.scenario for r in together] == [s.name for s in scenarios]
        assert together == alone
        assert cli.emit_report(together) == cli.emit_report(alone)

    def test_reversed_manifest_gives_the_same_reports(self):
        # each scenario seeds its generator from its own name
        scenarios = [make_scenario(n, o) for n, o in self._SHARING]
        forward = run_manifest(scenarios, seed=3)
        backward = run_manifest(scenarios[::-1], seed=3)
        assert backward[::-1] == forward
        assert not verify._cache

    def test_kernel_positivity_scenario_runs_and_the_kernel_acts(self):
        # a sampled-kernel positivity scenario and its free twin on a cold cache
        n_cells = 16
        x = np.linspace(0.0, 1.0, n_cells + 1)
        kernel_w = {"kind": "sampled-kernel",
                    "values": (40.0 * np.exp(-np.subtract.outer(x, x) ** 2 / 0.02)).tolist()}
        free = make_scenario("simplex_positivity_local", {"n_cells": n_cells, "w": {"kind": "none"}})
        kernel = dataclasses.replace(
            make_scenario("simplex_positivity_local", {"n_cells": n_cells, "w": kernel_w}),
            name="simplex_positivity_local_kernel",
        )
        clear_cache()
        assert all(r.error is None for r in run_manifest([kernel, free], seed=1))
        # the kernel acts on fermions: its pencil is not the free one
        v, bc = verify.dict_to_potential(free.params["v"]), verify.dict_to_bc(free.params["bc"])
        H = [build_problem(v, verify.dict_to_interaction(s.params["w"]), bc, n_cells, 2).operator.matrix
             for s in (kernel, free)]
        assert abs(H[0] - H[1]).max() > 1e-6 * abs(H[1]).max()

    def test_reports_reproducible_at_fixed_seed(self):
        for name, overrides in (
            ("structural_invariants", None),
            ("nondegeneracy_nonlocal_periodic_n3", {"grids": [12, 24]}),
            ("nondegeneracy_local", {"grids": [20, 40]}),
        ):
            s = make_scenario(name, overrides)
            clear_cache()
            r1 = run_scenario(s, seed=11)
            clear_cache()
            r2 = run_scenario(s, seed=11)
            assert r1 == r2


class TestCacheScope:
    """The cache lives for one run_manifest call."""

    def test_run_manifest_leaves_the_cache_empty(self):
        scenarios = [
            make_scenario("sp_free_spectra"),
            make_scenario("nondegeneracy_local", {"grids": [12, 24]}),
        ]
        reports = run_manifest(scenarios, seed=1)
        assert all(r.error is None for r in reports)
        assert not verify._cache

    def test_failing_solve_leaves_no_entry(self, monkeypatch):
        # the problem is cached before the solve fails; the failure becomes a
        # report-level error and the run still ends with an empty cache
        def fail(op, k):
            assert verify._cache  # the problem entry, at least
            raise MemoryError("solve failed")

        monkeypatch.setattr(verify, "solve_mb_eig", fail)
        s = make_scenario("simplex_positivity_local", {"n_cells": 8})
        (report,) = run_manifest([s], seed=1)
        assert report.error == "MemoryError: solve failed"
        assert not verify._cache

    def test_standalone_scenario_releases_what_it_cached(self):
        # outside run_manifest a scenario drops the entries it added, and
        # keeps those it found
        for n in (10, 12, 14):
            s = make_scenario("nondegeneracy_nonlocal_periodic_n3", {"grids": [n, 2 * n]})
            assert run_scenario(s, seed=1).error is None
            assert not verify._cache
        local = make_scenario("nondegeneracy_local", {"grids": [8, 16]})
        coarse = verify._problems(local)[0]
        verify.cached_problem(*coarse)
        assert run_scenario(local, seed=1).error is None
        assert set(verify._cache) == {verify._problem_key(*coarse)}
        clear_cache()

    def test_raising_scenario_leaves_no_entry(self, monkeypatch):
        # a scenario whose error escapes run_scenario ends the run, cache emptied
        def interrupt(s, seed):
            verify.cached_problem(None, NoInteraction(), DIRICHLET, 8, 2)
            raise KeyboardInterrupt

        monkeypatch.setitem(verify._RUNNERS, "nondegeneracy", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_manifest([make_scenario("nondegeneracy_local")], seed=1)
        assert not verify._cache


@pytest.fixture(scope="class")
def traced_manifest():
    """One sequential default-manifest run, watched scenario by scenario.

    Records the run order, the normalized problem keys each scenario
    requests through cached_problem, the cache keys held when each scenario
    starts (what the scenarios before it left), and the number of
    build_problem, assemble_manybody (its own and the weak flux's) and
    solve_mb_eig calls.
    """
    trace = {"order": [], "requested": {}, "held": {}, "calls": collections.Counter()}

    def counted(name, fn):
        def call(*args):
            trace["calls"][name] += 1
            return fn(*args)

        return call

    def requesting(*args):
        trace["requested"][trace["order"][-1]].add(verify._problem_key(*args))
        return cached_problem(*args)

    run = verify.run_scenario

    def watched(s, seed=0):
        # wrapped the way perfbench wraps it: through the module global
        trace["held"][s.name] = set(verify._cache)
        trace["order"].append(s.name)
        trace["requested"][s.name] = set()
        return run(s, seed)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "run_scenario", watched)
        mp.setattr(verify, "cached_problem", requesting)
        mp.setattr(verify, "build_problem", counted("build_problem", verify.build_problem))
        assemble = counted("assemble_manybody", verify.assemble_manybody)
        mp.setattr(verify, "assemble_manybody", assemble)
        mp.setattr(slater_module, "assemble_manybody", assemble)
        mp.setattr(verify, "solve_mb_eig", counted("solve_mb_eig", verify.solve_mb_eig))
        clear_cache()
        trace["reports"] = run_manifest(default_manifest(), seed=1)
        trace["held_after"] = set(verify._cache)
    return trace


class TestCacheLifetime:
    """Scenarios sharing a problem run back to back; each solve is released
    after the last scenario that declares its problem."""

    def test_declarations_match_requests(self, traced_manifest):
        # covers the free pencils of monotonicity_contact (its contact term
        # normalizes away) and the reference problem of structural_invariants
        for s in default_manifest():
            assert traced_manifest["requested"][s.name] == verify._declared(s), s.name
        assert traced_manifest["requested"]["monotonicity_contact"]
        assert traced_manifest["requested"]["structural_invariants"]

    def test_release_forces_no_rebuild(self, traced_manifest):
        # the call counts of a run that kept every entry to its end; every
        # many-body solve, classify_degeneracy's and the N = 1 flux's included,
        # goes through the cache, and the positivity scenarios read their
        # non-degeneracy twins' k = 2 solves; every build assembles one
        # pencil, and each flux scenario one free pencil more
        assert traced_manifest["calls"] == {"build_problem": 36, "assemble_manybody": 38, "solve_mb_eig": 26}

    def test_a_solve_serves_every_smaller_k(self, monkeypatch, scratch_cache):
        solved = []
        solve = verify.solve_mb_eig
        monkeypatch.setattr(verify, "solve_mb_eig", lambda op, k: solved.append(k) or solve(op, k))
        prob = cached_problem(None, NoInteraction(), DIRICHLET, 8, 2)
        two = verify.cached_mb_eig(prob, 2)
        assert verify.cached_mb_eig(prob, 1).eigenvalues[0] == two.eigenvalues[0]
        assert solved == [2]
        three = verify.cached_mb_eig(prob, 3)
        assert solved == [2, 3] and len(three.eigenvalues) == 3
        assert verify.cached_mb_eig(prob, 2) is three

    @pytest.mark.parametrize("name", ["neumann_trace_sp", "neumann_trace_mb"])
    def test_each_flux_scenario_builds_one_free_pencil(self, monkeypatch, name):
        # the cached problem's pencil is slater's build; verify assembles only
        # the free grid's, once for the widths 1 and 2 and the zero profile
        built = []
        assemble = verify.assemble_manybody
        monkeypatch.setattr(verify, "assemble_manybody", lambda *args: built.append(args[3]) or assemble(*args))
        assert run_scenario(make_scenario(name), seed=1).overall
        assert len(built) == 1

    def test_held_entries_are_declared_ahead(self, traced_manifest):
        by_name = {s.name: s for s in default_manifest()}
        order = traced_manifest["order"]
        assert sorted(order) == sorted(by_name)
        for j, name in enumerate(order):
            ahead = set().union(*(verify._declared(by_name[n]) for n in order[j:]))
            for key in traced_manifest["held"][name]:
                assert key in ahead, (name, key)
        assert max(len(h) for h in traced_manifest["held"].values()) > 0
        assert not traced_manifest["held_after"]

    def test_each_scenario_reports_the_same_alone(self, traced_manifest):
        # a scenario run alone on an empty cache gives the bytes it gives
        # inside the manifest: no solve depends on what ran before it
        for s, together in zip(default_manifest(), traced_manifest["reports"]):
            assert not verify._cache
            alone = run_scenario(s, seed=1)
            assert cli.emit_report([alone]) == cli.emit_report([together]), s.name

    def test_sharing_scenarios_run_back_to_back(self, traced_manifest):
        order = traced_manifest["order"]
        i = order.index("nondegeneracy_nonlocal_periodic_n3")
        assert order[i + 1] == "simplex_positivity_periodic_n3"
        assert order.index("neumann_trace_mb") == order.index("monotonicity_contact") + 1

    def test_reports_in_manifest_order(self, traced_manifest):
        reports = traced_manifest["reports"]
        assert [r.scenario for r in reports] == [s.name for s in default_manifest()]
        assert all(r.overall for r in reports)

    def test_rerun_on_the_emptied_cache_matches(self, traced_manifest):
        # nothing of the first run survives it to change the second
        assert not verify._cache
        again = run_manifest(default_manifest(), seed=1)
        assert not verify._cache
        assert cli.emit_report(again) == cli.emit_report(traced_manifest["reports"])

    def test_groups_are_connected_components_at_their_first_member(self):
        a, b, c = ("a",), ("b",), ("c",)
        declared = [frozenset(k) for k in ({a}, {b}, {c}, {a, c}, set())]
        assert verify._run_order(declared) == [0, 2, 3, 1, 4]

    def test_bad_entry_gets_no_declaration_and_the_plan_goes_on(self):
        bad = dataclasses.replace(
            make_scenario("nondegeneracy_nonlocal_periodic_n3", {"v": {"kind": "delta", "x0": 0.5}}),
            name="bad_v")
        sharing = make_scenario("simplex_positivity_antiperiodic_n2", {"n_cells": 16})
        first = make_scenario("nondegeneracy_nonlocal_antiperiodic_n2", {"grids": [8, 16]})
        assert verify._declared(bad) == frozenset()
        reports = run_manifest([first, bad, sharing], seed=1)
        assert [r.scenario for r in reports] == ["nondegeneracy_nonlocal_antiperiodic_n2", "bad_v",
                                                 "simplex_positivity_antiperiodic_n2"]
        assert reports[1].error == "SpecError: v.strength: required field is missing"
        assert reports[0].overall and reports[2].overall
        assert not verify._cache

    def test_undeclared_entry_goes_when_its_scenario_ends(self, monkeypatch):
        held = []

        def undeclared(s, seed):
            verify.cached_problem(None, NoInteraction(), DIRICHLET, 8, 2)
            verify._sp_solve(None, DIRICHLET, 8, 1)
            held.append(set(verify._cache))
            return verify._finish(s, [], {})

        def look(s, seed):
            held.append(set(verify._cache))
            return verify._finish(s, [], {})

        monkeypatch.setitem(verify._RUNNERS, "neumann_trace_sp", undeclared)
        monkeypatch.setitem(verify._RUNNERS, "sp_free_spectrum", look)
        reports = run_manifest([make_scenario("neumann_trace_sp"), make_scenario("sp_free_spectra")], seed=1)
        assert all(r.error is None for r in reports)
        # the one-body solve is not cached; the undeclared problem entry goes
        assert [len(h) for h in held] == [1, 0]

    def test_duplicate_scenarios_build_each_problem_once(self, monkeypatch):
        # three copies of six scenarios that share problems: a problem
        # released before its last consumer would be built again
        base = [
            make_scenario("nondegeneracy_nonlocal_antiperiodic_n2", {"grids": [8, 16]}),
            make_scenario("simplex_positivity_antiperiodic_n2", {"n_cells": 16}),
            make_scenario("monotonicity_free", {"n_cells": 8}),
            make_scenario("slater_sum_dirichlet_n2_free", {"n_cells": 8}),
            make_scenario("neumann_trace_mb", {"n_cells": 16}),
            make_scenario("monotonicity_contact", {"n_cells": 8}),
        ]
        scenarios = [dataclasses.replace(s, name=f"{s.name}_{r}") for r in range(3) for s in base]
        distinct = set().union(*map(verify._declared, scenarios))
        builds = []
        build = verify.build_problem
        monkeypatch.setattr(verify, "build_problem", lambda *a: builds.append(a) or build(*a))
        clear_cache()
        reports = run_manifest(scenarios, seed=2)
        assert len(builds) == len(distinct)
        assert all(r.error is None for r in reports)
        assert not verify._cache
