import collections
import dataclasses
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fermigate import cli, verify
from fermigate.basis import BoundarySpec, Delta, build_grid_basis
from fermigate.manybody import solve_mb_eig
from fermigate.simplex import nodal_tensor
from fermigate.slater import DeltaContact, NoInteraction, WaveVector, build_problem
from fermigate.verify import (
    Scenario,
    cached_problem,
    clear_cache,
    default_manifest,
    make_scenario,
    monotonicity_suite,
    neumann_trace_limit,
    neumann_trace_weak,
    parity_holds,
    run_manifest,
    run_scenario,
    slater_sum_oracle,
    tessellation_z,
    tessellation_z_threshold,
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


class TestMemo:
    """verify's cache builds each key once, also under concurrent callers."""

    @pytest.fixture(autouse=True)
    def _drop_test_keys(self):
        yield
        with verify._cache_lock:
            for key in [k for k in verify._cache if k[0] == "memo-test"]:
                del verify._cache[key]

    @staticmethod
    def _two_callers(key, build, entered):
        # the second caller starts while the first is inside build
        outcomes = []

        def call():
            try:
                outcomes.append(verify._memo(key, build))
            except Exception as exc:  # noqa: BLE001 - the outcome is the point
                outcomes.append(exc)

        first = threading.Thread(target=call)
        first.start()
        assert entered.wait(5.0)
        second = threading.Thread(target=call)
        second.start()
        return first, second, outcomes

    def test_concurrent_callers_share_one_build(self):
        entered, release, calls = threading.Event(), threading.Event(), []

        def build():
            calls.append(1)
            entered.set()
            release.wait(5.0)
            return object()

        first, second, outcomes = self._two_callers(("memo-test", "once"), build, entered)
        time.sleep(0.1)  # let the second caller reach the pending entry
        release.set()
        first.join(5.0)
        second.join(5.0)
        assert not first.is_alive() and not second.is_alive()
        assert len(calls) == 1
        assert len(outcomes) == 2 and outcomes[0] is outcomes[1]
        assert verify._memo(("memo-test", "once"), build) is outcomes[0]
        assert len(calls) == 1

    def test_failed_build_reaches_every_caller_and_leaves_no_entry(self):
        entered, release = threading.Event(), threading.Event()
        key = ("memo-test", "fails")

        def build():
            entered.set()
            release.wait(5.0)
            raise RuntimeError("build failed")

        first, second, outcomes = self._two_callers(key, build, entered)
        time.sleep(0.1)
        release.set()
        first.join(5.0)
        second.join(5.0)
        assert not first.is_alive() and not second.is_alive()
        assert len(outcomes) == 2
        assert all(isinstance(o, RuntimeError) and str(o) == "build failed" for o in outcomes)
        assert key not in verify._cache
        assert verify._memo(key, lambda: 7) == 7  # the next caller builds afresh

    def test_many_threads_build_each_key_once(self):
        keys = [("memo-test", i) for i in range(16)]
        counts, lock = collections.Counter(), threading.Lock()

        def builder(key):
            def build():
                with lock:
                    counts[key] += 1
                time.sleep(0.001)
                return key

            return build

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(verify._memo, k, builder(k)) for _ in range(8) for k in keys]
                results = [f.result(timeout=30.0) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [k for _ in range(8) for k in keys]
        assert all(counts[k] == 1 for k in keys)


class TestScenarios:
    def test_parity_rule(self):
        assert parity_holds(1.0, 3)
        assert not parity_holds(1.0, 2)
        assert parity_holds(-1.0, 2)
        assert not parity_holds(-1.0, 3)

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

    def test_run_manifest_parallel_matches_sequential(self):
        # the solves are redone on each side, so the seeded LOBPCG start and
        # the inverse iteration are covered too
        scenarios = [
            make_scenario("sp_free_spectra"),
            make_scenario("single_particle_gaps_antiperiodic_free"),
            make_scenario("nondegeneracy_nonlocal_periodic_n3", {"grids": [12, 24]}),
            make_scenario("nondegeneracy_local", {"grids": [20, 40]}),
        ]
        clear_cache()
        seq = run_manifest(scenarios, seed=3, max_workers=1)
        clear_cache()
        par = run_manifest(scenarios, seed=3, max_workers=2)
        assert [r.scenario for r in seq] == [r.scenario for r in par]
        for a, b in zip(seq, par):
            assert a == b
        assert cli.emit_report(seq) == cli.emit_report(par)

    def test_kernel_positivity_report_identical_across_thread_caps(self, monkeypatch):
        # a sampled-kernel positivity scenario and its free twin, each cap on a cold cache
        n_cells = 16
        x = np.linspace(0.0, 1.0, n_cells + 1)
        kernel_w = {"kind": "sampled-kernel",
                    "values": (40.0 * np.exp(-np.subtract.outer(x, x) ** 2 / 0.02)).tolist()}
        free = make_scenario("simplex_positivity_local", {"n_cells": n_cells, "w": {"kind": "none"}})
        kernel = dataclasses.replace(
            make_scenario("simplex_positivity_local", {"n_cells": n_cells, "w": kernel_w}),
            name="simplex_positivity_local_kernel",
        )
        reports = []
        for threads in ("1", "2"):
            monkeypatch.setenv("FERMIGATE_THREADS", threads)
            clear_cache()
            reports.append(cli.emit_report(run_manifest([kernel, free], seed=1)))
        clear_cache()
        assert reports[0] == reports[1]
        assert all(s["error"] is None for s in json.loads(reports[0])["scenarios"])
        # the kernel acts on fermions: its pencil is not the free one
        v, bc = verify.dict_to_potential(free.params["v"]), verify.dict_to_bc(free.params["bc"])
        H = [build_problem(v, verify.dict_to_interaction(s.params["w"]), bc, n_cells, 2).operator.matrix
             for s in (kernel, free)]
        assert abs(H[0] - H[1]).max() > 1e-6 * abs(H[1]).max()

    def test_reports_reproducible_at_fixed_seed(self):
        for name, overrides in (
            ("structural_invariants", {"tessellation_points": 20000}),
            ("nondegeneracy_nonlocal_periodic_n3", {"grids": [12, 24]}),
            ("nondegeneracy_local", {"grids": [20, 40]}),
        ):
            s = make_scenario(name, overrides)
            clear_cache()
            r1 = run_scenario(s, seed=11)
            clear_cache()
            r2 = run_scenario(s, seed=11)
            assert r1 == r2


class TestTessellation:
    def test_threshold_from_family_wise_rate(self):
        # Bonferroni over six tiles and both tails at a 1e-6 false-alarm rate
        assert tessellation_z_threshold() == pytest.approx(5.23, abs=5e-3)

    def test_mislabelled_tile_fails(self):
        order = np.argsort(np.random.default_rng(302).uniform(size=(100_000, 3)), axis=1)
        assert tessellation_z(order) <= tessellation_z_threshold()
        bad = order.copy()
        bad[np.all(order == [0, 1, 2], axis=1)] = [0, 2, 1]
        assert tessellation_z(bad) > 100.0

    def test_verify_seed_302_exits_zero(self, tmp_path):
        # the derived threshold no longer fails this seed by chance
        assert cli.main(["verify", "--seed", "302", "--out", str(tmp_path / "r.json")]) == 0
