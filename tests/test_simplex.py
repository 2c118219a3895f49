import itertools
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermigate.basis import BoundarySpec, _full_overlap, _full_sampled
from fermigate.manybody import solve_mb_eig
from fermigate.simplex import (
    TAG_INTERIOR,
    TAG_NEAR_INTERNAL,
    TAG_NEAR_OUTER,
    Permutation,
    SimplexSample,
    _increasing_tuples,
    _tag_points,
    box_norms,
    evaluate_state,
    extend_from_simplex,
    locate_cell,
    nodal_tensor,
    positivity_report,
    restrict_full_tensor,
    restrict_to_simplex,
    simplex_norms,
    simplex_potential_energy,
)
from fermigate.slater import NoInteraction, WaveVector, build_problem

DIRICHLET = BoundarySpec.dirichlet_both()


def random_simplex_data(n_nodes, n_particles, rng):
    vals = np.zeros((n_nodes,) * n_particles)
    for t in itertools.combinations(range(n_nodes), n_particles):
        vals[t] = rng.standard_normal()
    return vals


@pytest.fixture(scope="module")
def ground20():
    prob = build_problem(None, NoInteraction(), DIRICHLET, 20, 2)
    res = solve_mb_eig(prob.operator, 2)
    return prob, res


class TestPermutation:
    def test_sign_matches_inversion_parity(self):
        assert Permutation.from_image((0, 1, 2)).sign == 1
        assert Permutation.from_image((1, 0, 2)).sign == -1
        assert Permutation.from_image((2, 0, 1)).sign == 1

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation.from_image((0, 0, 2))

    def test_inverse_composes_to_identity(self):
        p = Permutation.from_image((2, 0, 3, 1))
        x = np.array([10.0, 20.0, 30.0, 40.0])
        np.testing.assert_array_equal(p.inverse().apply(p.apply(x)), x)

    @settings(max_examples=50, deadline=None)
    @given(st.permutations(list(range(5))))
    def test_sign_multiplicative_with_inverse(self, image):
        p = Permutation.from_image(tuple(image))
        assert p.sign == p.inverse().sign
        assert p.sign in (-1, 1)


class TestLocateCell:
    def test_simple_point(self):
        sigma, margin = locate_cell(np.array([0.3, 0.1, 0.7]))
        assert margin == pytest.approx(0.2, abs=1e-12)
        np.testing.assert_allclose(
            sigma.inverse().apply(np.array([0.3, 0.1, 0.7])), [0.1, 0.3, 0.7]
        )

    def test_tie_gives_zero_margin(self):
        _, margin = locate_cell(np.array([0.5, 0.5]))
        assert margin == 0.0

    def test_point_outside_box_rejected(self):
        with pytest.raises(ValueError):
            locate_cell(np.array([0.5, 1.0]))

    def test_monte_carlo_tessellation(self):
        rng = np.random.default_rng(11)
        n = 100_000
        pts = rng.uniform(0.0, 1.0, size=(n, 3))
        srt = np.sort(pts, axis=1)
        margins = np.min(np.diff(srt, axis=1), axis=1)
        # ties have measure zero
        assert np.all(margins > 0.0)
        order = np.argsort(pts, axis=1)
        cell_id = order[:, 0] * 4 + order[:, 1] * 2 + order[:, 2]
        counts = np.bincount(cell_id, minlength=8)
        active = counts[counts > 0]
        assert active.size == 6
        se = np.sqrt((1 / 6) * (5 / 6) / n)
        assert np.max(np.abs(active / n - 1 / 6)) <= 3 * se

    def test_matches_vectorized_location(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.uniform(0.01, 0.99, size=4)
            sigma, margin = locate_cell(x)
            assert margin > 0
            sorted_x = sigma.inverse().apply(x)
            assert np.all(np.diff(sorted_x) >= 0)


class TestExtendRestrict:
    def test_two_particle_single_node(self):
        vals = np.zeros((9, 9))
        vals[2, 5] = 1.0
        full = extend_from_simplex(vals, 2)
        assert full[2, 5] == pytest.approx(1 / np.sqrt(2))
        assert full[5, 2] == pytest.approx(-1 / np.sqrt(2))

    def test_zero_maps_to_zero(self):
        assert np.all(extend_from_simplex(np.zeros((6, 6)), 2) == 0.0)

    def test_rejects_tied_nonzero(self):
        vals = np.zeros((6, 6))
        vals[2, 2] = 1.0
        with pytest.raises(ValueError, match="tied"):
            extend_from_simplex(vals, 2)

    def test_rejects_unordered_support(self):
        vals = np.zeros((6, 6))
        vals[4, 1] = 1.0
        with pytest.raises(ValueError, match="ordered"):
            extend_from_simplex(vals, 2)

    @pytest.mark.parametrize("n_particles,n_cells", [(2, 12), (3, 8)])
    def test_round_trips(self, n_particles, n_cells):
        rng = np.random.default_rng(n_particles)
        vals = random_simplex_data(n_cells + 1, n_particles, rng)
        full = extend_from_simplex(vals, n_particles)
        back = restrict_full_tensor(full, n_particles)
        assert np.max(np.abs(back - vals)) <= 1e-12 * np.max(np.abs(vals))
        again = extend_from_simplex(back, n_particles)
        assert np.max(np.abs(again - full)) <= 1e-12 * np.max(np.abs(full))

    @pytest.mark.parametrize("n_particles,n_cells", [(2, 12), (3, 8)])
    def test_isometry_both_norms(self, n_particles, n_cells):
        rng = np.random.default_rng(17 + n_particles)
        scale = np.sqrt(factorial(n_particles))
        for _ in range(20):
            vals = random_simplex_data(n_cells + 1, n_particles, rng)
            full = extend_from_simplex(vals, n_particles)
            l2b, h1b = box_norms(full, 1.0 / n_cells)
            l2s, h1s = simplex_norms(scale * full, 1.0 / n_cells)
            assert abs(l2b - l2s) <= 1e-12 * l2b
            assert abs(h1b - h1s) <= 1e-12 * h1b

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([2, 3]).flatmap(
            lambda N: st.tuples(st.just(N), st.integers(1, 12 if N == 2 else 6))
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_transposes_tile_the_box(self, shape, seed):
        # generic tensors are nonzero on ties, so every tie-pattern form
        # counts: the ordered-region integrals of all N! coordinate
        # transposes add up to the box integrals
        N, n_cells = shape
        rng = np.random.default_rng(seed)
        full = rng.standard_normal((n_cells + 1,) * N)
        v = rng.uniform(0.5, 2.0, n_cells + 1)
        h = 1.0 / n_cells
        l2 = h1 = pot = 0.0
        for perm in itertools.permutations(range(N)):
            l2s, h1s = simplex_norms(full.transpose(perm), h)
            l2 += l2s
            h1 += h1s
            pot += simplex_potential_energy(full.transpose(perm), h, v)
        l2b, h1b = box_norms(full, h)
        Mf = _full_overlap(n_cells, h).toarray()
        Vf = _full_sampled(v, n_cells, h).toarray()
        pot_b = 0.0
        for axis in range(N):
            T = full
            for k in range(N):
                T = np.tensordot(T, Vf if k == axis else Mf, axes=([0], [0]))
            pot_b += float(np.sum(T * full))
        assert abs(l2 - l2b) <= 1e-12 * l2b
        assert abs(h1 - h1b) <= 1e-12 * h1b
        assert abs(pot - pot_b) <= 1e-12 * pot_b

    def test_extension_is_antisymmetric(self):
        rng = np.random.default_rng(2)
        vals = random_simplex_data(9, 3, rng)
        full = extend_from_simplex(vals, 3)
        assert np.max(np.abs(full + np.transpose(full, (1, 0, 2)))) <= 1e-15
        assert np.max(np.abs(full + np.transpose(full, (0, 2, 1)))) <= 1e-15


class TestRestrictToSimplex:
    def test_free_ground_matches_analytic_shape(self, ground20):
        prob, res = ground20
        psi = WaveVector(res.eigenvectors[:, 0], prob.slater)
        sample = restrict_to_simplex(psi, prob.orbitals)
        x, y = sample.points[:, 0], sample.points[:, 1]
        analytic = np.sin(np.pi * x) * np.sin(2 * np.pi * y) - np.sin(2 * np.pi * x) * np.sin(np.pi * y)
        keep = np.abs(analytic) > 1e-2 * np.max(np.abs(analytic))
        ratio = sample.values[keep] / analytic[keep]
        assert np.std(ratio) <= 2e-2 * abs(np.mean(ratio))

    @pytest.mark.parametrize("n_nodes, N", [(9, 1), (6, 6), (21, 2), (13, 3), (10, 4), (9, 5)])
    def test_node_tuples_in_argwhere_order(self, n_nodes, N):
        # the strictly increasing index region of int64 index grids, as sampled before
        idx = np.indices((n_nodes,) * N)
        mask = np.ones((n_nodes,) * N, dtype=bool)
        for a in range(N - 1):
            mask &= idx[a] < idx[a + 1]
        tuples = _increasing_tuples(n_nodes, N)
        assert tuples.dtype == np.intp and tuples.strides == np.argwhere(mask).strides
        assert np.array_equal(tuples, np.argwhere(mask))
        assert np.array_equal(tuples, list(itertools.combinations(range(n_nodes), N)))

    def test_diagonal_nodes_vanish(self, ground20):
        prob, res = ground20
        psi = WaveVector(res.eigenvectors[:, 0], prob.slater)
        full = nodal_tensor(psi, prob.orbitals)
        assert np.max(np.abs(np.diag(full))) <= 1e-14

    def test_tags_partition_points(self, ground20):
        prob, res = ground20
        psi = WaveVector(res.eigenvectors[:, 0], prob.slater)
        sample = restrict_to_simplex(psi, prob.orbitals)
        assert set(sample.tags) <= {
            "interior",
            "near-internal-boundary",
            "near-outer-boundary",
        }
        h = prob.grid.h
        for pt, tag in zip(sample.points, sample.tags):
            near_out = min(pt[0], 1 - pt[-1]) < h
            near_int = np.min(np.diff(pt)) / np.sqrt(2) < h
            if near_out:
                assert tag == "near-outer-boundary"
            elif near_int:
                assert tag == "near-internal-boundary"
            else:
                assert tag == "interior"


def scalar_tag(x, h):
    dist_out = min(x[0], 1.0 - x[-1])
    dist_int = np.min(np.diff(x)) / np.sqrt(2.0) if len(x) > 1 else np.inf
    if dist_out < h:
        return TAG_NEAR_OUTER
    if dist_int < h:
        return TAG_NEAR_INTERNAL
    return TAG_INTERIOR


@st.composite
def points_near_faces(draw):
    """Sorted points whose face distances cluster around the threshold h."""
    n_particles = draw(st.integers(1, 3))
    h = draw(st.floats(0.01, 0.2))
    outer = st.one_of(st.just(h), st.floats(0.5 * h, 1.5 * h), st.floats(0.0, 0.5))
    inner = st.one_of(
        st.just(h * np.sqrt(2.0)), st.floats(0.5 * h, 2.0 * h), st.just(0.0), st.floats(0.0, 0.3)
    )
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        gaps = [draw(outer)] + [draw(inner) for _ in range(n_particles - 1)]
        x = np.cumsum(gaps)
        rows.append(1.0 - x[::-1] if draw(st.booleans()) else x)
    return np.array(rows), h


class TestTags:
    @settings(max_examples=200, deadline=None)
    @given(points_near_faces())
    def test_tags_follow_the_scalar_rule(self, data):
        points, h = data
        tags = _tag_points(points, h)
        assert tags == tuple(scalar_tag(x, h) for x in points)
        sample = SimplexSample(points=points, values=np.ones(len(points)), tags=tags, spacing=h)
        assert np.array_equal(sample.interior, [t == TAG_INTERIOR for t in tags])


class TestPositivity:
    def test_ground_state_single_signed(self, ground20):
        prob, res = ground20
        psi = WaveVector(res.eigenvectors[:, 0], prob.slater)
        rep = positivity_report(restrict_to_simplex(psi, prob.orbitals), 1e-6)
        assert rep.sign_consistency == 1.0

    def test_excited_state_has_nodal_surface(self, ground20):
        prob, res = ground20
        psi = WaveVector(res.eigenvectors[:, 1], prob.slater)
        rep = positivity_report(restrict_to_simplex(psi, prob.orbitals), 1e-6)
        assert rep.sign_consistency < 0.99

    def test_synthetic_all_positive(self):
        pts = np.column_stack([np.linspace(0.2, 0.4, 50), np.linspace(0.5, 0.8, 50)])
        sample = SimplexSample(
            points=pts, values=np.ones(50), tags=("interior",) * 50, spacing=0.05
        )
        rep = positivity_report(sample)
        assert rep.sign_consistency == 1.0
        assert rep.excluded_fraction == 0.0

    def test_sign_fixing_follows_largest_magnitude(self):
        pts = np.column_stack([np.linspace(0.2, 0.4, 10), np.linspace(0.5, 0.8, 10)])
        vals = -np.ones(10)
        vals[3] = -5.0
        sample = SimplexSample(points=pts, values=vals, tags=("interior",) * 10, spacing=0.05)
        rep = positivity_report(sample)
        assert rep.sign_consistency == 1.0


class TestEvaluation:
    def test_antisymmetry_under_swap(self, ground20):
        prob, res = ground20
        psi = WaveVector(res.eigenvectors[:, 0], prob.slater)
        rng = np.random.default_rng(29)
        pts = rng.uniform(0.05, 0.95, size=(100, 2))
        v1 = evaluate_state(psi, prob.orbitals, pts)
        v2 = evaluate_state(psi, prob.orbitals, pts[:, ::-1])
        assert np.max(np.abs(v1 + v2)) <= 1e-12 * np.max(np.abs(v1))

    def test_nodal_tensor_interpolates_evaluation(self, ground20):
        prob, res = ground20
        psi = WaveVector(res.eigenvectors[:, 0], prob.slater)
        full = nodal_tensor(psi, prob.orbitals)
        pts = prob.grid.nodes[[3, 7]]
        val = evaluate_state(psi, prob.orbitals, np.array([[pts[0], pts[1]]]))
        assert val[0] == pytest.approx(full[3, 7], abs=1e-13)

    def test_three_particle_antisymmetry(self):
        prob = build_problem(None, NoInteraction(), BoundarySpec.quasiperiodic(1.0), 12, 3)
        res = solve_mb_eig(prob.operator, 1)
        psi = WaveVector(res.eigenvectors[:, 0], prob.slater)
        rng = np.random.default_rng(31)
        pts = rng.uniform(0.05, 0.95, size=(50, 3))
        v = evaluate_state(psi, prob.orbitals, pts)
        swapped = pts[:, [0, 2, 1]]
        v2 = evaluate_state(psi, prob.orbitals, swapped)
        assert np.max(np.abs(v + v2)) <= 1e-12 * np.max(np.abs(v))


class TestPullback:
    def test_rayleigh_quotient_invariant(self):
        # the pencil's Rayleigh quotient equals the ordered-region form of
        # the restriction, including a sampled multiplicative potential
        from fermigate.basis import Sampled
        from fermigate.slater import mode_product, wedge_tensor

        vband = np.cos(np.pi * np.linspace(0.0, 1.0, 11)) + 2.0
        prob = build_problem(Sampled(tuple(vband)), NoInteraction(), DIRICHLET, 10, 2)
        op, grid = prob.operator, prob.grid
        hats = grid.extension.T.toarray()  # nodal values of the dof hats
        rng = np.random.default_rng(37)
        for _ in range(20):
            x = rng.standard_normal(op.dim)
            full = mode_product(wedge_tensor(op.basis, x), hats)[0]
            l2s, h1s = simplex_norms(full, grid.h)
            pot = simplex_potential_energy(full, grid.h, vband)
            lhs = (h1s + pot) / l2s
            rhs = float(x @ (op.matrix @ x)) / float(x @ (op.overlap @ x))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


class TestTraceLaw:
    @pytest.mark.parametrize(
        "alpha,n_particles", [(1.0, 3), (-1.0, 2)], ids=["periodic-n3", "antiperiodic-n2"]
    )
    def test_quasiperiodic_boundary_relation(self, alpha, n_particles):
        prob = build_problem(
            None, NoInteraction(), BoundarySpec.quasiperiodic(alpha), 24, n_particles
        )
        res = solve_mb_eig(prob.operator, 1)
        psi = WaveVector(res.eigenvectors[:, 0], prob.slater)
        full = nodal_tensor(psi, prob.orbitals)
        nn = prob.grid.n_nodes
        sign = (-1.0) ** (n_particles - 1) * alpha
        tuples = list(itertools.combinations(range(1, nn - 1), n_particles - 1))
        lhs = np.array([full[(0,) + t] for t in tuples])
        rhs = np.array([sign * full[t + (nn - 1,)] for t in tuples])
        scale = np.max(np.abs(lhs))
        assert scale > 0
        assert np.max(np.abs(lhs - rhs)) <= 5e-2 * scale
