"""Theorem-level verification scenarios with machine-readable reports.

Every strict-inequality claim is checked with a refinement margin: a gap or
ordering counts as established only when it exceeds four times the measured
discretization error, never from a single grid.  Negative controls assert
the opposite verdict and fail the run if it is not confirmed.
"""

from __future__ import annotations

import collections
import itertools
import json
import zlib
from dataclasses import dataclass
from functools import partial, reduce
from importlib import resources
from math import factorial, pi

import numpy as np

from .basis import (
    BoundarySpec,
    Delta,
    GridBasis,
    HMinusOnePair,
    PotentialSpec,
    Sampled,
    assemble_overlap,
    assemble_potential,
    assemble_stiffness,
    build_grid_basis,
    _full_overlap,
)
from .errors import SpecError
from .manybody import (
    REFINEMENT_MARGIN,
    classify_degeneracy,
    inverse_iteration_ground,
    solve_mb_eig,
    two_grid_verdict,
)
from .simplex import (
    SimplexSample,
    box_norms,
    evaluate_state,
    extend_from_simplex,
    nodal_tensor,
    positivity_report,
    restrict_full_tensor,
    restrict_to_simplex,
    simplex_norms,
    simplex_potential_energy,
)
from .slater import (
    DeltaContact,
    InteractionSpec,
    ManyBodyProblem,
    NoInteraction,
    SampledKernel,
    SlaterBasis,
    WaveVector,
    _increasing_tuples,
    _trapezoid_weights,
    assemble_manybody,
    assemble_manybody_bruteforce,
    build_problem,
    gather_wedges,
    reduced_density,
    reduced_pair_density,
    scatter_wedges,
    transform_two_body,
)
from .spectrum import SpectralResult, solve_sp_eig

__all__ = [
    "CheckResult",
    "VerificationReport",
    "Scenario",
    "run_scenario",
    "run_manifest",
    "default_manifest",
    "make_scenario",
    "slater_sum_oracle",
    "monotonicity_suite",
    "neumann_trace_weak",
    "neumann_trace_limit",
    "spec_to_dict",
    "dict_to_potential",
    "dict_to_interaction",
    "dict_to_bc",
    "clear_cache",
]


# ---------------------------------------------------------------------------
# report structures


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    threshold: float
    comparator: str  # 'le' | 'lt' | 'ge' | 'gt'
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    scenario: str
    expected: str  # 'pass' | 'negative-control'
    checks: tuple[CheckResult, ...]
    environment: dict
    overall: bool
    error: str | None = None


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str
    params: dict
    expected: str = "pass"

    def __post_init__(self):
        if self.expected not in ("pass", "negative-control"):
            raise ValueError(f"bad expected flag {self.expected!r}")


_COMPARE = {
    "le": lambda m, t: m <= t,
    "lt": lambda m, t: m < t,
    "ge": lambda m, t: m >= t,
    "gt": lambda m, t: m > t,
}


def _check(name: str, measured: float, comparator: str, threshold: float, note: str = "") -> CheckResult:
    passed = bool(_COMPARE[comparator](measured, threshold))
    return CheckResult(
        name=name,
        measured=float(measured),
        threshold=float(threshold),
        comparator=comparator,
        passed=passed,
        note=note,
    )


def _finish(scenario: Scenario, checks: list[CheckResult], env: dict) -> VerificationReport:
    overall = all(c.passed for c in checks)
    return VerificationReport(
        scenario=scenario.name,
        expected=scenario.expected,
        checks=tuple(checks),
        environment=dict(env),
        overall=overall,
    )


# ---------------------------------------------------------------------------
# problem spec codecs (shared with the CLI)


def real(x) -> float:
    # NaN and +-inf are rejected here, where the error can name the field
    x = float(x)
    if not np.isfinite(x):
        raise ValueError(x)
    return x


def _split(x):
    # INI text separates the reals by commas or whitespace
    return x.replace(",", " ").split() if isinstance(x, str) else x


def reals(x) -> tuple[float, ...]:
    return tuple(real(v) for v in _split(x))


def rows(x) -> tuple[tuple[float, ...], ...]:
    # INI text separates the rows by ';'; SampledKernel rejects non-finite samples itself
    lines = [r for r in x.split(";") if r.strip()] if isinstance(x, str) else x
    return tuple(tuple(float(v) for v in _split(r)) for r in lines)


# For each manifest param, every spec kind: (constructor, fields), each field
# (key, attribute, coercion).  Constructor errors name the kind's first field.
# A kind whose constructor is a preset function is an input alias: specs are
# encoded under the kind of their class's row.
_SPECS = {
    "bc": {
        "dirichlet-both": (partial(BoundarySpec, "dirichlet-both"), ()),
        "line": (partial(BoundarySpec, "line"), (("a", "a", real), ("b", "b", real))),
        "free": (partial(BoundarySpec, "free"), ()),
        "dirichlet-left": (BoundarySpec.dirichlet_left, ()),
        "dirichlet-right": (BoundarySpec.dirichlet_right, ()),
        "quasiperiodic": (BoundarySpec.quasiperiodic, (("alpha", "alpha", real),)),
    },
    "v": {
        "none": (type(None), ()),
        "delta": (Delta, (("x0", "x0", real), ("strength", "strength", real))),
        "sampled": (Sampled, (("values", "values", reals),)),
        "hminusone": (HMinusOnePair, (("alpha", "alpha", real), ("cells", "V", reals))),
    },
    "w": {
        "none": (NoInteraction, ()),
        "delta-contact": (DeltaContact, (("strength", "g", real),)),
        "sampled-kernel": (SampledKernel, (("values", "values", rows),)),
    },
}


def _plain(x):
    return [_plain(v) for v in x] if isinstance(x, tuple) else x


def spec_to_dict(obj) -> dict:
    for kinds in _SPECS.values():
        for kind, (make, fields) in kinds.items():
            if type(obj) is getattr(make, "func", make) and getattr(obj, "kind", kind) == kind:
                return {"kind": kind, **{key: _plain(getattr(obj, attr)) for key, attr, _ in fields}}
    raise TypeError(f"cannot encode {type(obj).__name__}")


def _decode(param: str, d: dict | None):
    """The spec of manifest param 'bc', 'v' or 'w'; keys no field reads are ignored."""
    d = {"kind": "none"} if d is None else d
    if d.get("kind") not in _SPECS[param]:
        unknown = f"unknown kind {d.get('kind')!r}, expected one of {', '.join(_SPECS[param])}"
        raise SpecError(param, "kind", unknown if "kind" in d else "required field is missing")
    make, fields = _SPECS[param][d["kind"]]
    args = {}
    for key, attr, coerce in fields:
        try:
            args[attr] = coerce(d[key])
        except KeyError:
            raise SpecError(param, key, "required field is missing") from None
        except (TypeError, ValueError):
            raise SpecError(param, key, f"expected {coerce.__name__}, got {d[key]!r:.60}") from None
    try:
        return make(**args)
    except (TypeError, ValueError) as exc:
        raise SpecError(param, fields[0][0], str(exc)) from None


def dict_to_potential(d: dict | None) -> PotentialSpec | None:
    return _decode("v", d)


def dict_to_interaction(d: dict | None) -> InteractionSpec:
    return _decode("w", d)


def dict_to_bc(d: dict) -> BoundarySpec:
    return _decode("bc", d)


# ---------------------------------------------------------------------------
# shared problem cache: one entry per normalized problem key, the problem and
# its many-body solves by k, each of which also serves every smaller k.
# run_manifest releases an entry after the last scenario that declares its
# problem; a scenario run alone releases the entries it added when it ends.


_cache: dict = {}
_in_manifest = False


def clear_cache() -> None:
    _cache.clear()


def _problem_key(v, w, bc, n_cells, n_particles):
    # spinless fermions do not see a contact term: its pencil is the free one
    if isinstance(w, DeltaContact):
        w = NoInteraction()
    return (v, w, bc, n_cells, n_particles)


def _memo(table: dict, key, build):
    """table[key], built once; a failed build stores nothing."""
    if key not in table:
        table[key] = build()
    return table[key]


def cached_problem(v, w, bc, n_cells, n_particles) -> ManyBodyProblem:
    key = _problem_key(v, w, bc, n_cells, n_particles)
    return _memo(_cache, key, lambda: (build_problem(v, w, bc, n_cells, n_particles), {}))[0]


def cached_mb_eig(prob: ManyBodyProblem, k: int) -> SpectralResult:
    """The problem's solve with at least k levels (slice it for exactly k)."""
    key = _problem_key(prob.v, prob.w, prob.grid.bc, prob.grid.n_cells, prob.n_particles)
    _, solves = _memo(_cache, key, lambda: (prob, {}))
    return _memo(solves, max([k, *solves]), lambda: solve_mb_eig(prob.operator, k))


def _sp_solve(v, bc, n_cells, k) -> SpectralResult:
    # not cached, though sp_free_spectra repeats the gap laws' coarse solves and the N = 1 flux orbitals
    grid = build_grid_basis(n_cells, bc)
    K = assemble_stiffness(grid)
    M = assemble_overlap(grid)
    P = assemble_potential(grid, v)
    return solve_sp_eig(K, P, M, min(k, grid.n_dofs))


# ---------------------------------------------------------------------------
# Neumann trace formulas


def _beta_profile(grid: GridBasis, face: str, width_cells: int) -> np.ndarray:
    """Piecewise-linear cutoff equal to 1 on the face, 0 after width_cells."""
    if face not in ("left", "right"):
        raise ValueError("face must be 'left' or 'right'")
    if not 1 <= width_cells < grid.n_cells:
        raise ValueError("extension width out of range")
    beta = np.zeros(grid.n_nodes)
    ramp = np.linspace(1.0, 0.0, width_cells + 1)
    if face == "left":
        beta[: width_cells + 1] = ramp
    else:
        beta[-(width_cells + 1):] = ramp[::-1]
    return beta


def _weak_fluxes(nodal, lam, grid, v, w, face, cases) -> list[float]:
    """neumann_trace_weak at each (profile, width_cells) of cases, off one free pencil."""
    nodal = np.asarray(nodal, dtype=float)
    N, n = nodal.ndim, grid.n_cells
    cases = [(np.asarray(f, dtype=float), width) for f, width in cases]
    if nodal.shape != (n + 1,) * N or any(f.shape != (n + 1,) * (N - 1) for f, _ in cases):
        raise ValueError("state and face profile must give one value per node on N and N - 1 axes")
    F = [np.multiply.outer(_beta_profile(grid, face, width), f).ravel() / np.sqrt(factorial(N)) for f, width in cases]
    free = build_grid_basis(n, BoundarySpec.free())
    # not enumerate_slater_basis: with both endpoints the tuples may exceed its cap
    basis = SlaterBasis(n + 1, N, _increasing_tuples(n + 1, N))
    M = assemble_overlap(free)
    A = assemble_stiffness(free) + assemble_potential(free, v)
    op = assemble_manybody(A, M, transform_two_body(w, free, M), basis)
    c_psi = np.sqrt(factorial(N)) * nodal[tuple(basis.array.T)]
    c_gs = (gather_wedges(F_case, basis.array, n + 1) for F_case in F)
    return [float(c_psi @ (op.matrix @ c_g) - lam * (c_psi @ (op.overlap @ c_g))) for c_g in c_gs]


def neumann_trace_weak(
    nodal,
    lam: float,
    grid: GridBasis,
    v: PotentialSpec | None,
    w: InteractionSpec,
    face: str,
    profile,
    width_cells: int = 1,
) -> float:
    """Boundary flux functional a(Psi, P_N F) - lam <Psi, P_N F>, for any N.

    `nodal` is the eigenfunction's (n_nodes,)^N nodal tensor and `profile`
    the face profile f, a scalar at N = 1, else an (n_nodes,)^(N-1) tensor.
    F = beta (x) f extends f with a cutoff beta of the given width; the
    value is independent of the width because two extensions differ by an
    element of the variational space.  `face` is 'left' or 'right'.

    The form is the pencil of the free grid with the same cells, whose dofs
    are the nodes with weight 1: the wedge coefficients of a nodal tensor
    are sqrt(N!) times its values at the increasing node tuples t, so the
    flux is c_Psi' (H - lam M) c_G, where F's antisymmetric part has
    c_G(t) = sum_sigma sign(sigma) F(sigma t) / sqrt(N!): the signed sum of
    F over the orderings of t, which slater.gather_wedges takes.
    """
    return _weak_fluxes(nodal, lam, grid, v, w, face, [(profile, width_cells)])[0]


def neumann_trace_limit(
    nodal,
    grid: GridBasis,
    face: str,
    profile,
    eps_list,
) -> tuple[float, dict]:
    """Flux by extrapolating -<trace at distance eps, f>/eps to eps -> 0, for any N.

    The trace at distance eps is the slice of the (n_nodes,)^N nodal tensor
    at the first coordinate's node eps from the face, paired in L2 with the
    profile (a scalar at N = 1, a nodal tensor over the N - 1 other axes).
    The values are fitted by a quadratic in eps ('slope' is its linear
    coefficient), read at 0.  At least three distinct eps values are needed;
    they must be node-aligned (multiples of the grid spacing) and the
    eigenfunction must vanish on the chosen face.
    """
    nodal = np.asarray(nodal, dtype=float)
    eps = np.asarray(sorted(eps_list, reverse=True), dtype=float)
    h = grid.h
    idx = np.round(eps / h)
    if np.max(np.abs(eps / h - idx)) > 1e-9 or not 0 < min(idx) <= max(idx) <= grid.n_cells:
        raise ValueError("eps values must be multiples of the grid spacing in (0, 1]")
    idx = idx.astype(int)
    if face not in ("left", "right"):
        raise ValueError("face must be 'left' or 'right'")
    face_node, sign = (0, 1) if face == "left" else (grid.n_cells, -1)

    if np.max(np.abs(nodal[face_node])) > 1e-10 * np.max(np.abs(nodal)):
        raise ValueError("eigenfunction does not vanish on the requested face")
    if len(set(idx)) < 3:
        raise ValueError("the quadratic fit needs at least three distinct eps values")
    mf = np.asarray(profile, dtype=float)
    for axis in range(mf.ndim):
        mf = _full_overlap(grid.n_cells, h).along(mf, axis)
    pair = np.array([np.sum(nodal[face_node + sign * i] * mf) for i in idx])

    values = -pair / eps
    coeff = np.polyfit(eps, values, 2)
    fit = np.polyval(coeff, eps)
    diagnostics = {
        "eps": eps.tolist(),
        "values": values.tolist(),
        "fit_residual": float(np.max(np.abs(values - fit))),
        "slope": float(coeff[1]),
    }
    return float(np.polyval(coeff, 0.0)), diagnostics


# ---------------------------------------------------------------------------
# public suite operations


def slater_sum_oracle(
    v: PotentialSpec | None,
    bc: BoundarySpec,
    n_particles: int,
    k: int,
    n_cells: int,
) -> tuple[float, dict]:
    """Max relative deviation of the lowest non-interacting levels from
    sorted sums of the problem's orbital (single-particle) levels."""
    prob = cached_problem(v, NoInteraction(), bc, n_cells, n_particles)
    sums = np.asarray(sorted(sum(c) for c in itertools.combinations(prob.orbitals.levels, n_particles))[:k])
    lam = cached_mb_eig(prob, k).eigenvalues[:k]
    dev = np.max(np.abs(lam - sums) / np.maximum(np.abs(sums), 1.0))
    info = {
        "many_body": lam.tolist(),
        "orbital_sums": sums.tolist(),
    }
    return float(dev), info


def monotonicity_suite(
    v: PotentialSpec | None,
    w: InteractionSpec,
    n_particles: int,
    chain: list[BoundarySpec],
    n_cells: int,
) -> list[dict]:
    """Ground energies along a chain of growing Dirichlet sets.

    Each consecutive pair reports the fine-grid margin and the refinement
    error estimate; the ordering counts as strict when the margin exceeds
    four times the estimate.
    """
    levels = []
    for bc in chain:
        lam = []
        for n in (n_cells, 2 * n_cells):
            prob = cached_problem(v, w, bc, n, n_particles)
            lam.append(float(cached_mb_eig(prob, 1).eigenvalues[0]))
        levels.append({"bc": spec_to_dict(bc), "lambda1": lam[1], "error": abs(lam[0] - lam[1])})
    pairs = []
    for lo, hi in zip(levels, levels[1:]):
        margin = hi["lambda1"] - lo["lambda1"]
        est = max(lo["error"], hi["error"])
        pairs.append(
            {
                "from": lo["bc"],
                "to": hi["bc"],
                "margin": margin,
                "error_estimate": est,
                "strict": margin > REFINEMENT_MARGIN * est,
            }
        )
    return pairs


# ---------------------------------------------------------------------------
# scenario runners


def _rng_for(scenario: Scenario, seed: int) -> np.random.Generator:
    return np.random.default_rng((seed, zlib.crc32(scenario.name.encode())))


def _run_sp_free_spectrum(s: Scenario, seed: int) -> VerificationReport:
    n_cells = int(s.params.get("n_cells", 200))
    checks = []
    res_d = _sp_solve(None, BoundarySpec.dirichlet_both(), n_cells, 5)
    for k in range(1, 6):
        exact = (k * pi) ** 2
        rel = abs(res_d.eigenvalues[k - 1] - exact) / exact
        checks.append(_check(f"dirichlet_lambda{k}_rel_err", rel, "le", 2e-3))
    res_p = _sp_solve(None, BoundarySpec.quasiperiodic(1.0), n_cells, 3)
    checks.append(_check("periodic_lambda1_abs", abs(res_p.eigenvalues[0]), "le", 1e-6))
    for k in (2, 3):
        rel = abs(res_p.eigenvalues[k - 1] - 4 * pi**2) / (4 * pi**2)
        checks.append(_check(f"periodic_lambda{k}_rel_err", rel, "le", 2e-3))
    res_a = _sp_solve(None, BoundarySpec.quasiperiodic(-1.0), n_cells, 2)
    for k in (1, 2):
        rel = abs(res_a.eigenvalues[k - 1] - pi**2) / pi**2
        checks.append(_check(f"antiperiodic_lambda{k}_rel_err", rel, "le", 2e-3))
    return _finish(s, checks, {"n_cells": n_cells})


def _two_grid_gap_verdicts(v, bc, n_cells: int, n_levels: int):
    res_c = _sp_solve(v, bc, n_cells, n_levels)
    res_f = _sp_solve(v, bc, 2 * n_cells, n_levels)
    lam_c, lam_f = res_c.eigenvalues, res_f.eigenvalues
    out = []
    for i in range(n_levels - 1):
        gap_c = lam_c[i + 1] - lam_c[i]
        gap_f = lam_f[i + 1] - lam_f[i]
        err = max(abs(lam_c[i] - lam_f[i]), abs(lam_c[i + 1] - lam_f[i + 1]))
        verdict = two_grid_verdict(gap_c, gap_f, err, lam_f[i + 1])
        out.append({"pair": i + 1, "gap": float(gap_f), "error": float(err), "verdict": verdict})
    return out


def _run_sp_gap_law(s: Scenario, seed: int) -> VerificationReport:
    alpha = float(s.params["alpha"])
    v = dict_to_potential(s.params.get("v"))
    n_cells = int(s.params.get("n_cells", 200))
    k_pairs = int(s.params.get("k_pairs", 3))
    bc = BoundarySpec.quasiperiodic(alpha)
    verdicts = _two_grid_gap_verdicts(v, bc, n_cells, 2 * k_pairs + 1)
    checks = []
    for item in verdicts:
        if bc.guarantees_simple_ground(item["pair"]):
            checks.append(
                _check(
                    f"pair{item['pair']}_strict_margin",
                    item["gap"],
                    "gt",
                    REFINEMENT_MARGIN * item["error"],
                    note=item["verdict"],
                )
            )
    for p in s.params.get("expect_degenerate_pairs", []):
        item = verdicts[p - 1]
        ok = 1.0 if item["verdict"] == "degenerate" else 0.0
        checks.append(_check(f"pair{p}_degenerate", ok, "ge", 1.0, note=item["verdict"]))
    return _finish(s, checks, {"alpha": alpha, "n_cells": [n_cells, 2 * n_cells], "verdicts": verdicts})


def _run_slater_sum(s: Scenario, seed: int) -> VerificationReport:
    ((v, _, bc, n_cells, n_particles),) = _problems(s)
    k = int(s.params.get("k", 6))
    dev, info = slater_sum_oracle(v, bc, n_particles, k, n_cells)
    checks = [_check("max_rel_deviation", dev, "le", 1e-8)]
    env = {"n_cells": n_cells, "n_particles": n_particles, **info}
    return _finish(s, checks, env)


def _run_slater_condon(s: Scenario, seed: int) -> VerificationReport:
    n_cells = int(s.params.get("n_cells", 7))
    grid = build_grid_basis(n_cells, BoundarySpec.dirichlet_both())
    ramp = Sampled(tuple(grid.nodes))
    potentials = [None, Delta(0.5, -10.0), ramp]
    interactions = [NoInteraction(), DeltaContact(5.0), DeltaContact(-5.0)]
    checks = []
    for v in potentials:
        for w in interactions:
            op = build_problem(v, w, BoundarySpec.dirichlet_both(), n_cells, 2).operator
            oracle = assemble_manybody_bruteforce(v, w, grid)
            dev = max(
                float(np.max(np.abs(op.dense() - oracle.dense()))),
                float(np.max(np.abs(op.overlap.toarray() - oracle.overlap.toarray()))),
            )
            vname = spec_to_dict(v)["kind"]
            wname = spec_to_dict(w)["kind"]
            g = getattr(w, "g", 0.0)
            checks.append(_check(f"dev_{vname}_{wname}_{g:+g}", dev, "le", 1e-10))
    return _finish(s, checks, {"n_cells": n_cells, "n_orbitals": grid.n_dofs})


def _run_nondegeneracy(s: Scenario, seed: int) -> VerificationReport:
    keys = _problems(s)
    probs = tuple(cached_problem(*key) for key in keys)
    grids = tuple(n for _, _, _, n, _ in keys)
    solves = tuple(cached_mb_eig(prob, 2) for prob in probs)
    report = classify_degeneracy(grids, solves)
    checks = []
    if s.expected == "pass":
        ok = 1.0 if report.verdict == "non-degenerate" else 0.0
        checks.append(_check("verdict_non_degenerate", ok, "ge", 1.0, note=report.verdict))
        checks.append(
            _check(
                "gap_margin",
                report.gaps[1],
                "gt",
                REFINEMENT_MARGIN * report.discretization_error_estimate,
            )
        )
        target = s.params.get("gap_target")
        if target is not None:
            target = float(target)
            if not (np.isfinite(target) and target > 0.0):
                raise ValueError(f"gap_target must be positive and finite, got {target!r}")
            rel = abs(report.gaps[1] - target) / target
            checks.append(_check("gap_vs_analytic_rel", rel, "le", 5e-2))
    else:
        ok = 1.0 if report.verdict == "degenerate" else 0.0
        checks.append(_check("verdict_degenerate", ok, "ge", 1.0, note=report.verdict))
    env = {
        "grids": list(grids),
        "lambda1": list(report.lambda1),
        "gaps": list(report.gaps),
        "refinement_ratio": report.refinement_ratio,
        "error_estimate": report.discretization_error_estimate,
    }
    if s.params.get("cross_check_inverse_iteration") and report.verdict == "non-degenerate":
        op, res = probs[0].operator, solves[0]
        shift = float(res.eigenvalues[0] - max(1.0, 0.1 * abs(res.eigenvalues[0])))
        psi_inv = inverse_iteration_ground(op, shift)
        overlap = abs(float(psi_inv.coefficients @ (op.overlap @ res.eigenvectors[:, 0])))
        checks.append(_check("inverse_iteration_ray_agreement", overlap, "ge", 1.0 - 1e-8))
    return _finish(s, checks, env)


def _run_positivity(s: Scenario, seed: int) -> VerificationReport:
    ((v, w, bc, n_cells, n_particles),) = _problems(s)
    eps_pos = float(s.params.get("exclusion_frac", 1e-6))
    prob = cached_problem(v, w, bc, n_cells, n_particles)
    k = 2 if s.params.get("excited_control") else 1
    res = cached_mb_eig(prob, k)
    psi = WaveVector(res.eigenvectors[:, 0], prob.slater)
    sample = restrict_to_simplex(psi, prob.orbitals)
    rep = positivity_report(sample, eps_pos)
    checks = [_check("ground_sign_consistency", rep.sign_consistency, "ge", 0.999)]
    env = {
        "n_cells": n_cells,
        "n_particles": n_particles,
        "excluded_fraction": rep.excluded_fraction,
        "n_interior": rep.n_interior,
    }
    if s.params.get("excited_control"):
        psi2 = WaveVector(res.eigenvectors[:, 1], prob.slater)
        rep2 = positivity_report(restrict_to_simplex(psi2, prob.orbitals), eps_pos)
        checks.append(_check("excited_sign_consistency", rep2.sign_consistency, "le", 0.99))
    if bc.kind == "line" and bc.a and bc.b:
        dev = _trace_law_deviation(sample, prob, bc.a, bc.b)
        checks.append(_check("quasiperiodic_trace_law_rel", dev, "le", 1e-12))
    return _finish(s, checks, env)


def _trace_law_deviation(sample: SimplexSample, prob: ManyBodyProblem, a: float, b: float) -> float:
    """Relative deviation of b Psi(0, x') from (-1)^(N-1) a Psi(x', 1).

    Reads the face values off the simplex sample of a state of prob.
    """
    N, grid = prob.n_particles, prob.grid
    last = grid.n_nodes - 1
    node = np.rint(sample.points / grid.h).astype(int)
    # both faces list the interior rest tuples x' in the same (lexicographic) order
    lhs = b * sample.values[(node[:, 0] == 0) & (node[:, -1] < last)]
    rhs = (-1.0) ** (N - 1) * a * sample.values[(node[:, -1] == last) & (node[:, 0] > 0)]
    scale = np.max(np.abs(lhs))
    return float(np.max(np.abs(lhs - rhs)) / scale) if scale > 0 else 0.0


def _run_monotonicity(s: Scenario, seed: int) -> VerificationReport:
    v, w, _, n_cells, n_particles = _problems(s)[0]
    pairs = monotonicity_suite(v, w, n_particles, list(_MONOTONE_CHAIN), n_cells)
    checks = []
    for idx, pair in enumerate(pairs):
        checks.append(_check(f"margin{idx}_absolute", pair["margin"], "ge", 0.5))
        checks.append(
            _check(f"margin{idx}_vs_refinement", pair["margin"], "gt", REFINEMENT_MARGIN * pair["error_estimate"])
        )
    return _finish(s, checks, {"n_cells": n_cells, "pairs": pairs})


def _face_profile(nodes: np.ndarray, n_particles: int):
    """1 at N = 1, else det[sin(k pi y_j)], k = 1..N-1, over the N - 1 other axes:
    against the free Dirichlet ground state it pairs with one cofactor alone."""
    if n_particles == 1:
        return 1.0
    tuples = _increasing_tuples(len(nodes), n_particles - 1)
    product = reduce(np.multiply.outer, [np.sin(k * pi * nodes) for k in range(1, n_particles)])
    det = gather_wedges(product.ravel(), tuples, len(nodes))
    return scatter_wedges(det, tuples, len(nodes)).reshape(product.shape)


def _run_neumann(s: Scenario, seed: int) -> VerificationReport:
    (key,) = _problems(s)
    n_cells, N = key[3:]
    prob = cached_problem(*key)
    res = cached_mb_eig(prob, 1)
    nodal = nodal_tensor(WaveVector(res.eigenvectors[:, 0], prob.slater), prob.orbitals)
    # fix phase: positive at an interior tuple of the ordered region x1 < ... < xN
    if nodal[tuple(j * n_cells // (N + 1) for j in range(1, N + 1))] < 0:
        nodal = -nodal
    grid, f, lam = prob.grid, _face_profile(prob.grid.nodes, N), float(res.eigenvalues[0])
    cases = ((f, 1), (f, 2), (0.0 * f, 1))  # the widths 1 and 2, and the zero profile
    weak1, weak2, zero = _weak_fluxes(nodal, lam, grid, None, NoInteraction(), "left", cases)
    limit, diag = neumann_trace_limit(nodal, grid, "left", f, grid.h * np.array([8, 4, 2, 1]))
    env = {"n_cells": n_cells, "n_particles": N, "weak": weak1, "limit": limit}
    checks = [
        _check("weak_vs_limit_rel", abs(weak1 - limit) / abs(weak1), "le", 2e-2),
        _check("extension_independence", abs(weak1 - weak2), "le", 1e-10),
        _check("zero_profile", abs(zero), "le", 1e-12),
    ]
    if N <= 2:  # the flux of the free ground state against f is -sqrt(2) pi
        analytic = env["analytic"] = -np.sqrt(2.0) * pi
        for name, x in (("weak", weak1), ("limit", limit)):
            checks.append(_check(f"{name}_vs_analytic_rel", abs(x - analytic) / abs(analytic), "le", 2e-2))
    return _finish(s, checks, {**env, **diag})


# random states in each isometry and pullback check
_STRUCTURAL_TRIALS = 20


def _run_structural(s: Scenario, seed: int) -> VerificationReport:
    rng = _rng_for(s, seed)
    checks = []
    env = {}

    # extension isometry and round trips
    for N, n_cells, label in ((2, 12, "n2"), (3, 8, "n3")):
        nn = n_cells + 1
        increasing = tuple(_increasing_tuples(nn, N).T)
        worst_l2 = worst_h1 = worst_rt = 0.0
        for _ in range(_STRUCTURAL_TRIALS):
            vals = np.zeros((nn,) * N)
            vals[increasing] = rng.standard_normal(increasing[0].size)
            full = extend_from_simplex(vals, N)
            l2b, h1b = box_norms(full, 1.0 / n_cells)
            l2s, h1s = simplex_norms(np.sqrt(factorial(N)) * full, 1.0 / n_cells)
            worst_l2 = max(worst_l2, abs(l2b - l2s) / l2b)
            worst_h1 = max(worst_h1, abs(h1b - h1s) / h1b)
            back = restrict_full_tensor(full, N)
            worst_rt = max(worst_rt, float(np.max(np.abs(back - vals))) / np.max(np.abs(vals)))
            full2 = extend_from_simplex(back, N)
            worst_rt = max(worst_rt, float(np.max(np.abs(full2 - full))) / np.max(np.abs(full)))
        checks.append(_check(f"isometry_l2_{label}", worst_l2, "le", 1e-12))
        checks.append(_check(f"isometry_h1_{label}", worst_h1, "le", 1e-12))
        checks.append(_check(f"roundtrip_{label}", worst_rt, "le", 1e-12))

    # densities, antisymmetry, pullback on a reference interacting problem
    (key,) = _problems(s)
    prob = cached_problem(*key)
    res = cached_mb_eig(prob, 1)
    psi = WaveVector(res.eigenvectors[:, 0], prob.slater)
    rho = reduced_density(psi, prob.orbitals)
    wts = _trapezoid_weights(prob.grid)
    checks.append(_check("density_normalization", abs(float(wts @ rho) - 2.0), "le", 1e-10))
    rho2 = reduced_pair_density(psi, prob.orbitals)
    total2 = float(wts @ rho2 @ wts)
    checks.append(_check("pair_density_normalization", abs(total2 - 2.0), "le", 1e-8))
    checks.append(_check("pair_density_diag_min", float(np.min(np.diag(rho2))), "ge", -1e-10))

    pts2 = rng.uniform(0.05, 0.95, size=(100, 2))
    v1 = evaluate_state(psi, prob.orbitals, pts2)
    v2 = evaluate_state(psi, prob.orbitals, pts2[:, ::-1])
    swap_dev = float(np.max(np.abs(v1 + v2)) / np.max(np.abs(v1)))
    checks.append(_check("antisymmetry_swap", swap_dev, "le", 1e-12))

    # pullback: the pencil's Rayleigh quotient equals the ordered-region one
    vband = np.sin(2 * pi * np.linspace(0.0, 1.0, 13)) + 1.5
    prob_v = build_problem(Sampled(tuple(vband)), NoInteraction(), BoundarySpec.dirichlet_both(), 12, 2)
    op, grid = prob_v.operator, prob_v.grid
    worst_pb = 0.0
    for _ in range(_STRUCTURAL_TRIALS):
        x = rng.standard_normal(op.dim)
        full = nodal_tensor(WaveVector(x, op.basis), prob_v.orbitals)
        l2s, h1s = simplex_norms(full, grid.h)
        lhs = (h1s + simplex_potential_energy(full, grid.h, vband)) / l2s
        rhs = float(x @ (op.matrix @ x)) / float(x @ (op.overlap @ x))
        worst_pb = max(worst_pb, abs(lhs - rhs) / max(1.0, abs(rhs)))
    checks.append(_check("pullback_rayleigh", worst_pb, "le", 1e-10))

    return _finish(s, checks, env)


# Each kind's problem keys (v, w, bc, n_cells, n_particles), in the order its
# runner requests them through cached_problem; the runners read their problems
# from here.  run_manifest orders scenarios and releases cache entries by these.
# Kinds not listed build no cached problem.


def _specs_vwb(p: dict):
    """The decoded v, w and bc params."""
    return dict_to_potential(p.get("v")), dict_to_interaction(p.get("w")), dict_to_bc(p["bc"])


def _slater_sum_problems(p: dict) -> tuple:
    v, bc, n_particles = dict_to_potential(p.get("v")), dict_to_bc(p["bc"]), int(p["n_particles"])
    return ((v, NoInteraction(), bc, int(p["n_cells"]), n_particles),)


def _nondegeneracy_problems(p: dict) -> tuple:
    (v, w, bc), n_particles = _specs_vwb(p), int(p["n_particles"])
    return tuple((v, w, bc, int(n), n_particles) for n in p["grids"])


def _positivity_problems(p: dict) -> tuple:
    (v, w, bc), n_particles = _specs_vwb(p), int(p["n_particles"])
    return ((v, w, bc, int(p["n_cells"]), n_particles),)


_MONOTONE_CHAIN = (BoundarySpec.free(), BoundarySpec.dirichlet_left(), BoundarySpec.dirichlet_both())


def _monotonicity_problems(p: dict) -> tuple:
    v, w = dict_to_potential(p.get("v")), dict_to_interaction(p.get("w"))
    n_particles, n_cells = int(p["n_particles"]), int(p.get("n_cells", 40))
    return tuple((v, w, bc, n, n_particles) for bc in _MONOTONE_CHAIN for n in (n_cells, 2 * n_cells))


def _neumann_problems(defaults: dict, p: dict) -> tuple:
    p = {**defaults, **p}  # the free Dirichlet problem whose ground state's flux is read
    return ((None, NoInteraction(), BoundarySpec.dirichlet_both(), int(p["n_cells"]), int(p["n_particles"])),)


def _structural_problems(p: dict) -> tuple:
    # the reference interacting problem of the density and antisymmetry checks
    return ((Delta(0.5, -10.0), DeltaContact(5.0), BoundarySpec.dirichlet_both(), 20, 2),)


_PROBLEMS = {
    "slater_sum": _slater_sum_problems,
    "nondegeneracy": _nondegeneracy_problems,
    "simplex_positivity": _positivity_problems,
    "monotonicity": _monotonicity_problems,
    "neumann_trace_sp": partial(_neumann_problems, {"n_cells": 200, "n_particles": 1}),
    "neumann_trace_mb": partial(_neumann_problems, {"n_cells": 80, "n_particles": 2}),
    "structural": _structural_problems,
}


def _problems(s: Scenario) -> tuple:
    declare = _PROBLEMS.get(s.kind)
    return declare(s.params) if declare else ()


_RUNNERS = {
    "sp_free_spectrum": _run_sp_free_spectrum,
    "sp_gap_law": _run_sp_gap_law,
    "slater_sum": _run_slater_sum,
    "slater_condon_bruteforce": _run_slater_condon,
    "nondegeneracy": _run_nondegeneracy,
    "simplex_positivity": _run_positivity,
    "monotonicity": _run_monotonicity,
    "neumann_trace_sp": _run_neumann,
    "neumann_trace_mb": _run_neumann,
    "structural": _run_structural,
}


def run_scenario(s: Scenario, seed: int = 0) -> VerificationReport:
    """Execute one scenario; any failure inside it becomes a report-level error.

    A missing or malformed parameter, a solver failure or memory exhaustion
    in one scenario never aborts the rest of a manifest.  Outside
    run_manifest, the cache entries the scenario added go when it ends.
    """
    runner = _RUNNERS.get(s.kind)
    if runner is None:
        raise ValueError(f"unknown scenario kind {s.kind!r}")
    held = set(_cache)
    try:
        return runner(s, seed)
    except Exception as exc:
        return VerificationReport(
            scenario=s.name,
            expected=s.expected,
            checks=(),
            environment={"failed": True},
            overall=False,
            error=f"{type(exc).__name__}: {exc}",
        )
    finally:
        if not _in_manifest:
            for key in set(_cache) - held:
                del _cache[key]


# ---------------------------------------------------------------------------
# manifest


def default_manifest() -> list[Scenario]:
    text = resources.files("fermigate").joinpath("data/scenarios.json").read_text()
    entries = json.loads(text)["scenarios"]
    return [
        Scenario(
            name=e["name"],
            kind=e["kind"],
            params=e.get("params", {}),
            expected=e.get("expected", "pass"),
        )
        for e in entries
    ]


def make_scenario(name: str, overrides: dict | None = None) -> Scenario:
    """Look up a manifest scenario, optionally overriding problem fields.

    For the non-degeneracy family the expected flag is recomputed from the
    overridden boundary condition and particle count by the parity rule.
    """
    base = next((s for s in default_manifest() if s.name == name), None)
    if base is None:
        raise ValueError(f"unknown scenario {name!r}")
    if not overrides:
        return base
    params = dict(base.params)
    params.update(overrides)
    expected = base.expected
    if base.kind == "nondegeneracy":
        simple = dict_to_bc(params["bc"]).guarantees_simple_ground(int(params["n_particles"]))
        expected = "pass" if simple else "negative-control"
    return Scenario(name=base.name, kind=base.kind, params=params, expected=expected)


def _declared(s: Scenario) -> frozenset:
    """The normalized problem keys s declares; none if its params are bad.

    A bad entry raises again when it runs and becomes its report's error.
    """
    try:
        return frozenset(_problem_key(*key) for key in _problems(s))
    except Exception:
        return frozenset()


def _run_order(declared: list[frozenset]) -> list[int]:
    """Scenario indices with those that share a problem key back to back.

    Each group (a connected component of the sharing relation) sits at its
    first member, and keeps manifest order inside.
    """
    root = list(range(len(declared)))

    def find(i):
        while root[i] != i:
            i = root[i] = root[root[i]]
        return i

    first = {}
    for i, keys in enumerate(declared):
        for key in keys:
            a, b = find(i), find(first.setdefault(key, i))
            root[max(a, b)] = min(a, b)
    return sorted(range(len(declared)), key=lambda i: (find(i), i))


def run_manifest(scenarios: list[Scenario], seed: int = 0) -> list[VerificationReport]:
    """Run scenarios one after another, reports in manifest order.

    Scenarios that declare a common problem run back to back, each group at
    the place of its first member; every scenario seeds its generator from
    its own name, so the order changes no result.  When a scenario ends, the
    cache drops every problem that no unfinished scenario declares, with its
    solves, so an entry lives from its first consumer to its last, and the
    cache is empty when the run ends, also when an exception escapes.
    """
    global _in_manifest
    declared = [_declared(s) for s in scenarios]
    pending = collections.Counter(key for keys in declared for key in keys)
    reports = {}
    _in_manifest = True
    try:
        for i in _run_order(declared):
            reports[i] = run_scenario(scenarios[i], seed)
            pending.subtract(declared[i])
            for key in [k for k in _cache if pending[k] <= 0]:
                del _cache[key]
    finally:
        _in_manifest = False
        clear_cache()
    return [reports[i] for i in range(len(scenarios))]
