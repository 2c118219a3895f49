"""Galerkin spectral engine for one-dimensional fermionic Schrodinger
operators with distributional potentials, plus a verification harness for
their ground-state structure."""

from .basis import (
    BoundarySpec,
    Delta,
    GridBasis,
    HMinusOnePair,
    PotentialSpec,
    Sampled,
    SymMatrix,
    assemble_overlap,
    assemble_potential,
    assemble_stiffness,
    build_grid_basis,
)
from .errors import (
    CapExceededError,
    ConfigError,
    ConvergenceError,
    FermigateError,
    IndefiniteMatrixError,
    ShiftError,
    SpecError,
)
from .manybody import DegeneracyReport, classify_degeneracy, inverse_iteration_ground, solve_mb_eig
from .simplex import (
    SimplexSample,
    extend_from_simplex,
    positivity_report,
    restrict_to_simplex,
)
from .slater import (
    DeltaContact,
    InteractionSpec,
    ManyBodyOperator,
    NoInteraction,
    SampledKernel,
    SlaterBasis,
    WaveVector,
    assemble_manybody,
    assemble_manybody_bruteforce,
    build_problem,
    enumerate_slater_basis,
    orthonormalize_orbitals,
    reduced_density,
    reduced_pair_density,
    transform_one_body,
    transform_two_body,
)
from .spectrum import GapReport, SpectralResult, gap_report, solve_sp_eig
from .verify import (
    Scenario,
    VerificationReport,
    default_manifest,
    monotonicity_suite,
    neumann_trace_limit,
    neumann_trace_weak,
    run_manifest,
    run_scenario,
    slater_sum_oracle,
)

__version__ = "0.1.0"
