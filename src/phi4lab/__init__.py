"""Desk-scale laboratory for a quartic boson field Hamiltonian with cutoffs.

Builds the truncated occupation-number model of a free boson field plus a
spatially cut off quartic self-interaction, computes its ground states, and
verifies the closed-form identities, inequalities, and the first-order
ground-state-energy expansion that the model satisfies.
"""

__version__ = "0.1.0"

from .errors import (
    BasisTooLarge,
    ConfigError,
    EpsilonOutOfRange,
    IndefiniteShift,
    NearDegenerateWarning,
    NegativeSpatialCutoff,
    NoConvergence,
    NonpositiveWeight,
    Phi4LabError,
    SpectralConditionViolated,
    TruncationTooSmall,
    ZeroFrequencyMode,
    ZeroVector,
)
from .grid import (
    CutoffSpec,
    ModeGrid,
    SpatialQuadrature,
    build_grid,
    build_spatial_quadrature,
    cutoff_norm,
    load_cutoff_table,
)
from .fock import (
    FockBasis,
    OperatorHandle,
    apply_dgamma_omega,
    apply_h0perp_inverse,
    apply_mode_annihilation,
    apply_mode_creation,
    apply_number,
    apply_smeared,
    enumerate_basis,
    load_vector,
    project_vacuum,
    save_vector,
)
from .hamiltonian import (
    HamiltonianSet,
    apply_interaction,
    apply_total,
    assemble_sparse,
    build_field,
)
from .spectral import (
    SpectralResult,
    estimate_operator_norm,
    ground_state,
    rayleigh_quotient,
    solve_shifted,
)
from .theory import (
    EpsilonFamily,
    TheoryConstants,
    compute_constants,
    epsilon_family,
    first_order_coefficient,
    hbound_constants,
    optimize_epsilon,
    perturbation_constants,
    rayleigh_upper_bound,
    series_upper_bound,
)
from .config import ModelParams, build_model, parse_config, render_config
from .verify import (
    CheckOutcome,
    SweepReport,
    SweepRow,
    check_arai_identities,
    check_ccr,
    check_double_commutator,
    check_free_commutators,
    check_hbound,
    check_ladder_bounds,
    check_number_bound,
    check_overlap,
    check_phi3_bound,
    check_pull_through,
    check_weak_commutator,
    draw_interior_vectors,
    sweep_kappa,
    top_grade_weight,
)
