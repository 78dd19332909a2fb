"""Signed Riesz-kernel symmetrization energies, Wolff potentials and
capacity proxies for discrete and Cantor-type measures."""

from .energies import (
    EnergyReport,
    TruncationWindow,
    WolffExponents,
    ball_mass_double_sum,
    energy_report,
    maximal_potential,
    maximal_potential_energy,
    maximal_potential_values,
    riesz_l2_energy,
    riesz_transform_at_atoms,
    symmetrization_energy,
    symmetrization_potential_sq,
    symmetrization_potentials_sq_at_atoms,
    truncated_riesz_transform,
    wolff_energy,
    wolff_potential,
    wolff_potentials_at_atoms,
)
from .errors import (
    DomainError,
    EmptyRestrictionError,
    GeometryError,
    MeasureFormatError,
    RieszcapError,
    SizeCapError,
    ToleranceNotMetError,
    UnsupportedExponentError,
)
from .kernels import (
    KernelParams,
    curvature_permutation_sum,
    largest_side,
    menger_curvature_sq,
    riesz_kernel,
    sandwich_bounds,
    symmetrization,
    symmetrization_many,
)
from .capacity import (
    CapacityEstimate,
    ComparabilityReport,
    OptimizerConfig,
    PLANAR_MAPS,
    bilipschitz_experiment,
    chebyshev_restrict,
    comparability_report,
    estimate_positive_capacity,
    minimize_wolff_energy,
    project_to_simplex,
)
from .experiments import (
    DepthTrend,
    SweepPoint,
    comparability_sweep,
    depth_trend,
    linear_fit,
    ratio_window,
    semiadditivity_probe,
    sweep_point,
)
from .measures import (
    BallProfile,
    CantorSpec,
    DiscreteMeasure,
    ball_profile,
    cantor_measure,
    cantor_spec_for_dimension,
    load_measure,
    maximal_at_atoms,
    maximal_function,
    measure_from_csv,
    measure_from_json,
    measure_to_json,
    merge_measures,
    save_measure,
)

__version__ = "0.1.0"
