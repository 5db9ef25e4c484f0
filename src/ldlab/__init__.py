"""Filter-forgetting laboratory: exact filters, local mixing sets, TV bounds.

The package builds state-space models from declarative specs, runs paired
grid / particle / finite-state filters on a shared observation stream, and
evaluates an observation-driven bound on how fast the two filters merge.
"""

from ._version import __version__
from .bounds import (
    BoundBreakdown,
    bound_series,
    denominator_gap,
    forgetting_bound,
    forgetting_bound_finite,
    max_product_with_quota,
    numerator_gap,
    two_step_prior_mass,
)
from .densities import GaussianDensity, StudentTDensity, density_from_spec
from .dists import NormalPrior, PointMassPrior, UniformPrior, prior_from_spec
from .doeblin import (
    delta_for_eta,
    distance_series,
    envelope_pair,
    envelope_radius,
    eta_for_delta,
    finite_ld_construct,
    ld_set,
    misspec_diag_series,
    stability_diag_series,
    verify_ld_property,
    verify_ld_property_finite,
)
from .errors import (
    ConfigError,
    ConstructionError,
    DegenerateInitError,
    EnvelopeOrderError,
    FilterCollapseError,
    H2FailureError,
    InsufficientDataError,
    LabError,
    ModelValidationError,
    OracleScaleError,
    RepresentationError,
)
from .filtering import (
    FilterState,
    ReprConfig,
    decay_rate,
    exact_filter_finite,
    exhaustive_filter_finite,
    filter_init,
    filter_step,
    grid_filters,
    run_grid_pair,
    tv_distance,
    tv_half_l1,
)
from .models import (
    FiniteModel,
    MisspecifiedTruth,
    StateSpaceModel,
    gaussian_finite_model,
    make_misspecified_truth,
    simulate_finite,
    simulate_misspecified,
    simulate_trajectory,
)
from .modelspec import model_from_spec
from .scenarios import (
    PRESETS,
    RunReport,
    ScenarioConfig,
    TvSeries,
    compare_particle_grid,
    monte_carlo_expectation,
    preset_config,
    run_scenario,
    scenario_from_dict,
    write_bound_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
