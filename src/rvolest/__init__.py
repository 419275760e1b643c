"""Robust quasi-likelihood estimation of parametric diffusion coefficients
from high-frequency data contaminated by jumps and spike noise."""

from .clustering import (
    KSweepResult,
    MergeMode,
    Partition,
    kmeans,
    merge_consecutive,
    residuals,
    suggest_k,
)
from .estimator import (
    EstimationResult,
    OptimizerOptions,
    check_taper_schedule,
    confidence_intervals,
    estimate,
    plugin_matrices,
    sandwich_avar,
)
from .exceptions import (
    CholeskyFailure,
    DegenerateInput,
    RvolestError,
    SingularGamma,
    UnknownModel,
)
from .likelihood import (
    ObservationPath,
    RobustConfig,
    Variant,
    dp_gqlf,
    gqlf,
    grad_objective,
    hess_objective,
    hoelder_gqlf,
    objective,
    scaled_increments,
)
from .mathcore import (
    eps_dprime,
    eps_prime,
    gauss_biquadratic_moment,
    gauss_quadratic_moment,
    k_const,
    phi_power_integral,
)
from .model import (
    BUILTIN_NAMES,
    CovariateSource,
    ModelSpec,
    ParameterBox,
    clamp_to_box,
    make_builtin,
)
from .montecarlo import (
    ExperimentPlan,
    SummaryTable,
    coverage_curve,
    run_plan,
)
from .simulator import (
    PRESET_NAMES,
    CovariateDesign,
    DgpModel,
    DriftKind,
    JumpSpec,
    Lane,
    PathBundle,
    Scenario,
    SpikeSpec,
    get_preset,
    rng_stream,
    simulate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
