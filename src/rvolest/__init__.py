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
    scaled_increments,
    value_and_grad,
)
from .mathcore import (
    eps_dprime,
    eps_prime,
    k_const,
)
from .model import (
    BUILTIN_NAMES,
    CovariateSource,
    ModelSpec,
    ParameterBox,
    make_builtin,
)
from .montecarlo import (
    ExperimentPlan,
    SummaryTable,
    run_plan,
)
from .simulator import (
    PRESET_NAMES,
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
