"""mm-lab: numerics for metric measure spaces with probability measures.

Exact transport and measure-comparison solvers on finite spaces, entropy and
curvature-dimension checks on weighted one-dimensional spaces, concentration
invariants with closed-form bounds, and reproducible experiment pipelines.
"""

from .config import RunConfig, default_config
from .core import (
    Coupling,
    FiniteMmSpace,
    condition_measure,
    partition_average,
    prob_weights,
    pushforward,
    subset_diameter,
)
from .coefficients import (
    f_softabs,
    omega,
    s_kappa,
    sigma,
    tau,
    tau_sup,
)
from .concentration import (
    cd_obsdiam_bound,
    cd_separation_bound,
    cdstar_obsdiam_bound,
    cdstar_separation_bound,
    levy_bound_sequence,
    obsdiam_sandwich,
    partial_diameter,
    separation,
)
from .curvature import (
    bm_check,
    cd_check_1d,
    cd_rhs,
    entropy_inequality_suite,
    kn_convexity_check,
    renyi_entropy,
    renyi_entropy_1d,
    volume_growth_probe,
)
from .errors import (
    ConvexityViolation,
    DegenerateDensity,
    DomainError,
    InvalidDimension,
    MmLabError,
    NonSegment,
    QuadratureNonConvergent,
    SolverFailure,
    ValidationError,
    ZeroMassSet,
)
from .experiments import (
    CounterexampleParams,
    bm_collapse_sweep,
    build_counterexample,
    calibrate_cd_budget,
    cosh_family,
    counterexample_report,
    sinh_example_report,
    verify_separation_bounds,
    two_point_midpoint_gap,
)
from .transport import (
    TransportPlanReport,
    WeightedOneDimSpace,
    discretize,
    displacement_interpolate_1d,
    interval_mass,
    ky_fan,
    prokhorov,
    w2_circle_quantile,
    w2_exact,
    w2_quantile_1d,
)

__version__ = "0.1.0"
