"""Energy-minimal radial harmonic diffeomorphisms between circular annuli.

Solves the modulus equation for the profile constant, reconstructs the
radial profile and its inverse, evaluates all pointwise differential-
geometric quantities of the map, and numerically verifies the identities
the construction is supposed to satisfy (quadratic-differential constancy,
PDE residuals, energy bounds, distortion constants, criticality).
"""

from .errors import (
    AnnuharmError,
    BadParameter,
    BelowCritical,
    DivergentIntegral,
    DivergentModulus,
    NoBracket,
    NoConvergence,
    OutOfAnnulus,
    OutOfDomain,
    PerturbationLeavesRange,
    ProfileMismatch,
    StencilOutOfDomain,
    UnknownMetric,
)
from .fields import (
    FieldSample,
    PolarGrid,
    derivatives_point,
    energy,
    export_grid,
    hopf_quantity,
    kk_constants,
    lipschitz_constant,
    map_point,
    operator_norms,
)
from .metrics import (
    MetricDiagnostics,
    RadialMetric,
    admissibility_report,
    approx_analytic_constant,
    area,
    curvature,
    parse_metric,
)
from .numerics import (
    find_root_bracketed,
    minimize_scalar,
)
from .solver import (
    CONFORMAL,
    CRITICAL,
    EXPANDING,
    SUBCRITICAL,
    MinimizerProfile,
    ProblemSpec,
    Psi,
    SolverConfig,
    build_profile,
    critical_constant,
    critical_inner_radius,
    euclidean_nitsche_map,
    modulus_of_c,
    solve_c,
)
from .verify import (
    CheckRecord,
    VerificationReport,
    general_harmonic_residual,
    hopf_constancy_check,
    minimality_probe,
    modulus_equivalence_check,
    pde_residual,
    run_full_suite,
)

__version__ = "0.1.0"
