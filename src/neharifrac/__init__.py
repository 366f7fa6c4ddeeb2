"""Two positive solutions of a singular, sign-changing fractional-order
system on an interval, found by constrained minimization over the two
branches of the natural constraint manifold.

The library layers cleanly: problem data -> energy-norm matrix -> energy
functional and fiber maps -> branch projections -> descent solver ->
independent verification (oracle norm, residuals, inequality chains).
"""

from .problem import (
    GridSpec,
    WeightSpec,
    GridFunction,
    GridPair,
    ProblemSpec,
    ValidatedProblem,
    validate_params,
    sample_weight,
    critical_exponent,
)
from .form import (
    GagliardoForm,
    assemble_form,
    seminorm_sq,
    apply_form,
)
from .energy import (
    PairStats,
    pair_stats,
    energy,
    phi_from_stats,
)
from .fiber import (
    FiberCase,
    FiberRoots,
    Membership,
    MembershipLabel,
    psi,
    t_max,
    project,
    classify,
)
from .thresholds import (
    ConstantsReport,
    q_star,
    weight_norm,
    lambda_aggregate,
    threshold_C,
    gap_radii,
    E_coefficient,
    energy_lower_bound,
    rho_minimum,
    rho_coefficients,
    estimate_S,
    rayleigh_quotient,
    default_candidates,
    compute_constants,
)
from .solver import (
    Branch,
    SolverOptions,
    SolutionReport,
    GapReport,
    initial_direction,
    solve_points,
    gap_check,
)
from .verify import (
    ResidualReport,
    CheckResult,
    CheckList,
    brute_force_norm,
    weak_residual,
    inequality_suite,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
