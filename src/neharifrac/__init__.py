"""Two positive solutions of a singular, sign-changing fractional-order
system on an interval, found by constrained minimization over the two
branches of the natural constraint manifold.

The library layers cleanly: problem data -> energy-norm matrix -> energy
functional and fiber maps -> branch projections -> descent solver ->
independent verification (oracle norm, residuals, inequality chains).
The kernels see the discretization only through the form: a function is
its array of interior values, and a pair the (2, n) array of both.

``GridFunction``, ``seminorm_sq``, ``apply_form`` and ``brute_force_norm``
stay exported for the benchmark in ``perfbench/``, which still calls them.
"""

from .problem import (
    GridSpec,
    WeightSpec,
    GridFunction,
    ProblemSpec,
    ValidatedProblem,
    validate_params,
    sample_weight,
    critical_exponent,
    q_star,
    weight_norm,
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
    phi_from_stats,
    row_products,
)
from .fiber import (
    FiberCase,
    FiberRoots,
    MembershipLabel,
    psi,
    t_max,
    project,
)
from .thresholds import (
    ConstantsReport,
    lambda_aggregate,
    threshold_C,
    gap_radii,
    E_coefficient,
    energy_lower_bound,
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
