"""Two-branch constrained minimization by Sobolev-gradient descent.

Each branch minimizes the energy over one part of the constraint manifold:
the local-min branch (projection scaling t1) and the local-max branch
(scaling t2, which needs a direction with positive coupling integral).

One iteration steps from the current on-manifold point along the H^s
Riesz representative G^{-1} grad J of the smoothed gradient (Neuberger,
Sobolev Gradients and Differential Equations, LNM 1670), clips negatives
to zero, reprojects the result onto the branch, and accepts only if the
energy decreased (else halves the step). The Euclidean gradient carries
the mesh-dependent scale of G, so its step count grows with the grid; the
Riesz representative is measured in the energy norm, and the iteration
count stays flat in N. The Riesz map is ``GagliardoForm.riesz``, exact
at every N and matrix-free from ``form.MATRIX_FREE_CELLS`` on.

Every accepted iterate sits on its branch, so branch invariants are
checkable at each step. Independent seeded restarts guard against bad
initial directions; the best energy wins.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .energy import (
    phi_from_stats,
    singular_and_coupling,
    smoothed_gradient,
    stats_and_products,
)
from .errors import (
    DirectionSearchFailed,
    NoAdmissibleDirection,
    NotConvergedInput,
)
from .fiber import FiberCase, falling_root, project
from .form import GagliardoForm
from .problem import GridPair, ValidatedProblem
from .thresholds import ConstantsReport

_MIN_STEP = 1e-16


class Branch(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 2000
    step: float = 0.5
    tol_energy: float = 1e-10
    tol_manifold: float = 1e-8
    eps_singular: float = 1e-8
    seed: int = 0
    restarts: int = 8

    def __post_init__(self):
        for name in ("max_iters", "restarts", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"solver option {name} must be an integer, got {value!r}")
        if self.max_iters <= 0:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")
        for name in ("step", "tol_energy", "tol_manifold", "eps_singular"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"solver option {name} must be positive and finite, "
                                 f"got {value}")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")


@dataclass
class SolutionReport:
    branch: Branch
    pair: GridPair
    J: float
    norm: float
    phi1: float
    phi2: float
    t_used: float
    iters: int
    converged: bool
    restarts_used: int
    # dual norm sqrt(g' G^{-1} g) of the smoothed gradient at the returned
    # iterate, over the pair norm; zero exactly at a critical point
    stationarity: float
    # one (J, norm, K, B) record per accepted iterate, in order
    trajectory: list[tuple[float, float, float, float]] = field(default_factory=list)


@dataclass(frozen=True)
class GapReport:
    norm_plus: float
    norm_minus: float
    A0: float
    A_lm: float
    ordering_ok: bool


def initial_direction(problem: ValidatedProblem, rng: np.random.Generator,
                      branch: Branch = Branch.PLUS) -> GridPair:
    """Random nonnegative direction pair with positive singular integral.

    Both components share one smooth bump profile (a symmetric seed), so a
    fully symmetric problem keeps u = w along the whole descent. For the
    local-max branch the bump is centered where the coupling weight is
    positive so the coupling integral starts positive.
    """
    grid = problem.grid
    x = grid.nodes()
    width_scale = grid.right - grid.left
    b_peak = x[int(np.argmax(problem.b_vals))]

    for _ in range(1000):
        if branch is Branch.MINUS:
            center = b_peak + 0.1 * width_scale * rng.standard_normal()
        else:
            center = rng.uniform(grid.left + 0.1 * width_scale,
                                 grid.right - 0.1 * width_scale)
        width = rng.uniform(0.08, 0.25) * width_scale
        amp = rng.uniform(0.5, 1.5)
        prof = amp * np.maximum(0.0, 1 - ((x - center) / width) ** 2) ** 2
        prof[0] = prof[-1] = 0.0
        if not np.any(prof[1:-1] > 0):
            continue
        # a component tied to a negative parameter shrinks the singular
        # integral; damp that side until the total comes out positive
        u = prof.copy()
        v = prof.copy()
        for _damp in range(8):
            K, B = singular_and_coupling(problem, u[1:-1], v[1:-1])
            if K > 0:
                break
            if problem.lam < problem.mu:
                u *= 0.25
            else:
                v *= 0.25
        else:
            continue
        if branch is Branch.MINUS and B <= 0:
            continue
        return GridPair.from_arrays(grid, u, v)

    raise DirectionSearchFailed(
        f"no admissible initial direction for branch {branch.value} in 1000 samples"
    )


def _project_scaling(problem, stats, branch):
    """Branch scaling of a direction, or None if inadmissible."""
    if stats.norm2 <= 0:
        return None
    if stats.K <= 0:
        # a negative parameter can get here; the fiber then has no minimum
        if branch is Branch.MINUS and stats.B > 0:
            return falling_root(stats, problem.q, problem.alpha + problem.beta)
        return None
    roots = project(stats, problem.q, problem.alpha + problem.beta)
    if branch is Branch.MINUS:
        if roots.case is not FiberCase.TWO_ROOTS:
            return None
        return roots.t2
    if roots.case is FiberCase.NO_ADMISSIBLE_ROOT:
        return None
    return roots.t1


def _descend(problem: ValidatedProblem, form: GagliardoForm, branch: Branch,
             direction: GridPair, opts: SolverOptions):
    """One restart: returns a SolutionReport-shaped dict, or None if the
    initial direction admits no branch scaling.

    The loop runs on interior arrays. An accepted iterate is t * trial, so
    its products with G are t times the trial's, and each gradient costs
    no product of its own.
    """
    q, ab = problem.q, problem.alpha + problem.beta
    eps = opts.eps_singular

    u, v = direction.u.values[1:-1], direction.w.values[1:-1]
    st, Gu, Gv = stats_and_products(problem, form, u, v)
    t_used = _project_scaling(problem, st, branch)
    if t_used is None:
        return None
    u, v, Gu, Gv = t_used * u, t_used * v, t_used * Gu, t_used * Gv
    n2, K, B = st.norm2 * t_used**2, st.K * t_used ** (1 - q), st.B * t_used**ab
    J_cur = n2 / 2 - K / (1 - q) - B / ab

    trajectory = [(J_cur, math.sqrt(n2), K, B)]
    step = opts.step
    hit_tol = False
    iters = 0
    for iters in range(1, opts.max_iters + 1):
        gu, gv = smoothed_gradient(problem, u, v, Gu, Gv, eps)
        du, dv = form.riesz(np.array([gu, gv]))
        accepted = False
        while step > _MIN_STEP:
            u_try = np.maximum(u - step * du, 0.0)
            v_try = np.maximum(v - step * dv, 0.0)
            tstats, Gu_try, Gv_try = stats_and_products(problem, form, u_try, v_try)
            t_sel = _project_scaling(problem, tstats, branch)
            if t_sel is None:
                step *= 0.5
                continue
            n2 = tstats.norm2 * t_sel**2
            K = tstats.K * t_sel ** (1 - q)
            B = tstats.B * t_sel**ab
            J_new = n2 / 2 - K / (1 - q) - B / ab
            if J_new < J_cur:
                rel_drop = (J_cur - J_new) / max(abs(J_cur), 1e-300)
                u, v = t_sel * u_try, t_sel * v_try
                Gu, Gv = t_sel * Gu_try, t_sel * Gv_try
                t_used = t_sel
                J_cur = J_new
                trajectory.append((J_cur, math.sqrt(n2), K, B))
                step = opts.step
                accepted = True
                break
            step *= 0.5
        if not accepted:
            hit_tol = True  # no strictly decreasing step exists at float resolution
            break
        if rel_drop < opts.tol_energy:
            hit_tol = True
            break

    # the checks run on the returned iterate itself, not on scaled stats
    st, _, _ = stats_and_products(problem, form, u, v)
    _, phi1, phi2 = phi_from_stats(st, q, ab, 1.0)
    scale = st.scale()
    on_branch = (phi2 > 0) if branch is Branch.PLUS else (phi2 < 0)
    # the system asks for u, w > 0: a component that vanished at every
    # interior node (a negative parameter drives it there) is no solution
    both_alive = bool(u.max() > 0 and v.max() > 0)
    converged = (hit_tol and abs(phi1) <= opts.tol_manifold * scale and on_branch
                 and both_alive)
    return {
        "pair": GridPair.from_arrays(problem.grid, np.pad(u, 1), np.pad(v, 1)),
        "J": J_cur,
        "norm": math.sqrt(st.norm2),
        "phi1": phi1,
        "phi2": phi2,
        "t_used": t_used,
        "iters": iters,
        "converged": converged,
        "trajectory": trajectory,
        "residual": abs(phi1) / scale if scale > 0 else abs(phi1),
    }


def _stationarity(problem: ValidatedProblem, form: GagliardoForm, pair: GridPair,
                  norm: float, eps: float) -> float:
    """Dual norm sqrt(g' G^{-1} g) of the smoothed gradient over the pair norm."""
    u, v = pair.u.values[1:-1], pair.w.values[1:-1]
    gu, gv = smoothed_gradient(problem, u, v, form.apply(u), form.apply(v), eps)
    g = np.array([gu, gv])
    dual2 = float(np.sum(g * form.riesz(g)))
    return math.sqrt(max(dual2, 0.0)) / norm


def solve_branch(problem: ValidatedProblem, form: GagliardoForm, branch: Branch,
                 opts: SolverOptions = SolverOptions()) -> SolutionReport:
    """Minimize the energy over one manifold branch, best over restarts.

    Restart i uses the deterministic generator seeded with seed + i. Ties
    on energy break toward the smaller manifold residual, then the lower
    iteration count. Raises NoAdmissibleDirection if every restart fails
    to find a direction admitting the branch scaling.
    """
    best = None
    completed = 0
    for i in range(opts.restarts):
        rng = np.random.default_rng(opts.seed + i)
        try:
            direction = initial_direction(problem, rng, branch)
        except DirectionSearchFailed:
            continue
        result = _descend(problem, form, branch, direction, opts)
        if result is None:
            continue
        completed += 1
        if best is None:
            best = result
            continue
        key_new = (result["J"], result["residual"], result["iters"])
        key_old = (best["J"], best["residual"], best["iters"])
        if key_new < key_old:
            best = result

    if best is None:
        raise NoAdmissibleDirection(
            f"all {opts.restarts} restarts failed to reach branch {branch.value}; "
            "the parameter pair may be far outside the admissible region"
        )
    return SolutionReport(branch=branch, pair=best["pair"], J=best["J"],
                          norm=best["norm"], phi1=best["phi1"], phi2=best["phi2"],
                          t_used=best["t_used"], iters=best["iters"],
                          converged=best["converged"], restarts_used=completed,
                          stationarity=_stationarity(problem, form, best["pair"],
                                                     best["norm"], opts.eps_singular),
                          trajectory=best["trajectory"])


def gap_check(plus: SolutionReport, minus: SolutionReport,
              constants: ConstantsReport) -> GapReport:
    """Check the strict norm separation of the two branches.

    Requires both reports converged and a constants report computed with
    the same embedding estimate as the norms being compared.
    """
    if not plus.converged or not minus.converged:
        raise NotConvergedInput("gap check needs two converged solutions")
    ordering_ok = minus.norm > constants.A0 > constants.A_lm > plus.norm
    return GapReport(norm_plus=plus.norm, norm_minus=minus.norm,
                     A0=constants.A0, A_lm=constants.A_lm,
                     ordering_ok=bool(ordering_ok))
