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

The first trial step alternates (the cyclic Barzilai-Borwein method of
Dai, Hager, Schittkowski & Zhang, IMA J. Numer. Anal. 26, 2006): the base
step ``STEP`` on iteration 1 and every even iteration, and on the odd ones
from the third on the BB2 step in the G inner product (Barzilai & Borwein,
IMA J. Numer. Anal. 8, 1988), floored at the base step. The base step
damps the stiff antisymmetric mode u - w of the local-max branch, which a
BB step, sized by the soft curvature, would leave undamped; the floor
keeps a small BB step from crawling.

Every accepted iterate sits on its branch, so branch invariants are
checkable at each step. Independent seeded restarts guard against bad
initial directions; the best energy wins. The restarts are the rows of one
block descent: each iteration applies G and the Riesz map to all of them at
once, while each row keeps its own step, acceptance and stopping rule, so
a row ends as it would in a descent of its own. Each row comes out as its
own report, with the stationarity of its returned iterate. The rows may
come from several points (lambda, mu) of a sweep: the points share the
grid, s, q, alpha, beta and b, and lambda and mu enter the energy only as
per-row factors of the singular integrals. The two branches differ only in
the root a row's projection takes and in the sign of phi''(1) its verdict
asks for, so each row carries its own branch, and one block descends every
restart of every point on every branch (``solve_points``). Rows beyond
``BLOCK_ELEMENTS`` elements descend as consecutive blocks, which bounds the
memory and changes no row.
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
    NehariError,
    NoAdmissibleDirection,
    NotConvergedInput,
)
from .fiber import MANIFOLD_TOL, branch_root
from .form import GagliardoForm
from .problem import GridPair, ValidatedProblem
from .thresholds import ConstantsReport

_MIN_STEP = 1e-16
# the descent's fixed settings: the iteration cap; the base step (iteration
# 1, every even iteration, and the floor of the BB step); the relative energy
# drop below which a row stops; and the floor of u^{-q} inside gradients
MAX_ITERS = 2000
STEP = 0.5
TOL_ENERGY = 1e-10
EPS_SINGULAR = 1e-8
# rows x interior nodes above this many elements descend as consecutive
# blocks of at most this many, which bounds the block's memory; the README
# gives the measurement behind the value
BLOCK_ELEMENTS = 2**18


class Branch(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class SolverOptions:
    """What a caller varies: restart i draws its direction from the
    generator seeded with seed + i. The descent's other settings are the
    module constants MAX_ITERS, STEP, TOL_ENERGY and EPS_SINGULAR, and its
    on-manifold band is ``fiber.MANIFOLD_TOL``."""

    seed: int = 0
    restarts: int = 8

    def __post_init__(self):
        # a negative seed would reach numpy's generator, which rejects it
        for name, least in (("restarts", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"solver option {name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"solver option {name} must be at least {least}, got {value}")


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


def _record(stats, t, q, ab):
    # (J, norm, K, B) of the direction with these stats, scaled by t
    n2, K, B = stats.norm2 * t**2, stats.K * t ** (1 - q), stats.B * t**ab
    return n2 / 2 - K / (1 - q) - B / ab, math.sqrt(n2), K, B


def _row_dots(a, b):
    # one dot per row of a block that stacks its u rows over its w rows,
    # summed as in energy.singular_and_coupling
    return (a * b).sum(axis=-1).reshape(2, -1).sum(axis=0)


def _descend(problems: list[ValidatedProblem], points: list[int], form: GagliardoForm,
             branches: list[Branch], directions: list[GridPair]
             ) -> tuple[list[SolutionReport | None], dict[tuple[int, Branch], NehariError]]:
    """The rows of one block descent, direction i a restart of the point
    problems[points[i]] on the branch branches[i]: the report of each
    direction, or None where it admits no branch scaling; and the first
    error that a row raised, for each (point, branch) that raised one.

    The problems may differ only where the energy reads them through each
    row's singular factors (lambda w f, mu w g). Each row keeps its own
    branch, first step, step halving, acceptance, stopping rule, iteration
    count and trajectory, as if it ran alone; a row leaves the block when it
    stops. Rows beyond BLOCK_ELEMENTS elements descend as consecutive
    blocks, which changes no row.
    """
    first = problems[0]
    q, ab = first.q, first.alpha + first.beta
    for p in problems:
        if ((p.grid, p.s, p.q, p.alpha, p.beta) != (first.grid, first.s, first.q,
                                                     first.alpha, first.beta)
                or not np.array_equal(p.b_vals, first.b_vals)):
            raise ValueError("the problems of one block may differ in lambda, mu, f and g alone")
    # the singular factors lambda w f and mu w g of each point, stacked
    factors = np.array([[p.weighted_coefficients[k] for p in problems] for k in (0, 1)])
    # a row whose projection raises ends its point on its branch, as the
    # error would end a descent of that point alone; the other points go on.
    # The error kept is the one raised first, by (iteration, halving round,
    # row), however the rows are split into blocks
    errors = []

    def scaling(st, i, when):
        try:
            return branch_root(st, q, ab, branches[i] is Branch.MINUS)
        except NehariError as exc:
            errors.append(((*when, i), (points[i], branches[i]), exc))
            return None

    size = max(1, BLOCK_ELEMENTS // (first.grid.cells - 1))
    reports: list[SolutionReport | None] = []
    for start in range(0, len(directions), size):
        rows = range(start, min(start + size, len(directions)))
        reports += _descend_block(first, form, factors[:, [points[i] for i in rows]],
                                  rows, branches, directions, scaling)
    failed: dict[tuple[int, Branch], NehariError] = {}
    for _, key, exc in sorted(errors, key=lambda e: e[0]):
        failed.setdefault(key, exc)
    return reports, failed


def _descend_block(first: ValidatedProblem, form: GagliardoForm, factors, rows: range,
                   branches: list[Branch], directions: list[GridPair],
                   scaling) -> list[SolutionReport | None]:
    """The report of each row of one block, the report of its one restart,
    or None where the row admits no branch scaling.

    Every iteration takes one gradient and one Riesz map for all active
    rows, and every round of step halving one product per component for all
    rows still trying. An accepted iterate is t * trial, so its products
    with G are t times the trial's, and each gradient costs no product of
    its own.
    """
    q, ab = first.q, first.alpha + first.beta
    u = np.array([directions[i].u.values[1:-1] for i in rows])
    v = np.array([directions[i].w.values[1:-1] for i in rows])
    stats, Gu, Gv = stats_and_products(first, form, u, v, factors)
    scalings = [scaling(st, i, (0, 0)) for i, st in zip(rows, stats)]
    live = [j for j, t in enumerate(scalings) if t is not None]

    # the block holds the live rows only; row r is rows[live[r]]
    t_used = [scalings[j] for j in live]
    t = np.array(t_used).reshape(-1, 1)
    u, v, Gu, Gv = t * u[live], t * v[live], t * Gu[live], t * Gv[live]
    factors = factors[:, live]
    trajectories = [[_record(stats[j], scalings[j], q, ab)] for j in live]
    iters = [MAX_ITERS] * len(live)
    hit_tol = [False] * len(live)

    active = np.arange(len(live))
    previous = None  # the last iteration's x, g and d of the rows still active
    for it in range(1, MAX_ITERS + 1):
        if not active.size:
            break
        x = np.concatenate([u[active], v[active]])
        g = np.concatenate(smoothed_gradient(first, u[active], v[active], Gu[active],
                                             Gv[active], EPS_SINGULAR,
                                             factors[:, active]))
        d = form.riesz(g)
        du, dv = d[:len(active)], d[len(active):]
        step = np.full(len(active), STEP)
        if it % 2 and it > 1:
            # BB2 step <s, dd>_G / <dd, dd>_G with s = x - x_prev; since
            # G d = g, the G inner products are s'dg and dd'dg
            x_prev, g_prev, d_prev = previous
            dg = g - g_prev
            sy, yy = _row_dots(x - x_prev, dg), _row_dots(d - d_prev, dg)
            with np.errstate(divide="ignore", invalid="ignore"):
                tau = sy / yy
            bb = (sy > 0) & (yy > 0) & np.isfinite(tau)
            step[bb] = np.maximum(tau[bb], STEP)
        rel_drop = [None] * len(active)
        trying = np.flatnonzero(step > _MIN_STEP)
        halving = 0
        while trying.size:
            block = active[trying]
            u_try = np.maximum(u[block] - step[trying, None] * du[trying], 0.0)
            v_try = np.maximum(v[block] - step[trying, None] * dv[trying], 0.0)
            tstats, Gu_try, Gv_try = stats_and_products(first, form, u_try, v_try,
                                                        factors[:, block])
            accepted = np.zeros(len(trying))  # the scaling of each accepted trial
            for k, (j, r) in enumerate(zip(trying.tolist(), block.tolist())):
                t_sel = scaling(tstats[k], rows[live[r]], (it, halving))
                J_cur = trajectories[r][-1][0]
                if t_sel is not None and (record := _record(tstats[k], t_sel, q, ab))[0] < J_cur:
                    rel_drop[j] = (J_cur - record[0]) / max(abs(J_cur), 1e-300)
                    accepted[k] = t_used[r] = t_sel
                    trajectories[r].append(record)
                else:
                    step[j] *= 0.5
            k = np.flatnonzero(accepted)
            t = accepted[k, None]
            u[block[k]], v[block[k]] = t * u_try[k], t * v_try[k]
            Gu[block[k]], Gv[block[k]] = t * Gu_try[k], t * Gv_try[k]
            trying = trying[(accepted == 0) & (step[trying] > _MIN_STEP)]
            halving += 1
        # a row stops when no strictly decreasing step exists at float
        # resolution, or when its relative drop falls below TOL_ENERGY
        stopped = np.array([drop is None or drop < TOL_ENERGY for drop in rel_drop])
        for r in active[stopped].tolist():
            hit_tol[r] = True
            iters[r] = it
        keep = np.tile(~stopped, 2)
        previous = x[keep], g[keep], d[keep]
        active = active[~stopped]

    # the checks and the stationarity run on the returned iterates, not on
    # scaled stats; a row's g' G^{-1} g sums its u and w halves
    stats, Gu, Gv = stats_and_products(first, form, u, v, factors)
    g = np.concatenate(smoothed_gradient(first, u, v, Gu, Gv, EPS_SINGULAR, factors))
    dual2 = _row_dots(g, form.riesz(g))
    reports: list[SolutionReport | None] = [None] * len(rows)
    for r, j in enumerate(live):
        branch = branches[rows[j]]
        _, phi1, phi2 = phi_from_stats(stats[r], q, ab, 1.0)
        norm = math.sqrt(stats[r].norm2)
        # the system asks for u, w > 0: a component that vanished at every
        # interior node (a negative parameter drives it there) is no solution
        converged = bool(hit_tol[r] and abs(phi1) <= MANIFOLD_TOL * stats[r].scale()
                         and (phi2 < 0 if branch is Branch.MINUS else phi2 > 0)
                         and u[r].max() > 0 and v[r].max() > 0)
        reports[j] = SolutionReport(
            branch=branch,
            pair=GridPair.from_arrays(first.grid, np.pad(u[r], 1), np.pad(v[r], 1)),
            J=trajectories[r][-1][0], norm=norm, phi1=phi1, phi2=phi2, t_used=t_used[r],
            iters=iters[r], converged=converged, restarts_used=1,
            stationarity=math.sqrt(max(float(dual2[r]), 0.0)) / norm,
            trajectory=trajectories[r])
    return reports


def _residual(report: SolutionReport) -> float:
    """|phi'(1)| over the scale norm^2 + |K| + |B| of the last record."""
    _, norm, K, B = report.trajectory[-1]
    return abs(report.phi1) / (norm**2 + abs(K) + abs(B))


def solve_points(problems: list[ValidatedProblem], form: GagliardoForm,
                 branches: list[Branch], opts: SolverOptions = SolverOptions()
                 ) -> dict[Branch, list[SolutionReport | NehariError]]:
    """Minimize the energy over each given manifold branch for each problem,
    best over its restarts; or, where a problem has no solution on a
    branch, the error its lone solve raises (NoAdmissibleDirection when
    every restart fails to find a direction admitting the branch scaling).

    The problems may differ in (lambda, mu) and the weights f and g alone,
    as the points of a sweep differ in (lambda, mu). Restart i of each
    problem uses the deterministic generator seeded with seed + i, and
    every restart of every problem on every branch descends as a row of one
    block, each as if alone. Ties on energy break toward the smaller
    manifold residual, then the lower iteration count, then the lower
    restart.
    """
    # the problem, branch and direction of each row
    points, row_branches, directions = [], [], []
    for branch in branches:
        for k, problem in enumerate(problems):
            for i in range(opts.restarts):
                rng = np.random.default_rng(opts.seed + i)
                try:
                    directions.append(initial_direction(problem, rng, branch))
                except DirectionSearchFailed:
                    continue
                points.append(k)
                row_branches.append(branch)
    reports, failed = (_descend(problems, points, form, row_branches, directions)
                       if directions else ([], {}))
    found: dict[tuple[int, Branch], list[SolutionReport]] = {
        (k, b): [] for b in branches for k in range(len(problems))}
    for key, report in zip(zip(points, row_branches), reports):
        if report is not None:
            found[key].append(report)
    results: dict[Branch, list[SolutionReport | NehariError]] = {b: [] for b in branches}
    for (k, branch), reached in found.items():
        if (k, branch) in failed:
            result = failed[k, branch]
        elif not reached:
            result = NoAdmissibleDirection(
                f"all {opts.restarts} restarts failed to reach branch {branch.value}; "
                "the parameter pair may be far outside the admissible region")
        else:
            result = min(reached, key=lambda r: (r.J, _residual(r), r.iters))
            result.restarts_used = len(reached)
        results[branch].append(result)
    return results


def solve_branch(problem: ValidatedProblem, form: GagliardoForm, branch: Branch,
                 opts: SolverOptions = SolverOptions()) -> SolutionReport:
    """Minimize the energy over one manifold branch, best over restarts:
    ``solve_points`` on one problem and one branch. Raises
    NoAdmissibleDirection if every restart fails to find a direction
    admitting the branch scaling.
    """
    [result] = solve_points([problem], form, [branch], opts)[branch]
    if isinstance(result, NehariError):
        raise result
    return result


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
