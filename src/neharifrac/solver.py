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
keeps a small BB step from crawling. The gradient floors u^{-q} at
``EPS_SINGULAR`` times the row's peak max(u, w): a bump start vanishes on
most nodes, where an absolute floor would make the first gradient so
large that the first step halves 8 to 11 times.

Every accepted iterate sits on its branch, so branch invariants are
checkable at each step. Seeded restarts guard against bad initial
directions; the best energy wins. Restarts of one point and branch that
meet finish as one: after each iteration, a row within ``JOIN_TOL`` in the
G norm of a lower restart of its point and branch stops and reports that
restart's result (the clustering rule of multi-level single linkage,
Rinnooy Kan & Timmer, Math. Program. 39, 1987), so every restart still
reports the critical point it reached. One sampler call per branch
draws the directions of every restart of every point
(``sample_directions``): restart i's generator, built afresh for each
branch and seeded with seed + i, draws once per attempt, and that draw
serves every point still waiting on restart i, so each point gets the
directions it would get alone, on either branch whatever the other. The
restarts are the rows of one block descent, held as one array of shape
(2, rows, n) with the u rows in X[0] and the w rows in X[1]: each
iteration applies the gradient and the Riesz map to all of them at once,
while each row keeps its own step, acceptance and stopping rule, and a
row that stops or joins leaves the block. Rows of different points or
branches never affect each other, so a point ends as it would in a
descent of its own. A row's trial statistics stay floats, and each row
comes out as a ``SolutionReport`` holding its returned iterate as
interior arrays, with the stationarity there (a joined row, the report of
the restart it joined); the row that wins its point and branch is the
report returned. The rows may come from several points (lambda, mu) of a
sweep: the points share the grid, s, q, alpha, beta and b, and lambda and
mu enter the energy only as per-row factors of the singular integrals.
The descent reads the discretization through the form alone: its
products, its Riesz map and, to sample directions, its nodes and interval
ends. The two branches differ only in the root a row's
projection takes and in the part of the manifold its verdict asks for
(``fiber.label``: N+ or N-), so each row carries its own branch, and one
block descends every restart of every point on every branch
(``solve_points``). Rows beyond ``BLOCK_ELEMENTS`` elements descend as
consecutive blocks, split only where a point's restarts on a branch end,
which bounds the memory and changes no row.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .energy import (
    PairStats,
    phi_from_stats,
    row_dots,
    scaled_record,
    singular_and_coupling,
    singular_factors,
    smoothed_gradient,
    stats_and_products,
)
from .errors import (
    DirectionSearchFailed,
    NehariError,
    NoAdmissibleDirection,
    NotConvergedInput,
)
from .fiber import MembershipLabel, label, root
from .form import GagliardoForm
from .problem import ValidatedProblem
from .thresholds import JOIN_TOL, ConstantsReport

_MIN_STEP = 1e-16
# the descent's fixed settings: the iteration cap; the base step (iteration
# 1, every even iteration, and the floor of the BB step); the relative energy
# drop below which a row stops; the stationarity above which a stopped row
# is not converged; and the floor of u^{-q} inside gradients, relative to
# the row's peak max(u, w). A row joins a lower restart of its point and
# branch within the relative G-distance thresholds.JOIN_TOL
MAX_ITERS = 2000
STEP = 0.5
TOL_ENERGY = 1e-10
TOL_STATIONARITY = 1e-3
EPS_SINGULAR = 1e-4
# rows x interior nodes above this many elements descend as consecutive
# blocks of at most this many, which bounds the block's memory; the README
# gives the measurement behind the value
BLOCK_ELEMENTS = 2**18


class Branch(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class SolverOptions:
    """What a caller varies: on each branch, restart i draws its direction
    from a generator freshly seeded with seed + i. The descent's other
    settings are the module constants MAX_ITERS, STEP, TOL_ENERGY, JOIN_TOL
    (restarts of one point and branch within it of each other finish as the
    lower one; those of different points stay independent),
    TOL_STATIONARITY and EPS_SINGULAR (relative to each row's peak
    max(u, w)). A row is converged when it stopped before MAX_ITERS, both
    its components are positive somewhere, it lies in its branch's band of
    ``fiber.label`` (N+ or N-), and its stationarity is at most
    TOL_STATIONARITY."""

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
    """The outcome of one restart, a row of a block descent: its returned
    iterate as the interior nodal arrays u and w, and what the descent
    knows of it. ``solve_points`` returns the row that wins its point and
    branch, with restarts_used set."""

    branch: Branch
    u: np.ndarray
    w: np.ndarray
    J: float
    norm: float
    phi1: float
    phi2: float
    t_used: float
    iters: int
    converged: bool
    # dual norm sqrt(g' G^{-1} g) of the smoothed gradient at the returned
    # iterate, over the pair norm; zero exactly at a critical point
    stationarity: float
    # one (J, norm, K, B) record per accepted iterate, in order
    trajectory: list[tuple[float, float, float, float]]
    # the restarts of its point that reached the branch, and those of them
    # that joined another (see ``_descend_block``), set on the winner
    restarts_used: int = 0
    restarts_joined: int = 0


@dataclass(frozen=True)
class GapReport:
    norm_plus: float
    norm_minus: float
    A0: float
    A_lm: float
    ordering_ok: bool


def _check_shared(problems: list[ValidatedProblem]) -> None:
    first = problems[0]
    for p in problems:
        if ((p.grid, p.s, p.q, p.alpha, p.beta) != (first.grid, first.s, first.q,
                                                     first.alpha, first.beta)
                or not np.array_equal(p.b_vals, first.b_vals)):
            raise ValueError("the problems of one block may differ in lambda, mu, f and g alone")


def sample_directions(problems: list[ValidatedProblem], form: GagliardoForm,
                      rngs: list[np.random.Generator],
                      branch: Branch = Branch.PLUS) -> tuple[np.ndarray, np.ndarray]:
    """One random nonnegative direction pair with positive singular integral
    per problem and generator: the block X of interior nodal values, shape
    (2, rows, n) with row k * len(rngs) + i for problem k and generator i,
    and whether each row found its direction within 1000 attempts (a row
    that did not stays zero). The problems may differ in lambda, mu, f and
    g alone.

    Both components share one smooth bump profile (a symmetric seed), so a
    fully symmetric problem keeps u = w along the whole descent. For the
    local-max branch the bump is centered where the coupling weight is
    positive so the coupling integral starts positive. Each attempt draws a
    center, a width and an amplitude once from each generator that some
    problem still waits on, and that draw serves every problem whose row for
    the generator is pending: the rows of one generator advance attempt by
    attempt together, so a row's draws, and its direction, are those it
    would get alone, whatever the other rows are. The draws start from the
    generators' state as passed: the solver passes, for each branch, fresh
    generators seeded with seed + i. A component tied to a negative
    parameter is damped, per row, until the singular integral comes out
    positive; each damping round takes one ``singular_and_coupling`` call
    for the rows still damping.
    """
    first = problems[0]
    x = form.nodes  # the boundary values stay zero
    width_scale = form.right - form.left
    # b is sampled at the written nodes, the ends and the interior nodes
    b_peak = np.concatenate(([form.left], x, [form.right]))[np.argmax(first.b_vals)]
    lo, hi = form.left + 0.1 * width_scale, form.right - 0.1 * width_scale
    count = len(rngs)
    factors = singular_factors(problems)
    # the side each row damps: u where lambda < mu, else w
    damp_u = np.repeat([p.lam < p.mu for p in problems], count)
    X = np.zeros((2, len(problems) * count, x.size))
    found = np.zeros(X.shape[1], dtype=bool)
    pending = np.arange(X.shape[1])
    for _ in range(1000):
        if not pending.size:
            break
        drawing, which = np.unique(pending % count, return_inverse=True)
        draws = []
        for i in drawing.tolist():
            rng = rngs[i]
            if branch is Branch.MINUS:
                center = b_peak + 0.1 * width_scale * rng.standard_normal()
            else:
                center = rng.uniform(lo, hi)
            draws.append((center, rng.uniform(0.08, 0.25) * width_scale, rng.uniform(0.5, 1.5)))
        center, width, amp = np.array(draws).T[:, :, None]
        prof = amp * np.maximum(0.0, 1 - ((x - center) / width) ** 2) ** 2
        # each pending row takes its generator's profile, if that has a bump
        bumped = (prof > 0).any(axis=1)[which]
        rows = pending[bumped]
        P = np.tile(prof[which[bumped]], (2, 1, 1))  # the rows' u and w
        admitted = np.zeros(len(rows), dtype=bool)
        B = np.zeros(len(rows))
        damping = np.arange(len(rows))
        for _damp in range(8):
            K, B[damping] = singular_and_coupling(first, P[:, damping],
                                                  factors[:, rows[damping] // count])
            positive = K > 0
            admitted[damping[positive]] = True
            damping = damping[~positive]
            if not damping.size:
                break
            P[np.where(damp_u[rows[damping]], 0, 1), damping] *= 0.25
        if branch is Branch.MINUS:
            admitted &= B > 0
        X[:, rows[admitted]] = P[:, admitted]
        found[rows[admitted]] = True
        pending = pending[~found[pending]]
    return X, found


def initial_direction(problem: ValidatedProblem, form: GagliardoForm, rng: np.random.Generator,
                      branch: Branch = Branch.PLUS) -> np.ndarray:
    """Random nonnegative direction pair with positive singular integral,
    its (2, n) array of interior values: ``sample_directions`` with the one
    problem and the one generator rng, which it draws from as the solver
    draws from each restart's generator. Raises DirectionSearchFailed when
    1000 attempts find none."""
    X, found = sample_directions([problem], form, [rng], branch)
    if not found[0]:
        raise DirectionSearchFailed(
            f"no admissible initial direction for branch {branch.value} in 1000 samples")
    return X[:, 0]


def _singular_floor(X):
    # the floor of u^{-q} in each row's gradient, a column: EPS_SINGULAR
    # times the row's peak over both components
    return EPS_SINGULAR * X.max(axis=(0, 2))[:, None]


def _group_pairs(group: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # every ordered pair (a, b), a != b, of rows with one group id, where
    # each group's rows are consecutive
    _, start, size = np.unique(group, return_index=True, return_counts=True)
    offset = np.arange(size.max(initial=0))
    b = np.repeat(start, size)[:, None] + offset
    valid = (offset < np.repeat(size, size)[:, None]) & (b != np.arange(group.size)[:, None])
    return np.nonzero(valid)[0], b[valid]


def _meetings(records: np.ndarray, pa: np.ndarray, pb: np.ndarray, X: np.ndarray,
              GX: np.ndarray) -> list[tuple[int, int]]:
    """The pairs (a, b) among the same-group pairs (pa, pb) of a block's
    rows where a meets b, in order of (a, J of b, b): b is lower (less
    energy, ties to the lower row), their energies differ by at most
    JOIN_TOL (norm2 + |K| + |B|) of b, and ||x_a - x_b||_G <= JOIN_TOL
    ||x_b||_G. records holds each row's (J, norm, |K| + |B|) from its last
    trajectory record; only the pairs the energy test keeps take the
    distance, from the X and G X in hand, so early iterations do no pair
    work."""
    J = records[:, 0]
    # a record beyond the float range compares false
    with np.errstate(over="ignore", invalid="ignore"):
        gap = J[pa] - J[pb]
        scale = records[pb, 1] ** 2 + records[pb, 2]
        near = ((gap > 0) | ((gap == 0) & (pb < pa))) & (gap <= JOIN_TOL * scale)
        if not near.any():
            return []
        a, b = pa[near], pb[near]
        close = (row_dots(X[:, a] - X[:, b], GX[:, a] - GX[:, b])
                 <= JOIN_TOL**2 * records[b, 1] ** 2)
    a, b = a[close], b[close]
    order = np.lexsort((b, J[b], a))
    return list(zip(a[order].tolist(), b[order].tolist()))


def _descend(problems: list[ValidatedProblem], points: list[int], form: GagliardoForm,
             branches: list[Branch], X: np.ndarray
             ) -> tuple[list[SolutionReport | None], dict[tuple[int, Branch], NehariError]]:
    """The rows of one block descent, row i of the block X of interior nodal
    values, shape (2, rows, n), the direction of a restart of the point
    problems[points[i]] on the branch branches[i]: the report of each row,
    or None where it admits no branch scaling; and the first error that a
    row raised, for each (point, branch) that raised one.

    The problems may differ only where the energy reads them through each
    row's singular factors (lambda w f, mu w g). Consecutive rows of one
    point and branch are a group, the restarts that may meet: a row that
    comes within JOIN_TOL of a lower row of its group finishes as that row
    (see ``_descend_block``). Rows of different groups never affect each
    other: each keeps its own branch, first step, step halving, acceptance,
    stopping rule, iteration count and trajectory, as if its group ran
    alone, and a row leaves the block when it stops. Groups beyond
    BLOCK_ELEMENTS elements descend as consecutive blocks, split only where
    a group ends (a larger group takes a block of its own), which changes
    no row, nor the first error of a group, which its block records first.
    """
    first = problems[0]
    factors = singular_factors(problems)
    # a row whose projection raises ends its point on its branch, as the
    # error would end a descent of that point alone; the other points go on
    failed: dict[tuple[int, Branch], NehariError] = {}
    size = max(1, BLOCK_ELEMENTS // X.shape[-1])
    keys = list(zip(points, branches))
    group = np.cumsum([i == 0 or keys[i] != keys[i - 1] for i in range(len(keys))])
    # each block takes whole groups while they fit, and at least one
    starts, placed = [0], 0
    for end in np.flatnonzero(np.diff(group, append=-1)).tolist():
        if end + 1 - starts[-1] > size and placed > starts[-1]:
            starts.append(placed)
        placed = end + 1
    results: list[SolutionReport | None] = []
    for start, stop in zip(starts, starts[1:] + [len(keys)]):
        results += _descend_block(first, form, factors[:, points[start:stop]], keys[start:stop],
                                  group[start:stop], X[:, start:stop], failed)
    return results, failed


def _descend_block(first: ValidatedProblem, form: GagliardoForm, factors,
                   keys: list[tuple[int, Branch]], group: np.ndarray, X: np.ndarray,
                   failed: dict) -> list[SolutionReport | None]:
    """The report of each row of one block, or None where the row admits
    no branch scaling; X holds the block's directions and factors their
    singular factors, both of shape (2, rows, n), keys each row's (point,
    branch), and group each row's group id, equal on consecutive rows
    alone; a row is its place in the block throughout. A projection that
    raises counts as a rejected trial, and failed keeps the first error of
    each key: the rows project in order of (iteration, halving round, row).

    Restarts that meet finish as one: after each iteration's acceptance, a
    row that meets lower rows of its group (``_meetings``) stops and joins
    the one of least (energy, row). A joined row's report is the report of
    the row it joined, followed to the end of the chain: the same object.

    The rows still descending are one C-ordered block X (see ``energy``),
    X[0] their u and X[1] their w, with G X beside it; rows are selected on
    axis 1, and a row's step and scaling are a column that multiplies both
    components. When rows stop, the block shrinks by compaction, and their
    iterates wait in the array the results are read from. Every iteration
    takes one gradient and one Riesz map over X, and every round of step
    halving one product with G per component for the rows still trying.
    When every row tries, the trial is the clipped step of the whole block,
    and when every row is accepted, the block becomes t times the trial,
    with no scatter. An accepted iterate is t * trial, so its products with
    G are t times the trial's, and each gradient costs no product of its
    own. A trial's statistics stay three floats from the kernel to the
    projection, the acceptance test and the trajectory record, which run in
    the loop over its rows. A row's energy is its last trajectory record's,
    which its acceptance also writes to the active rows' join records, and
    it stopped if it left the block: the rows still active after
    MAX_ITERS iterations did not. A compaction keeps the join pairs of the
    rows it keeps, renumbered. Each report copies its row of the
    returned iterates, so that a kept report does not keep the block.
    """
    q, ab = first.q, first.alpha + first.beta
    m = len(keys)
    n2, K, B, GX = stats_and_products(first, form, X, factors)
    # each row's branch flag, scaling, trajectory (None where it reaches no
    # branch) and iteration count; its energy is its last record's J
    upper = [branch is Branch.MINUS for _, branch in keys]
    t_used, trajectories = [None] * m, [None] * m
    iters = [MAX_ITERS] * m
    for r in range(m):
        try:
            t = root(n2[r], K[r], B[r], q, ab, upper[r])
        except NehariError as exc:
            failed.setdefault(keys[r], exc)
            continue
        if t is not None:
            t_used[r] = t
            trajectories[r] = [scaled_record(n2[r], K[r], B[r], t, q, ab)]
    active = [r for r in range(m) if trajectories[r] is not None]
    done = np.empty_like(X)  # each row's returned iterate, laid out as X
    t = np.array([t_used[r] for r in active]).reshape(-1, 1)
    X, GX, F = t * X[:, active], t * GX[:, active], factors[:, active]

    joins: dict[int, int] = {}  # each joined row's partner
    # the block positions of every pair of active rows of one group, and
    # each active row's last record as (J, norm, |K| + |B|)
    pa, pb = _group_pairs(group[active])
    records = np.array([(rec[0], rec[1], abs(rec[2]) + abs(rec[3]))
                        for rec in (trajectories[r][-1] for r in active)])
    previous = None  # the last iteration's x, g and d of the rows still active
    for it in range(1, MAX_ITERS + 1):
        if not active:
            break
        A = len(active)
        x = X
        g = smoothed_gradient(first, X, GX, _singular_floor(X), F)
        d = form.riesz(g)
        step = np.full(A, STEP)
        if it % 2 and it > 1:
            # BB2 step <s, dd>_G / <dd, dd>_G with s = x - x_prev; since
            # G d = g, the G inner products are s'dg and dd'dg
            x_prev, g_prev, d_prev = previous
            dg = g - g_prev
            sy, yy = row_dots(x - x_prev, dg), row_dots(d - d_prev, dg)
            with np.errstate(divide="ignore", invalid="ignore"):
                tau = sy / yy
            bb = (sy > 0) & (yy > 0) & np.isfinite(tau)
            step[bb] = np.maximum(tau[bb], STEP)
        rel_drop = [None] * A
        trying = np.flatnonzero(step > _MIN_STEP)
        while trying.size:
            if trying.size == A:
                X_try = np.maximum(X - step[:, None] * d, 0.0)
                F_try = F
            else:
                X_try = np.maximum(X[:, trying] - step[trying, None] * d[:, trying], 0.0)
                F_try = F[:, trying]
            n2, K, B, GX_try = stats_and_products(first, form, X_try, F_try)
            took, took_t = [], []  # the accepted trials and their scalings
            for k, j in enumerate(trying.tolist()):
                r = active[j]
                try:
                    t = root(n2[k], K[k], B[k], q, ab, upper[r])
                except NehariError as exc:
                    failed.setdefault(keys[r], exc)
                    continue
                if t is None:
                    continue
                record = scaled_record(n2[k], K[k], B[k], t, q, ab)
                J, last = record[0], trajectories[r][-1][0]
                if J < last:
                    rel_drop[j] = (last - J) / max(abs(last), 1e-300)
                    t_used[r] = t
                    trajectories[r].append(record)
                    records[j] = J, record[1], abs(record[2]) + abs(record[3])
                    took.append(k)
                    took_t.append(t)
            if took:
                t = np.array(took_t).reshape(-1, 1)
                if len(took) == A:
                    X, GX = t * X_try, t * GX_try
                    break
                if X is x:
                    X = X.copy()  # x stays this iteration's iterate
                into = trying[took]
                X[:, into], GX[:, into] = t * X_try[:, took], t * GX_try[:, took]
                if len(took) == trying.size:
                    break
            rejected = np.ones(trying.size, dtype=bool)
            rejected[took] = False
            trying = trying[rejected]
            step[trying] *= 0.5
            trying = trying[step[trying] > _MIN_STEP]
        # a row stops when no strictly decreasing step exists at float
        # resolution, when its relative drop falls below TOL_ENERGY, or when
        # it joins a lower row of its group
        stopped = [drop is None or drop < TOL_ENERGY for drop in rel_drop]
        if pa.size:
            for j, k in _meetings(records, pa, pb, X, GX):
                # a row joins the first partner it meets
                joins.setdefault(active[j], active[k])
                stopped[j] = True
        if not any(stopped):
            previous = x, g, d
            continue
        gone = [j for j in range(A) if stopped[j]]
        out = [active[j] for j in gone]
        for r in out:
            iters[r] = it
        done[:, out] = X[:, gone]
        keep = [j for j in range(A) if not stopped[j]]
        X, GX, F, records = X[:, keep], GX[:, keep], F[:, keep], records[keep]
        previous = x[:, keep], g[:, keep], d[:, keep]
        active = [active[j] for j in keep]
        if pa.size:
            # the pairs of kept rows, renumbered, in the order they had
            place = np.full(A, -1)
            place[keep] = np.arange(len(keep))
            pa, pb = place[pa], place[pb]
            kept = (pa >= 0) & (pb >= 0)
            pa, pb = pa[kept], pb[kept]
    # the rows still active ran out of iterations without stopping
    done[:, active] = X

    # the checks and the stationarity run on the returned iterates of the
    # rows that reached their branch and joined none, not on scaled stats;
    # a row's g' G^{-1} g sums its u and w rows
    own = [r for r in range(m) if trajectories[r] is not None and r not in joins]
    done, factors = done[:, own], factors[:, own]
    n2, K, B, GX = stats_and_products(first, form, done, factors)
    g = smoothed_gradient(first, done, GX, _singular_floor(done), factors)
    dual2 = row_dots(g, form.riesz(g)).tolist()
    # the system asks for u, w > 0: a component that vanished at every
    # interior node (a negative parameter drives it there) is no solution
    positive = (done.max(axis=-1) > 0).all(axis=0).tolist()
    results: list[SolutionReport | None] = [None] * m
    for i, r in enumerate(own):
        stats = PairStats(n2[i], K[i], B[i])
        _, phi1, phi2 = phi_from_stats(stats, q, ab, 1.0)
        norm = math.sqrt(n2[i])
        stationarity = math.sqrt(max(dual2[i], 0.0)) / norm
        # a row stopped without a decreasing step at the edge of its branch
        # lies in its band yet is no critical point: it must be stationary
        converged = bool(r not in active and positive[i] and label(phi1, phi2, stats.scale())
                         is (MembershipLabel.N_MINUS if upper[r] else MembershipLabel.N_PLUS)
                         and stationarity <= TOL_STATIONARITY)
        results[r] = SolutionReport(
            branch=keys[r][1], u=done[0, i].copy(), w=done[1, i].copy(),
            J=trajectories[r][-1][0], norm=norm, phi1=phi1, phi2=phi2, t_used=t_used[r],
            iters=iters[r], converged=converged, trajectory=trajectories[r],
            stationarity=stationarity)
    for r, partner in joins.items():
        while partner in joins:
            partner = joins[partner]
        results[r] = results[partner]
    return results


def solve_points(problems: list[ValidatedProblem], form: GagliardoForm,
                 branches: list[Branch], opts: SolverOptions = SolverOptions()
                 ) -> dict[Branch, list[SolutionReport | NehariError]]:
    """Minimize the energy over each given manifold branch for each problem,
    best over its restarts; or, where a problem has no solution on a
    branch, the error its lone solve raises: the first error a restart
    raised, even when another restart reached the branch, else
    NoAdmissibleDirection when no restart reached it. So at the edge of the
    float range the outcome can turn on the seed and the restart count.

    The problems may differ in (lambda, mu) and the weights f and g alone,
    as the points of a sweep differ in (lambda, mu). On each branch, restart
    i of each problem draws from a generator freshly seeded with seed + i, and
    every restart of every problem on every branch descends as a row of one
    block, each problem as if alone; a restart that meets a lower restart of
    its problem and branch reports that restart's result, the same object,
    which restarts_used counts as it counts every restart that reached the
    branch, and restarts_joined counts apart. The winner is the restart of least energy; ties
    on energy break toward the smaller stationarity, then the lower
    iteration count, then the lower restart. The winner's converged verdict
    is its own (see ``SolverOptions``): a winner that is not stationary is
    reported as not converged, not replaced. No problems or no branches
    give no reports.
    """
    if not problems or not branches:
        return {b: [] for b in branches}
    _check_shared(problems)
    # the point, branch and direction of each row; each branch draws from
    # freshly seeded generators, one per restart, one draw per attempt
    # serving every point
    point_of_row = np.repeat(np.arange(len(problems)), opts.restarts)
    points, row_branches, blocks = [], [], []
    for branch in branches:
        rngs = [np.random.default_rng(opts.seed + i) for i in range(opts.restarts)]
        X, found = sample_directions(problems, form, rngs, branch)
        blocks.append(X[:, found])
        points += point_of_row[found].tolist()
        row_branches += [branch] * int(found.sum())
    rows, failed = _descend(problems, points, form, row_branches, np.concatenate(blocks, axis=1))
    reached: dict[tuple[int, Branch], list[SolutionReport]] = {
        (k, b): [] for b in branches for k in range(len(problems))}
    for key, row in zip(zip(points, row_branches), rows):
        if row is not None:
            reached[key].append(row)
    results: dict[Branch, list[SolutionReport | NehariError]] = {b: [] for b in branches}
    for (k, branch), candidates in reached.items():
        if (k, branch) in failed:
            result = failed[k, branch]
        elif not candidates:
            result = NoAdmissibleDirection(
                f"all {opts.restarts} restarts failed to reach branch {branch.value}; "
                "the parameter pair may be far outside the admissible region")
        else:
            result = min(candidates, key=lambda r: (r.J, r.stationarity, r.iters))
            result.restarts_used = len(candidates)
            result.restarts_joined = len(candidates) - len({id(r) for r in candidates})
        results[branch].append(result)
    return results


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
