"""Independent checks: brute-force norm oracle, weak-form residuals,
and the discrete inequality chains.

The norm oracle is independent of the form module: a punctured midpoint
double sum on a refined grid. The residual and the inequality chains apply
the assembled form; the residual writes out the Euler-Lagrange terms
itself, and the chains evaluate each bound from raw nodal data, the pair's
statistics and the closed-form constants at the pair's own quotient. A
pair is the (2, n) array of its interior values, and the discretization is
read from the form alone; the oracle alone reads the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import pair_stats, phi_from_stats
from .errors import AllMasked, OutOfFloatRange
from .form import GagliardoForm, same_cell_integral
from .problem import GridSpec, ValidatedProblem, weight_norm
from .thresholds import compute_constants, rayleigh_quotient


def brute_force_norm(grid: GridSpec, s: float, u: np.ndarray, refine: int) -> float:
    """Squared energy norm by punctured midpoint quadrature on a refined grid.

    The grid is split into refine-times finer cells; the double sum runs
    over midpoints of distinct fine cells, each same-cell contribution is
    added through the exact closed form with the local slope, and the
    exterior term uses the midpoint rule (the midpoints never touch the
    boundary, and the nodal function vanishes there).
    """
    if refine < 2:
        raise ValueError(f"refine must be at least 2, got {refine}")
    u = np.asarray(u, dtype=float)
    N = grid.cells
    h = grid.h
    M = N * refine
    hf = (grid.right - grid.left) / M
    xf = np.linspace(grid.left, grid.right, M + 1)
    cf = 0.5 * (xf[:-1] + xf[1:])
    uc = np.interp(cf, grid.nodes(), u)
    fine_slopes = np.repeat(np.diff(u) / h, refine)

    dist = np.abs(cf[:, None] - cf[None, :])
    np.fill_diagonal(dist, 1.0)
    duv = uc[:, None] - uc[None, :]
    contrib = hf * hf * duv**2 * dist ** (-1 - 2 * s)
    np.fill_diagonal(contrib, 0.0)
    total = float(contrib.sum())
    total += same_cell_integral(hf, s) * float(np.sum(fine_slopes**2))
    kap = ((grid.right - cf) ** (-2 * s) + (cf - grid.left) ** (-2 * s)) / (2 * s)
    total += 2 * hf * float(np.sum(uc**2 * kap))
    return total


@dataclass(frozen=True)
class ResidualReport:
    res_u: float
    res_w: float
    masked_fraction: float
    delta: float


def weak_residual(problem: ValidatedProblem, form: GagliardoForm,
                  pair: np.ndarray, delta: float) -> ResidualReport:
    """Nodewise stationarity residual of a nonnegative pair.

    Compares the nonlocal operator applied to each component against the
    quadrature-weighted right-hand side, over interior nodes where both
    components exceed delta (the singular factor is untestable where a
    component vanishes). Residuals are normalized by the largest term
    magnitude over the unmasked nodes. A term that leaves the float range
    raises OutOfFloatRange.

    The Euler-Lagrange terms are written out here on purpose rather than
    taken from ``energy.smoothed_gradient``: the residual is an independent
    check of the solver's gradient. A test pins the two copies together
    (on the unmasked nodes the residual is that gradient with eps = delta).
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    q, al, be = problem.q, problem.alpha, problem.beta
    ab = al + be
    u, v = pair

    mask = (u > delta) & (v > delta)
    masked_fraction = 1.0 - float(mask.mean())
    if not np.any(mask):
        raise AllMasked("every interior node is below delta; nothing to test")

    lam_f, mu_g, b = (c[mask] for c in problem.weighted_coefficients)
    um = u[mask]
    vm = v[mask]
    # a term beyond the float range comes out inf or NaN, and so does its
    # residual, which is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        Gu = form.apply(u)
        Gv = form.apply(v)
        res_u = Gu[mask] - lam_f * um ** (-q) - (al / ab) * b * um ** (al - 1) * vm**be
        res_v = Gv[mask] - mu_g * vm ** (-q) - (be / ab) * b * um**al * vm ** (be - 1)
    if not (np.all(np.isfinite(res_u)) and np.all(np.isfinite(res_v))):
        raise OutOfFloatRange("a term of the weak residual leaves the float range: the "
                              "solution's values lie too near either end of it")

    def rel_residual(lhs, res):
        # lhs - res is the right-hand side
        mag = float(np.max(np.maximum(np.abs(lhs), np.abs(lhs - res))))
        if mag == 0.0:
            return 0.0
        return float(np.max(np.abs(res))) / mag

    return ResidualReport(res_u=rel_residual(Gu[mask], res_u),
                          res_w=rel_residual(Gv[mask], res_v),
                          masked_fraction=masked_fraction, delta=float(delta))


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    lhs: float
    rhs: float


@dataclass(frozen=True)
class CheckList:
    """The inequality chains of one pair, with the pair's energy J and the
    embedding constant S they were checked at."""

    checks: tuple[CheckResult, ...]
    J: float
    S: float

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def as_dict(self) -> dict:
        return {"all_ok": self.all_ok,
                "checks": [{"name": c.name, "ok": c.ok, "lhs": c.lhs, "rhs": c.rhs}
                           for c in self.checks]}


# manifold detection band for the conditional energy bound
_MANIFOLD_BAND = 1e-6
# slack for rounding in the <=-comparisons (relative)
_SLACK = 1e-12


def inequality_suite(problem: ValidatedProblem, form: GagliardoForm,
                     pair: np.ndarray) -> CheckList:
    """Evaluate the discrete inequality chains on one pair, at its own S.

    The chains hold for any S up to the Rayleigh quotient of each nonzero
    component, and a smaller S only loosens them, so they are checked at
    the smaller quotient, with the constants report (the weight norm of f,
    Lambda, b_sup) at that S. A component that vanishes at every interior
    node has no quotient and bounds nothing; raises AllMasked if both do.
    The energy lower bound is only asserted for pairs on the manifold;
    off-manifold pairs record it as trivially satisfied.
    """
    q, ab = problem.q, problem.alpha + problem.beta
    st = pair_stats(problem, form, pair)
    norm = np.sqrt(st.norm2)
    quotients = [rayleigh_quotient(form, ab, comp) for comp in pair if np.any(comp)]
    if not quotients:
        raise AllMasked("both components vanish at every interior node; no quotient bounds S")
    constants = compute_constants(problem, min(quotients))
    S, f_norm, Lambda = constants.S, constants.f_norm, constants.Lambda

    checks = []

    def add(name, ok, lhs, rhs):
        checks.append(CheckResult(name, bool(ok), float(lhs), float(rhs)))

    # singular integral against the aggregated parameter bound
    rhs_e2 = Lambda ** ((1 + q) / 2) * (norm / np.sqrt(S)) ** (1 - q)
    add("singular_term_bound", st.K <= rhs_e2 * (1 + _SLACK) + _SLACK, st.K, rhs_e2)

    # coupling integral against the sup-weight embedding bound
    rhs_e3 = constants.b_sup * (norm / np.sqrt(S)) ** ab
    add("coupling_term_bound", st.B <= rhs_e3 * (1 + _SLACK) + _SLACK, st.B, rhs_e3)

    # energy lower bound on the manifold
    J, phi1, _ = phi_from_stats(st, q, ab, 1.0)
    if abs(phi1) <= _MANIFOLD_BAND * max(st.scale(), 1e-300):
        bound = ((0.5 - 1 / ab) * st.norm2
                 - (1 / (1 - q) - 1 / ab) * Lambda ** ((1 + q) / 2)
                 * (norm / np.sqrt(S)) ** (1 - q))
        add("manifold_energy_bound", J >= bound - _SLACK * max(abs(bound), 1.0),
            J, bound)
    else:
        add("manifold_energy_bound", True, J, -np.inf)

    # exact discrete Hoelder step for the u component against f, its sums
    # over the written nodal values, where f is sampled; u vanishes at the
    # ends, so their weights do not count
    u, w = form.written_values(pair[0]), form.written_values(form.weights)
    lhs_h = float(np.sum(w * np.abs(problem.f_vals) * np.abs(u) ** (1 - q)))
    rhs_h = f_norm * weight_norm(ab, u, w) ** (1 - q)
    add("discrete_hoelder", lhs_h <= rhs_h * (1 + _SLACK) + _SLACK, lhs_h, rhs_h)

    return CheckList(tuple(checks), J, S)
