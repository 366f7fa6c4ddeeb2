"""Explicit constants: admissibility region, gap radii, energy bounds.

Everything here is closed-form arithmetic in the exponents except the
Sobolev-type embedding constant S, which is estimated as the minimum of
the discrete Rayleigh-type quotient

    Q(u) = u' G u / (sum_i w_i |u_i|^r)^{2/r},        r = alpha + beta,

over the nodal functions: the candidates bound it by their quotients, and
one inverse iteration of two starts fixed by the grid refines it.
The estimate is an upper bound for the discrete infimum and never exceeds
the quotient of any supplied candidate, which the inequality checks use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import (
    EmptyCandidateSet,
    NonpositiveBSup,
    NonpositiveLambda,
    NonpositiveS,
)
from .form import GagliardoForm
from .problem import GridFunction, GridSpec, ValidatedProblem

# the inverse iteration stops once the quotient drops by less than this,
# relatively, in one step
S_RTOL = 1e-13
MAX_INVERSE_ITERATIONS = 500
# residual reduction of each warm-started Riesz solve on the matrix-free
# path; tighter solves gave the same S to 1e-13 and the same iteration
# counts at N = 512..2048, s = 0.2..0.49, r = 2.2..10
RIESZ_RTOL = 1e-2


def q_star(alpha: float, beta: float, q: float) -> float:
    """Conjugate integrability exponent (alpha+beta)/(alpha+beta-1+q)."""
    ab = alpha + beta
    return ab / (ab - 1 + q)


def weight_norm(r: float, values: np.ndarray, weights: np.ndarray) -> float:
    """Discrete L^r norm (sum w_i |v_i|^r)^{1/r} with quadrature weights."""
    if r < 1:
        raise ValueError(f"weight_norm requires r >= 1, got {r}")
    total = float(np.sum(weights * np.abs(values) ** r))
    return total ** (1.0 / r)


def lambda_aggregate(lam: float, mu: float, f_norm: float, g_norm: float,
                     q: float) -> float:
    """Aggregated parameter size (|lam| f_norm)^{2/(1+q)} + (|mu| g_norm)^{2/(1+q)}."""
    e = 2.0 / (1.0 + q)
    return (abs(lam) * f_norm) ** e + (abs(mu) * g_norm) ** e


def threshold_C(alpha: float, beta: float, q: float, S: float, b_sup: float) -> float:
    """Admissibility threshold: the Lambda value below which the fiber
    maximum stays positive for every direction."""
    if S <= 0:
        raise NonpositiveS(f"threshold needs S > 0, got {S}")
    if b_sup <= 0:
        raise NonpositiveBSup(f"threshold needs b_sup > 0, got {b_sup}")
    ab = alpha + beta
    return (((1 + q) / (ab - 1 + q)) ** (2 / (ab - 2))
            * ((ab - 2) / (ab - 1 + q)) ** (2 / (1 + q))
            * (1.0 / b_sup) ** (2 / (ab - 2))
            * S ** (2 * (ab - 1 + q) / ((1 + q) * (ab - 2))))


def gap_radii(alpha: float, beta: float, q: float, S: float, b_sup: float,
              Lambda: float) -> tuple[float, float]:
    """Norm radii separating the two manifold branches.

    Local-max branch members have norm above A0; local-min branch members
    have norm below A_lm; A_lm < A0 exactly when Lambda < threshold_C.
    """
    if S <= 0:
        raise NonpositiveS(f"gap radii need S > 0, got {S}")
    if b_sup <= 0:
        raise NonpositiveBSup(f"gap radii need b_sup > 0, got {b_sup}")
    ab = alpha + beta
    A0 = ((1 + q) / ((ab - 1 + q) * b_sup) * S ** (ab / 2)) ** (1 / (ab - 2))
    A_lm = ((ab - 1 + q) / (ab - 2) * S ** (-(1 - q) / 2)) ** (1 / (1 + q)) * math.sqrt(Lambda)
    return A0, A_lm


def E_coefficient(alpha: float, beta: float, q: float, S: float, b_sup: float,
                  Lambda: float) -> float:
    """Coefficient E with sign(E) = sign(threshold_C - Lambda).

    psi(t_max) >= E * norm^{alpha+beta} for admissible directions, so
    E > 0 certifies the two-root fiber structure.
    """
    if S <= 0:
        raise NonpositiveS(f"E needs S > 0, got {S}")
    if Lambda <= 0:
        raise NonpositiveLambda(f"E needs Lambda > 0, got {Lambda}")
    ab = alpha + beta
    e = (ab - 2) / (1 + q)
    return ((1 + q) / (ab - 1 + q) * ((ab - 2) / (ab - 1 + q)) ** e
            * (S ** ((1 - q) / 2) / Lambda ** ((1 + q) / 2)) ** e
            - b_sup * S ** (-ab / 2))


def energy_lower_bound(alpha: float, beta: float, q: float, S: float,
                       Lambda: float) -> float:
    """Reported lower bound for the energy on the manifold (<= 0)."""
    if S <= 0:
        raise NonpositiveS(f"lower bound needs S > 0, got {S}")
    ab = alpha + beta
    return (-(1 + q) * (ab - 2) / ((1 - q) * ab)
            * ((ab - 1 + q) / (2 * (ab - 2))) ** (2 / (1 + q))
            * Lambda * S ** (-(1 - q) / (1 + q)))


def rho_minimum(c: float, d: float, q: float) -> tuple[float, float]:
    """Minimizer and minimum of rho(t) = c t^2 - d t^{1-q} on t > 0.

    rho bounds the manifold energy from below with
    c = 1/2 - 1/(alpha+beta) and
    d = (1/(1-q) - 1/(alpha+beta)) Lambda^{(1+q)/2} S^{-(1-q)/2}.
    """
    t_min = (d * (1 - q) / (2 * c)) ** (1 / (1 + q))
    rho_min = -(1 + q) / 2 * d ** (2 / (1 + q)) * ((1 - q) / (2 * c)) ** ((1 - q) / (1 + q))
    return t_min, rho_min


def rho_coefficients(alpha: float, beta: float, q: float, S: float,
                     Lambda: float) -> tuple[float, float]:
    """(c, d) of the scalar comparison rho(t) = c t^2 - d t^{1-q}."""
    ab = alpha + beta
    c = 0.5 - 1.0 / ab
    d = (1.0 / (1 - q) - 1.0 / ab) * Lambda ** ((1 + q) / 2) * S ** (-(1 - q) / 2)
    return c, d


# ---------------------------------------------------------------------------
# Sobolev constant estimation


def rayleigh_quotient(form: GagliardoForm, r: float, values: np.ndarray) -> float:
    """Discrete embedding quotient of one candidate (scale-invariant)."""
    v = values[1:-1]
    num = float(v @ form.apply(v))
    den = float(np.sum(form.quad_weights * np.abs(values) ** r)) ** (2.0 / r)
    if den == 0.0:
        raise ZeroDivisionError("candidate is identically zero")
    return num / den


def _inverse_iteration(form: GagliardoForm, r: float, *starts: np.ndarray) -> float:
    """Least quotient of the starts' iterates v <- G^{-1}(w |v|^{r-2} v), normalized.

    This is the nonlinear inverse power method for the quotient (Hein &
    Buehler, NIPS 2010), a Sobolev-gradient step of length 1, and its
    iteration count does not grow with the grid. With exact solves the
    quotient decreases at every step; the matrix-free solves are inexact,
    so only decreases are accepted. A fixed point satisfies
    G v = (v'Gv / sum w|v|^r) w |v|^{r-2} v, so that scaling of the
    current iterate starts each Riesz solve. The starts are the rows of
    one block solve, which stops once no row's quotient drops by S_RTOL.
    """
    w = form.quad_weights[1:-1]
    v = np.array([values[1:-1] for values in starts])
    v /= np.abs(v).max(axis=1, keepdims=True)
    num, den_sum = np.einsum("ij,ij->i", v, form.apply(v)), np.abs(v) ** r @ w
    best = num / den_sum ** (2.0 / r)
    for _ in range(MAX_INVERSE_ITERATIONS):
        y = form.riesz(w * np.copysign(np.abs(v) ** (r - 1), v),
                       x0=(den_sum / num)[:, None] * v, rtol=RIESZ_RTOL)
        y /= np.abs(y).max(axis=1, keepdims=True)
        y_num, y_den_sum = np.einsum("ij,ij->i", y, form.apply(y)), np.abs(y) ** r @ w
        quotient = y_num / y_den_sum ** (2.0 / r)
        drop = (best - quotient) / best
        fell = drop > 0
        v[fell], num[fell], den_sum[fell], best[fell] = (y[fell], y_num[fell],
                                                         y_den_sum[fell], quotient[fell])
        if not np.any(drop >= S_RTOL):
            break
    return float(best.min())


def estimate_S(form: GagliardoForm, r: float, candidates) -> float:
    """Upper estimate of the discrete embedding constant.

    The smaller of the candidates' Rayleigh quotients and one inverse
    iteration of two starts that depend on the grid alone: the hat, which
    alone reaches a concentrated local minimum near the top of the
    alpha+beta window, and the half-cosine, which alone reaches the spread
    one there. So S depends on the candidates only through their minimum,
    and adding one never raises it. A candidate that vanishes at every
    interior node has no quotient and is skipped.
    """
    cand_list = [c.values if isinstance(c, GridFunction) else np.asarray(c, dtype=float)
                 for c in candidates]
    cand_list = [values for values in cand_list if np.any(values[1:-1])]
    if not cand_list:
        raise EmptyCandidateSet("estimate_S needs at least one candidate that is "
                                "nonzero at an interior node")
    hat, _, cosine = default_candidates(form.grid)
    return min(_inverse_iteration(form, r, hat, cosine),
               *(rayleigh_quotient(form, r, values) for values in cand_list))


def default_candidates(grid: GridSpec) -> list[np.ndarray]:
    """Seed family for the quotient search: hat, smooth bump, half-cosine."""
    x = grid.nodes()
    mid = 0.5 * (grid.left + grid.right)
    halfwidth = 0.5 * (grid.right - grid.left)
    hat = np.zeros(grid.node_count)
    hat[grid.cells // 2] = 1.0
    bump = np.maximum(0.0, 1 - ((x - mid) / (0.6 * halfwidth)) ** 2) ** 2
    cosine = np.cos(0.5 * np.pi * (x - mid) / halfwidth)
    for c in (bump, cosine):
        c[0] = c[-1] = 0.0
    return [hat, bump, cosine]


# ---------------------------------------------------------------------------
# Report


@dataclass(frozen=True)
class ConstantsReport:
    q_star: float
    f_norm: float
    g_norm: float
    b_sup: float
    Lambda: float
    S: float
    C: float
    E: float
    A0: float
    A_lm: float
    J_lower: float
    in_gamma: bool

    def as_dict(self) -> dict:
        return asdict(self)


def compute_constants(problem: ValidatedProblem, form: GagliardoForm,
                      extra_candidates=()) -> ConstantsReport:
    """Evaluate every explicit constant for one problem.

    extra_candidates (nodal arrays or GridFunctions) are added to the
    default quotient-search family; passing solver outputs here makes the
    discrete embedding step of the inequality chains hold for them.
    """
    al, be, q = problem.alpha, problem.beta, problem.q
    ab = al + be
    w = problem.quad_weights()
    qs = q_star(al, be, q)
    f_norm = weight_norm(qs, problem.f_vals, w)
    g_norm = weight_norm(qs, problem.g_vals, w)
    b_sup = float(np.max(np.maximum(problem.b_vals, 0.0)))
    Lambda = lambda_aggregate(problem.lam, problem.mu, f_norm, g_norm, q)

    S = estimate_S(form, ab, default_candidates(problem.grid) + list(extra_candidates))

    C = threshold_C(al, be, q, S, b_sup)
    in_gamma = 0.0 < Lambda < C
    E = E_coefficient(al, be, q, S, b_sup, Lambda) if Lambda > 0 else math.inf
    A0, A_lm = gap_radii(al, be, q, S, b_sup, Lambda)
    J_lower = energy_lower_bound(al, be, q, S, Lambda)
    return ConstantsReport(q_star=qs, f_norm=f_norm, g_norm=g_norm, b_sup=b_sup,
                           Lambda=Lambda, S=S, C=C, E=E, A0=A0, A_lm=A_lm,
                           J_lower=J_lower, in_gamma=in_gamma)
