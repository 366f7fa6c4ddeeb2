"""Explicit constants: admissibility region, gap radii, energy bounds.

Everything here is closed-form arithmetic in the exponents except the
Sobolev-type embedding constant S, which is estimated as the minimum of
the discrete Rayleigh-type quotient

    Q(u) = u' G u / (sum_i w_i |u_i|^r)^{2/r},        r = alpha + beta,

over the nodal functions: one inverse iteration of two starts fixed by the
grid refines it (Hein & Buehler, NIPS 2010), each iteration extrapolated by
a secant step, which is Anderson's method of depth 1 (Anderson, J. ACM 12,
1965; Walker & Ni, SIAM J. Numer. Anal. 49, 2011), and the caller's
candidates can only lower it; the two starts finish as one where they meet,
as the descent's restarts do (``solver``). The estimate is an upper bound
for the discrete infimum and never exceeds the quotient of any supplied
candidate; compute_constants takes any S, such as the least quotient of one
pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import (
    ConstantsOutOfRange,
    InverseIterationNotConverged,
    NonpositiveBSup,
    NonpositiveLambda,
    NonpositiveS,
)
from .form import GagliardoForm
from .problem import ValidatedProblem, q_star

# a row of the inverse iteration stops once its quotient drops by less than
# this, relatively, in one step. Probes 1% inside either end of the
# admissible (s, alpha+beta) window, s from 0.17 to 0.4999 and alpha+beta
# capped at 40, took at most 26 iterations at 512 cells and 38 at 16384 (91
# and 142 without the secant step), so reaching the cap means something is
# wrong
S_RTOL = 1e-13
MAX_INVERSE_ITERATIONS = 500
# the relative G-distance within which starts, or restarts of one point and
# branch of the descent (``solver``), meet and finish as the lower one
JOIN_TOL = 1e-2


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


# ---------------------------------------------------------------------------
# Sobolev constant estimation


def rayleigh_quotient(form: GagliardoForm, r: float, v: np.ndarray) -> float:
    """Discrete embedding quotient of one candidate, its interior values
    (scale-invariant); the L^r sum runs over its written values.

    Raises ZeroDivisionError for a candidate that vanishes at every node,
    and ConstantsOutOfRange for a nonzero one whose sums underflow to zero
    or overflow: its values lie too near either end of the float range.
    """
    if not np.any(v):
        raise ZeroDivisionError("candidate is identically zero")
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        num = float(v @ form.apply(v))
        den = float(np.sum(form.written_values(form.weights * np.abs(v) ** r))) ** (2.0 / r)
    if not (0.0 < num < math.inf and 0.0 < den < math.inf):
        raise ConstantsOutOfRange(
            f"the embedding quotient of a candidate leaves the float range at s={form.s}, "
            f"alpha+beta={r}: its sums are {num} and {den}")
    return num / den


def _quotients(x: np.ndarray, gx: np.ndarray, w: np.ndarray, r: float
               ) -> tuple[np.ndarray, np.ndarray]:
    """Each row's quotient from its product gx with G, and |x|^{r-1}.

    Every sum is a product summed along the row, never einsum or a matrix
    product, so a row's quotient does not depend on the other rows.
    """
    magnitude = np.abs(x)
    power = magnitude ** (r - 1)
    magnitude *= power
    magnitude *= w
    return (x * gx).sum(axis=1) / magnitude.sum(axis=1) ** (2.0 / r), power


def _secant_step(y: np.ndarray, gy: np.ndarray, f: np.ndarray, previous, w: np.ndarray,
                 r: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's quotient, next iterate and |iterate|^{r-1}: y, or the
    secant candidate z = y - gamma (y - y') if its quotient is lower, so S
    stays the quotient of an actual vector.

    f = y - v is the map's residual, and previous the rows' (y', G y', f')
    of the last iteration (None on the first). gamma = <f - f', f> /
    |f - f'|^2 least-squares the extrapolated residual, and G z = G y -
    gamma (G y - G y') by linearity. A gamma that is not finite gives z a
    NaN quotient, so y stays.
    """
    if previous is None:
        quotient, power = _quotients(y, gy, w, r)
        return quotient, y, power
    y_prev, gy_prev, f_prev = previous
    df = f - f_prev
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = ((df * f).sum(axis=1) / (df * df).sum(axis=1))[:, None]
        x = np.concatenate([y, y - gamma * (y - y_prev)])
        gx = np.concatenate([gy, gy - gamma * (gy - gy_prev)])
    quotients, powers = _quotients(x, gx, w, r)
    k = len(y)
    pick = np.arange(k) + k * (quotients[k:] < quotients[:k])
    return quotients[pick], x[pick], powers[pick]


def _inverse_iteration(form: GagliardoForm, r: float, *starts: np.ndarray) -> float:
    """Least quotient of the starts' iterates v <- G^{-1}(w |v|^{r-2} v), normalized.

    This is the nonlinear inverse power method for the quotient (Hein &
    Buehler, NIPS 2010), a Sobolev-gradient step of length 1, and its
    iteration count does not grow with the grid. It converges linearly at a
    steady rate, so every iteration takes _secant_step, Anderson's
    extrapolation of depth 1 (Anderson, J. ACM 12, 1965; Walker & Ni, SIAM
    J. Numer. Anal. 49, 2011). Rounding can raise the quotient near
    convergence, so only decreases are accepted. The starts are the rows of
    one block solve; a row leaves it once its own quotient drops by less
    than S_RTOL, and its sums do not depend on the other rows, so it ends
    as it would alone. Starts that meet finish as one: after each
    iteration, a row whose map, normalized in G, lies within JOIN_TOL in
    the G norm of that of a row of lower least quotient stops, as the
    descent's restarts join (the clustering rule of multi-level single
    linkage, Rinnooy Kan & Timmer, Math. Program. 39, 1987). Both head for
    one minimum, which the lower row goes on to reach, and S stays the
    least quotient of every iterate; starts that head for different minima
    stay far apart, so each ends as it would alone.

    Each iteration costs one Riesz map and no product with G: for
    y = G^{-1} rhs scaled by c = max|y|, G (y/c) = rhs/c, which also gives
    the distances between the rows. Only the starts' first quotients take
    a product. A row that has not stopped after MAX_INVERSE_ITERATIONS
    raises InverseIterationNotConverged: S read from an unfinished
    iteration is too high, and so is the threshold C.
    """
    w = form.weights
    v = np.array(starts, dtype=float)
    v /= np.abs(v).max(axis=1, keepdims=True)
    best, power = _quotients(v, form.apply(v), w, r)
    rows = np.arange(len(v))  # the rows still refining
    rhs = w * np.copysign(power, v)
    previous = None
    for _ in range(MAX_INVERSE_ITERATIONS):
        y = form.riesz(rhs)
        peak = np.abs(y).max(axis=1, keepdims=True)
        y /= peak
        rhs /= peak  # now G y
        f = y - v
        quotient, v, power = _secant_step(y, rhs, f, previous, w, r)
        last = best[rows]
        drop = (last - quotient) / last
        best[rows] = np.fmin(last, quotient)
        going = drop >= S_RTOL
        if len(rows) > 1:
            # a row whose map is within JOIN_TOL in the G norm of a row of
            # lower best quotient, both normalized in G, stops: there
            # |y_a - y_b|^2 = 2 - 2 <y_a, G y_b> / (|y_a| |y_b|)
            norm, now = np.sqrt((y * rhs).sum(axis=1)), best[rows]
            a, b = np.nonzero(now[:, None] > now)
            near = (y[a] * rhs[b]).sum(axis=1) / (norm[a] * norm[b]) >= 1 - JOIN_TOL**2 / 2
            going[a[near]] = False
        if not np.any(going):
            return float(best.min())
        if not np.all(going):
            rows, v, power, y, rhs, f = (a[going] for a in (rows, v, power, y, rhs, f))
        previous = y, rhs, f
        rhs = w * np.copysign(power, v)
    raise InverseIterationNotConverged(
        f"the inverse iteration for S still dropped by {drop.max():.3g} relatively after "
        f"{MAX_INVERSE_ITERATIONS} iterations ({len(w)} interior nodes, s={form.s}, r={r}); "
        "S and the threshold C would be too high")


def estimate_S(form: GagliardoForm, r: float, candidates) -> float:
    """Upper estimate of the discrete embedding constant.

    The inverse iteration of the two starts of default_candidates, lowered
    to the least Rayleigh quotient of the candidates (arrays of interior
    values) if one is below it; with no candidates it is the refinement
    alone. So S depends on the candidates only through their minimum, and
    adding one never raises it. Near the top of the alpha+beta window the two starts can
    reach different minima, and the refinement is the lower; where they
    head for one, the higher of them, mostly the hat, stops where they meet
    (see _inverse_iteration). A candidate that vanishes at every node has
    no quotient and is skipped. The refinement depends on the form and r
    alone; it runs once per form and r, and the form keeps it, so every
    point of a sweep shares it.
    """
    refined = form.refined_quotients.get(r)
    if refined is None:
        refined = form.refined_quotients[r] = _inverse_iteration(
            form, r, *default_candidates(form))
    values = (np.asarray(c, dtype=float) for c in candidates)
    return min([refined] + [rayleigh_quotient(form, r, v) for v in values if np.any(v)])


def default_candidates(form: GagliardoForm) -> list[np.ndarray]:
    """The starts of the S refinement, as interior values: the hat at the
    middle node, which alone reaches a concentrated local minimum of the
    quotient near the top of the alpha+beta window, and the half-cosine,
    which alone reaches the spread one there."""
    x = form.nodes
    mid = 0.5 * (form.left + form.right)
    halfwidth = 0.5 * (form.right - form.left)
    hat = np.zeros(x.size)
    hat[(x.size - 1) // 2] = 1.0
    return [hat, np.cos(0.5 * np.pi * (x - mid) / halfwidth)]


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


def compute_constants(problem: ValidatedProblem, S: float) -> ConstantsReport:
    """Every explicit constant of one problem, at the embedding constant S.

    The closed forms hold for any S up to the quotient of each pair they
    are applied to: a run's report takes S from estimate_S with its
    solutions as candidates, and a check of one pair can take the smaller
    quotient of its components, the largest S its chains allow. A closed
    form that overflows raises ConstantsOutOfRange: near alpha+beta = 2 the
    exponents 1/(alpha+beta-2) are huge, and so are powers of a huge
    alpha+beta, lambda or weight. Every reported constant is finite, but E
    is inf where Lambda underflows to 0.
    """
    al, be, q = problem.alpha, problem.beta, problem.q
    ab = al + be
    qs, f_norm, g_norm = q_star(al, be, q), problem.f_norm, problem.g_norm
    b_sup = float(np.max(np.maximum(problem.b_vals, 0.0)))
    try:
        Lambda = lambda_aggregate(problem.lam, problem.mu, f_norm, g_norm, q)
        C = threshold_C(al, be, q, S, b_sup)
        E = E_coefficient(al, be, q, S, b_sup, Lambda) if Lambda > 0 else math.inf
        A0, A_lm = gap_radii(al, be, q, S, b_sup, Lambda)
        J_lower = energy_lower_bound(al, be, q, S, Lambda)
        # a float power raises OverflowError, but a product or a weight
        # norm that overflows comes out inf, and inf - inf NaN
        if not np.all(np.isfinite([f_norm, g_norm, Lambda, C, A0, A_lm, J_lower,
                                   E if Lambda > 0 else 0.0])):
            raise OverflowError
    except OverflowError:
        raise ConstantsOutOfRange(
            f"the closed-form constants overflow the float range at s={problem.s}, "
            f"alpha+beta={ab} (lambda={problem.lam}, mu={problem.mu})") from None
    # validate_params excludes (lambda, mu) = (0, 0) and f, g <= 0, so
    # Lambda = 0 is an underflow, and the point is in Gamma
    in_gamma = Lambda < C
    return ConstantsReport(q_star=qs, f_norm=f_norm, g_norm=g_norm, b_sup=b_sup,
                           Lambda=Lambda, S=S, C=C, E=E, A0=A0, A_lm=A_lm,
                           J_lower=J_lower, in_gamma=in_gamma)
