"""The energy functional, its ingredients, and the fiber map.

The functional splits into three parts computed from a pair (u, w):

    J = norm2/2 - K/(1-q) - B/(alpha+beta)

where norm2 is the squared product energy norm, K the weighted integral
of the positive parts to the power 1-q (the singular term acting through
lambda f and mu g), and B the sign-indefinite coupling integral of
b u_+^alpha w_+^beta. All interval integrals use the grid's trapezoid
weights, matching the quadrature used by the constants module so the
discrete inequality checks are exact. ``scaled_record`` gives J of the
pair scaled by any t from the three statistics alone.

The formulas live in three raw-array functions on the interior nodes
(``singular_and_coupling``, ``stats_and_products``, ``smoothed_gradient``),
which work row by row on a block of pairs: one C-ordered array X of shape
(2, rows, n), X[0] the u rows and X[1] the w rows in the same order. A
power or a clip that both components take runs once over the whole block,
and every per-row sum runs along its row, the u component first, so a row
gets the same bytes in any block. The block descent calls them directly,
and ``pair_stats`` and ``energy`` run them on one pair, the block of one
row. Lambda and mu enter only through the singular factors (lambda w f,
mu w g), which the kernels take per row (``singular_factors``), in the
block's layout, so the rows of one block may belong to problems that
differ in lambda, mu, f and g alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, NonpositiveT
from .form import GagliardoForm
from .problem import GridPair, ValidatedProblem


@dataclass(frozen=True)
class PairStats:
    """The three scalars a fiber map depends on."""

    norm2: float
    K: float
    B: float

    def scale(self) -> float:
        return self.norm2 + abs(self.K) + abs(self.B)


def singular_factors(problems: list[ValidatedProblem]) -> np.ndarray:
    """The singular factors (lambda w f, mu w g) of each problem, shape
    (2, P, n), as the kernels take them per row; one problem's, shape
    (2, 1, n), serves every row."""
    return np.array([[p.weighted_coefficients[k] for p in problems] for k in (0, 1)])


# a statistic that leaves the float range comes out inf or NaN, which the
# fiber's root turns into NoBracket and a sweep into NaN columns, so the
# kernels do not warn of it
_QUIET = np.errstate(over="ignore", invalid="ignore")


@_QUIET
def singular_and_coupling(problem: ValidatedProblem, X: np.ndarray,
                          factors=None) -> tuple[np.ndarray, np.ndarray]:
    """(K, B) of each row of the block X: the integrals that need no form.

    X holds the interior nodal values of a block of pairs, shape
    (2, rows, n): X[0] the u rows, X[1] the w rows. factors, if given, are
    the singular factors (lambda w f, mu w g) of each row, shape
    (2, rows, n); by default the problem's own for every row. Each row's
    sums run in the same order whatever the other rows are: a product
    summed along the row, never einsum, which buffers rows of more than
    8192 elements and then sums them by the block's shape; K sums the u
    row, then adds the w row.
    """
    if factors is None:
        factors = singular_factors([problem])
    q, al, be, b = problem.q, problem.alpha, problem.beta, problem.weighted_coefficients[2]
    P = np.maximum(X, 0.0)
    sums = (P ** (1 - q) * factors).sum(axis=-1)
    B = (P[0] ** al * P[1] ** be * b).sum(axis=-1)
    return sums[0] + sums[1], B


@_QUIET
def stats_and_products(problem: ValidatedProblem, form: GagliardoForm, X: np.ndarray,
                       factors=None) -> tuple[list[float], list[float], list[float], np.ndarray]:
    """The pair statistics norm2, K and B of each row of the block X, as
    three lists of floats, with G X in the same layout; X and factors as in
    ``singular_and_coupling``.

    The raw-array kernel behind ``pair_stats``: the block descent calls it
    on all its trials at once, reads each row's three floats without an
    object per row, and reuses the products for the gradient. G is applied
    to each component on its own: below ``form.MATRIX_FREE_CELLS`` a dense
    product's rows depend on how many rows it has, so a product over both
    components would change a row's bytes.
    """
    GX = np.array([form.apply(X[0]), form.apply(X[1])])
    K, B = singular_and_coupling(problem, X, factors)
    sums = (X * GX).sum(axis=-1)
    return (sums[0] + sums[1]).tolist(), K.tolist(), B.tolist(), GX


@_QUIET
def smoothed_gradient(problem: ValidatedProblem, X: np.ndarray, GX: np.ndarray,
                      eps: float | np.ndarray, factors=None) -> np.ndarray:
    """Interior gradient of the eps-smoothed energy at each row of the
    block X, given G X, in the same layout; X and factors as in
    ``singular_and_coupling``.

    The singular factor u^{-q} is floored at eps so descent always has a
    usable direction; where both components exceed eps this is the formal
    gradient of the energy itself. eps is a float or a column of one floor
    per row, shape (rows, 1): the solver floors each row at
    ``solver.EPS_SINGULAR`` times its peak max(u, w).
    """
    if factors is None:
        factors = singular_factors([problem])
    q, al, be, b = problem.q, problem.alpha, problem.beta, problem.weighted_coefficients[2]
    ab = al + be
    g = GX - factors * np.maximum(X, eps) ** (-q)
    P = np.maximum(X, 0.0)
    up, vp = P
    g[0] -= (al / ab) * b * up ** (al - 1) * vp**be
    g[1] -= (be / ab) * b * up**al * vp ** (be - 1)
    return g


def pair_stats(problem: ValidatedProblem, form: GagliardoForm, pair: GridPair) -> PairStats:
    if pair.grid != form.grid:
        raise GridMismatch("pair does not match the form's grid")
    # the pair's interior values as a block of one pair
    X = np.stack([pair.u.values[1:-1], pair.w.values[1:-1]])[:, None]
    norm2, K, B, _ = stats_and_products(problem, form, X)
    return PairStats(norm2[0], K[0], B[0])


def scaled_record(norm2: float, K: float, B: float, t: float, q: float, ab: float
                  ) -> tuple[float, float, float, float]:
    """(J, norm, K, B) of the pair with these statistics scaled by t: the
    three parts scale as t^2, t^{1-q} and t^{alpha+beta}."""
    n2, K, B = norm2 * t**2, K * t ** (1 - q), B * t**ab
    return n2 / 2 - K / (1 - q) - B / ab, math.sqrt(n2), K, B


def energy(problem: ValidatedProblem, form: GagliardoForm, pair: GridPair) -> float:
    """The energy J of the pair."""
    st = pair_stats(problem, form, pair)
    return scaled_record(st.norm2, st.K, st.B, 1.0, problem.q, problem.alpha + problem.beta)[0]


def phi_from_stats(stats: PairStats, q: float, ab: float, t: float) -> tuple[float, float, float]:
    """(phi(t), phi'(t), phi''(t)) for the fiber t -> J(t u, t w), from the
    pair's ``pair_stats``."""
    if t <= 0:
        raise NonpositiveT(f"fiber map requires t > 0, got {t}")
    n2, K, B = stats.norm2, stats.K, stats.B
    val = scaled_record(n2, K, B, t, q, ab)[0]
    d1 = t * n2 - t ** (-q) * K - t ** (ab - 1) * B
    d2 = n2 + q * t ** (-q - 1) * K - (ab - 1) * t ** (ab - 2) * B
    return val, d1, d2
