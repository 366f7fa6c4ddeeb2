"""The energy functional, its ingredients, and the fiber map.

The functional splits into three parts computed from a pair (u, w):

    J = norm2/2 - K/(1-q) - B/(alpha+beta)

where norm2 is the squared product energy norm, K the weighted integral
of the positive parts to the power 1-q (the singular term acting through
lambda f and mu g), and B the sign-indefinite coupling integral of
b u_+^alpha w_+^beta. All interval integrals use the trapezoid weights,
matching the quadrature used by the constants module so the
discrete inequality checks are exact. ``scaled_record`` gives J of the
pair scaled by any t from the three statistics alone.

The formulas live in three raw-array functions on the interior nodes
(``singular_and_coupling``, ``stats_and_products``, ``smoothed_gradient``),
which work row by row on a block of pairs: one C-ordered array X of shape
(2, rows, n), X[0] the u rows and X[1] the w rows in the same order. A
power or a clip that both components take runs once over the whole block,
and every per-row sum runs along its row; a sum over both components is
``row_dots``, the u row's plus the w row's, which K, norm2 and the
solver's inner products all take, so a row gets the same bytes in any
block. The block descent calls them directly, and ``pair_stats`` and
``energy`` run them on one pair, a (2, n) array of interior values, as the
block of one row. Lambda and mu
enter only through the singular factors (lambda w f, mu w g), which the
kernels take per row (``singular_factors``), in the block's layout, so
the rows of one block may belong to problems that differ in lambda, mu,
f and g alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonpositiveT
from .form import GagliardoForm
from .problem import ValidatedProblem


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
def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One dot per row of two blocks laid out as X: the u row's sum of
    a * b plus the w row's. Never einsum, which buffers rows of more than
    8192 elements and then sums them by the block's shape; a row beyond the
    float range comes out inf or NaN, which the caller's test rejects."""
    sums = (a * b).sum(axis=-1)
    return sums[0] + sums[1]


@_QUIET
def singular_and_coupling(problem: ValidatedProblem, X: np.ndarray,
                          factors=None) -> tuple[np.ndarray, np.ndarray]:
    """(K, B) of each row of the block X: the integrals that need no form.

    X holds the interior nodal values of a block of pairs, shape
    (2, rows, n): X[0] the u rows, X[1] the w rows. factors, if given, are
    the singular factors (lambda w f, mu w g) of each row, shape
    (2, rows, n); by default the problem's own for every row. Each row's
    sums run in the same order whatever the other rows are: K is the
    ``row_dots`` of the powers and the factors, and B a product summed
    along the row.
    """
    if factors is None:
        factors = singular_factors([problem])
    q, al, be, b = problem.q, problem.alpha, problem.beta, problem.weighted_coefficients[2]
    P = np.maximum(X, 0.0)
    B = (P[0] ** al * P[1] ** be * b).sum(axis=-1)
    return row_dots(P ** (1 - q), factors), B


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
    return row_dots(X, GX).tolist(), K.tolist(), B.tolist(), GX


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


def pair_stats(problem: ValidatedProblem, form: GagliardoForm, pair: np.ndarray) -> PairStats:
    """The statistics of one pair, its (2, n) array of interior values."""
    # a C-ordered block of one pair, so its sums run as a block row's do
    X = np.ascontiguousarray(pair, dtype=float)[:, None]
    norm2, K, B, _ = stats_and_products(problem, form, X)
    return PairStats(norm2[0], K[0], B[0])


def scaled_record(norm2: float, K: float, B: float, t: float, q: float, ab: float
                  ) -> tuple[float, float, float, float]:
    """(J, norm, K, B) of the pair with these statistics scaled by t: the
    three parts scale as t^2, t^{1-q} and t^{alpha+beta}."""
    n2, K, B = norm2 * t**2, K * t ** (1 - q), B * t**ab
    return n2 / 2 - K / (1 - q) - B / ab, math.sqrt(n2), K, B


def energy(problem: ValidatedProblem, form: GagliardoForm, pair: np.ndarray) -> float:
    """The energy J of the pair, its (2, n) array of interior values."""
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
