"""The energy functional, its ingredients, and the fiber map.

The functional splits into three parts computed from a pair (u, w):

    J = norm2/2 - K/(1-q) - B/(alpha+beta)

where norm2 is the squared product energy norm, K the weighted integral
of the positive parts to the power 1-q (the singular term acting through
lambda f and mu g), and B the sign-indefinite coupling integral of
b u_+^alpha w_+^beta. All interval integrals use the grid's trapezoid
weights, matching the quadrature used by the constants module so the
discrete inequality checks are exact.

The formulas live in three raw-array functions on the interior nodes
(``singular_and_coupling``, ``stats_and_products``, ``smoothed_gradient``),
which work row by row on a block of pairs; the block descent calls them
directly, and the GridPair functions wrap them for one pair. Lambda and mu
enter only through the singular factors (lambda w f, mu w g), which the
kernels take per row, so the rows of one block may belong to problems that
differ in lambda, mu, f and g alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, NonpositiveEpsilon, NonpositiveT
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


@dataclass(frozen=True)
class EnergyParts:
    norm2: float
    K: float
    B: float
    J: float


def _factors(problem: ValidatedProblem, factors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # (lambda w f, mu w g, w b): the given singular factors, or the problem's
    lam_f, mu_g, b = problem.weighted_coefficients
    return (lam_f, mu_g, b) if factors is None else (*factors, b)


def singular_and_coupling(problem: ValidatedProblem, u: np.ndarray, v: np.ndarray,
                          factors=None) -> tuple[np.ndarray, np.ndarray]:
    """(K, B) of interior nodal arrays (u, v), or of each row pair of them:
    the integrals that need no form.

    factors, if given, are the singular factors (lambda w f, mu w g) with
    one row per row of (u, v), or one row for all; by default the
    problem's own. Each row's sums run in the same order whatever the other
    rows are: a product summed along the row, never einsum, which buffers
    rows of more than 8192 elements and then sums them by the block's shape.
    """
    lam_f, mu_g, b = _factors(problem, factors)
    q, al, be = problem.q, problem.alpha, problem.beta
    up = np.maximum(u, 0.0)
    vp = np.maximum(v, 0.0)
    K = (up ** (1 - q) * lam_f).sum(axis=-1) + (vp ** (1 - q) * mu_g).sum(axis=-1)
    B = (up**al * vp**be * b).sum(axis=-1)
    return K, B


def stats_and_products(problem: ValidatedProblem, form: GagliardoForm, u: np.ndarray,
                       v: np.ndarray, factors=None
                       ) -> tuple[list[float], list[float], list[float], np.ndarray, np.ndarray]:
    """The pair statistics norm2, K and B of each row pair of the interior
    nodal arrays (u, v), as three lists of floats, with G u and G v; factors
    as in ``singular_and_coupling``.

    The raw-array kernel behind ``pair_stats``: the block descent calls it
    on all its trials at once, reads each row's three floats without an
    object per row, and reuses the products for the gradient.
    """
    Gu = form.apply(u)
    Gv = form.apply(v)
    K, B = singular_and_coupling(problem, u, v, factors)
    norm2 = (u * Gu).sum(axis=-1) + (v * Gv).sum(axis=-1)
    return norm2.tolist(), K.tolist(), B.tolist(), Gu, Gv


def smoothed_gradient(problem: ValidatedProblem, u: np.ndarray, v: np.ndarray,
                      Gu: np.ndarray, Gv: np.ndarray, eps: float,
                      factors=None) -> tuple[np.ndarray, np.ndarray]:
    """Interior gradient of the eps-smoothed energy at (u, v), given G u and
    G v, or at each row pair of them; factors as in ``singular_and_coupling``.

    The singular factor u^{-q} is floored at eps so descent always has a
    usable direction; where both components exceed eps this is the formal
    gradient of the energy itself.
    """
    lam_f, mu_g, b = _factors(problem, factors)
    q, al, be = problem.q, problem.alpha, problem.beta
    ab = al + be
    up = np.maximum(u, 0.0)
    vp = np.maximum(v, 0.0)
    gu = Gu - lam_f * np.maximum(u, eps) ** (-q) - (al / ab) * b * up ** (al - 1) * vp**be
    gv = Gv - mu_g * np.maximum(v, eps) ** (-q) - (be / ab) * b * up**al * vp ** (be - 1)
    return gu, gv


def _interior(form: GagliardoForm, pair: GridPair) -> tuple[np.ndarray, np.ndarray]:
    if pair.grid != form.grid:
        raise GridMismatch("pair does not match the form's grid")
    return pair.u.values[1:-1], pair.w.values[1:-1]


def K_value(problem: ValidatedProblem, pair: GridPair) -> float:
    """Weighted singular-term integral lam*int f u_+^{1-q} + mu*int g w_+^{1-q}."""
    return float(singular_and_coupling(problem, pair.u.values[1:-1], pair.w.values[1:-1])[0])


def B_value(problem: ValidatedProblem, pair: GridPair) -> float:
    """Coupling integral int b u_+^alpha w_+^beta (sign-indefinite)."""
    return float(singular_and_coupling(problem, pair.u.values[1:-1], pair.w.values[1:-1])[1])


def pair_stats(problem: ValidatedProblem, form: GagliardoForm, pair: GridPair) -> PairStats:
    u, v = _interior(form, pair)
    norm2, K, B, _, _ = stats_and_products(problem, form, u[None], v[None])
    return PairStats(norm2[0], K[0], B[0])


def energy(problem: ValidatedProblem, form: GagliardoForm, pair: GridPair) -> EnergyParts:
    st = pair_stats(problem, form, pair)
    J = st.norm2 / 2 - st.K / (1 - problem.q) - st.B / (problem.alpha + problem.beta)
    return EnergyParts(norm2=st.norm2, K=st.K, B=st.B, J=J)


def energy_gradient(problem: ValidatedProblem, form: GagliardoForm,
                    pair: GridPair, eps: float) -> GridPair:
    """Gradient of the eps-smoothed energy with respect to the nodal values.

    Boundary components are zero (those values are pinned); the interior
    ones come from ``smoothed_gradient``.
    """
    if eps <= 0:
        raise NonpositiveEpsilon(f"eps must be positive, got {eps}")
    u, v = _interior(form, pair)
    gu, gv = smoothed_gradient(problem, u, v, form.apply(u), form.apply(v), eps)
    return GridPair.from_arrays(pair.grid, np.pad(gu, 1), np.pad(gv, 1))


def phi_from_stats(stats: PairStats, q: float, ab: float, t: float) -> tuple[float, float, float]:
    """(phi(t), phi'(t), phi''(t)) for the fiber t -> J(t u, t w), from the
    pair's ``pair_stats``."""
    if t <= 0:
        raise NonpositiveT(f"fiber map requires t > 0, got {t}")
    n2, K, B = stats.norm2, stats.K, stats.B
    val = t**2 * n2 / 2 - t ** (1 - q) * K / (1 - q) - t**ab * B / ab
    d1 = t * n2 - t ** (-q) * K - t ** (ab - 1) * B
    d2 = n2 + q * t ** (-q - 1) * K - (ab - 1) * t ** (ab - 2) * B
    return val, d1, d2
