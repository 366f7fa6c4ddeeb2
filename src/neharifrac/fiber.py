"""Projection of direction pairs onto the constraint manifold.

A direction (u, w) scaled by t lies on the manifold exactly when the
rescaled fiber derivative

    psi(t) = t^{2-a} norm2 - t^{1-a-q} K - B,      a = alpha + beta,

vanishes (phi'(t) = t^{a-1} psi(t)). For K > 0, psi rises from -infinity
to a unique maximum at t_max and then decays to -B, which gives the whole
root structure:

  * B <= 0: exactly one root t1 < t_max, a fiber minimum (local-min branch),
  * B > 0 and psi(t_max) > 0: two roots t1 < t_max < t2; t1 is the fiber
    minimum, t2 the fiber maximum (local-max branch),
  * B > 0 and psi(t_max) <= 0: no admissible scaling.

A negative parameter can make K <= 0. Both powers then fall, so psi falls
from +infinity to -B: for B > 0 its one root is a fiber maximum
(local-max branch, ``falling_root``), and for B <= 0 there is none.

Roots are found by Newton's method in x = log t, where

    dpsi/dx = (2-a) t^{2-a} norm2 - (1-a-q) t^{1-a-q} K

costs nothing beyond the two powers psi already needs. Monotonicity on
each side of t_max gives a sign-change bracket around each root; every
iterate shrinks it by the sign of psi, and a Newton step that would leave
it is replaced by a bisection, so the iteration cannot diverge.
``lower_root`` and ``upper_root`` find t1 and t2 one at a time, so a
caller that needs one root computes only that one; ``project`` finds both.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .energy import PairStats, pair_stats, phi_from_stats
from .errors import NoBracket, NonpositiveK, NonpositiveNorm, NonpositiveT
from .form import GagliardoForm
from .problem import GridPair, ValidatedProblem

DEFAULT_ROOT_TOL = 1e-12
DEFAULT_TOL = 1e-8
DEFAULT_TOL2 = 1e-10
_MAX_STEPS = 240
_TINY = float(np.finfo(float).tiny)


class FiberCase(enum.Enum):
    SINGLE_ROOT = "single_root"
    TWO_ROOTS = "two_roots"
    NO_ADMISSIBLE_ROOT = "no_admissible_root"


@dataclass(frozen=True)
class FiberRoots:
    case: FiberCase
    t1: float | None
    t2: float | None
    t_max: float
    psi_at_tmax: float


class MembershipLabel(enum.Enum):
    N_PLUS = "n_plus"
    N_MINUS = "n_minus"
    N_ZERO = "n_zero"
    OFF_MANIFOLD = "off_manifold"


@dataclass(frozen=True)
class Membership:
    label: MembershipLabel
    phi1: float
    phi2: float


def psi(stats: PairStats, q: float, ab: float, t: float) -> float:
    """Rescaled fiber derivative t^{2-ab} norm2 - t^{1-ab-q} K - B."""
    if t <= 0:
        raise NonpositiveT(f"psi requires t > 0, got {t}")
    return _psi(stats, 2 - ab, 1 - ab - q, t)


def _psi(stats: PairStats, e_n: float, e_k: float, t: float) -> float:
    # psi for t > 0, with its exponents e_n = 2 - ab and e_k = 1 - ab - q
    return t ** e_n * stats.norm2 - t ** e_k * stats.K - stats.B


def t_max(stats: PairStats, q: float, ab: float) -> float:
    """Unique maximizer of psi: [(ab-1+q) K / ((ab-2) norm2)]^{1/(1+q)}."""
    if stats.norm2 <= 0:
        raise NonpositiveNorm(f"t_max requires norm2 > 0, got {stats.norm2}")
    if stats.K <= 0:
        raise NonpositiveK(f"t_max requires K > 0, got {stats.K}")
    return float(((ab - 1 + q) * stats.K / ((ab - 2) * stats.norm2)) ** (1 / (1 + q)))


def _newton(stats: PairStats, q: float, ab: float, lo: float, hi: float,
            increasing: bool, width: float) -> float:
    # root of psi in [lo, hi], where psi changes sign; `increasing` tells
    # which end is negative
    e_n, e_k = 2 - ab, 1 - ab - q
    x_lo, x_hi = math.log(lo), math.log(hi)
    x = 0.5 * (x_lo + x_hi)
    t = math.exp(x)
    for _ in range(_MAX_STEPS):
        pn = t**e_n * stats.norm2
        pk = t**e_k * stats.K
        val = pn - pk - stats.B
        if val == 0.0:
            break
        if (val < 0.0) == increasing:
            x_lo = x
        else:
            x_hi = x
        slope = e_n * pn - e_k * pk
        x_new = x - val / slope if slope != 0.0 else math.nan
        # a step that rounds to nothing stays on its bracket end
        if not x_lo <= x_new <= x_hi:  # also catches nan: bisect
            x_new = 0.5 * (x_lo + x_hi)
        t_new = math.exp(x_new)
        done = abs(t_new - t) < width
        x, t = x_new, t_new
        if done:
            break
    return t


def peak(stats: PairStats, q: float, ab: float) -> tuple[float, float]:
    """t_max and psi(t_max), for K > 0.

    psi(t_max) <= 0 means no admissible scaling when B > 0. When B <= 0 it
    cannot happen in exact arithmetic, since psi(t_max) > -B >= 0; it means
    rounding collapsed the maximum, and NoBracket is raised.
    """
    tm = t_max(stats, q, ab)
    ptm = _psi(stats, 2 - ab, 1 - ab - q, tm)
    if stats.B <= 0 and ptm <= 0:
        raise NoBracket("psi has no positive maximum; degenerate stats")
    return tm, ptm


def lower_root(stats: PairStats, q: float, ab: float, tm: float,
               tol: float = DEFAULT_ROOT_TOL) -> float:
    """The root t1 < t_max of psi, the fiber minimum, given tm = t_max and
    psi(t_max) > 0; tol is relative to tm."""
    # psi < 0 near 0, > 0 at t_max
    lo = tm
    while _psi(stats, 2 - ab, 1 - ab - q, lo) > 0.0:
        lo *= 0.5
        if lo < _TINY:
            raise NoBracket("no sign change below t_max; degenerate stats")
    return _newton(stats, q, ab, lo, tm, increasing=True, width=tol * tm)


def upper_root(stats: PairStats, q: float, ab: float, tm: float,
               tol: float = DEFAULT_ROOT_TOL) -> float:
    """The root t2 > t_max of psi, the fiber maximum, given tm = t_max,
    psi(t_max) > 0 and B > 0; tol is relative to tm."""
    # psi > 0 at t_max, -> -B < 0 at infinity
    hi = 2.0 * tm
    while _psi(stats, 2 - ab, 1 - ab - q, hi) > 0.0:
        hi *= 2.0
        if not math.isfinite(hi):
            raise NoBracket("no sign change above t_max; degenerate stats")
    return _newton(stats, q, ab, max(tm, hi / 2), hi, increasing=False, width=tol * tm)


def project(stats: PairStats, q: float, ab: float, tol: float = DEFAULT_ROOT_TOL) -> FiberRoots:
    """Find the manifold scalings of a direction with K > 0.

    tol is relative to t_max: the root iteration stops once its step is
    shorter than tol * t_max.
    """
    if tol <= 0:
        raise NonpositiveT(f"tol must be positive, got {tol}")
    tm, ptm = peak(stats, q, ab)
    if ptm <= 0:
        return FiberRoots(case=FiberCase.NO_ADMISSIBLE_ROOT, t1=None, t2=None,
                          t_max=tm, psi_at_tmax=ptm)
    t1 = lower_root(stats, q, ab, tm, tol)
    if stats.B <= 0:
        return FiberRoots(case=FiberCase.SINGLE_ROOT, t1=t1, t2=None,
                          t_max=tm, psi_at_tmax=ptm)
    t2 = upper_root(stats, q, ab, tm, tol)
    return FiberRoots(case=FiberCase.TWO_ROOTS, t1=t1, t2=t2,
                      t_max=tm, psi_at_tmax=ptm)


def falling_root(stats: PairStats, q: float, ab: float,
                 tol: float = DEFAULT_ROOT_TOL) -> float:
    """The root of psi for K <= 0 < B, a fiber maximum.

    psi falls monotonically, and it is nonnegative at the root
    t0 = (norm2 / B)^{1/(a-2)} of its K = 0 part, so the root lies above
    t0; tol is relative to t0.
    """
    if stats.norm2 <= 0:
        raise NonpositiveNorm(f"falling_root requires norm2 > 0, got {stats.norm2}")
    if stats.K > 0 or stats.B <= 0:
        raise NoBracket(f"falling_root requires K <= 0 < B, got K={stats.K}, B={stats.B}")
    t0 = float((stats.norm2 / stats.B) ** (1 / (ab - 2)))
    hi = 2.0 * t0
    while _psi(stats, 2 - ab, 1 - ab - q, hi) > 0.0:
        hi *= 2.0
        if not math.isfinite(hi):
            raise NoBracket("no sign change above t0; degenerate stats")
    return _newton(stats, q, ab, t0, hi, increasing=False, width=tol * t0)


def classify(problem: ValidatedProblem, form: GagliardoForm, pair: GridPair,
             tol: float = DEFAULT_TOL, tol2: float = DEFAULT_TOL2) -> Membership:
    """Manifold membership from the signs of phi'(1) and phi''(1).

    Tolerance bands scale with norm2 + |K| + |B|; exact equality is
    measure-zero in floating point, so membership in the degenerate set
    is a band, not a point.
    """
    st = pair_stats(problem, form, pair)
    _, d1, d2 = phi_from_stats(st, problem.q, problem.alpha + problem.beta, 1.0)
    scale = st.scale()
    on_manifold = abs(d1) <= tol * scale
    if not on_manifold:
        label = MembershipLabel.OFF_MANIFOLD
    elif d2 > tol2 * scale:
        label = MembershipLabel.N_PLUS
    elif d2 < -tol2 * scale:
        label = MembershipLabel.N_MINUS
    else:
        label = MembershipLabel.N_ZERO
    return Membership(label=label, phi1=d1, phi2=d2)
