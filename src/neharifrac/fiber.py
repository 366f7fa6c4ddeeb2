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
(local-max branch), and for B <= 0 there is none.

``root`` holds this case analysis and finds one root, from the pair
statistics as three floats: t1, or the fiber maximum. psi is nonnegative
at an anchor (t_max, or the root t0 of the K = 0 part when K <= 0) and
changes sign once on the root's side of it. The bracket starts at t = 1,
clipped to that side, since a descent trial lies one step from the
manifold, and widens geometrically in x = log t until psi changes sign.
Newton's method in x, where

    dpsi/dx = (2-a) t^{2-a} norm2 - (1-a-q) t^{1-a-q} K

costs nothing beyond the two powers psi already needs, then shrinks the
bracket by the sign of psi; a step that would leave it is replaced by a
bisection, so the iteration cannot diverge. ``project`` finds both roots
with two calls. ``label`` splits the manifold into N+, N- and N0 by the
sign of phi''(1); ``classify`` and the solver's converged verdict read it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .energy import PairStats, pair_stats, phi_from_stats
from .errors import NoBracket, NonpositiveK, NonpositiveNorm, NonpositiveT
from .form import GagliardoForm
from .problem import GridPair, ValidatedProblem

# the bands of label: |phi'(1)| and |phi''(1)|, relative to norm2 + |K| + |B|
MANIFOLD_TOL = 1e-8
DEGENERATE_TOL = 1e-10
_ROOT_TOL = 1e-12  # a root is final once its Newton step in log t is shorter
_MAX_STEPS = 240


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
    return _psi(stats.norm2, stats.K, stats.B, 2 - ab, 1 - ab - q, t)


def _psi(norm2: float, K: float, B: float, e_n: float, e_k: float, t: float) -> float:
    # psi for t > 0, with its exponents e_n = 2 - ab and e_k = 1 - ab - q
    return t**e_n * norm2 - t**e_k * K - B


def _t_max(norm2: float, K: float, q: float, ab: float) -> float:
    return ((ab - 1 + q) * K / ((ab - 2) * norm2)) ** (1 / (1 + q))


def t_max(stats: PairStats, q: float, ab: float) -> float:
    """Unique maximizer of psi: [(ab-1+q) K / ((ab-2) norm2)]^{1/(1+q)}."""
    if stats.norm2 <= 0:
        raise NonpositiveNorm(f"t_max requires norm2 > 0, got {stats.norm2}")
    if stats.K <= 0:
        raise NonpositiveK(f"t_max requires K > 0, got {stats.K}")
    return float(_t_max(stats.norm2, stats.K, q, ab))


def root(norm2: float, K: float, B: float, q: float, ab: float, upper: bool) -> float | None:
    """The scaling that puts a direction with these pair statistics on one
    branch, or None if none does.

    upper=False asks for the fiber minimum t1 (local-min branch), upper=True
    for the fiber maximum: t2 for K > 0, the falling root for K <= 0.
    Raises NoBracket when rounding collapsed psi(t_max) although B <= 0, or
    when psi changes no sign within the float range, which includes t_max
    or psi(t_max) leaving it and statistics that are not finite. The
    statistics come as three floats: the block descent calls it once per
    trial row, with no object per row.
    """
    if norm2 <= 0:
        return None
    e_n, e_k = 2 - ab, 1 - ab - q
    try:
        if K <= 0:
            # a negative parameter can get here; the fiber then has no
            # minimum, and psi(t0) = -t0^{e_k} K >= 0 at t0 = (norm2 / B)^{1/(a-2)}
            if not upper or B <= 0:
                return None
            x_in = (math.log(norm2) - math.log(B)) / (ab - 2)
        else:
            if upper and B <= 0:
                return None  # a single root, the fiber minimum
            tm = _t_max(norm2, K, q, ab)
            if _psi(norm2, K, B, e_n, e_k, tm) <= 0:
                # exact arithmetic gives psi(t_max) > -B, so for B <= 0 only
                # rounding gets here
                if B <= 0:
                    raise NoBracket("psi has no positive maximum; degenerate stats")
                return None
            x_in = math.log(tm)
        if not math.isfinite(x_in):
            # statistics that are not finite, or t_max beyond the float
            # range: from such an anchor the bracket never widens
            raise OverflowError
        # psi >= 0 at the anchor x_in and changes sign once on the root's
        # side of it. Start at t = 1, clipped to that side (a descent trial
        # lies one step from the manifold), and widen geometrically in
        # x = log t until the sign changes. The loops inline _psi, since
        # Newton's slope needs its two power terms (a call per evaluation
        # slowed sweep_n64 by 7%, 2-core x86).
        side = 1.0 if upper else -1.0
        x = side * max(side * x_in, 0.0)
        width = 1.0
        while True:
            t = math.exp(x)
            pn, pk = t**e_n * norm2, t**e_k * K
            val = pn - pk - B
            if val <= 0.0:
                break
            x_in, x = x, x + side * width
            width *= 2.0
    except (OverflowError, ZeroDivisionError):
        # t or t_max left the float range: exp overflows above it, and below
        # it a negative power of t overflows or t itself underflows to 0
        raise NoBracket("psi changes no sign in the float range; degenerate stats") from None
    # Newton from the first point past the sign change: t = 1 itself unless
    # the bracket had to widen
    x_out = x
    for _ in range(_MAX_STEPS):
        slope = e_n * pn - e_k * pk
        x_new = x - val / slope if slope != 0.0 else math.nan
        if not (x_new - x_in) * (x_new - x_out) <= 0.0:  # also catches nan: bisect
            x_new = 0.5 * (x_in + x_out)
        if abs(x_new - x) < _ROOT_TOL:
            return math.exp(x_new)
        x = x_new
        t = math.exp(x)
        pn, pk = t**e_n * norm2, t**e_k * K
        val = pn - pk - B
        if val > 0.0:
            x_in = x
        else:
            x_out = x
    return math.exp(x)


def project(stats: PairStats, q: float, ab: float) -> FiberRoots:
    """Both manifold scalings of a direction with K > 0."""
    tm = t_max(stats, q, ab)
    ptm = psi(stats, q, ab, tm)
    t1 = root(stats.norm2, stats.K, stats.B, q, ab, upper=False)
    if t1 is None:
        return FiberRoots(case=FiberCase.NO_ADMISSIBLE_ROOT, t1=None, t2=None,
                          t_max=tm, psi_at_tmax=ptm)
    t2 = root(stats.norm2, stats.K, stats.B, q, ab, upper=True)
    case = FiberCase.SINGLE_ROOT if t2 is None else FiberCase.TWO_ROOTS
    return FiberRoots(case=case, t1=t1, t2=t2, t_max=tm, psi_at_tmax=ptm)


def label(phi1: float, phi2: float, scale: float) -> MembershipLabel:
    """Manifold membership from phi'(1) and phi''(1), relative to scale =
    norm2 + |K| + |B|: on the manifold when |phi'(1)| <= MANIFOLD_TOL * scale,
    then N0 when |phi''(1)| <= DEGENERATE_TOL * scale, else N+ or N- by the
    sign of phi''(1). Exact equality is measure-zero in floating point, so
    membership in the manifold and in N0 is a band, not a point."""
    if not abs(phi1) <= MANIFOLD_TOL * scale:  # also catches nan
        return MembershipLabel.OFF_MANIFOLD
    if phi2 > DEGENERATE_TOL * scale:
        return MembershipLabel.N_PLUS
    if phi2 < -DEGENERATE_TOL * scale:
        return MembershipLabel.N_MINUS
    return MembershipLabel.N_ZERO


def classify(problem: ValidatedProblem, form: GagliardoForm, pair: GridPair) -> Membership:
    """Manifold membership of a pair: ``label`` of its phi'(1) and phi''(1)."""
    st = pair_stats(problem, form, pair)
    _, d1, d2 = phi_from_stats(st, problem.q, problem.alpha + problem.beta, 1.0)
    return Membership(label=label(d1, d2, st.scale()), phi1=d1, phi2=d2)
