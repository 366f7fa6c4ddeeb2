import math
from dataclasses import astuple

import numpy as np
import pytest
from scipy.optimize import brentq

import neharifrac as nf
from neharifrac.errors import NoBracket, NonpositiveK, NonpositiveNorm, NonpositiveT
from neharifrac.fiber import DEGENERATE_TOL, MANIFOLD_TOL, label, root

from conftest import bump_pair, classify

Q, AB = 0.5, 3.0


def psi_explicit(t, n2, K, B):
    # independent formula used as the oracle throughout this module
    return t ** (2 - AB) * n2 - t ** (1 - AB - Q) * K - B


def psi_prime_explicit(t, n2, K):
    return (2 - AB) * t ** (1 - AB) * n2 + (AB - 1 + Q) * t ** (-AB - Q) * K


def test_psi_synthetic_value():
    st = nf.PairStats(1.0, 0.1, 0.1)
    assert nf.psi(st, Q, AB, 1.0) == pytest.approx(0.8, rel=1e-14)


def test_psi_matches_fiber_derivative():
    rng = np.random.default_rng(0)
    st = nf.PairStats(2.3, 0.4, -0.2)
    from neharifrac.energy import phi_from_stats
    for _ in range(20):
        t = float(rng.uniform(0.05, 8.0))
        _, d1, _ = phi_from_stats(st, Q, AB, t)
        assert nf.psi(st, Q, AB, t) * t ** (AB - 1) == pytest.approx(d1, rel=1e-12)


def test_psi_blows_down_at_zero():
    st = nf.PairStats(1.0, 0.5, 0.1)
    assert nf.psi(st, Q, AB, 1e-6) < -1e6 * abs(st.B)
    with pytest.raises(NonpositiveT):
        nf.psi(st, Q, AB, 0.0)


def test_t_max_values_against_root_oracle():
    # oracle: bisection on the explicit derivative of psi
    for n2, K in ((1.0, 1.0), (1.0, 0.1), (2.7, 0.63)):
        tm = nf.t_max(nf.PairStats(n2, K, 0.0), Q, AB)
        tm_oracle = brentq(lambda t: psi_prime_explicit(t, n2, K), 1e-6, 1e6,
                           xtol=1e-14, rtol=1e-14)
        assert tm == pytest.approx(tm_oracle, rel=1e-10)
    assert nf.t_max(nf.PairStats(1.0, 1.0, 0.0), Q, AB) == pytest.approx(
        2.5 ** (2.0 / 3.0), rel=1e-13)
    assert nf.t_max(nf.PairStats(1.0, 0.1, 0.0), Q, AB) == pytest.approx(
        0.25 ** (2.0 / 3.0), rel=1e-13)


def test_t_max_is_a_maximum():
    st = nf.PairStats(1.0, 0.7, 0.0)
    tm = nf.t_max(st, Q, AB)
    assert psi_prime_explicit(tm, st.norm2, st.K) == pytest.approx(0.0, abs=1e-10)
    for dt in (0.9, 1.1):
        assert nf.psi(st, Q, AB, tm * dt) < nf.psi(st, Q, AB, tm)


def test_t_max_scaling():
    st = nf.PairStats(1.0, 0.3, 0.0)
    tm = nf.t_max(st, Q, AB)
    for c in (0.5, 2.0, 5.0):
        scaled = nf.PairStats(c**2 * st.norm2, c ** (1 - Q) * st.K, 0.0)
        assert nf.t_max(scaled, Q, AB) == pytest.approx(tm / c, rel=1e-13)


def test_t_max_rejects_degenerate_stats():
    with pytest.raises(NonpositiveNorm):
        nf.t_max(nf.PairStats(0.0, 1.0, 0.0), Q, AB)
    with pytest.raises(NonpositiveK):
        nf.t_max(nf.PairStats(1.0, 0.0, 0.0), Q, AB)


def test_project_two_roots_fixture():
    # oracle: bisection to 1e-10 on psi(t) = 1/t - 0.1 t^{-2.5} - 0.1
    st = nf.PairStats(1.0, 0.1, 0.1)
    roots = nf.project(st, Q, AB)
    assert roots.case is nf.FiberCase.TWO_ROOTS
    tm = roots.t_max
    t1_oracle = brentq(lambda t: psi_explicit(t, 1.0, 0.1, 0.1), 1e-8, tm,
                       xtol=1e-10)
    t2_oracle = brentq(lambda t: psi_explicit(t, 1.0, 0.1, 0.1), tm, 1e4,
                       xtol=1e-10)
    assert roots.t1 == pytest.approx(t1_oracle, abs=1e-8)
    assert roots.t2 == pytest.approx(t2_oracle, abs=1e-6)
    # frozen oracle values
    assert roots.t1 == pytest.approx(0.2186, abs=1e-3)
    assert roots.t2 == pytest.approx(9.968, abs=1e-2)
    assert roots.t1 < roots.t_max < roots.t2
    assert psi_prime_explicit(roots.t1, 1.0, 0.1) > 0
    assert psi_prime_explicit(roots.t2, 1.0, 0.1) < 0


def test_project_single_root_fixture():
    st = nf.PairStats(1.0, 0.1, -0.1)
    roots = nf.project(st, Q, AB)
    assert roots.case is nf.FiberCase.SINGLE_ROOT
    assert roots.t2 is None
    t1_oracle = brentq(lambda t: psi_explicit(t, 1.0, 0.1, -0.1), 1e-8, roots.t_max,
                       xtol=1e-12)
    assert roots.t1 == pytest.approx(t1_oracle, rel=1e-8)
    assert psi_prime_explicit(roots.t1, 1.0, 0.1) > 0


def test_project_no_admissible_root_fixture():
    st = nf.PairStats(1.0, 0.1, 10.0)
    roots = nf.project(st, Q, AB)
    assert roots.case is nf.FiberCase.NO_ADMISSIBLE_ROOT
    assert roots.t1 is None and roots.t2 is None
    # oracle: value at the maximizer, 2.51984... - 1.00794... - 10 < 0
    tm = 0.25 ** (2.0 / 3.0)
    expected = psi_explicit(tm, 1.0, 0.1, 10.0)
    assert roots.psi_at_tmax == pytest.approx(expected, rel=1e-12)
    assert expected < 0
    assert expected == pytest.approx(2.5198420998 - 1.0079368399 - 10.0, rel=1e-9)


def test_project_root_residuals():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n2 = float(rng.uniform(0.2, 5.0))
        K = float(rng.uniform(0.01, 2.0))
        B = float(rng.uniform(-2.0, 2.0))
        st = nf.PairStats(n2, K, B)
        roots = nf.project(st, Q, AB)
        scale = n2 + abs(K) + abs(B)
        f = lambda t: psi_explicit(t, n2, K, B)
        if roots.t1 is not None:
            assert abs(nf.psi(st, Q, AB, roots.t1)) <= 1e-8 * scale
            t1_oracle = brentq(f, 1e-12, roots.t_max, xtol=1e-300, rtol=1e-15)
            assert roots.t1 == pytest.approx(t1_oracle, rel=1e-10)
        if roots.t2 is not None:
            assert abs(nf.psi(st, Q, AB, roots.t2)) <= 1e-8 * scale
            t2_oracle = brentq(f, roots.t_max, 1e12, xtol=1e-300, rtol=1e-15)
            assert roots.t2 == pytest.approx(t2_oracle, rel=1e-10)


def test_project_roots_over_wide_stats():
    # stats over eight decades and the whole exponent range: plain Newton
    # leaves the bracket on about one draw in seven here
    rng = np.random.default_rng(3)
    for _ in range(200):
        q = float(rng.uniform(0.05, 0.95))
        ab = float(rng.uniform(2.05, 6.0))
        n2, K = 10 ** rng.uniform(-4.0, 4.0, size=2)
        B = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-4.0, 4.0))
        st = nf.PairStats(float(n2), float(K), B)
        roots = nf.project(st, q, ab)
        f = lambda t: nf.psi(st, q, ab, t)
        tm = roots.t_max
        if roots.t1 is not None:
            oracle = brentq(f, 1e-30 * tm, tm, xtol=1e-300, rtol=1e-15, maxiter=1000)
            assert roots.t1 == pytest.approx(oracle, rel=1e-10)
        if roots.t2 is not None:
            hi = tm
            while f(hi) > 0:  # t2 reaches 1e46 when a is near 2 and B small
                hi *= 1e10
            oracle = brentq(f, tm, hi, xtol=1e-300, rtol=1e-15, maxiter=1000)
            assert roots.t2 == pytest.approx(oracle, rel=1e-10)
    # K <= 0 < B over the same ranges: the falling root, at or above the
    # root t0 of the K = 0 part
    for _ in range(200):
        q = float(rng.uniform(0.05, 0.95))
        ab = float(rng.uniform(2.05, 6.0))
        n2, K, B = 10 ** rng.uniform(-4.0, 4.0, size=3)
        st = nf.PairStats(float(n2), -float(K), float(B))
        t = root(*astuple(st), q, ab, upper=True)
        assert root(*astuple(st), q, ab, upper=False) is None
        f = lambda t: nf.psi(st, q, ab, t)
        # psi(t0 / 2) > 2^{a-2} B - B > 0, while psi(t0) may round to 0
        lo = (n2 / B) ** (1 / (ab - 2)) / 2
        hi = 4 * lo
        while f(hi) > 0:
            hi *= 1e10
        oracle = brentq(f, lo, hi, xtol=1e-300, rtol=1e-15, maxiter=1000)
        assert t == pytest.approx(oracle, rel=1e-10)


def test_branch_root_is_scale_covariant():
    # a projected pair projects to t = 1, and scaling the direction by c
    # divides its root by c: the bracket starts at t = 1 and widens below
    # (c = 1e3) or above (c = 1e-3) it
    rng = np.random.default_rng(4)
    for upper in (False, True):
        for _ in range(50):
            q = float(rng.uniform(0.05, 0.95))
            ab = float(rng.uniform(2.05, 6.0))
            n2, K, B = 10 ** rng.uniform(-2.0, 2.0, size=3)
            st = nf.PairStats(float(n2), float(K), float(B))
            t = root(*astuple(st), q, ab, upper)
            if t is None:
                continue
            on = nf.PairStats(t**2 * st.norm2, t ** (1 - q) * st.K, t**ab * st.B)
            assert root(*astuple(on), q, ab, upper) == pytest.approx(1.0, rel=1e-12)
            for c in (1e-3, 1e3):
                scaled = nf.PairStats(c**2 * on.norm2, c ** (1 - q) * on.K, c**ab * on.B)
                assert root(*astuple(scaled), q, ab, upper) == pytest.approx(1 / c, rel=1e-12)


def test_falling_root_against_brentq():
    # K <= 0 < B: psi falls from +infinity to -B through one fiber maximum
    rng = np.random.default_rng(2)
    for _ in range(50):
        n2 = float(rng.uniform(0.2, 5.0))
        K = -float(rng.uniform(0.0, 2.0))
        B = float(rng.uniform(0.01, 2.0))
        t = root(n2, K, B, Q, AB, upper=True)
        oracle = brentq(lambda t: psi_explicit(t, n2, K, B), 1e-12, 1e12,
                        xtol=1e-300, rtol=1e-15)
        assert t == pytest.approx(oracle, rel=1e-10)
        assert psi_prime_explicit(t, n2, K) < 0
    # K <= 0 and B <= 0: psi stays positive, no scaling on either branch
    for upper in (False, True):
        assert root(1.0, -0.1, 0.0, Q, AB, upper) is None


@pytest.mark.parametrize("norm2,K,B,upper", [
    (1.0, 1e-300, 0.5, False),  # t_max near 1e-200: psi(t_max) overflows
    (1.0, 1e-300, 0.5, True),
    (1e300, 1e-300, 1.0, False),  # t_max underflows to 0
    (math.nan, math.inf, math.nan, False),  # a trial whose sums overflowed
    (math.nan, math.inf, math.nan, True),
    (1.0, math.inf, 1.0, True),  # t_max is infinite
    (math.nan, -1.0, 1.0, True),  # the falling root's anchor is NaN
    (1.0, -1.0, math.nan, True),
])
def test_root_names_statistics_beyond_the_float_range(norm2, K, B, upper):
    # t_max, psi(t_max) or the anchor leaving the float range is NoBracket,
    # as the bracket loop's own overflow is; a NaN anchor must not loop
    with pytest.raises(NoBracket):
        root(norm2, K, B, Q, AB, upper)


def test_project_rejects_nonpositive_k():
    with pytest.raises(NonpositiveK):
        nf.project(nf.PairStats(1.0, -0.5, 0.1), Q, AB)


def test_classify_projected_pairs(problem64, form64):
    q, ab = problem64.q, problem64.alpha + problem64.beta
    pair = bump_pair(problem64, center=0.0, width=0.3)
    st = nf.pair_stats(problem64, form64, pair)
    assert st.B > 0
    roots = nf.project(st, q, ab)
    assert roots.case is nf.FiberCase.TWO_ROOTS
    m1 = classify(problem64, form64, roots.t1 * pair)
    assert m1 is nf.MembershipLabel.N_PLUS
    m2 = classify(problem64, form64, roots.t2 * pair)
    assert m2 is nf.MembershipLabel.N_MINUS
    off = classify(problem64, form64, (roots.t1 * 1.5) * pair)
    assert off is nf.MembershipLabel.OFF_MANIFOLD


def test_label_bands():
    # phi''(1) within DEGENERATE_TOL * scale is N0, the first float outside
    # the band on either side N+ or N-; |phi'(1)| beyond MANIFOLD_TOL * scale
    # or nan is off the manifold, whatever phi''(1) is
    L = nf.MembershipLabel
    scale = 7.5
    band, on = DEGENERATE_TOL * scale, MANIFOLD_TOL * scale
    for phi1 in (0.0, on, -on):
        for phi2 in (0.0, 0.5 * band, -0.5 * band, band, -band):
            assert label(phi1, phi2, scale) is L.N_ZERO
        assert label(phi1, math.nextafter(band, math.inf), scale) is L.N_PLUS
        assert label(phi1, math.nextafter(-band, -math.inf), scale) is L.N_MINUS
    for phi1 in (math.nan, math.nextafter(on, math.inf), -2 * on):
        for phi2 in (0.0, 1.0, -1.0):
            assert label(phi1, phi2, scale) is L.OFF_MANIFOLD


def test_fiber_structure_positive_coupling(problem64, form64):
    # 50 random admissible directions with positive coupling integral
    rng = np.random.default_rng(21)
    q, ab = problem64.q, problem64.alpha + problem64.beta
    count = 0
    while count < 50:
        center = float(rng.uniform(-0.25, 0.25))
        width = float(rng.uniform(0.1, 0.4))
        amp_u = float(rng.uniform(0.3, 3.0))
        amp_w = float(rng.uniform(0.3, 3.0))
        pair = bump_pair(problem64, center, width, amp_u, amp_w)
        st = nf.pair_stats(problem64, form64, pair)
        if st.B <= 0 or st.K <= 0:
            continue
        count += 1
        roots = nf.project(st, q, ab)
        assert roots.psi_at_tmax > 0
        assert roots.case is nf.FiberCase.TWO_ROOTS
        assert 0 < roots.t1 < roots.t_max < roots.t2
        assert psi_prime_numeric(st, q, ab, roots.t1) > 0
        assert psi_prime_numeric(st, q, ab, roots.t2) < 0
        assert classify(problem64, form64, roots.t1 * pair) \
            is nf.MembershipLabel.N_PLUS
        assert classify(problem64, form64, roots.t2 * pair) \
            is nf.MembershipLabel.N_MINUS


def test_fiber_structure_nonpositive_coupling(problem64, form64):
    rng = np.random.default_rng(22)
    q, ab = problem64.q, problem64.alpha + problem64.beta
    count = 0
    while count < 50:
        center = float(rng.uniform(-0.9, -0.7))
        width = float(rng.uniform(0.05, 0.15))
        amp_u = float(rng.uniform(0.3, 3.0))
        amp_w = float(rng.uniform(0.3, 3.0))
        pair = bump_pair(problem64, center, width, amp_u, amp_w)
        st = nf.pair_stats(problem64, form64, pair)
        if st.B > 0 or st.K <= 0:
            continue
        count += 1
        roots = nf.project(st, q, ab)
        assert roots.case is nf.FiberCase.SINGLE_ROOT
        assert 0 < roots.t1 < roots.t_max
        assert classify(problem64, form64, roots.t1 * pair) \
            is nf.MembershipLabel.N_PLUS


def psi_prime_numeric(st, q, ab, t):
    return (2 - ab) * t ** (1 - ab) * st.norm2 + (ab - 1 + q) * t ** (-ab - q) * st.K


def test_projection_extremizes_fiber(problem64, form64):
    # t1 minimizes the fiber up to t_max; t2 maximizes it beyond t1
    q, ab = problem64.q, problem64.alpha + problem64.beta
    pair = bump_pair(problem64, 0.0, 0.35, 1.1, 0.9)
    st = nf.pair_stats(problem64, form64, pair)
    roots = nf.project(st, q, ab)
    from neharifrac.energy import phi_from_stats
    ts = np.linspace(1e-6, roots.t_max, 1000)
    vals = [phi_from_stats(st, q, ab, float(t))[0] for t in ts]
    v1 = phi_from_stats(st, q, ab, roots.t1)[0]
    assert v1 <= min(vals) + 1e-12 * abs(v1)
    ts2 = np.linspace(roots.t1, 10 * roots.t2, 1000)
    vals2 = [phi_from_stats(st, q, ab, float(t))[0] for t in ts2]
    v2 = phi_from_stats(st, q, ab, roots.t2)[0]
    assert v2 >= max(vals2) - 1e-12 * max(1.0, abs(v2))
