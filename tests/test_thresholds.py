import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import neharifrac as nf
from neharifrac.errors import (
    InverseIterationNotConverged,
    NonpositiveBSup,
    NonpositiveLambda,
    NonpositiveS,
)
from neharifrac import form as form_mod
from neharifrac import thresholds
from neharifrac.thresholds import (
    MAX_INVERSE_ITERATIONS, S_RTOL, _inverse_iteration, rayleigh_quotient)

from conftest import rho_minimum


def test_q_star_values():
    # oracle: direct arithmetic (alpha+beta)/(alpha+beta-1+q)
    assert nf.q_star(1.5, 1.5, 0.5) == pytest.approx(3.0 / 2.5, rel=1e-15)
    assert nf.q_star(1.5, 1.5, 0.5) == pytest.approx(1.2, rel=1e-14)
    assert nf.q_star(1.5, 1.5, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_q_star_monotone_decreasing_in_q():
    assert nf.q_star(1.5, 1.5, 0.2) > nf.q_star(1.5, 1.5, 0.8)


def test_weight_norm_constant():
    grid = nf.GridSpec(-1.0, 1.0, 64)
    w = grid.trapezoid_weights()
    ones = np.ones(grid.node_count)
    # oracle: (int_{-1}^{1} 1 dx)^{1/r} = 2^{1/1.2}
    expected = 2.0 ** (1.0 / 1.2)
    assert nf.weight_norm(1.2, ones, w) == pytest.approx(expected, rel=1e-14)
    assert nf.weight_norm(1.2, ones, w) == pytest.approx(1.78180, abs=5e-6)
    assert nf.weight_norm(1.2, np.zeros_like(ones), w) == 0.0
    assert nf.weight_norm(1.2, 3.7 * ones, w) == pytest.approx(3.7 * expected, rel=1e-13)


def test_lambda_aggregate_fixture():
    # oracle: 2 * (0.01 * 2^{1/1.2})^{4/3} computed directly
    f_norm = 2.0 ** (1.0 / 1.2)
    expected = 2.0 * (0.01 * f_norm) ** (4.0 / 3.0)
    got = nf.lambda_aggregate(0.01, 0.01, f_norm, f_norm, 0.5)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(0.0093077, rel=1e-4)
    assert nf.lambda_aggregate(0.0, 0.0, 1.0, 1.0, 0.5) == 0.0
    # symmetric under swapping the (parameter, weight-norm) slots
    assert nf.lambda_aggregate(0.02, 0.3, 1.1, 2.2, 0.5) == pytest.approx(
        nf.lambda_aggregate(0.3, 0.02, 2.2, 1.1, 0.5), rel=1e-15)


def test_threshold_C_fixture():
    # oracle: 0.36 * 0.4^{4/3}
    expected = (1.5 / 2.5) ** 2 * (1.0 / 2.5) ** (4.0 / 3.0)
    got = nf.threshold_C(1.5, 1.5, 0.5, S=1.0, b_sup=1.0)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(0.106100, abs=5e-7)


def test_threshold_C_monotone_in_S_and_b_scaling():
    c1 = nf.threshold_C(1.5, 1.5, 0.5, 1.0, 1.0)
    c2 = nf.threshold_C(1.5, 1.5, 0.5, 2.0, 1.0)
    assert c2 > c1
    cb = nf.threshold_C(1.5, 1.5, 0.5, 1.0, 2.0)
    assert cb == pytest.approx(c1 * 0.5 ** (2.0 / (3.0 - 2.0)), rel=1e-13)
    with pytest.raises(NonpositiveS):
        nf.threshold_C(1.5, 1.5, 0.5, 0.0, 1.0)
    with pytest.raises(NonpositiveBSup):
        nf.threshold_C(1.5, 1.5, 0.5, 1.0, 0.0)


def test_gap_radii_fixture():
    A0, A_lm = nf.gap_radii(1.5, 1.5, 0.5, S=1.0, b_sup=1.0, Lambda=0.0)
    assert A0 == pytest.approx(0.6, rel=1e-14)
    assert A_lm == 0.0
    C = nf.threshold_C(1.5, 1.5, 0.5, 1.0, 1.0)
    A0, A_lm = nf.gap_radii(1.5, 1.5, 0.5, 1.0, 1.0, Lambda=C)
    assert A_lm == pytest.approx(A0, rel=1e-10)
    assert A_lm == pytest.approx(0.6, rel=1e-9)


def test_E_coefficient_sign_structure():
    C = nf.threshold_C(1.5, 1.5, 0.5, 1.0, 1.0)
    assert nf.E_coefficient(1.5, 1.5, 0.5, 1.0, 1.0, Lambda=C) == pytest.approx(
        0.0, abs=1e-10)
    assert nf.E_coefficient(1.5, 1.5, 0.5, 1.0, 1.0, Lambda=C / 2) > 0
    assert nf.E_coefficient(1.5, 1.5, 0.5, 1.0, 1.0, Lambda=2 * C) < 0
    with pytest.raises(NonpositiveLambda):
        nf.E_coefficient(1.5, 1.5, 0.5, 1.0, 1.0, Lambda=0.0)


def test_constants_identity_suite_random_draws():
    # E(Lambda=C) = 0, A_lm(Lambda=C) = A0, sign(E) = sign(C - Lambda)
    rng = np.random.default_rng(123)
    for _ in range(100):
        s = float(rng.uniform(1 / 6 + 0.01, 0.5 - 0.01))
        crit = 2.0 / (1.0 - 2.0 * s)
        ab = float(rng.uniform(2.05, min(crit - 1.05, 6.0)))
        alpha = beta = ab / 2
        q = float(rng.uniform(0.05, 0.95))
        S = float(rng.uniform(0.1, 10.0))
        b_sup = float(rng.uniform(0.1, 5.0))
        C = nf.threshold_C(alpha, beta, q, S, b_sup)
        assert abs(nf.E_coefficient(alpha, beta, q, S, b_sup, C)) <= 1e-9 * max(
            1.0, 1.0 / C)
        A0, A_lm = nf.gap_radii(alpha, beta, q, S, b_sup, C)
        assert A_lm == pytest.approx(A0, rel=1e-9)
        factor = float(rng.uniform(0.2, 5.0))
        E = nf.E_coefficient(alpha, beta, q, S, b_sup, factor * C)
        if factor < 1:
            assert E > 0
        elif factor > 1:
            assert E < 0


def test_energy_lower_bound_fixture():
    # oracle: -(1.5 * 1)/(0.5 * 3) * 1.25^{4/3} * Lambda at S = 1
    expected = -(1.5 * 1.0) / (0.5 * 3.0) * 1.25 ** (4.0 / 3.0) * 0.1
    got = nf.energy_lower_bound(1.5, 1.5, 0.5, S=1.0, Lambda=0.1)
    assert got == pytest.approx(expected, rel=1e-13)
    assert got == pytest.approx(-0.1346522, abs=5e-7)
    assert nf.energy_lower_bound(1.5, 1.5, 0.5, 1.0, 0.0) == 0.0
    with pytest.raises(NonpositiveS):
        nf.energy_lower_bound(1.5, 1.5, 0.5, 0.0, 0.1)


def test_rho_minimum_against_golden_section():
    # oracle: golden-section minimization of rho(t) = t^2 - t^{0.5}
    t_min, rho_min = rho_minimum(c=1.0, d=1.0, q=0.5)
    res = minimize_scalar(lambda t: t * t - math.sqrt(t), bracket=(1e-4, 0.3, 2.0),
                          method="golden", options={"xtol": 1e-12})
    assert t_min == pytest.approx(res.x, abs=1e-8)
    assert rho_min == pytest.approx(res.fun, abs=1e-8)
    assert t_min == pytest.approx(0.25 ** (2.0 / 3.0), rel=1e-13)
    assert t_min == pytest.approx(0.396850, abs=5e-7)
    assert rho_min == pytest.approx(-0.472470, abs=5e-7)


def test_rho_minimum_generic_draws():
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = float(rng.uniform(0.05, 2.0))
        d = float(rng.uniform(0.05, 2.0))
        q = float(rng.uniform(0.1, 0.9))
        t_min, rho_min = rho_minimum(c, d, q)
        rho = lambda t: c * t * t - d * t ** (1 - q)
        assert rho_min == pytest.approx(rho(t_min), rel=1e-12)
        for dt in (0.95, 1.05):
            assert rho(t_min * dt) >= rho_min


def test_estimate_S_upper_bounds_candidates(form64):
    x = form64.nodes
    hat = np.zeros(x.size)
    hat[x.size // 2] = 1.0
    hat_quot = rayleigh_quotient(form64, 3.0, hat)
    S = nf.estimate_S(form64, 3.0, [hat])
    assert S <= hat_quot
    # adding candidates never increases the estimate
    bump = np.maximum(0.0, 1 - (x / 0.5) ** 2) ** 2
    S2 = nf.estimate_S(form64, 3.0, [hat, bump])
    assert S2 <= S + 1e-15
    # scale invariance: duplicated scaled candidates change nothing
    S3 = nf.estimate_S(form64, 3.0, [hat, bump, 5.0 * bump, 0.1 * hat])
    assert S3 == pytest.approx(S2, rel=1e-12)


def test_estimate_S_requires_candidates(form64):
    # no candidate leaves the refinement of the two starts
    refined = _inverse_iteration(form64, 3.0, *nf.default_candidates(form64))
    assert nf.estimate_S(form64, 3.0, []) == refined


def test_estimate_S_skips_zero_candidates(form64):
    # a component that collapsed to zero has no quotient; it must not
    # crash the estimate, and alone it leaves the refinement
    zero = np.zeros(form64.grid.cells - 1)
    cands = nf.default_candidates(form64)
    assert nf.estimate_S(form64, 3.0, cands + [zero]) == nf.estimate_S(form64, 3.0, cands)
    assert nf.estimate_S(form64, 3.0, [zero]) == nf.estimate_S(form64, 3.0, [])


def _earlier_candidates(grid):
    # the hat, the smooth bump and the half-cosine that earlier versions
    # passed to estimate_S by default, built here so that a change to the
    # starts of the refinement does not change them; as interior values
    x = grid.nodes()
    mid = 0.5 * (grid.left + grid.right)
    halfwidth = 0.5 * (grid.right - grid.left)
    hat = np.zeros(grid.node_count)
    hat[grid.cells // 2] = 1.0
    bump = np.maximum(0.0, 1 - ((x - mid) / (0.6 * halfwidth)) ** 2) ** 2
    cosine = np.cos(0.5 * np.pi * (x - mid) / halfwidth)
    return [hat[1:-1], bump[1:-1], cosine[1:-1]]


def _quotient_gradient_reference(form, r, values):
    v = values[1:-1]
    num = float(v @ form.matrix @ v)
    den_sum = float(np.sum(form.grid.trapezoid_weights() * np.abs(values) ** r))
    den = den_sum ** (2.0 / r)
    g = np.zeros_like(values)
    g[1:-1] = (2.0 * (form.matrix @ v) / den
               - (num / den) * (2.0 / r)
               * (r * form.grid.trapezoid_weights()[1:-1] * np.sign(v) * np.abs(v) ** (r - 1))
               / den_sum)
    return g


def _descend_quotient_reference(form, r, values, max_iters=200, step0=0.5):
    # oracle: the descent with full products for every trial quotient, on
    # the nodal values of the interior values given
    u = np.pad(values, 1) / np.abs(values).max()
    best = rayleigh_quotient(form, r, u[1:-1])
    step = step0
    for _ in range(max_iters):
        g = _quotient_gradient_reference(form, r, u)
        gn = np.linalg.norm(g)
        if gn == 0.0:
            break
        accepted = False
        while step > 1e-14:
            trial = u - step * g / gn
            trial[0] = trial[-1] = 0.0
            if not np.any(trial[1:-1]):
                step *= 0.5
                continue
            qt = rayleigh_quotient(form, r, trial[1:-1])
            if qt < best:
                u, best = trial, qt
                step = min(step * 2.0, step0)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    return best


@pytest.mark.parametrize("r", [2.2, 3.0, 10.0])
@pytest.mark.parametrize("form_name", ["form64", "form128"])
def test_estimate_S_matches_reference_descent(form_name, r, request):
    form = request.getfixturevalue(form_name)
    cands = _earlier_candidates(form.grid)
    reference = min(min(rayleigh_quotient(form, r, c), _descend_quotient_reference(form, r, c))
                    for c in cands)
    assert nf.estimate_S(form, r, cands) == pytest.approx(reference, rel=1e-12)


def test_estimate_S_at_most_the_euclidean_descent():
    # the 200-step Euclidean descent stops short of the minimum at this N;
    # the inverse iteration must do at least as well
    form = nf.assemble_form(nf.GridSpec(-1.0, 1.0, 1024), 0.4)
    cands = _earlier_candidates(form.grid)
    euclidean = min(min(rayleigh_quotient(form, 3.0, c), _descend_quotient_reference(form, 3.0, c))
                    for c in cands)
    assert nf.estimate_S(form, 3.0, cands) <= euclidean * (1 + 1e-12)


def test_inverse_iteration_count_is_flat_in_n(monkeypatch):
    # one Riesz solve per outer iteration; the refinement runs once per form
    # and exponent, so later estimates on the same form take none
    counts = []
    for cells in (128, 256, 512, 1024):
        form = nf.assemble_form(nf.GridSpec(-1.0, 1.0, cells), 0.4)
        solve = form.riesz
        calls = []
        monkeypatch.setattr(form, "riesz",
                            lambda *a, **k: calls.append(1) or solve(*a, **k))
        first, *others = _earlier_candidates(form.grid)
        nf.estimate_S(form, 3.0, [first])
        counts.append(len(calls))
        for cand in others:
            nf.estimate_S(form, 3.0, [cand])
        assert len(calls) == counts[-1]
        nf.estimate_S(form, 2.5, [first])
        assert len(calls) > counts[-1]
    assert max(counts) - min(counts) <= 2 and max(counts) <= 15, counts


def _refine_alone_reference(form, r, start, product=True):
    # oracle: one start refined alone by the plain inverse iteration, with no
    # extrapolation; every quotient's numerator y'Gy taken by a product with
    # G, or with product=False as y'(G y) from the Riesz map's right-hand
    # side, the way the refinement takes it. Returns the least quotient and
    # the iterations
    w = form.grid.trapezoid_weights()[1:-1]
    v = start / np.abs(start).max()
    best = float(v @ form.apply(v)) / float(np.abs(v) ** r @ w) ** (2.0 / r)
    for iterations in range(1, MAX_INVERSE_ITERATIONS + 1):
        rhs = w * np.sign(v) * np.abs(v) ** (r - 1)
        y = form.riesz(rhs)
        peak = np.abs(y).max()
        y /= peak
        gy = form.apply(y) if product else rhs / peak
        quotient = float(y @ gy) / float(np.abs(y) ** r @ w) ** (2.0 / r)
        drop = (best - quotient) / best
        if drop > 0:
            v, best = y, quotient
        if drop < S_RTOL:
            return best, iterations
    raise AssertionError("the reference refinement did not stop")


def _window_ends(s):
    # 1% inside each end of the admissible window 2 < r < 2/(1-2s) - 1
    top = 2.0 / (1.0 - 2.0 * s) - 1.0
    return 2.0 + 0.01 * (top - 2.0), top - 0.01 * (top - 2.0)


def _form_on_path(monkeypatch, cells, s, matrix_free):
    monkeypatch.setattr(form_mod, "MATRIX_FREE_CELLS", 2 if matrix_free else cells + 1)
    form = nf.assemble_form(nf.GridSpec(-1.0, 1.0, cells), s)
    assert form.matrix_free is matrix_free
    return form


@pytest.mark.parametrize("s", [0.17, 0.4, 0.4999])
@pytest.mark.parametrize("matrix_free", [False, True])
@pytest.mark.parametrize("cells", [64, 128, 1024, 4096])
def test_refinement_matches_the_reference_with_a_product(monkeypatch, cells, matrix_free, s):
    # the extrapolated refinement reaches the plain one's quotient, and
    # never ends above the plain iteration that takes its quotients the same
    # way, from the right-hand side: against y'Gy by a product the dense
    # inverse at 4096 cells and s = 0.4999 puts both about 1e-13 above
    form = _form_on_path(monkeypatch, cells, s, matrix_free)
    hat, cosine = nf.default_candidates(form)
    for r in _window_ends(s):
        oracle = min(_refine_alone_reference(form, r, start)[0] for start in (hat, cosine))
        plain = min(_refine_alone_reference(form, r, start, product=False)[0]
                    for start in (hat, cosine))
        S = _inverse_iteration(form, r, hat, cosine)
        assert S == pytest.approx(oracle, rel=1e-12), r
        assert S <= plain * (1 + 1e-14), r


def _maps_alone(monkeypatch, form, r, start):
    riesz, maps = form.riesz, []
    monkeypatch.setattr(form, "riesz", lambda x: maps.append(len(x)) or riesz(x))
    _inverse_iteration(form, r, start)
    monkeypatch.setattr(form, "riesz", riesz)
    return len(maps)


def _lone_trace(monkeypatch, form, r, start):
    # one start refined alone: its S and, for each iteration, its normalized
    # map y, G y and least quotient so far, read at the secant step
    step, trace = thresholds._secant_step, []
    best = rayleigh_quotient(form, r, start)

    def spy(y, gy, *rest):
        nonlocal best
        out = step(y, gy, *rest)
        best = min(best, out[0][0])
        trace.append((y[0].copy(), gy[0].copy(), best))
        return out

    monkeypatch.setattr(thresholds, "_secant_step", spy)
    S = _inverse_iteration(form, r, start)
    monkeypatch.setattr(thresholds, "_secant_step", step)
    return S, trace


def _meeting(traces):
    # oracle: the first iteration at which one lone run's map, normalized in
    # G, comes within JOIN_TOL in the G norm of the other's, of lower least
    # quotient, and the run that goes on; (None, None) where none does
    for k, pair in enumerate(zip(*traces), 1):
        for a, b in ((0, 1), (1, 0)):
            (ya, gya, best_a), (yb, gyb, best_b) = pair[a], pair[b]
            norms = np.sqrt((ya * gya).sum()) * np.sqrt((yb * gyb).sum())
            if best_a > best_b and (ya * gyb).sum() / norms >= 1 - thresholds.JOIN_TOL**2 / 2:
                return k, b
    return None, None


def _refine_block_reference(form, r, *starts):
    # oracle: the refinement in which a row leaves only by its own stop;
    # returns S and the rows mapped. It compacts only when a row stops, as
    # the refinement does: below the crossover a copied row sums in another
    # order than a row of the dense map's F-ordered output
    w = form.grid.trapezoid_weights()[1:-1]
    v = np.array(starts)
    v /= np.abs(v).max(axis=1, keepdims=True)
    best, power = thresholds._quotients(v, form.apply(v), w, r)
    rows, previous, mapped = np.arange(len(v)), None, 0
    for _ in range(MAX_INVERSE_ITERATIONS):
        rhs = w * np.copysign(power, v)
        y = form.riesz(rhs)
        mapped += len(y)
        peak = np.abs(y).max(axis=1, keepdims=True)
        y /= peak
        rhs /= peak
        f = y - v
        quotient, v, power = thresholds._secant_step(y, rhs, f, previous, w, r)
        last = best[rows]
        best[rows] = np.fmin(last, quotient)
        going = (last - quotient) / last >= S_RTOL
        if not going.any():
            return float(best.min()), mapped
        if not going.all():
            rows, v, power, y, rhs, f = (a[going] for a in (rows, v, power, y, rhs, f))
        previous = y, rhs, f
    raise AssertionError("the reference refinement did not stop")


@pytest.mark.parametrize("s,r", [(0.4, 3.0), (0.4, 5.5), (0.3, 3.9)])
@pytest.mark.parametrize("cells,matrix_free", [(128, False), (1024, True)])
def test_refinement_takes_one_riesz_map_per_iteration(monkeypatch, cells, matrix_free, s, r):
    # one product with G for the starts' first quotients, then one Riesz map
    # per iteration, over the rows that have not stopped: a row leaves as
    # its own refinement alone stops, extrapolation included, or at the
    # iteration k where it meets the other (see _meeting), which goes on
    form = _form_on_path(monkeypatch, cells, s, matrix_free)
    hat, cosine = nf.default_candidates(form)
    traces = [_lone_trace(monkeypatch, form, r, start)[1] for start in (hat, cosine)]
    lone = [len(trace) for trace in traces]
    k, goes_on = _meeting(traces)
    apply, riesz = form.apply, form.riesz
    products, maps = [], []
    monkeypatch.setattr(form, "apply", lambda x: products.append(len(x)) or apply(x))
    monkeypatch.setattr(form, "riesz", lambda x: maps.append(len(x)) or riesz(x))
    _inverse_iteration(form, r, hat, cosine)
    assert products == [2]
    if k is None:
        assert maps == [2] * min(lone) + [1] * (max(lone) - min(lone)), lone
    else:
        assert maps == [2] * k + [1] * (lone[goes_on] - k), (lone, k)


def test_extrapolation_maps_at_most_seven_tenths_of_the_plain_rows(monkeypatch):
    # over a grid of (s, r, cells) the secant step saves at least 30% of the
    # plain iteration's Riesz rows (49% saved when this test was written)
    extrapolated = plain = 0
    for cells, matrix_free in [(128, False), (1024, True)]:
        for s in (0.17, 0.3, 0.4, 0.4999):
            form = _form_on_path(monkeypatch, cells, s, matrix_free)
            hat, cosine = nf.default_candidates(form)
            low, high = _window_ends(s)
            for r in (low, 0.5 * (low + min(high, 40.0)), min(high, 40.0)):
                for start in (hat, cosine):
                    extrapolated += _maps_alone(monkeypatch, form, r, start)
                    plain += _refine_alone_reference(form, r, start, product=False)[1]
    assert extrapolated <= 0.7 * plain, (extrapolated, plain)


@pytest.mark.parametrize("s,r", [(0.4, 3.0), (0.4, 5.5), (0.3, 3.9), (0.4999, 40.0)])
@pytest.mark.parametrize("cells,matrix_free", [(128, False), (1024, False), (1024, True),
                                               (2048, True), (16384, True)])
def test_refinement_is_its_rows_refined_alone(monkeypatch, cells, matrix_free, s, r):
    # the block ends where the lone run of the row that did not stop ends,
    # or where the lower lone run ends when the rows do not meet. On the FFT
    # path a row's map and sums do not depend on the block, so exactly; the
    # dense inverse's matrix product can round a row differently in a block
    form = _form_on_path(monkeypatch, cells, s, matrix_free)
    hat, cosine = nf.default_candidates(form)
    (h, hat_trace), (c, cosine_trace) = (_lone_trace(monkeypatch, form, r, start)
                                         for start in (hat, cosine))
    k, goes_on = _meeting([hat_trace, cosine_trace])
    alone = min(h, c) if k is None else (h, c)[goes_on]
    block = _inverse_iteration(form, r, hat, cosine)
    if matrix_free:
        assert block == alone
    else:
        assert block == pytest.approx(alone, rel=1e-14)


@pytest.mark.parametrize("cells", [128, 512, 1024])
def test_a_meeting_never_merges_distinct_minima(monkeypatch, cells):
    # near the top of the window the hat and the half-cosine can reach
    # different minima (at 1024 cells, (0.35, 5.3) and (0.3, 3.9)). Starts
    # that meet head for one minimum, so S is the least lone limit to 1e-13;
    # where the lone limits differ the starts never meet, and S is the
    # refinement without meetings, bit for bit. A lone start refines as it
    # did before starts met
    grid = nf.GridSpec(-1.0, 1.0, cells)
    met = distinct = 0
    for s in (0.17, 0.25, 0.3, 0.35, 0.4, 0.45, 0.49):
        form = nf.assemble_form(grid, s)
        hat, cosine = nf.default_candidates(form)
        top = min(2.0 / (1.0 - 2.0 * s) - 1.0, 40.0)
        extra = {0.3: [3.9], 0.35: [5.3]}.get(s, [])
        for r in [2.0 + share * (top - 2.0) for share in (0.1, 0.5, 0.9, 0.99)] + extra:
            lone = [_inverse_iteration(form, r, start) for start in (hat, cosine)]
            assert lone == [_refine_block_reference(form, r, start)[0]
                            for start in (hat, cosine)], (s, r)
            riesz, maps = form.riesz, []
            monkeypatch.setattr(form, "riesz", lambda x: maps.append(len(x)) or riesz(x))
            S = _inverse_iteration(form, r, hat, cosine)
            monkeypatch.setattr(form, "riesz", riesz)
            assert abs(S - min(lone)) <= 1e-13 * min(lone), (s, r)
            reference, mapped = _refine_block_reference(form, r, hat, cosine)
            met += sum(maps) < mapped
            if abs(lone[0] - lone[1]) > 1e-10 * min(lone):
                distinct += 1
                assert (S, sum(maps)) == (reference, mapped), (s, r)
    assert met and distinct, (met, distinct)


def test_unfinished_refinement_raises(monkeypatch, form64):
    # two iterations cannot reach S_RTOL, and an S read there is too high
    monkeypatch.setattr(thresholds, "MAX_INVERSE_ITERATIONS", 2)
    hat, cosine = nf.default_candidates(form64)
    with pytest.raises(InverseIterationNotConverged, match="after 2 iterations"):
        _inverse_iteration(form64, 3.0, hat, cosine)


def _estimate_S_per_candidate(form, r, candidates):
    # oracle: every candidate refined by its own inverse iteration
    return min(min(rayleigh_quotient(form, r, c), _inverse_iteration(form, r, c))
               for c in candidates)


# (s, r) with r inside the admissible window 2 < r < 2/(1-2s) - 1, so not
# (0.2, 3). Near the top of the window the quotient can have a second,
# concentrated local minimum that the hat's refinement reaches and the
# half-cosine's misses, and either can be the lower. At 1024 cells a
# cosine start alone reads S 11% high at s = 0.35, r = 5.3, and a hat
# start alone 9% high at s = 0.3, r = 3.9.
@pytest.mark.parametrize("s,r", [(0.2, 2.2), (0.4, 2.2), (0.4, 3.0), (0.47, 2.2), (0.47, 3.0),
                                 (0.35, 5.3), (0.3, 3.9)])
@pytest.mark.parametrize("cells,matrix_free", [(128, False), (1024, False), (1024, True),
                                               (2048, True)])
def test_estimate_S_matches_per_candidate_refinement(monkeypatch, cells, matrix_free, s, r):
    if not matrix_free:
        monkeypatch.setattr(form_mod, "MATRIX_FREE_CELLS", cells + 1)
    form = nf.assemble_form(nf.GridSpec(-1.0, 1.0, cells), s)
    assert form.matrix_free is matrix_free
    cands = _earlier_candidates(form.grid)
    oracle = _estimate_S_per_candidate(form, r, cands)
    assert nf.estimate_S(form, r, cands) == pytest.approx(oracle, rel=1e-12)


def test_default_candidates_are_admissible(form64):
    cands = nf.default_candidates(form64)
    assert len(cands) == 2
    for c in cands:
        assert c.shape == form64.nodes.shape
        assert rayleigh_quotient(form64, 3.0, c) > 0


@pytest.mark.parametrize("cells", [4, 5, 7, 16, 63, 64, 128, 601, 2048, 16384])
def test_refinement_undercuts_the_starts_and_the_bump(cells):
    # a constants report passes no candidate of its own, so S is the
    # refinement alone; it matches the minimum over the hat, the smooth bump
    # and the half-cosine that earlier versions added as candidates only
    # while the refinement ends strictly below all three. Below the
    # crossover the Riesz map is the dense inverse, above it the FFT path;
    # on an odd count the hat sits one node off the centre and the bump and
    # the half-cosine do not
    grid = nf.GridSpec(-1.0, 1.0, cells)
    earlier = _earlier_candidates(grid)
    for s in (0.17, 0.25, 0.3, 0.35, 0.4, 0.45, 0.4999):
        form = nf.assemble_form(grid, s)
        assert form.matrix_free is (cells >= form_mod.MATRIX_FREE_CELLS)
        top = min(2.0 / (1.0 - 2.0 * s) - 1.0, 40.0)
        for share in (0.01, 0.5, 0.99):
            r = 2.0 + share * (top - 2.0)
            S = nf.estimate_S(form, r, [])
            for old in earlier:
                assert rayleigh_quotient(form, r, old) > S, (s, r)


def test_compute_constants_fixture(problem64, form64, constants64):
    rep = constants64
    assert rep.q_star == pytest.approx(1.2, rel=1e-13)
    assert rep.in_gamma
    assert 0 < rep.Lambda < rep.C
    assert rep.A_lm < rep.A0
    assert rep.E > 0
    assert rep.J_lower < 0
    assert rep.S > 0
    # report is internally consistent with the standalone formulas
    assert rep.C == pytest.approx(
        nf.threshold_C(problem64.alpha, problem64.beta, problem64.q, rep.S, rep.b_sup),
        rel=1e-14)
    A0, A_lm = nf.gap_radii(problem64.alpha, problem64.beta, problem64.q,
                            rep.S, rep.b_sup, rep.Lambda)
    assert rep.A0 == pytest.approx(A0, rel=1e-14)
    assert rep.A_lm == pytest.approx(A_lm, rel=1e-14)
