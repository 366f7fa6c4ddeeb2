import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import neharifrac as nf
from neharifrac.errors import (
    EmptyCandidateSet,
    NonpositiveBSup,
    NonpositiveLambda,
    NonpositiveS,
)
from neharifrac import form as form_mod
from neharifrac.thresholds import _inverse_iteration, rayleigh_quotient


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
    t_min, rho_min = nf.rho_minimum(c=1.0, d=1.0, q=0.5)
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
        t_min, rho_min = nf.rho_minimum(c, d, q)
        rho = lambda t: c * t * t - d * t ** (1 - q)
        assert rho_min == pytest.approx(rho(t_min), rel=1e-12)
        for dt in (0.95, 1.05):
            assert rho(t_min * dt) >= rho_min


def test_estimate_S_upper_bounds_candidates(form64):
    grid = form64.grid
    hat = np.zeros(grid.node_count)
    hat[grid.cells // 2] = 1.0
    hat_quot = rayleigh_quotient(form64, 3.0, hat)
    S = nf.estimate_S(form64, 3.0, [hat])
    assert S <= hat_quot
    # adding candidates never increases the estimate
    x = grid.nodes()
    bump = np.maximum(0.0, 1 - (x / 0.5) ** 2) ** 2
    bump[0] = bump[-1] = 0.0
    S2 = nf.estimate_S(form64, 3.0, [hat, bump])
    assert S2 <= S + 1e-15
    # scale invariance: duplicated scaled candidates change nothing
    S3 = nf.estimate_S(form64, 3.0, [hat, bump, 5.0 * bump, 0.1 * hat])
    assert S3 == pytest.approx(S2, rel=1e-12)


def test_estimate_S_requires_candidates(form64):
    with pytest.raises(EmptyCandidateSet):
        nf.estimate_S(form64, 3.0, [])


def test_estimate_S_skips_zero_candidates(form64):
    # a component that collapsed to zero has no quotient; it must not
    # crash the estimate, and alone it leaves no candidate
    zero = np.zeros(form64.grid.node_count)
    cands = nf.default_candidates(form64.grid)
    assert nf.estimate_S(form64, 3.0, cands + [zero]) == nf.estimate_S(form64, 3.0, cands)
    with pytest.raises(EmptyCandidateSet):
        nf.estimate_S(form64, 3.0, [zero])


def _quotient_gradient_reference(form, r, values):
    v = values[1:-1]
    num = float(v @ form.matrix @ v)
    den_sum = float(np.sum(form.quad_weights * np.abs(values) ** r))
    den = den_sum ** (2.0 / r)
    g = np.zeros_like(values)
    g[1:-1] = (2.0 * (form.matrix @ v) / den
               - (num / den) * (2.0 / r)
               * (r * form.quad_weights[1:-1] * np.sign(v) * np.abs(v) ** (r - 1))
               / den_sum)
    return g


def _descend_quotient_reference(form, r, values, max_iters=200, step0=0.5):
    # oracle: the descent with full products for every trial quotient
    u = values / np.abs(values).max()
    best = rayleigh_quotient(form, r, u)
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
            qt = rayleigh_quotient(form, r, trial)
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
    cands = nf.default_candidates(form.grid)
    reference = min(min(rayleigh_quotient(form, r, c), _descend_quotient_reference(form, r, c))
                    for c in cands)
    assert nf.estimate_S(form, r, cands) == pytest.approx(reference, rel=1e-12)


def test_estimate_S_at_most_the_euclidean_descent():
    # the 200-step Euclidean descent stops short of the minimum at this N;
    # the inverse iteration must do at least as well
    form = nf.assemble_form(nf.GridSpec(-1.0, 1.0, 1024), 0.4)
    cands = nf.default_candidates(form.grid)
    euclidean = min(min(rayleigh_quotient(form, 3.0, c), _descend_quotient_reference(form, 3.0, c))
                    for c in cands)
    assert nf.estimate_S(form, 3.0, cands) <= euclidean * (1 + 1e-12)


def test_inverse_iteration_count_is_flat_in_n(monkeypatch):
    # one Riesz solve per outer iteration
    counts = []
    for cells in (128, 256, 512, 1024):
        form = nf.assemble_form(nf.GridSpec(-1.0, 1.0, cells), 0.4)
        solve = form.riesz
        per_candidate = []
        for cand in nf.default_candidates(form.grid):
            calls = []
            monkeypatch.setattr(form, "riesz",
                                lambda *a, **k: calls.append(1) or solve(*a, **k))
            nf.estimate_S(form, 3.0, [cand])
            per_candidate.append(len(calls))
        counts.append(per_candidate)
    for per_n in zip(*counts):
        assert max(per_n) - min(per_n) <= 2 and max(per_n) <= 40, counts


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
    cands = nf.default_candidates(form.grid)
    oracle = _estimate_S_per_candidate(form, r, cands)
    assert nf.estimate_S(form, r, cands) == pytest.approx(oracle, rel=1e-12)


def test_default_candidates_are_admissible(form64):
    cands = nf.default_candidates(form64.grid)
    assert len(cands) >= 3
    for c in cands:
        assert c[0] == 0.0 and c[-1] == 0.0
        assert rayleigh_quotient(form64, 3.0, c) > 0


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
