import numpy as np
import pytest

import neharifrac as nf
from neharifrac.energy import smoothed_gradient
from neharifrac.errors import AllMasked

from conftest import bump_pair, pair_of, random_x0_pair


def test_brute_force_norm_zero_and_scaling(grid16):
    u = np.zeros(grid16.node_count)
    assert nf.brute_force_norm(grid16, 0.4, u, refine=4) == 0.0
    rng = np.random.default_rng(0)
    u[1:-1] = rng.standard_normal(grid16.cells - 1)
    a = nf.brute_force_norm(grid16, 0.4, u, refine=4)
    b = nf.brute_force_norm(grid16, 0.4, 2 * u, refine=4)
    assert b == pytest.approx(4 * a, rel=1e-13)


def test_brute_force_norm_rejects_bad_refine(grid16):
    with pytest.raises(ValueError):
        nf.brute_force_norm(grid16, 0.4, np.zeros(grid16.node_count), refine=1)


def test_oracle_and_assembly_converge_together(form16, grid16):
    # refinement tightens the agreement for the fixed hat profile
    x = grid16.nodes()
    prof = np.maximum(0.0, 1 - np.abs(x) / 0.25)
    prof[0] = prof[-1] = 0.0
    assembled = nf.seminorm_sq(form16, nf.GridFunction(grid16, prof))
    err4 = abs(nf.brute_force_norm(grid16, 0.4, prof, refine=4) - assembled)
    err16 = abs(nf.brute_force_norm(grid16, 0.4, prof, refine=16) - assembled)
    assert err16 <= err4


def test_weak_residual_of_converged_solution(problem64, form64, solved64):
    plus, minus = solved64
    for rep in (plus, minus):
        delta = 1e-4 * float(np.max(rep.u))
        pair = pair_of(rep)
        res = nf.weak_residual(problem64, pair, nf.row_products(form64, pair), delta)
        assert res.res_u <= 1e-3
        assert res.res_w <= 1e-3
        assert res.masked_fraction < 0.2


def test_weak_residual_is_the_energy_gradient(problem64, form64, solved64):
    # the residual keeps its own copy of the Euler-Lagrange terms; with
    # eps = delta, max(u, eps)^{-q} is u^{-q} on every node the mask keeps,
    # so both copies must give the same numbers there
    for rep in solved64:
        delta = 1e-4 * float(np.max(rep.u))
        pair = pair_of(rep)
        res = nf.weak_residual(problem64, pair, nf.row_products(form64, pair), delta)
        u, v = rep.u, rep.w
        Gu, Gv = form64.matrix @ u, form64.matrix @ v
        [gu], [gv] = smoothed_gradient(problem64, np.stack([u, v])[:, None],
                                       np.stack([Gu, Gv])[:, None], eps=delta)
        m = (u > delta) & (v > delta)
        for value, G, g in ((res.res_u, Gu, gu), (res.res_w, Gv, gv)):
            expected = (np.max(np.abs(g[m]))
                        / max(np.max(np.abs(G[m])), np.max(np.abs(G[m] - g[m]))))
            assert value == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_weak_residual_discriminates_noise(problem64, form64):
    rng = np.random.default_rng(1)
    pair = random_x0_pair(problem64, rng, nonnegative=True)
    # scale into the solution's magnitude range to keep the test fair
    pair = (0.05 / max(pair[0].max(), 1e-12)) * pair
    res = nf.weak_residual(problem64, pair, nf.row_products(form64, pair), 1e-4 * pair[0].max())
    assert max(res.res_u, res.res_w) > 0.1


def test_weak_residual_pure_quadratic_normalizes_to_one(form64):
    # no right-hand side at all: residual equals the normalized operator value
    import dataclasses
    from conftest import make_spec
    import neharifrac.problem as pm
    spec = dataclasses.replace(make_spec(cells=64), lam=0.0, mu=0.0)
    n = 65
    p = pm.ValidatedProblem(**{f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)},
                            crit_exp=10.0, f_vals=np.ones(n), g_vals=np.ones(n),
                            b_vals=np.zeros(n), f_norm=2.0, g_norm=2.0)
    pair = bump_pair(p, 0.0, 0.4)
    res = nf.weak_residual(p, pair, nf.row_products(form64, pair), 1e-6)
    assert res.res_u == pytest.approx(1.0)
    assert res.res_w == pytest.approx(1.0)


def test_weak_residual_all_masked(problem64, form64):
    pair = bump_pair(problem64, 0.0, 0.3)
    with pytest.raises(AllMasked):
        nf.weak_residual(problem64, pair, nf.row_products(form64, pair), delta=1e9)


def test_inequality_suite_on_solutions(problem64, form64, solved64):
    for rep in solved64:
        pair = pair_of(rep)
        checks = nf.inequality_suite(problem64, form64, pair, nf.row_products(form64, pair))
        assert checks.all_ok, checks.as_dict()


def test_inequality_suite_zero_pair(problem64, form64):
    # neither component has a quotient, so no S bounds the chains
    zero = np.zeros((2, problem64.grid.cells - 1))
    with pytest.raises(AllMasked):
        nf.inequality_suite(problem64, form64, zero, nf.row_products(form64, zero))


def test_inequality_suite_skips_a_vanished_component(problem64, form64):
    # the vanished component has no quotient, so the other's alone sets S,
    # and the chains hold there; a vanished u has L^r norm 0 in the Hoelder step
    other = bump_pair(problem64, 0.0, 0.35)[0]
    for vanished in (1, 0):
        pair = np.array([other, other])
        pair[vanished] = 0.0
        checks = nf.inequality_suite(problem64, form64, pair, nf.row_products(form64, pair))
        assert checks.S == nf.rayleigh_quotient(form64, 3.0, other)
        assert checks.all_ok, checks.as_dict()
        hoelder = checks.as_dict()["checks"][-1]
        assert hoelder["name"] == "discrete_hoelder"
        assert (hoelder["lhs"] == hoelder["rhs"] == 0.0) is (vanished == 0)


def test_inequality_suite_random_projected_pairs(problem64, form64):
    # manifold members built by projection, each checked at its own quotient
    rng = np.random.default_rng(3)
    q, ab = problem64.q, problem64.alpha + problem64.beta
    done = 0
    while done < 50:
        center = float(rng.uniform(-0.5, 0.5))
        width = float(rng.uniform(0.1, 0.4))
        pair = bump_pair(problem64, center, width,
                         float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 2.0)))
        st = nf.pair_stats(problem64, form64, pair)
        if st.K <= 0:
            continue
        roots = nf.project(st, q, ab)
        if roots.t1 is None:
            continue
        done += 1
        member = roots.t1 * pair
        checks = nf.inequality_suite(problem64, form64, member, nf.row_products(form64, member))
        assert checks.all_ok, checks.as_dict()


def test_discrete_hoelder_on_random_functions(problem64):
    # exact weighted-sum inequality, checked as <= on random data
    rng = np.random.default_rng(4)
    w = problem64.grid.trapezoid_weights()
    q, ab = problem64.q, problem64.alpha + problem64.beta
    qs = nf.q_star(problem64.alpha, problem64.beta, q)
    for _ in range(50):
        u = rng.standard_normal(problem64.grid.node_count)
        f = np.abs(rng.standard_normal(problem64.grid.node_count)) + 0.1
        lhs = float(np.sum(w * f * np.abs(u) ** (1 - q)))
        rhs = nf.weight_norm(qs, f, w) * nf.weight_norm(ab, u, w) ** (1 - q)
        assert lhs <= rhs * (1 + 1e-12)
