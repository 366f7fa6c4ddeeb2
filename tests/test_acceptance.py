"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The canonical problem used throughout: interval (-1, 1), 128 cells,
s = 0.4, q = 0.5, alpha = beta = 1.5, lambda = mu = 0.01, f = g = 1,
b = cos(pi x).
"""

import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

import neharifrac as nf
from neharifrac import cli
from neharifrac.thresholds import rho_coefficients

from conftest import bump_pair, make_spec


def verdict(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def fixture128():
    problem = nf.validate_params(make_spec(cells=128))
    form = nf.assemble_form(problem.grid, problem.s)
    opts = nf.SolverOptions(seed=42, restarts=4)
    solved = nf.solve_points([problem], form, list(nf.Branch), opts)
    [plus], [minus] = solved[nf.Branch.PLUS], solved[nf.Branch.MINUS]
    extra = [plus.pair.u.values, plus.pair.w.values,
             minus.pair.u.values, minus.pair.w.values]
    constants = nf.compute_constants(problem, nf.estimate_S(form, 3.0, extra))
    return problem, form, plus, minus, constants


def test_criterion_1_constants_identity_suite():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        s = float(rng.uniform(1 / 6 + 0.01, 0.5 - 0.01))
        crit = 2.0 / (1.0 - 2.0 * s)
        ab = float(rng.uniform(2.05, min(crit - 1.05, 6.0)))
        alpha = beta = ab / 2
        q = float(rng.uniform(0.05, 0.95))
        S = float(rng.uniform(0.1, 10.0))
        b_sup = float(rng.uniform(0.1, 5.0))
        C = nf.threshold_C(alpha, beta, q, S, b_sup)
        E_at_C = nf.E_coefficient(alpha, beta, q, S, b_sup, C)
        scale_E = abs(nf.E_coefficient(alpha, beta, q, S, b_sup, C / 2)) + 1e-300
        worst = max(worst, abs(E_at_C) / scale_E)
        A0, A_lm = nf.gap_radii(alpha, beta, q, S, b_sup, C)
        worst = max(worst, abs(A_lm - A0) / A0)
        factor = float(rng.uniform(0.2, 5.0))
        E = nf.E_coefficient(alpha, beta, q, S, b_sup, factor * C)
        sign_ok = (E > 0) == (factor < 1) if factor != 1 else True
        if not sign_ok:
            worst = math.inf
    fixture_C = nf.threshold_C(1.5, 1.5, 0.5, 1.0, 1.0)
    A0_f, A_lm_f = nf.gap_radii(1.5, 1.5, 0.5, 1.0, 1.0, fixture_C)
    point_ok = (abs(fixture_C - 0.106100) < 5e-7
                and abs(A0_f - 0.6) < 1e-12
                and abs(A_lm_f - 0.6) < 1e-9)
    verdict(1, worst <= 1e-9 and point_ok,
            f"constants identities over 100 draws (worst rel dev {worst:.2e}), "
            f"fixture C={fixture_C:.6f}, A0={A0_f}, A_lm(Lambda=C)={A_lm_f:.9f}")


def test_criterion_2_rho_minimizer():
    t_min, rho_min = nf.rho_minimum(c=1.0, d=1.0, q=0.5)
    res = minimize_scalar(lambda t: t * t - math.sqrt(t), bracket=(1e-4, 0.3, 2.0),
                          method="golden", options={"xtol": 1e-12})
    ok = (abs(t_min - res.x) <= 1e-8 and abs(rho_min - res.fun) <= 1e-8
          and abs(t_min - 0.25 ** (2.0 / 3.0)) < 1e-13
          and abs(t_min - 0.396850) < 5e-7
          and abs(rho_min - (-0.472470)) < 5e-7)
    verdict(2, ok, f"rho minimizer t_min={t_min:.6f}, rho(t_min)={rho_min:.6f} "
                   "matches golden-section to 1e-8")


def test_criterion_3_fiber_structure(fixture128):
    problem, form, _, _, _ = fixture128
    q, ab = problem.q, problem.alpha + problem.beta
    rng = np.random.default_rng(77)

    two_root_checked = 0
    while two_root_checked < 50:
        pair = bump_pair(problem, float(rng.uniform(-0.25, 0.25)),
                         float(rng.uniform(0.1, 0.4)),
                         float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 3.0)))
        st = nf.pair_stats(problem, form, pair)
        if st.B <= 0 or st.K <= 0:
            continue
        roots = nf.project(st, q, ab)
        if roots.psi_at_tmax <= 0:
            continue
        two_root_checked += 1
        assert roots.case is nf.FiberCase.TWO_ROOTS
        assert 0 < roots.t1 < roots.t_max < roots.t2
        dpsi = lambda t: ((2 - ab) * t ** (1 - ab) * st.norm2
                          + (ab - 1 + q) * t ** (-ab - q) * st.K)
        assert dpsi(roots.t1) > 0 > dpsi(roots.t2)
        assert nf.classify(problem, form, pair.scaled(roots.t1)).label \
            is nf.MembershipLabel.N_PLUS
        assert nf.classify(problem, form, pair.scaled(roots.t2)).label \
            is nf.MembershipLabel.N_MINUS

    single_root_checked = 0
    while single_root_checked < 50:
        pair = bump_pair(problem, float(rng.uniform(-0.9, -0.7)),
                         float(rng.uniform(0.05, 0.15)),
                         float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 3.0)))
        st = nf.pair_stats(problem, form, pair)
        if st.B > 0 or st.K <= 0:
            continue
        single_root_checked += 1
        roots = nf.project(st, q, ab)
        assert roots.case is nf.FiberCase.SINGLE_ROOT
        assert 0 < roots.t1 < roots.t_max
        assert nf.classify(problem, form, pair.scaled(roots.t1)).label \
            is nf.MembershipLabel.N_PLUS

    # frozen synthetic roots, oracle = bisection on the explicit map
    st = nf.PairStats(1.0, 0.1, 0.1)
    roots = nf.project(st, 0.5, 3.0)
    psi_explicit = lambda t: 1.0 / t - 0.1 * t ** (-2.5) - 0.1
    t1_oracle = brentq(psi_explicit, 1e-8, roots.t_max, xtol=1e-10)
    t2_oracle = brentq(psi_explicit, roots.t_max, 1e4, xtol=1e-10)
    ok = (abs(roots.t1 - t1_oracle) < 1e-9 and abs(roots.t2 - t2_oracle) < 1e-8
          and abs(roots.t1 - 0.2186) < 1e-3 and abs(roots.t2 - 9.968) < 1e-2)
    verdict(3, ok, f"fiber root structure on 100 directions; fixture roots "
                   f"t1={roots.t1:.4f}, t2={roots.t2:.3f}")


def test_criterion_4_form_oracle_equivalence():
    grid = nf.GridSpec(-1.0, 1.0, 16)
    form = nf.assemble_form(grid, 0.4)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10):
        u = np.zeros(grid.node_count)
        u[1:-1] = rng.standard_normal(grid.cells - 1)
        assembled = nf.seminorm_sq(form, nf.GridFunction(grid, u))
        oracle = nf.brute_force_norm(grid, 0.4, u, refine=8)
        worst = max(worst, abs(assembled - oracle) / abs(oracle))
    u = np.zeros(grid.node_count)
    u[1:-1] = rng.standard_normal(grid.cells - 1)
    one = nf.seminorm_sq(form, nf.GridFunction(grid, u))
    four = nf.seminorm_sq(form, nf.GridFunction(grid, 2 * u))
    scaling_err = abs(four - 4 * one) / (4 * one)
    verdict(4, worst <= 0.02 and scaling_err <= 1e-14,
            f"assembled form vs punctured-quadrature oracle: worst rel err "
            f"{worst:.4f} (<= 2%), scaling err {scaling_err:.2e}")


def test_criterion_5_solver_branch_properties(fixture128):
    problem, form, plus, minus, _ = fixture128
    ok = (plus.converged and plus.J < 0 and plus.phi2 > 0
          and minus.converged and minus.phi2 < 0
          and np.all(plus.pair.u.values >= 0) and np.all(plus.pair.w.values >= 0)
          and np.all(minus.pair.u.values >= 0) and np.all(minus.pair.w.values >= 0)
          and plus.pair.u.values[1:-1].min() > 0
          and plus.pair.w.values[1:-1].min() > 0)
    verdict(5, ok, f"local-min branch J={plus.J:.6f} < 0, phi''={plus.phi2:.4f} > 0; "
                   f"local-max branch phi''={minus.phi2:.1f} < 0; positivity holds")


def test_criterion_6_gap_ordering_sweep(tmp_path):
    cfg = {
        "grid": {"left": -1.0, "right": 1.0, "cells": 128},
        "s": 0.4, "q": 0.5, "alpha": 1.5, "beta": 1.5,
        "lambda": 0.01, "mu": 0.01,
        "f": {"kind": "constant", "value": 1.0},
        "g": {"kind": "constant", "value": 1.0},
        "b": {"kind": "cos_pi_x", "amplitude": 1.0},
        "solver": {"restarts": 2, "seed": 5},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", str(path),
                     "--lambdas", "0.005,0.01,0.02",
                     "--mus", "0.005,0.01,0.02",
                     "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 9
    eligible = [r for r in rows if r["in_gamma"] == "true"
                and r["plus_converged"] == "true" and r["minus_converged"] == "true"]
    all_gap = all(r["gap_ok"] == "true" for r in eligible)
    strict = all(
        float(r["norm_minus"]) > float(r["A0"]) > float(r["A_lm"]) > float(r["norm_plus"])
        for r in eligible)
    verdict(6, len(eligible) == 9 and all_gap and strict,
            f"gap ordering norm_minus > A0 > A_lm > norm_plus on {len(eligible)}/9 "
            "eligible sweep points, 100% pass")


def test_criterion_7_weak_residual(fixture128):
    problem, form, plus, minus, _ = fixture128
    results = []
    for rep in (plus, minus):
        delta = 1e-4 * float(np.max(rep.pair.u.values))
        res = nf.weak_residual(problem, form, rep.pair, delta)
        results.append(res)
    ok = all(r.res_u <= 1e-3 and r.res_w <= 1e-3 and r.masked_fraction < 0.2
             for r in results)
    verdict(7, ok, "masked weak residuals "
            + ", ".join(f"({r.res_u:.1e}, {r.res_w:.1e}, mask {r.masked_fraction:.2f})"
                        for r in results)
            + " all within 1e-3 / 0.2")


def test_criterion_8_inequality_chains(fixture128):
    problem, form, plus, minus, constants = fixture128
    q, ab = problem.q, problem.alpha + problem.beta
    c, d = rho_coefficients(problem.alpha, problem.beta, q,
                            constants.S, constants.Lambda)
    violations = 0

    # every accepted solver iterate, via its recorded scalar stats
    for rep in (plus, minus):
        for J, norm, K, B in rep.trajectory:
            e2_rhs = constants.Lambda ** ((1 + q) / 2) * (norm / math.sqrt(constants.S)) ** (1 - q)
            e3_rhs = constants.b_sup * (norm / math.sqrt(constants.S)) ** ab
            s1_rhs = c * norm**2 - d * norm ** (1 - q)
            slack = 1e-12
            if K > e2_rhs * (1 + slack) + slack:
                violations += 1
            if B > e3_rhs * (1 + slack) + slack:
                violations += 1
            if J < s1_rhs - slack * max(1.0, abs(s1_rhs)):
                violations += 1

    # final solutions and 50 random manifold members, full check list, each
    # at its own quotient
    for rep in (plus, minus):
        if not nf.inequality_suite(problem, form, rep.pair).all_ok:
            violations += 1
    rng = np.random.default_rng(8)
    done = 0
    while done < 50:
        pair = bump_pair(problem, float(rng.uniform(-0.5, 0.5)),
                         float(rng.uniform(0.1, 0.4)),
                         float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 2.0)))
        st = nf.pair_stats(problem, form, pair)
        if st.K <= 0:
            continue
        roots = nf.project(st, q, ab)
        if roots.t1 is None:
            continue
        done += 1
        if not nf.inequality_suite(problem, form, pair.scaled(roots.t1)).all_ok:
            violations += 1
    n_iter = len(plus.trajectory) + len(minus.trajectory)
    verdict(8, violations == 0,
            f"inequality chains on {n_iter} solver iterates + 52 pairs: "
            f"{violations} violations")


def test_criterion_9_symmetry_reduction(fixture128):
    problem, form, plus, minus, _ = fixture128
    dev_plus = float(np.max(np.abs(plus.pair.u.values - plus.pair.w.values)))
    dev_minus = float(np.max(np.abs(minus.pair.u.values - minus.pair.w.values)))
    verdict(9, dev_plus <= 1e-12 and dev_minus <= 1e-12,
            f"symmetric problem keeps u = w: sup|u-w| = {dev_plus:.2e} (plus), "
            f"{dev_minus:.2e} (minus)")


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "grid": {"left": -1.0, "right": 1.0, "cells": 64},
        "s": 0.4, "q": 0.5, "alpha": 1.5, "beta": 1.5,
        "lambda": 0.01, "mu": 0.01,
        "f": {"kind": "constant", "value": 1.0},
        "g": {"kind": "constant", "value": 1.0},
        "b": {"kind": "cos_pi_x", "amplitude": 1.0},
        "solver": {"restarts": 2},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert cli.main(["solve", str(path), "--branch", "both",
                         "--out", str(out), "--seed", "7"]) == 0
    files_equal = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("solution_plus.json", "solution_minus.json", "gap.json"))

    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    for out in (s1, s2):
        assert cli.main(["sweep", str(path), "--lambdas", "0.01,0.02",
                         "--mus", "0.01,0.02", "--seed", "7",
                         "--out", str(out)]) == 0
    csv_equal = s1.read_bytes() == s2.read_bytes()
    verdict(10, files_equal and csv_equal,
            "identical config + seeds give byte-identical solution files and sweep CSVs")
