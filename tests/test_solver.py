import math

import numpy as np
import pytest

import neharifrac as nf
from neharifrac.errors import DirectionSearchFailed, NotConvergedInput
from neharifrac import form as form_mod
from neharifrac.form import riesz_map
from neharifrac.solver import _descend, _project_scaling
from neharifrac.thresholds import rho_coefficients

from conftest import make_spec, reference_gradient, reference_stats


def test_initial_direction_properties(problem64, form64):
    for seed in (0, 1, 17):
        rng = np.random.default_rng(seed)
        pair = nf.initial_direction(problem64, rng)
        assert np.all(pair.u.values >= 0) and np.all(pair.w.values >= 0)
        assert nf.K_value(problem64, pair) > 0


def test_initial_direction_minus_has_positive_coupling(problem64, form64):
    for seed in (0, 5, 9):
        rng = np.random.default_rng(seed)
        pair = nf.initial_direction(problem64, rng, nf.Branch.MINUS)
        assert nf.B_value(problem64, pair) > 0


def test_initial_direction_deterministic(problem64):
    a = nf.initial_direction(problem64, np.random.default_rng(7))
    b = nf.initial_direction(problem64, np.random.default_rng(7))
    assert np.array_equal(a.u.values, b.u.values)
    assert np.array_equal(a.w.values, b.w.values)


def test_initial_direction_fails_when_no_positive_coupling_possible():
    # both parameters negative make the singular integral nonpositive for
    # every nonnegative pair, so no admissible direction exists
    spec = make_spec(cells=32, lam=-0.01, mu=-0.01)
    p = nf.validate_params(spec)
    with pytest.raises(DirectionSearchFailed):
        nf.initial_direction(p, np.random.default_rng(0))


def test_solve_branch_raises_when_no_direction_exists():
    from neharifrac.errors import NoAdmissibleDirection
    p = nf.validate_params(make_spec(cells=32, lam=-0.01, mu=-0.01))
    form = nf.assemble_form(p.grid, p.s)
    with pytest.raises(NoAdmissibleDirection):
        nf.solve_branch(p, form, nf.Branch.PLUS, nf.SolverOptions(restarts=2))


def test_plus_branch_fixture(problem64, form64, solved64):
    plus, _ = solved64
    assert plus.converged
    assert plus.J < 0
    assert plus.phi2 > 0
    m = nf.classify(problem64, form64, plus.pair)
    assert m.label is nf.MembershipLabel.N_PLUS
    vals_u = plus.pair.u.values
    vals_w = plus.pair.w.values
    assert np.all(vals_u >= 0) and np.all(vals_w >= 0)
    # interior positivity
    assert vals_u[1:-1].min() > 0 and vals_w[1:-1].min() > 0


def test_minus_branch_fixture(problem64, form64, solved64):
    _, minus = solved64
    assert minus.converged
    assert minus.phi2 < 0
    m = nf.classify(problem64, form64, minus.pair)
    assert m.label is nf.MembershipLabel.N_MINUS
    assert np.all(minus.pair.u.values >= 0)
    assert np.all(minus.pair.w.values >= 0)
    assert nf.B_value(problem64, minus.pair) > 0


def test_monotone_descent_trajectory(solved64):
    for rep in solved64:
        js = [rec[0] for rec in rep.trajectory]
        assert all(b < a for a, b in zip(js, js[1:]))


def test_manifold_residual_along_solution(problem64, form64, solved64):
    for rep in solved64:
        st = nf.pair_stats(problem64, form64, rep.pair)
        assert abs(rep.phi1) <= 1e-8 * st.scale()


def test_coercivity_bound_along_trajectory(solved64, constants64):
    # scalar comparison: J >= c t^2 - d t^{1-q} at t = norm, on the manifold
    c, d = rho_coefficients(1.5, 1.5, 0.5, constants64.S, constants64.Lambda)
    for rep in solved64:
        for J, norm, _, _ in rep.trajectory:
            rho = c * norm**2 - d * norm ** (1 - 0.5)
            assert J >= rho - 1e-12 * max(1.0, abs(rho))


def test_norm_bounds_vs_gap_radii(solved64, constants64):
    plus, minus = solved64
    assert plus.norm < constants64.A_lm
    assert minus.norm > constants64.A0


def test_determinism_identical_reports(problem64, form64):
    opts = nf.SolverOptions(seed=11, restarts=2, max_iters=400)
    a = nf.solve_branch(problem64, form64, nf.Branch.PLUS, opts)
    b = nf.solve_branch(problem64, form64, nf.Branch.PLUS, opts)
    assert a.J == b.J
    assert a.iters == b.iters
    assert np.array_equal(a.pair.u.values, b.pair.u.values)
    assert np.array_equal(a.pair.w.values, b.pair.w.values)
    assert a.trajectory == b.trajectory


def test_symmetric_problem_keeps_components_equal(problem64, form64):
    # f = g, lambda = mu, alpha = beta and a symmetric seed
    opts = nf.SolverOptions(seed=3, restarts=1, max_iters=600)
    rep = nf.solve_branch(problem64, form64, nf.Branch.PLUS, opts)
    assert np.max(np.abs(rep.pair.u.values - rep.pair.w.values)) <= 1e-12
    rep_m = nf.solve_branch(problem64, form64, nf.Branch.MINUS, opts)
    assert np.max(np.abs(rep_m.pair.u.values - rep_m.pair.w.values)) <= 1e-12


def test_small_parameters_shrink_plus_solution():
    # norm of the local-min solution scales down with the parameters and
    # stays below the shrinking gap radius
    for lam in (1e-2, 1e-3):
        p = nf.validate_params(make_spec(cells=64, lam=lam, mu=lam))
        form = nf.assemble_form(p.grid, p.s)
        opts = nf.SolverOptions(seed=1, restarts=2)
        rep = nf.solve_branch(p, form, nf.Branch.PLUS, opts)
        assert rep.converged
        cons = nf.compute_constants(p, form,
                                    extra_candidates=[rep.pair.u.values,
                                                      rep.pair.w.values])
        assert rep.norm / cons.A_lm < 1.0


def test_gap_check_fixture(solved64, constants64):
    plus, minus = solved64
    gap = nf.gap_check(plus, minus, constants64)
    assert gap.ordering_ok
    assert gap.norm_minus > gap.A0 > gap.A_lm > gap.norm_plus


def test_gap_check_degenerate_norms(solved64, constants64):
    plus, minus = solved64
    import dataclasses
    fake_minus = dataclasses.replace(minus, norm=plus.norm)
    gap = nf.gap_check(plus, fake_minus, constants64)
    assert not gap.ordering_ok


def test_gap_check_rejects_unconverged(solved64, constants64):
    plus, minus = solved64
    import dataclasses
    bad = dataclasses.replace(plus, converged=False)
    with pytest.raises(NotConvergedInput):
        nf.gap_check(bad, minus, constants64)


def test_no_iterate_lands_in_degenerate_set(problem64, form64, solved64):
    # the degenerate subset of the manifold is only the origin inside the
    # admissible region: no iterate with substantial norm classifies there
    for rep in solved64:
        m = nf.classify(problem64, form64, rep.pair)
        assert m.label is not nf.MembershipLabel.N_ZERO
        for rec in rep.trajectory:
            norm = rec[1]
            assert norm > 1e-8


def test_solver_options_validation():
    with pytest.raises(ValueError):
        nf.SolverOptions(max_iters=0)
    with pytest.raises(ValueError):
        nf.SolverOptions(restarts=0)
    with pytest.raises(ValueError):
        nf.SolverOptions(step=-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("option", ["step", "tol_energy", "tol_manifold", "eps_singular"])
def test_solver_options_reject_nonfinite(option, value):
    with pytest.raises(ValueError, match=option):
        nf.SolverOptions(**{option: value})


@pytest.mark.parametrize("cells", [512, 1024])
def test_matrix_free_form_solves_like_the_dense_one(monkeypatch, cells):
    problem = nf.validate_params(make_spec(cells=cells))
    opts = nf.SolverOptions(seed=0, restarts=1)
    reports = {}
    for matrix_free, crossover in ((True, 2), (False, 10**9)):
        monkeypatch.setattr(form_mod, "MATRIX_FREE_CELLS", crossover)
        form = nf.assemble_form(problem.grid, problem.s)
        assert form.matrix_free is matrix_free
        reports[matrix_free] = [nf.solve_branch(problem, form, branch, opts)
                                for branch in (nf.Branch.PLUS, nf.Branch.MINUS)]
    for fast, dense in zip(reports[True], reports[False]):
        assert fast.converged and dense.converged
        assert fast.J == pytest.approx(dense.J, rel=1e-10)
        assert fast.norm == pytest.approx(dense.norm, rel=1e-10)


def test_solve_leaves_no_dense_matrix_above_the_crossover():
    # the descent needs the dense inverse; the dense G it is factored from
    # is not kept beside it
    problem = nf.validate_params(make_spec(cells=form_mod.MATRIX_FREE_CELLS))
    form = nf.assemble_form(problem.grid, problem.s)
    assert form.matrix_free
    report = nf.solve_branch(problem, form, nf.Branch.PLUS, nf.SolverOptions(seed=0, restarts=1))
    assert report.converged
    assert "matrix" not in vars(form)


def _descend_euclidean_reference(problem, form, branch, direction, max_iters=2000,
                                 step0=0.1, tol_energy=1e-10, eps=1e-8):
    """The Euclidean-gradient descent the Sobolev one replaced, kept as an
    oracle: same clipping, reprojection, acceptance and stopping rule, with
    the nodal gradient as the direction. Returns the final energy."""
    q, ab = problem.q, problem.alpha + problem.beta
    stats = nf.pair_stats(problem, form, direction)
    pair = direction.scaled(_project_scaling(problem, stats, branch))
    st = nf.pair_stats(problem, form, pair)
    J_cur = st.norm2 / 2 - st.K / (1 - q) - st.B / ab
    step = step0
    for _ in range(max_iters):
        grad = nf.energy_gradient(problem, form, pair, eps)
        rel_drop = None
        while step > 1e-16:
            u_try = np.maximum(pair.u.values - step * grad.u.values, 0.0)
            v_try = np.maximum(pair.w.values - step * grad.w.values, 0.0)
            trial = nf.GridPair.from_arrays(problem.grid, u_try, v_try)
            tstats = nf.pair_stats(problem, form, trial)
            t_sel = None
            if tstats.norm2 > 0 and tstats.K > 0:
                t_sel = _project_scaling(problem, tstats, branch)
            if t_sel is not None:
                J_new = (tstats.norm2 * t_sel**2 / 2 - tstats.K * t_sel ** (1 - q) / (1 - q)
                         - tstats.B * t_sel**ab / ab)
                if J_new < J_cur:
                    rel_drop = (J_cur - J_new) / abs(J_cur)
                    pair = trial.scaled(t_sel)
                    J_cur = J_new
                    step = step0
                    break
            step *= 0.5
        if rel_drop is None or rel_drop < tol_energy:
            break
    return J_cur


def test_sobolev_descent_against_euclidean_oracle(problem64, form64, solved64):
    # solved64 runs restarts 42, 43, 44; the oracle descends from the same
    # initial directions
    for rep in solved64:
        J_oracle = min(
            _descend_euclidean_reference(
                problem64, form64, rep.branch,
                nf.initial_direction(problem64, np.random.default_rng(seed), rep.branch))
            for seed in (42, 43, 44))
        assert rep.J <= J_oracle + 1e-8 * abs(J_oracle)


def test_stationarity_of_solved_fixture(solved64):
    for rep in solved64:
        assert 0 <= rep.stationarity < 1e-4


@pytest.mark.parametrize("cells", [64, 128, 256, 512])
def test_iteration_count_is_mesh_independent(cells):
    # the README config with one restart: the Euclidean descent needed
    # 133/289 (plus/minus) iterations at 64 cells and stopped unconverged
    # at 2000 on the minus branch at 512
    p = nf.validate_params(make_spec(cells=cells))
    form = nf.assemble_form(p.grid, p.s)
    opts = nf.SolverOptions(seed=0, restarts=1)
    plus = nf.solve_branch(p, form, nf.Branch.PLUS, opts)
    minus = nf.solve_branch(p, form, nf.Branch.MINUS, opts)
    assert plus.converged and plus.iters <= 20
    assert minus.converged and minus.iters <= 60


def test_negative_parameter_branches():
    # lambda < 0 drives u to zero on the local-min branch, which is then
    # no positive solution; the local-max branch passes through directions
    # with K <= 0 and still reaches a stationary point
    p = nf.validate_params(make_spec(cells=32, lam=-0.01, mu=0.01))
    form = nf.assemble_form(p.grid, p.s)
    opts = nf.SolverOptions(seed=0, restarts=2)
    plus = nf.solve_branch(p, form, nf.Branch.PLUS, opts)
    assert np.max(plus.pair.u.values) == 0.0
    assert not plus.converged
    minus = nf.solve_branch(p, form, nf.Branch.MINUS, opts)
    assert minus.converged and minus.stationarity < 1e-4
    assert minus.pair.u.values[1:-1].min() > 0 and minus.pair.w.values[1:-1].min() > 0
    J_oracle = min(
        _descend_euclidean_reference(
            p, form, nf.Branch.MINUS,
            nf.initial_direction(p, np.random.default_rng(seed), nf.Branch.MINUS))
        for seed in (0, 1))
    assert minus.J <= J_oracle + 1e-8 * abs(J_oracle)


def _descend_gridpair_reference(problem, form, riesz, branch, direction, opts):
    """The Sobolev descent as it ran on GridPair objects before the loop
    moved to raw arrays, kept as an oracle: every trial and every gradient
    recomputed from the full nodal arrays by the replaced formulas.
    Returns (iterations, final energy), or None if the direction admits no
    branch scaling."""
    q, ab = problem.q, problem.alpha + problem.beta

    def stats(pair):
        return nf.PairStats(*reference_stats(problem, form, pair))

    t_used = _project_scaling(problem, stats(direction), branch)
    if t_used is None:
        return None
    pair = direction.scaled(t_used)
    st = stats(pair)
    J_cur = st.norm2 / 2 - st.K / (1 - q) - st.B / ab
    step = opts.step
    iters = 0
    du = np.zeros(problem.grid.node_count)
    dv = np.zeros(problem.grid.node_count)
    for iters in range(1, opts.max_iters + 1):
        gu, gv = reference_gradient(problem, form, pair, opts.eps_singular)
        du[1:-1] = riesz @ gu[1:-1]
        dv[1:-1] = riesz @ gv[1:-1]
        rel_drop = None
        while step > 1e-16:
            u_try = np.maximum(pair.u.values - step * du, 0.0)
            v_try = np.maximum(pair.w.values - step * dv, 0.0)
            trial = nf.GridPair.from_arrays(problem.grid, u_try, v_try)
            tstats = stats(trial)
            t_sel = _project_scaling(problem, tstats, branch)
            if t_sel is None:
                step *= 0.5
                continue
            J_new = (tstats.norm2 * t_sel**2 / 2 - tstats.K * t_sel ** (1 - q) / (1 - q)
                     - tstats.B * t_sel**ab / ab)
            if J_new < J_cur:
                rel_drop = (J_cur - J_new) / max(abs(J_cur), 1e-300)
                pair = trial.scaled(t_sel)
                J_cur = J_new
                step = opts.step
                break
            step *= 0.5
        if rel_drop is None or rel_drop < opts.tol_energy:
            break
    return iters, J_cur


@pytest.mark.parametrize("cells", [64, 128])
def test_array_descent_against_gridpair_oracle(cells, problem64, form64):
    # every restart of the 64-cell fixture and of the README config at 128
    # cells: the same iteration count and the same energy up to roundoff
    if cells == 64:
        problem, form, seeds = problem64, form64, range(42, 50)
    else:
        problem = nf.validate_params(make_spec(cells=128))
        form = nf.assemble_form(problem.grid, problem.s)
        seeds = range(8)
    riesz = riesz_map(form)
    opts = nf.SolverOptions()
    for branch in (nf.Branch.PLUS, nf.Branch.MINUS):
        for seed in seeds:
            direction = nf.initial_direction(problem, np.random.default_rng(seed), branch)
            oracle = _descend_gridpair_reference(problem, form, riesz, branch,
                                                 direction, opts)
            result = _descend(problem, form, riesz, branch, direction, opts)
            assert oracle is not None and result is not None
            iters, J = oracle
            assert result["iters"] == iters
            assert result["J"] == pytest.approx(J, rel=1e-12)
