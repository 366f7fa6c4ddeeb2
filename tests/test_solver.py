import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import neharifrac as nf
from neharifrac.energy import row_dots, singular_and_coupling, smoothed_gradient
from neharifrac.errors import DirectionSearchFailed, NoBracket, NotConvergedInput
from neharifrac.fiber import DEGENERATE_TOL, label, root
from neharifrac import cli
from neharifrac import form as form_mod
from neharifrac.form import riesz_map
from neharifrac import solver
from neharifrac.thresholds import rho_coefficients

from conftest import make_spec, pair_gradient, reference_gradient, reference_stats


def _interiors(directions):
    # the block of interior nodal values of GridPair directions, a row each
    return np.array([[d.u.values[1:-1] for d in directions],
                     [d.w.values[1:-1] for d in directions]])


def _descend_point(problem, form, branch, directions):
    # the block descent with every direction a restart of one problem on one branch
    rows, failed = solver._descend([problem], [0] * len(directions), form,
                                   [branch] * len(directions), _interiors(directions))
    assert not failed
    return rows


def _descend_apart(problem, form, branch, directions):
    # the block descent with each direction a restart of its own point (the
    # same problem repeated), so that no two rows share a group
    rows, failed = solver._descend([problem] * len(directions), list(range(len(directions))),
                                   form, [branch] * len(directions), _interiors(directions))
    assert not failed
    return rows


def test_the_returned_reports_are_the_descent_rows(problem64, form64, monkeypatch):
    # solve_points returns the winning rows of the block descent themselves,
    # with restarts_used set; a report builds its GridPair on the first read
    # of pair, and a second read returns the same object
    rows, built = [], []
    descend = solver._descend

    def recorded(*args):
        result = descend(*args)
        rows.extend(result[0])
        return result

    monkeypatch.setattr(solver, "_descend", recorded)
    post_init = nf.GridPair.__post_init__
    monkeypatch.setattr(nf.GridPair, "__post_init__",
                        lambda pair: built.append(pair) or post_init(pair))
    solved = solver.solve_points([problem64], form64, list(nf.Branch),
                                 nf.SolverOptions(seed=0, restarts=3))
    assert not built
    for branch, [report] in solved.items():
        assert any(report is row for row in rows)
        assert report.restarts_used == sum(row is not None and row.branch is branch
                                           for row in rows) > 0
        pair = report.pair
        assert [id(p) for p in built] == [id(pair)]
        assert report.pair is pair and len(built) == 1
        assert np.array_equal(pair.u.values, np.pad(report.u, 1))
        assert np.array_equal(pair.w.values, np.pad(report.w, 1))
        built.clear()


def test_initial_direction_properties(problem64, form64):
    for seed in (0, 1, 17):
        rng = np.random.default_rng(seed)
        pair = nf.initial_direction(problem64, rng)
        assert np.all(pair.u.values >= 0) and np.all(pair.w.values >= 0)
        assert nf.pair_stats(problem64, form64, pair).K > 0


def test_initial_direction_minus_has_positive_coupling(problem64, form64):
    for seed in (0, 5, 9):
        rng = np.random.default_rng(seed)
        pair = nf.initial_direction(problem64, rng, nf.Branch.MINUS)
        assert nf.pair_stats(problem64, form64, pair).B > 0


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


def _initial_direction_reference(problem, rng, branch):
    """The direction search as it ran one restart at a time, kept as an
    oracle: the same draws, profile, damping and rejection on full nodal
    arrays. Returns (u, w), or None after 1000 attempts."""
    grid = problem.grid
    x = grid.nodes()
    width_scale = grid.right - grid.left
    b_peak = x[int(np.argmax(problem.b_vals))]
    for _ in range(1000):
        if branch is nf.Branch.MINUS:
            center = b_peak + 0.1 * width_scale * rng.standard_normal()
        else:
            center = rng.uniform(grid.left + 0.1 * width_scale, grid.right - 0.1 * width_scale)
        width = rng.uniform(0.08, 0.25) * width_scale
        amp = rng.uniform(0.5, 1.5)
        prof = amp * np.maximum(0.0, 1 - ((x - center) / width) ** 2) ** 2
        prof[0] = prof[-1] = 0.0
        if not np.any(prof[1:-1] > 0):
            continue
        u, v = prof.copy(), prof.copy()
        for _damp in range(8):
            [K], [B] = singular_and_coupling(problem, np.stack([u[1:-1], v[1:-1]])[:, None])
            if K > 0:
                break
            if problem.lam < problem.mu:
                u *= 0.25
            else:
                v *= 0.25
        else:
            continue
        if branch is nf.Branch.MINUS and B <= 0:
            continue
        return u, v
    return None


@pytest.mark.parametrize("case", ["readme", "mixed_sign", "narrow_b"])
def test_block_sampler_draws_each_restart_as_alone(monkeypatch, case):
    # seeds 0-15 on both branches: the block sampler, initial_direction with
    # one generator and the restart-by-restart search give the same arrays.
    # lambda < 0 < mu takes the damping path; a b positive only for x > 0.8
    # makes some minus draws fail the coupling test and draw again
    spec = {"readme": make_spec(cells=256),
            "mixed_sign": make_spec(cells=64, lam=-0.01, mu=0.01),
            "narrow_b": make_spec(cells=64, b=nf.WeightSpec.linear_x(1.0, -0.8))}[case]
    problem = nf.validate_params(spec)
    kernel = solver.singular_and_coupling
    for branch in nf.Branch:
        scored = []  # (K, B) of the rows of each damping round
        with monkeypatch.context() as patch:
            patch.setattr(solver, "singular_and_coupling",
                          lambda *args: scored.append(kernel(*args)) or scored[-1])
            (u, w), found = solver.sample_directions(
                [problem], [np.random.default_rng(seed) for seed in range(16)], branch)
        assert found.all()
        for seed in range(16):
            pair = nf.initial_direction(problem, np.random.default_rng(seed), branch)
            ref_u, ref_w = _initial_direction_reference(problem, np.random.default_rng(seed),
                                                        branch)
            for values in (np.pad(u[seed], 1), pair.u.values):
                assert np.array_equal(values, ref_u)
            for values in (np.pad(w[seed], 1), pair.w.values):
                assert np.array_equal(values, ref_w)
        damped = any((K <= 0).any() for K, _ in scored)
        rejected = any(((K > 0) & (B <= 0)).any() for K, B in scored)
        assert damped is (case == "mixed_sign")
        if case == "mixed_sign":
            assert not np.array_equal(u, w)
        if branch is nf.Branch.MINUS:
            assert rejected is (case == "narrow_b")


@pytest.mark.parametrize("case", ["readme", "mixed_sign", "narrow_b", "damps_w"])
def test_shared_sampler_gives_each_point_its_rows_alone(case):
    # one sampler call over several points (lambda, mu): each point's rows
    # are those of a call for that point alone with freshly seeded
    # generators, and each generator draws once per attempt for all points,
    # as far as the point that needs the most attempts of it. The points
    # mix damping sides: lambda < mu damps u, lambda > 0 > mu damps w
    spec, points = {
        "readme": (make_spec(cells=256), [(0.01, 0.01), (0.02, 0.005), (0.005, 0.05)]),
        "mixed_sign": (make_spec(cells=64),
                       [(-0.01, 0.01), (0.01, -0.01), (0.01, 0.01), (-0.02, 0.005)]),
        "narrow_b": (make_spec(cells=64, b=nf.WeightSpec.linear_x(1.0, -0.8)),
                     [(0.01, 0.01), (0.03, 0.02)]),
        "damps_w": (make_spec(cells=64), [(0.01, -0.01), (0.02, -0.005)]),
    }[case]
    problems = [nf.validate_params(dataclasses.replace(spec, lam=lam, mu=mu))
                for lam, mu in points]
    for branch in nf.Branch:
        rngs = [np.random.default_rng(seed) for seed in range(16)]
        (u, w), found = solver.sample_directions(problems, rngs, branch)
        assert u.shape == w.shape == (16 * len(problems), spec.grid.cells - 1)
        lone_states, damped = [], set()
        for k, problem in enumerate(problems):
            lone = [np.random.default_rng(seed) for seed in range(16)]
            (lone_u, lone_w), lone_found = solver.sample_directions([problem], lone, branch)
            rows = slice(16 * k, 16 * (k + 1))
            assert np.array_equal(u[rows], lone_u) and np.array_equal(w[rows], lone_w)
            assert np.array_equal(found[rows], lone_found) and lone_found.all()
            # only the side tied to the lesser parameter shrinks
            small, large = (lone_u, lone_w) if problem.lam < problem.mu else (lone_w, lone_u)
            assert (small <= large).all()
            if (small < large).any():
                damped.add("u" if problem.lam < problem.mu else "w")
            lone_states.append([rng.bit_generator.state for rng in lone])
        assert damped == {"readme": set(), "mixed_sign": {"u", "w"}, "narrow_b": set(),
                          "damps_w": {"w"}}[case]
        for i, rng in enumerate(rngs):
            assert rng.bit_generator.state in [states[i] for states in lone_states]


def test_solve_points_reports_no_admissible_direction():
    from neharifrac.errors import NoAdmissibleDirection
    p = nf.validate_params(make_spec(cells=32, lam=-0.01, mu=-0.01))
    form = nf.assemble_form(p.grid, p.s)
    [result] = nf.solve_points([p], form, [nf.Branch.PLUS],
                               nf.SolverOptions(restarts=2))[nf.Branch.PLUS]
    assert isinstance(result, NoAdmissibleDirection)
    assert str(result).startswith("all 2 restarts failed to reach branch plus; ")


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
    assert nf.pair_stats(problem64, form64, minus.pair).B > 0


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
    opts = nf.SolverOptions(seed=11, restarts=2)
    [a] = nf.solve_points([problem64], form64, [nf.Branch.PLUS], opts)[nf.Branch.PLUS]
    [b] = nf.solve_points([problem64], form64, [nf.Branch.PLUS], opts)[nf.Branch.PLUS]
    assert a.J == b.J
    assert a.iters == b.iters
    assert np.array_equal(a.pair.u.values, b.pair.u.values)
    assert np.array_equal(a.pair.w.values, b.pair.w.values)
    assert a.trajectory == b.trajectory


def test_symmetric_problem_keeps_components_equal(problem64, form64):
    # f = g, lambda = mu, alpha = beta and a symmetric seed
    opts = nf.SolverOptions(seed=3, restarts=1)
    solved = nf.solve_points([problem64], form64, list(nf.Branch), opts)
    for [rep] in solved.values():
        assert np.max(np.abs(rep.pair.u.values - rep.pair.w.values)) <= 1e-12


def test_small_parameters_shrink_plus_solution():
    # norm of the local-min solution scales down with the parameters and
    # stays below the shrinking gap radius
    for lam in (1e-2, 1e-3):
        p = nf.validate_params(make_spec(cells=64, lam=lam, mu=lam))
        form = nf.assemble_form(p.grid, p.s)
        opts = nf.SolverOptions(seed=1, restarts=2)
        [rep] = nf.solve_points([p], form, [nf.Branch.PLUS], opts)[nf.Branch.PLUS]
        assert rep.converged
        cons = nf.compute_constants(
            p, nf.estimate_S(form, 3.0, [rep.pair.u.values, rep.pair.w.values]))
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
    with pytest.raises(ValueError, match="restarts"):
        nf.SolverOptions(restarts=0)
    # numpy's generator would reject a negative seed with its own error
    with pytest.raises(ValueError, match="seed"):
        nf.SolverOptions(seed=-1)


@pytest.mark.parametrize("option,value", [("max_iters", 2000), ("step", 0.5),
                                          ("tol_energy", 1e-10), ("tol_manifold", 1e-8),
                                          ("eps_singular", 1e-8)])
def test_removed_solver_options_are_refused(option, value):
    # the descent's fixed settings are module constants, not options, so
    # even the value an option used to default to is refused
    with pytest.raises(TypeError, match=option):
        nf.SolverOptions(**{option: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("option", ["step", "tol_energy", "tol_manifold", "eps_singular"])
def test_solver_options_reject_nonfinite(option, value):
    # these settings are module constants now, so a non-finite value for one
    # is refused as an unknown option rather than reaching the descent
    with pytest.raises(TypeError, match=option):
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
        solved = nf.solve_points([problem], form, list(nf.Branch), opts)
        reports[matrix_free] = [rep for [rep] in solved.values()]
    for fast, dense in zip(reports[True], reports[False]):
        assert fast.converged and dense.converged
        assert fast.J == pytest.approx(dense.J, rel=1e-10)
        assert fast.norm == pytest.approx(dense.norm, rel=1e-10)


def test_solve_leaves_no_dense_matrix_above_the_crossover():
    # neither G nor its dense inverse is built or kept
    problem = nf.validate_params(make_spec(cells=form_mod.MATRIX_FREE_CELLS))
    form = nf.assemble_form(problem.grid, problem.s)
    assert form.matrix_free
    [report] = nf.solve_points([problem], form, [nf.Branch.PLUS],
                               nf.SolverOptions(seed=0, restarts=1))[nf.Branch.PLUS]
    assert report.converged
    assert "matrix" not in vars(form)
    assert not any(getattr(value, "ndim", 0) == 2 for value in vars(form).values())


def test_solve_runs_in_bounded_memory_above_the_crossover():
    # one 4095 x 4095 array is 128 MB
    problem = nf.validate_params(make_spec(cells=4096))
    form = nf.assemble_form(problem.grid, problem.s)
    opts = nf.SolverOptions(seed=0, restarts=1)
    tracemalloc.start()
    try:
        solved = nf.solve_points([problem], form, list(nf.Branch), opts)
        reports = [rep for [rep] in solved.values()]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(report.converged for report in reports)
    assert peak < 8 * 2**20


def _descend_euclidean_reference(problem, form, branch, direction, max_iters=2000,
                                 step0=0.1, tol_energy=1e-10, eps=1e-8):
    """The Euclidean-gradient descent the Sobolev one replaced, kept as an
    oracle: same clipping, reprojection, acceptance and stopping rule, with
    the nodal gradient as the direction. Returns the final energy."""
    q, ab = problem.q, problem.alpha + problem.beta
    stats = nf.pair_stats(problem, form, direction)
    pair = direction.scaled(root(*dataclasses.astuple(stats), q, ab, branch is nf.Branch.MINUS))
    st = nf.pair_stats(problem, form, pair)
    J_cur = st.norm2 / 2 - st.K / (1 - q) - st.B / ab
    step = step0
    for _ in range(max_iters):
        grad_u, grad_w = pair_gradient(problem, form, pair, eps)
        rel_drop = None
        while step > 1e-16:
            u_try = np.maximum(pair.u.values - step * grad_u, 0.0)
            v_try = np.maximum(pair.w.values - step * grad_w, 0.0)
            trial = nf.GridPair.from_arrays(problem.grid, u_try, v_try)
            tstats = nf.pair_stats(problem, form, trial)
            t_sel = None
            if tstats.norm2 > 0 and tstats.K > 0:
                t_sel = root(*dataclasses.astuple(tstats), q, ab, branch is nf.Branch.MINUS)
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


@pytest.mark.parametrize("cells", [64, 128, 256, 512, 1024])
def test_readme_solutions_are_stationary_far_below_the_tolerance(cells):
    # measured at most 1.6e-6 at 64-2048 cells
    p = nf.validate_params(make_spec(cells=cells))
    form = nf.assemble_form(p.grid, p.s)
    for [rep] in nf.solve_points([p], form, list(nf.Branch), nf.SolverOptions()).values():
        assert rep.converged and rep.stationarity <= solver.TOL_STATIONARITY / 100


def test_converged_needs_stationarity_at_the_edge_of_the_branch():
    # lambda = mu = 145 at 128 cells: the plus branch reaches a critical
    # point; the minus branch stops at the edge of N-, where every longer
    # step leaves it, inside its band but at stationarity about 0.1
    p = nf.validate_params(make_spec(cells=128, lam=145.0, mu=145.0))
    form = nf.assemble_form(p.grid, p.s)
    solved = nf.solve_points([p], form, list(nf.Branch), nf.SolverOptions())
    [plus], [minus] = solved[nf.Branch.PLUS], solved[nf.Branch.MINUS]
    assert plus.converged and plus.stationarity <= solver.TOL_STATIONARITY / 100
    assert not minus.converged and minus.stationarity > solver.TOL_STATIONARITY
    scale = nf.pair_stats(p, form, minus.pair).scale()
    assert label(minus.phi1, minus.phi2, scale) is nf.MembershipLabel.N_MINUS
    assert minus.iters < solver.MAX_ITERS and minus.pair.u.values.max() > 0


def test_ties_on_energy_break_toward_the_smaller_stationarity(monkeypatch, problem64, form64):
    descend, descended = solver._descend, []

    def tied(*args):
        rows, failed = descend(*args)
        for row in rows:
            row.J = 0.0
        descended.extend(rows)
        return rows, failed

    monkeypatch.setattr(solver, "_descend", tied)
    for branch, [report] in nf.solve_points([problem64], form64, list(nf.Branch),
                                            nf.SolverOptions(restarts=4)).items():
        rows = [row for row in descended if row.branch is branch]
        assert len(rows) == 4
        assert report.stationarity == min(row.stationarity for row in rows)


@pytest.mark.parametrize("cells", [64, 128, 256, 512])
def test_iteration_count_is_mesh_independent(cells):
    # the README config with one restart: the Euclidean descent needed
    # 133/289 (plus/minus) iterations at 64 cells and stopped unconverged
    # at 2000 on the minus branch at 512
    p = nf.validate_params(make_spec(cells=cells))
    form = nf.assemble_form(p.grid, p.s)
    opts = nf.SolverOptions(seed=0, restarts=1)
    solved = nf.solve_points([p], form, list(nf.Branch), opts)
    [plus], [minus] = solved[nf.Branch.PLUS], solved[nf.Branch.MINUS]
    assert plus.converged and plus.iters <= 20
    assert minus.converged and minus.iters <= 60


@pytest.mark.parametrize("cells", [64, 128, 256, 512])
def test_every_restart_stops_within_the_bb_iteration_bounds(cells):
    # the README config with its 8 restarts: the fixed step 0.5 took up to
    # 14 (plus) and 55 (minus) iterations per row, the alternating BB step
    # takes 10 and 24 at every N
    p = nf.validate_params(make_spec(cells=cells))
    form = nf.assemble_form(p.grid, p.s)
    opts = nf.SolverOptions()
    for branch, bound in ((nf.Branch.PLUS, 12), (nf.Branch.MINUS, 28)):
        directions = [nf.initial_direction(p, np.random.default_rng(opts.seed + i), branch)
                      for i in range(opts.restarts)]
        for report in _descend_point(p, form, branch, directions):
            assert report.converged and report.iters <= bound


def test_alternation_damps_the_stiff_antisymmetric_mode(problem128, form128):
    # on the minus branch the antisymmetric mode u - w has curvature about 2
    # in the G metric, which the base step 0.5 annihilates; a BB step sized
    # by the soft symmetric curvature leaves it undamped (sup|u - w| stayed
    # at 4e-8 without the alternation)
    opts = nf.SolverOptions(restarts=1)
    start = nf.initial_direction(problem128, np.random.default_rng(opts.seed), nf.Branch.MINUS)
    u = start.u.values
    w = u * (1 + 1e-8 * np.sin(np.pi * problem128.grid.nodes()))
    [report] = _descend_point(problem128, form128, nf.Branch.MINUS,
                              [nf.GridPair.from_arrays(problem128.grid, u, w)])
    assert report.converged
    assert np.max(np.abs(report.u - report.w)) <= 1e-10


def test_negative_parameter_branches():
    # lambda < 0 drives u to zero on the local-min branch, which is then
    # no positive solution; the local-max branch passes through directions
    # with K <= 0 and still reaches a stationary point
    p = nf.validate_params(make_spec(cells=32, lam=-0.01, mu=0.01))
    form = nf.assemble_form(p.grid, p.s)
    opts = nf.SolverOptions(seed=0, restarts=2)
    solved = nf.solve_points([p], form, list(nf.Branch), opts)
    [plus], [minus] = solved[nf.Branch.PLUS], solved[nf.Branch.MINUS]
    assert np.max(plus.pair.u.values) == 0.0
    assert not plus.converged
    assert minus.converged and minus.stationarity < 1e-4
    assert minus.pair.u.values[1:-1].min() > 0 and minus.pair.w.values[1:-1].min() > 0
    J_oracle = min(
        _descend_euclidean_reference(
            p, form, nf.Branch.MINUS,
            nf.initial_direction(p, np.random.default_rng(seed), nf.Branch.MINUS))
        for seed in (0, 1))
    assert minus.J <= J_oracle + 1e-8 * abs(J_oracle)


def _descend_gridpair_reference(problem, form, riesz, branch, direction):
    """The Sobolev descent as it ran on GridPair objects before the loop
    moved to raw arrays, kept as an oracle: every trial and every gradient
    recomputed from the full nodal arrays by the replaced formulas. The
    first trial step follows the solver's rule: solver.STEP, and on odd
    iterations from the third on the BB2 step s'dg / dd'dg of the pair's
    changes in iterate, gradient and Riesz representative, floored at
    solver.STEP. The gradient floors u^{-q} at solver.EPS_SINGULAR times
    the pair's peak max(u, w). Returns (iterations, final energy), or None
    if the direction admits no branch scaling."""
    q, ab = problem.q, problem.alpha + problem.beta

    def stats(pair):
        return nf.PairStats(*reference_stats(problem, form, pair))

    t_used = root(*dataclasses.astuple(stats(direction)), q, ab, branch is nf.Branch.MINUS)
    if t_used is None:
        return None
    pair = direction.scaled(t_used)
    st = stats(pair)
    J_cur = st.norm2 / 2 - st.K / (1 - q) - st.B / ab
    iters = 0
    previous = None
    for iters in range(1, solver.MAX_ITERS + 1):
        peak = max(pair.u.values.max(), pair.w.values.max())
        gu, gv = reference_gradient(problem, form, pair, solver.EPS_SINGULAR * peak)
        du = np.zeros(problem.grid.node_count)
        dv = np.zeros(problem.grid.node_count)
        du[1:-1] = riesz @ gu[1:-1]
        dv[1:-1] = riesz @ gv[1:-1]
        x = np.concatenate([pair.u.values, pair.w.values])
        g, d = np.concatenate([gu, gv]), np.concatenate([du, dv])
        step = solver.STEP
        if iters % 2 == 1 and iters >= 3:
            x_prev, g_prev, d_prev = previous
            sy = float((x - x_prev) @ (g - g_prev))
            yy = float((d - d_prev) @ (g - g_prev))
            if sy > 0 and yy > 0 and math.isfinite(sy / yy):
                step = max(sy / yy, solver.STEP)
        previous = x, g, d
        rel_drop = None
        while step > 1e-16:
            u_try = np.maximum(pair.u.values - step * du, 0.0)
            v_try = np.maximum(pair.w.values - step * dv, 0.0)
            trial = nf.GridPair.from_arrays(problem.grid, u_try, v_try)
            tstats = stats(trial)
            t_sel = root(*dataclasses.astuple(tstats), q, ab, branch is nf.Branch.MINUS)
            if t_sel is None:
                step *= 0.5
                continue
            J_new = (tstats.norm2 * t_sel**2 / 2 - tstats.K * t_sel ** (1 - q) / (1 - q)
                     - tstats.B * t_sel**ab / ab)
            if J_new < J_cur:
                rel_drop = (J_cur - J_new) / max(abs(J_cur), 1e-300)
                pair = trial.scaled(t_sel)
                J_cur = J_new
                break
            step *= 0.5
        if rel_drop is None or rel_drop < solver.TOL_ENERGY:
            break
    return iters, J_cur


@pytest.mark.parametrize("cells", [64, 128])
def test_array_descent_against_gridpair_oracle(cells, problem64, form64):
    # every restart of the 64-cell fixture and of the README config at 128
    # cells, descended as the rows of one block, each its own point so that
    # none joins another: each row takes the same iteration count as its
    # lone oracle and the same energy up to roundoff
    if cells == 64:
        problem, form, seeds = problem64, form64, range(42, 50)
    else:
        problem = nf.validate_params(make_spec(cells=128))
        form = nf.assemble_form(problem.grid, problem.s)
        seeds = range(8)
    riesz = riesz_map(form)
    for branch in (nf.Branch.PLUS, nf.Branch.MINUS):
        directions = [nf.initial_direction(problem, np.random.default_rng(seed), branch)
                      for seed in seeds]
        results = _descend_apart(problem, form, branch, directions)
        assert len(results) == len(directions)
        for direction, result in zip(directions, results):
            oracle = _descend_gridpair_reference(problem, form, riesz, branch, direction)
            assert oracle is not None and result is not None
            iters, J = oracle
            assert result.iters == iters
            assert result.J == pytest.approx(J, rel=1e-12)


def _zero_direction(problem):
    zeros = np.zeros(problem.grid.node_count)
    return nf.GridPair.from_arrays(problem.grid, zeros, zeros)


@pytest.mark.parametrize("step", [0.5, 8.0])
@pytest.mark.parametrize("matrix_free", [False, True])
def test_block_rows_do_not_depend_on_each_other(monkeypatch, problem64, matrix_free, step):
    # a row that admits no scaling (the zero direction) and rows that stop
    # before the others leave every other row as it was, each row its own
    # point so that none joins another. The FFT path
    # treats the rows independently, so there it is bit for bit, the
    # stationarity included; a dense
    # product rounds by the block's width, so there it is to roundoff. A
    # first step of 8 makes the rows halve it, each by its own count
    monkeypatch.setattr(form_mod, "MATRIX_FREE_CELLS", 2 if matrix_free else 10**9)
    monkeypatch.setattr(solver, "STEP", step)
    form = nf.assemble_form(problem64.grid, problem64.s)
    assert form.matrix_free is matrix_free
    for branch in (nf.Branch.PLUS, nf.Branch.MINUS):
        directions = [nf.initial_direction(problem64, np.random.default_rng(seed), branch)
                      for seed in range(8, 12)]
        block = _descend_apart(problem64, form, branch, directions)
        assert len({result.iters for result in block}) > 1  # rows stop apart
        padded = _descend_apart(problem64, form, branch,
                                directions[:2] + [_zero_direction(problem64)] + directions[2:])
        assert padded[2] is None
        zero = [_zero_direction(problem64)]
        assert _descend_apart(problem64, form, branch, zero) == [None]
        lone = [_descend_apart(problem64, form, branch, [d])[0] for d in directions]
        for other in (padded[:2] + padded[3:], lone):
            for a, b in zip(block, other):
                assert a.iters == b.iters and a.converged == b.converged
                if matrix_free:
                    assert a.J == b.J and a.trajectory == b.trajectory
                    assert a.stationarity == b.stationarity
                    assert np.array_equal(a.u, b.u) and np.array_equal(a.w, b.w)
                else:
                    assert a.J == pytest.approx(b.J, rel=1e-12)


@pytest.mark.parametrize("matrix_free", [False, True], ids=["dense", "FFT"])
def test_every_row_reports_its_stationarity(monkeypatch, problem64, matrix_free):
    # each row's stationarity, against the formula recomputed on that row
    # alone: a fresh product with G, the smoothed gradient with u^{-q}
    # floored at EPS_SINGULAR times the row's peak, one Riesz map.
    # At 40 iterations the plus rows stop on the energy tolerance and the
    # minus rows are cut off before it. The report of a solve over the same
    # restarts is its winning row's, and counts every restart
    monkeypatch.setattr(form_mod, "MATRIX_FREE_CELLS", 2 if matrix_free else 10**9)
    monkeypatch.setattr(solver, "MAX_ITERS", 40)
    form = nf.assemble_form(problem64.grid, problem64.s)
    assert form.matrix_free is matrix_free
    for branch in (nf.Branch.PLUS, nf.Branch.MINUS):
        directions = [nf.initial_direction(problem64, np.random.default_rng(seed), branch)
                      for seed in range(4)]
        rows = _descend_point(problem64, form, branch, directions)
        for row in rows:
            assert row.branch is branch
            g = smoothed_gradient(problem64, np.stack([row.u, row.w])[:, None],
                                  np.stack([form.apply(row.u), form.apply(row.w)])[:, None],
                                  solver.EPS_SINGULAR * max(row.u.max(), row.w.max()))
            expected = math.sqrt(float(np.sum(g * form.riesz(g)))) / row.norm
            assert row.stationarity == pytest.approx(expected, rel=1e-9)
        [report] = nf.solve_points([problem64], form, [branch],
                                   nf.SolverOptions(seed=0, restarts=4))[branch]
        winner = min(rows, key=lambda row: row.J)
        assert report.branch is branch and report.restarts_used == len(rows) == 4
        assert (report.J, report.iters, report.stationarity) == (
            winner.J, winner.iters, winner.stationarity)
        assert np.array_equal(report.pair.u.values, np.pad(winner.u, 1))
        assert np.array_equal(report.pair.w.values, np.pad(winner.w, 1))


def test_block_stops_rows_at_the_step_floor_and_at_max_iters(monkeypatch, problem64, form64):
    directions = [nf.initial_direction(problem64, np.random.default_rng(seed), nf.Branch.MINUS)
                  for seed in range(3)]
    # a first step at the floor tries nothing: each row stops at once on
    # its projected start
    with monkeypatch.context() as patch:
        patch.setattr(solver, "STEP", 1e-16)
        start = _descend_point(problem64, form64, nf.Branch.MINUS, directions)
    for result in start:
        assert result.iters == 1 and len(result.trajectory) == 1
    # a row cut off by MAX_ITERS reports exactly MAX_ITERS, unconverged
    monkeypatch.setattr(solver, "MAX_ITERS", 3)
    capped = _descend_point(problem64, form64, nf.Branch.MINUS, directions)
    for result in capped:
        assert result.iters == 3 and len(result.trajectory) == 4
        assert not result.converged


@pytest.mark.parametrize("branch, sign", [(nf.Branch.PLUS, 1.0), (nf.Branch.MINUS, -1.0)])
def test_converged_needs_phi2_outside_the_degenerate_band(monkeypatch, problem64, form64,
                                                          branch, sign):
    # the verdict reads fiber.label's bands: a row whose phi''(1) lies inside
    # DEGENERATE_TOL * scale, on its branch's side of 0, is in N0, not N+ or N-
    directions = [nf.initial_direction(problem64, np.random.default_rng(seed), branch)
                  for seed in range(3)]
    assert all(row.converged for row in _descend_point(problem64, form64, branch, directions))

    def degenerate(stats, q, ab, t):
        return 0.0, 0.0, sign * 0.5 * DEGENERATE_TOL * stats.scale()

    monkeypatch.setattr(solver, "phi_from_stats", degenerate)
    rows = _descend_point(problem64, form64, branch, directions)
    assert rows and not any(row.converged for row in rows)


def test_restarts_used_counts_only_rows_that_reach_the_branch(monkeypatch, problem64, form64):
    # the first restart's direction admits no scaling; the other two descend
    sample = solver.sample_directions

    def first_zero(problems, rngs, branch):
        X, found = sample(problems, rngs, branch)
        X[:, 0] = 0.0
        return X, found

    monkeypatch.setattr(solver, "sample_directions", first_zero)
    [report] = nf.solve_points([problem64], form64, [nf.Branch.PLUS],
                               nf.SolverOptions(seed=42, restarts=3))[nf.Branch.PLUS]
    assert report.restarts_used == 2 and report.converged


def test_a_point_whose_projection_raises_leaves_the_others(monkeypatch):
    # in a block of two points, a projection that raises on the second
    # point's rows ends that point with the error a solve of it alone
    # raises; the first point comes out as alone, bit for bit on the FFT path
    monkeypatch.setattr(form_mod, "MATRIX_FREE_CELLS", 2)
    small = nf.validate_params(make_spec(cells=32))
    large = nf.validate_params(make_spec(cells=32, lam=100.0, mu=100.0))
    form = nf.assemble_form(small.grid, small.s)
    opts = nf.SolverOptions(restarts=2)
    calls = []
    root = solver.root

    def fragile(norm2, K, B, q, ab, upper):
        # past the first projections, every large-K stats (the second point's) raises
        calls.append(K)
        if K > 1.0 and len(calls) > 8:
            raise NoBracket("degenerate stats")
        return root(norm2, K, B, q, ab, upper)

    monkeypatch.setattr(solver, "root", fragile)
    for branch in (nf.Branch.PLUS, nf.Branch.MINUS):
        calls.clear()
        first, second = solver.solve_points([small, large], form, [branch], opts)[branch]
        assert isinstance(second, NoBracket)
        calls.clear()
        [alone] = solver.solve_points([large], form, [branch], opts)[branch]
        assert type(alone) is NoBracket and str(alone) == str(second)
        [lone] = solver.solve_points([small], form, [branch], opts)[branch]
        assert first.converged and first.iters == lone.iters
        assert first.J == lone.J and first.stationarity == lone.stationarity
        assert np.array_equal(first.pair.u.values, lone.pair.u.values)


def test_a_block_takes_points_that_differ_in_lambda_mu_f_and_g_alone(problem64, form64):
    # f and g enter the energy only through each row's singular factors, so
    # a point with other f and g joins the block and comes out as alone;
    # a point that differs in q or b is refused
    opts = nf.SolverOptions(restarts=2)
    other = nf.validate_params(make_spec(cells=64, lam=0.02, f=nf.WeightSpec.constant(2.0),
                                         g=nf.WeightSpec.gaussian(0.1, 0.5, 1.5)))
    _, report = solver.solve_points([problem64, other], form64, [nf.Branch.MINUS],
                                    opts)[nf.Branch.MINUS]
    [lone] = solver.solve_points([other], form64, [nf.Branch.MINUS], opts)[nf.Branch.MINUS]
    assert report.iters == lone.iters and report.converged and lone.converged
    assert report.J == pytest.approx(lone.J, rel=1e-12)
    for spec in (make_spec(cells=64, q=0.4), make_spec(cells=64, b=nf.WeightSpec.constant(1.0))):
        with pytest.raises(ValueError, match="lambda, mu, f and g alone"):
            solver.solve_points([problem64, nf.validate_params(spec)], form64,
                                [nf.Branch.PLUS], opts)


def test_one_root_projection_matches_project(problem64):
    # the branch scaling computes only the root its branch uses, and project
    # finds each of its roots by the same call: bit for bit t1 (plus) or t2
    # (minus), over seeded stats covering every case of the fiber
    q, ab = problem64.q, problem64.alpha + problem64.beta
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(400):
        norm2 = 10.0 ** rng.uniform(-3, 3)
        K = rng.choice([-1.0, 1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)
        B = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4, 4)
        stats = nf.PairStats(norm2, K, B)
        plus = root(*dataclasses.astuple(stats), q, ab, upper=False)
        minus = root(*dataclasses.astuple(stats), q, ab, upper=True)
        if K <= 0:
            # the falling root, against brentq in tests/test_fiber.py
            seen.add("K <= 0 < B" if B > 0 else "K, B <= 0")
            assert plus is None
            assert (minus is None) == (B <= 0)
            continue
        roots = nf.project(stats, q, ab)
        seen.add(roots.case)
        if roots.case is nf.FiberCase.NO_ADMISSIBLE_ROOT:
            assert plus is None and minus is None
        else:
            assert plus == roots.t1
            assert minus == (roots.t2 if roots.case is nf.FiberCase.TWO_ROOTS else None)
    assert seen >= {nf.FiberCase.SINGLE_ROOT, nf.FiberCase.TWO_ROOTS,
                    nf.FiberCase.NO_ADMISSIBLE_ROOT, "K <= 0 < B"}
    # a B so small that t2's bracket leaves the float range: project
    # raises, but the local-min branch never looks for t2
    stats = nf.PairStats(1.0, 0.5, 1e-310)
    with pytest.raises(NoBracket):
        nf.project(stats, q, ab)
    with pytest.raises(NoBracket):
        root(*dataclasses.astuple(stats), q, ab, upper=True)
    assert root(*dataclasses.astuple(stats), q, ab, upper=False) == pytest.approx(0.5 ** (2 / 3))


def test_rows_split_into_blocks_come_out_as_unsplit(monkeypatch):
    # rows beyond the element budget descend as consecutive blocks, split
    # where a point's restarts on a branch (two rows here) end: a budget of
    # three rows takes one group each, a budget of one row too (a larger
    # group takes a block of its own), and a budget of five two groups. On
    # the FFT path every report comes out bit for bit as from one block.
    # The second point's first plus restart raises at its first trial and
    # its second at its projected start: as unsplit, the point keeps the
    # error raised first in the descent, the second restart's
    monkeypatch.setattr(form_mod, "MATRIX_FREE_CELLS", 2)
    problems = [nf.validate_params(make_spec(cells=32)),
                nf.validate_params(make_spec(cells=32, lam=100.0, mu=100.0))]
    form = nf.assemble_form(problems[0].grid, problems[0].s)
    points, branches, directions = [], [], []
    for branch in nf.Branch:
        for k, problem in enumerate(problems):
            for seed in range(2):
                directions.append(nf.initial_direction(problem, np.random.default_rng(seed),
                                                       branch))
                points.append(k)
                branches.append(branch)
    X = _interiors(directions)
    seen = []
    root = solver.root
    monkeypatch.setattr(solver, "root",
                        lambda norm2, K, B, *rest: seen.append((norm2, K, B))
                        or root(norm2, K, B, *rest))
    solver._descend(problems, points, form, branches, X)
    # the projected starts of the second point's rows 2, 3, 6 and 7
    starts = [stats for stats in seen[:len(directions)] if stats[1] > 1.0]
    assert len(starts) == 4

    def fragile(norm2, K, B, q, ab, upper):
        if K > 1.0 and (norm2, K, B) != starts[0]:
            raise NoBracket(repr((norm2, K, B)))
        return root(norm2, K, B, q, ab, upper)

    monkeypatch.setattr(solver, "root", fragile)
    whole, whole_failed = solver._descend(problems, points, form, branches, X)
    widths = []
    descend_block = solver._descend_block
    monkeypatch.setattr(solver, "_descend_block", lambda *args: widths.append(len(args[3]))
                        or descend_block(*args))
    expected = {(1, nf.Branch.PLUS): repr(starts[1]), (1, nf.Branch.MINUS): repr(starts[2])}
    for budget, blocks in ((3, [2, 2, 2, 2]), (1, [2, 2, 2, 2]), (5, [4, 4])):
        widths.clear()
        monkeypatch.setattr(solver, "BLOCK_ELEMENTS", budget * (32 - 1))
        split, split_failed = solver._descend(problems, points, form, branches, X)
        assert widths == blocks
        for failed in (whole_failed, split_failed):
            assert all(type(exc) is NoBracket for exc in failed.values())
            assert {key: str(exc) for key, exc in failed.items()} == expected
        # the rows that raised at their projected start reach no branch
        assert [i for i, a in enumerate(split) if a is None] == [3, 6, 7]
        for i, (a, b) in enumerate(zip(whole, split)):
            if a is None:
                assert b is None
                continue
            assert a.branch is b.branch and a.converged == b.converged
            assert a.converged or points[i] == 1
            assert (a.iters, a.J, a.norm, a.phi1, a.phi2, a.t_used) == (
                b.iters, b.J, b.norm, b.phi1, b.phi2, b.t_used)
            assert a.stationarity == b.stationarity and a.trajectory == b.trajectory
            assert np.array_equal(a.u, b.u) and np.array_equal(a.w, b.w)


def test_a_restart_from_the_same_direction_joins_at_iteration_1(monkeypatch, problem64, form64):
    # two rows from one direction meet at once: the second joins the first
    # after iteration 1 and leaves the block, so every later gradient takes
    # one row, and both rows report the same object
    direction = nf.initial_direction(problem64, np.random.default_rng(0), nf.Branch.MINUS)
    widths = []
    gradient = solver.smoothed_gradient
    monkeypatch.setattr(solver, "smoothed_gradient",
                        lambda problem, X, *rest: widths.append(X.shape[1])
                        or gradient(problem, X, *rest))
    first, second = _descend_point(problem64, form64, nf.Branch.MINUS, [direction, direction])
    assert second is first and first.converged
    assert widths[0] == 2 and set(widths[1:]) == {1}
    sample = solver.sample_directions

    def twins(problems, rngs, branch):
        X, found = sample(problems, rngs, branch)
        X[:, 1] = X[:, 0]
        return X, found

    monkeypatch.setattr(solver, "sample_directions", twins)
    [report] = nf.solve_points([problem64], form64, [nf.Branch.MINUS],
                               nf.SolverOptions(restarts=2))[nf.Branch.MINUS]
    assert report.restarts_used == 2 and report.restarts_joined == 1


def test_join_records_and_pairs_follow_the_active_rows(monkeypatch, problem64, form64):
    # at every iteration of a block of two points on both branches, the join
    # records hold each active row's norm, that of its iterate, and the
    # pairs are every ordered pair of rows of one group in _group_pairs'
    # order, with the group of a row read off its least partner
    problems = [problem64, nf.validate_params(make_spec(cells=64, lam=0.02, mu=0.005))]
    seen, meetings = [], solver._meetings

    def spy(records, pa, pb, X, GX):
        seen.append(X.shape[1])
        norms = np.sqrt(row_dots(X, GX))
        np.testing.assert_allclose(records[:, 1], norms, rtol=1e-12)
        group = np.arange(X.shape[1])
        np.minimum.at(group, pa, pb)
        expected = solver._group_pairs(group)
        assert np.array_equal(pa, expected[0]) and np.array_equal(pb, expected[1])
        return meetings(records, pa, pb, X, GX)

    monkeypatch.setattr(solver, "_meetings", spy)
    nf.solve_points(problems, form64, [nf.Branch.PLUS, nf.Branch.MINUS],
                    nf.SolverOptions(restarts=4))
    assert seen[0] == 16 and len(set(seen)) > 2, seen


def _bump(problem, center, width=0.15):
    x = problem.grid.nodes()
    bump = np.maximum(0.0, 1 - ((x - center) / width) ** 2) ** 2
    return nf.GridPair.from_arrays(problem.grid, bump, bump)


def test_restarts_on_different_humps_do_not_join(monkeypatch):
    # b = cos(3 pi x)(1 + 0.05 x) has three humps: minus restarts seeded on
    # the centre hump and on the right one reach different critical points,
    # and neither joins the other
    grid = nf.GridSpec(-1.0, 1.0, 128)
    x = grid.nodes()
    b = nf.WeightSpec.samples(tuple(np.cos(3 * np.pi * x) * (1 + 0.05 * x)))
    problem = nf.validate_params(make_spec(cells=128, b=b))
    form = nf.assemble_form(problem.grid, problem.s)
    humps = [_bump(problem, 0.0), _bump(problem, 2 / 3)]
    centre, right = _descend_point(problem, form, nf.Branch.MINUS, humps)
    assert centre is not right and centre.converged and right.converged
    assert centre.J < right.J * (1 - 1e-3)
    monkeypatch.setattr(solver, "sample_directions",
                        lambda problems, rngs, branch: (_interiors(humps), np.ones(2, bool)))
    [report] = nf.solve_points([problem], form, [nf.Branch.MINUS],
                               nf.SolverOptions(restarts=2))[nf.Branch.MINUS]
    assert report.restarts_used == 2 and report.restarts_joined == 0
    assert report.J == centre.J


def test_the_first_minus_step_is_not_halved_away(monkeypatch):
    # on the README config at 64 cells, (lambda, mu) = (100, 0.02): the bump
    # starts vanish on most nodes, where an absolute floor of u^{-q} made the
    # first gradient huge, and iteration 1 of the minus rows took 12 trial
    # rounds; the floor relative to each row's peak takes at most 2
    problem = nf.validate_params(make_spec(cells=64, lam=100.0, mu=0.02))
    form = nf.assemble_form(problem.grid, problem.s)
    calls = []
    stats, gradient = solver.stats_and_products, solver.smoothed_gradient
    monkeypatch.setattr(solver, "stats_and_products",
                        lambda *args: calls.append("trial") or stats(*args))
    monkeypatch.setattr(solver, "smoothed_gradient",
                        lambda *args: calls.append("gradient") or gradient(*args))
    [report] = nf.solve_points([problem], form, [nf.Branch.MINUS],
                               nf.SolverOptions(restarts=4))[nf.Branch.MINUS]
    assert report.converged
    first, second = [i for i, call in enumerate(calls) if call == "gradient"][:2]
    assert 1 <= second - first - 1 <= 2


def test_the_readme_sweep_projects_at_most_60_percent_of_its_earlier_trials(tmp_path,
                                                                            monkeypatch):
    # the 2x2 sweep of the README config at 64 cells with 4 restarts over
    # lambda, mu in {0.01, 100}: the descent took 670 trial projections
    # (fiber.root calls) before restarts that meet finished as one and the
    # floor of u^{-q} scaled with the pair
    path = tmp_path / "readme.json"
    path.write_text(json.dumps({
        "grid": {"left": -1.0, "right": 1.0, "cells": 64},
        "s": 0.4, "q": 0.5, "alpha": 1.5, "beta": 1.5, "lambda": 0.01, "mu": 0.01,
        "f": {"kind": "constant", "value": 1.0}, "g": {"kind": "constant", "value": 1.0},
        "b": {"kind": "cos_pi_x", "amplitude": 1.0}, "solver": {"restarts": 4, "seed": 0}}))
    calls = []
    root = solver.root
    monkeypatch.setattr(solver, "root", lambda *args: calls.append(args) or root(*args))
    assert cli.main(["sweep", str(path), "--lambdas=0.01,100", "--mus=0.01,100",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
    assert len(calls) <= 0.6 * 670
