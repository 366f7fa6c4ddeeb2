import dataclasses

import numpy as np
import pytest

import neharifrac as nf
from neharifrac.energy import phi_from_stats, row_dots, smoothed_gradient, stats_and_products
from neharifrac.errors import NehariError

from conftest import (
    bump_pair,
    energy,
    energy_smoothed,
    make_spec,
    pair_gradient,
    random_x0_pair,
    reference_gradient,
    reference_stats,
)


def zero_pair(problem):
    return np.zeros((2, problem.grid.cells - 1))


def test_K_zero_cases(problem64, form64):
    assert nf.pair_stats(problem64, form64, zero_pair(problem64)).K == 0.0
    # nonpositive components contribute nothing
    pair = np.full((2, problem64.grid.cells - 1), -1.0)
    assert nf.pair_stats(problem64, form64, pair).K == 0.0


def test_K_against_quadrature_sum_oracle(problem64, form64):
    # oracle: explicit trapezoid sum computed independently
    n = problem64.grid.node_count
    c = 0.7
    u = np.full(n, c)
    u[0] = u[-1] = 0.0
    pair = np.array([u[1:-1], u[1:-1]])
    w = problem64.grid.trapezoid_weights()
    expected = (problem64.lam * np.sum(w * 1.0 * u ** 0.5)
                + problem64.mu * np.sum(w * 1.0 * u ** 0.5))
    assert nf.pair_stats(problem64, form64, pair).K == pytest.approx(expected, rel=1e-14)


def test_K_homogeneity(problem64, form64):
    rng = np.random.default_rng(2)
    pair = random_x0_pair(problem64, rng, nonnegative=True)
    base = nf.pair_stats(problem64, form64, pair).K
    for t in (0.5, 2.0, 7.3):
        assert nf.pair_stats(problem64, form64, t * pair).K == pytest.approx(
            t ** (1 - problem64.q) * base, rel=1e-13)


def test_B_zero_cases(problem64, form64):
    assert nf.pair_stats(problem64, form64, zero_pair(problem64)).B == 0.0
    n = problem64.grid.node_count
    w = np.abs(np.random.default_rng(0).standard_normal(n))
    pair = np.array([np.full(n - 2, -2.0), w[1:-1]])
    assert nf.pair_stats(problem64, form64, pair).B == 0.0


def test_B_negative_when_supported_on_negative_weight(problem64, form64):
    # b = cos(pi x) is negative near the endpoints of (-1, 1)
    pair = bump_pair(problem64, center=-0.8, width=0.15)
    assert nf.pair_stats(problem64, form64, pair).B < 0
    # and positive near the center
    pair2 = bump_pair(problem64, center=0.0, width=0.3)
    assert nf.pair_stats(problem64, form64, pair2).B > 0


def test_B_homogeneity(problem64, form64):
    rng = np.random.default_rng(4)
    pair = random_x0_pair(problem64, rng, nonnegative=True)
    base = nf.pair_stats(problem64, form64, pair).B
    ab = problem64.alpha + problem64.beta
    for t in (0.5, 3.0):
        assert nf.pair_stats(problem64, form64, t * pair).B == pytest.approx(
            t ** ab * base, rel=1e-12)


def test_energy_zero_pair(problem64, form64):
    assert energy(problem64, form64, zero_pair(problem64)) == 0.0


def test_energy_parts_identity(problem64, form64):
    rng = np.random.default_rng(6)
    for _ in range(10):
        pair = random_x0_pair(problem64, rng)
        st = nf.pair_stats(problem64, form64, pair)
        expected = (st.norm2 / 2 - st.K / (1 - problem64.q)
                    - st.B / (problem64.alpha + problem64.beta))
        assert energy(problem64, form64, pair) == pytest.approx(expected, rel=1e-14,
                                                                 abs=1e-300)


def test_energy_synthetic_arithmetic():
    # oracle: direct arithmetic on norm2=1, K=0.1, B=0.1, q=0.5, a+b=3
    st = nf.PairStats(norm2=1.0, K=0.1, B=0.1)
    val, d1, d2 = phi_from_stats(st, q=0.5, ab=3.0, t=1.0)
    assert val == pytest.approx(0.5 - 0.2 - 0.1 / 3, rel=1e-14)
    assert val == pytest.approx(0.26666666666, rel=1e-9)
    assert d1 == pytest.approx(1.0 - 0.1 - 0.1, rel=1e-14)
    assert d2 == pytest.approx(1.0 + 0.05 - 0.2, rel=1e-14)
    assert d2 == pytest.approx(0.85, rel=1e-14)


def test_singular_term_dominates_near_zero(problem64, form64):
    # J(t*pair) -> 0 from below as t -> 0+, so closer to zero at smaller t
    pair = bump_pair(problem64, center=0.0, width=0.4)
    assert nf.pair_stats(problem64, form64, pair).K > 0
    j_small = energy(problem64, form64, (1e-3) * pair)
    j_mid = energy(problem64, form64, (1e-2) * pair)
    assert j_small < 0 and j_mid < 0
    assert j_mid < j_small < 0


def test_phi_equals_energy_of_scaled_pair(problem64, form64):
    rng = np.random.default_rng(8)
    for _ in range(20):
        pair = random_x0_pair(problem64, rng, nonnegative=True)
        t = float(rng.uniform(0.1, 5.0))
        val, _, _ = nf.phi_from_stats(nf.pair_stats(problem64, form64, pair),
                                      problem64.q, problem64.alpha + problem64.beta, t)
        direct = energy(problem64, form64, t * pair)
        assert val == pytest.approx(direct, rel=1e-12, abs=1e-15)


def test_phi_prime_at_one_is_constraint_value(problem64, form64):
    rng = np.random.default_rng(9)
    pair = random_x0_pair(problem64, rng, nonnegative=True)
    st = nf.pair_stats(problem64, form64, pair)
    _, d1, _ = nf.phi_from_stats(st, problem64.q, problem64.alpha + problem64.beta, 1.0)
    assert d1 == pytest.approx(st.norm2 - st.K - st.B, rel=1e-14)


def test_phi_rejects_nonpositive_t(problem64, form64):
    pair = bump_pair(problem64, 0.0, 0.3)
    with pytest.raises(NehariError, match="fiber map requires t > 0"):
        nf.phi_from_stats(nf.pair_stats(problem64, form64, pair),
                          problem64.q, problem64.alpha + problem64.beta, 0.0)


def test_second_derivative_expressions_agree_on_manifold(problem64, form64):
    # on the constraint set, phi''(1) has two equivalent reduced forms
    rng = np.random.default_rng(10)
    q, ab = problem64.q, problem64.alpha + problem64.beta
    for _ in range(10):
        pair = bump_pair(problem64, center=float(rng.uniform(-0.3, 0.3)),
                         width=float(rng.uniform(0.2, 0.5)))
        st = nf.pair_stats(problem64, form64, pair)
        roots = nf.project(st, q, ab)
        t1 = roots.t1
        scaled = t1 * pair
        st1 = nf.pair_stats(problem64, form64, scaled)
        _, d1, d2 = phi_from_stats(st1, q, ab, 1.0)
        tau = 1e-8 * st1.scale()
        assert abs(d1) <= tau
        expr_a = (1 + q) * st1.norm2 - (ab - 1 + q) * st1.B
        expr_b = (2 - ab) * st1.norm2 + (ab - 1 + q) * st1.K
        tol = 10 * tau * max(1.0, st1.norm2)
        assert abs(d2 - expr_a) <= tol
        assert abs(d2 - expr_b) <= tol


def test_gradient_pure_quadratic_case(form64):
    # with b == 0 and lambda = mu = 0 the gradient is exactly (Gu, Gw);
    # zero parameters are excluded by validation, so bypass it here
    from conftest import make_spec
    spec = make_spec(cells=64, lam=0.0, mu=1e-30, b=nf.WeightSpec.samples([0.0] * 65))
    import neharifrac.problem as problem_mod
    p = problem_mod.ValidatedProblem(
        **{f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}, crit_exp=10.0,
        f_vals=np.ones(65), g_vals=np.ones(65), b_vals=np.zeros(65), f_norm=2.0, g_norm=2.0)
    rng = np.random.default_rng(12)
    pair = random_x0_pair(p, rng)
    grad_u, grad_w = pair_gradient(p, form64, pair, eps=1e-8)
    gu, gw = np.pad(form64.apply(pair), ((0, 0), (1, 1)))
    # mu=1e-30 contributes below double precision on these magnitudes
    assert grad_u == pytest.approx(gu, rel=1e-12, abs=1e-20)
    assert grad_w == pytest.approx(gw, rel=1e-12, abs=1e-20)


def test_gradient_matches_finite_differences(problem64, form64):
    # oracle: central differences of the smoothed energy
    rng = np.random.default_rng(14)
    pair = bump_pair(problem64, 0.1, 0.4, amp_u=1.0, amp_w=0.8)
    eps = 1e-8
    grad = pair_gradient(problem64, form64, pair, eps)
    step = 1e-6
    # test away from the smoothing kink at eps, where the energy is C^2
    # (grad is nodal, the pair interior: node k of the pair is node k + 1)
    testable = np.flatnonzero(np.minimum(*pair) > 0.05)
    for _ in range(20):
        comp = int(rng.integers(0, 2))
        node = int(testable[rng.integers(0, len(testable))])
        for sign in (+1, -1):
            p = pair.copy()
            p[comp, node] += sign * step
            if sign > 0:
                e_plus = energy_smoothed(problem64, form64, p, eps)
            else:
                e_minus = energy_smoothed(problem64, form64, p, eps)
        fd = (e_plus - e_minus) / (2 * step)
        an = grad[comp][node + 1]
        assert an == pytest.approx(fd, rel=1e-5, abs=1e-10)


def _oracle_pairs(problem, rng):
    """Seeded pairs for the kernel oracle: signed, with zero nodes, and
    below the smoothing floor eps = 1e-8."""
    n = problem.grid.cells - 1
    for _ in range(4):
        yield random_x0_pair(problem, rng)
        pair = random_x0_pair(problem, rng, nonnegative=True)
        u, w = pair.copy()
        u[rng.random(n) < 0.3] = 0.0
        w[rng.random(n) < 0.3] = 0.0
        yield np.array([u, w])
        yield (1e-10) * pair
        # straddling eps: some nodes above it, some below
        yield np.array([u * 1e-8, w * 1e-7])


@pytest.mark.parametrize("asymmetric", [False, True])
def test_kernel_against_gridpair_oracle(problem64, form64, asymmetric):
    problem = problem64
    if asymmetric:
        problem = nf.validate_params(make_spec(
            cells=64, q=0.4, alpha=1.3, beta=1.6, lam=0.02, mu=0.005,
            f=nf.WeightSpec.gaussian(0.2, 0.7, 1.1), g=nf.WeightSpec.linear_x(0.3, 1.0),
            b=nf.WeightSpec.cos_pi_x(1.2)))
    eps = 1e-8
    rng = np.random.default_rng(31)
    for pair in _oracle_pairs(problem, rng):
        norm2, K, B = reference_stats(problem, form64, pair)
        st = nf.pair_stats(problem, form64, pair)
        assert st.norm2 == pytest.approx(norm2, rel=1e-13)
        assert st.K == pytest.approx(K, rel=1e-13, abs=1e-300)
        assert st.B == pytest.approx(B, rel=1e-13, abs=1e-300)

        gu, gv = reference_gradient(problem, form64, pair, eps)
        grad = pair_gradient(problem, form64, pair, eps)
        for new, ref in zip(grad, (gu, gv)):
            assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref))

        # the raw kernel, on the block of one pair, returns the products it
        # used
        u, v = pair
        X = np.stack([u, v])[:, None]
        norm2_raw, K_raw, B_raw, GX = stats_and_products(problem, form64, X)
        assert (norm2_raw, K_raw, B_raw) == ([st.norm2], [st.K], [st.B])
        assert all(type(x) is float for x in norm2_raw + K_raw + B_raw)
        assert np.array_equal(GX, np.stack([form64.matrix @ u, form64.matrix @ v])[:, None])


def test_row_sums_do_not_depend_on_the_block():
    # numpy's einsum buffers a reduction over rows of more than 8192
    # elements, and then row 0 of a one-row block summed in another order
    # than in a wider one; every per-row sum of the descent (K, B, norm2
    # and the row dots) must give a row the same bytes in any block
    problem = nf.validate_params(make_spec(cells=16384))
    form = nf.assemble_form(problem.grid, problem.s)
    n = problem.grid.cells - 1
    block = np.random.default_rng(0).uniform(0.5, 1.5, (2, 16, n))
    factors = np.stack([np.tile(f, (16, 1)) for f in problem.weighted_coefficients[:2]])
    firsts = []
    for rows in (1, 2, 16):
        X = block[:, :rows]
        norm2, K, B, _ = stats_and_products(problem, form, X, factors[:, :rows])
        dots = row_dots(X, X[::-1])
        firsts.append((norm2[0], K[0], B[0], dots[0]))
    assert firsts[0] == firsts[1] == firsts[2]


@pytest.mark.filterwarnings("error")
def test_row_dots_keeps_an_overflowing_row_to_itself():
    # a row beyond the float range comes out inf or NaN without a warning,
    # and every other row gets the u row's sum plus the w row's, bit for bit
    rng = np.random.default_rng(3)
    a, b = rng.uniform(-1.0, 1.0, (2, 2, 5, 40))
    a[0, 2, 7], b[0, 2, 7] = 1e200, 1e200
    a[1, 2, 9], b[1, 2, 9] = 1e300, -1e300
    dots = row_dots(a, b)
    assert not np.isfinite(dots[2])
    with np.errstate(over="ignore", invalid="ignore"):
        s = (a * b).sum(axis=-1)
        expected = s[0] + s[1]
    others = [0, 1, 3, 4]
    assert np.array_equal(dots[others], expected[others])


@pytest.mark.parametrize("cells", [64, 128, 2048])
@pytest.mark.parametrize("rows", [1, 2, 16])
def test_stacked_kernels_match_the_per_component_formulas(cells, rows):
    # the kernels read one block of shape (2, rows, n); each row must get
    # the bytes of the formulas written per component, on the dense path
    # (64, 128 cells) and the FFT path (2048), with per-row singular factors
    # of either sign, a zero row, and a negative entry that the clip removes
    problem = nf.validate_params(make_spec(
        cells=cells, q=0.4, alpha=1.3, beta=1.6, lam=0.02, mu=0.005,
        f=nf.WeightSpec.gaussian(0.2, 0.7, 1.1), g=nf.WeightSpec.linear_x(0.3, 1.0)))
    form = nf.assemble_form(problem.grid, problem.s)
    assert form.matrix_free is (cells == 2048)
    q, al, be = problem.q, problem.alpha, problem.beta
    ab, b = al + be, problem.weighted_coefficients[2]
    rng = np.random.default_rng(cells + rows)
    n = cells - 1
    u, v = rng.uniform(0.0, 1.5, (2, rows, n))
    u[0, n // 3] = -0.2
    v[-1] = 0.0
    scales = rng.uniform(-0.5, 2.0, (2, rows, 1))
    lam_f, mu_g = scales * np.stack(problem.weighted_coefficients[:2])[:, None]
    eps = 1e-8

    Gu, Gv = form.apply(u), form.apply(v)
    up, vp = np.maximum(u, 0.0), np.maximum(v, 0.0)
    K = (up ** (1 - q) * lam_f).sum(axis=-1) + (vp ** (1 - q) * mu_g).sum(axis=-1)
    B = (up**al * vp**be * b).sum(axis=-1)
    norm2 = (u * Gu).sum(axis=-1) + (v * Gv).sum(axis=-1)
    gu = Gu - lam_f * np.maximum(u, eps) ** (-q) - (al / ab) * b * up ** (al - 1) * vp**be
    gv = Gv - mu_g * np.maximum(v, eps) ** (-q) - (be / ab) * b * up**al * vp ** (be - 1)

    X = np.stack([u, v])
    factors = np.stack([lam_f, mu_g])
    got_norm2, got_K, got_B, GX = stats_and_products(problem, form, X, factors)
    assert (got_norm2, got_K, got_B) == (norm2.tolist(), K.tolist(), B.tolist())
    assert np.array_equal(GX, np.stack([Gu, Gv]))
    g = smoothed_gradient(problem, X, GX, eps, factors)
    assert g.shape == X.shape
    assert np.array_equal(g, np.stack([gu, gv]))
    # the zero w row has no coupling
    assert got_B[-1] == 0.0
