import numpy as np
import pytest

import neharifrac as nf
from neharifrac.energy import scaled_record, smoothed_gradient, stats_and_products
from neharifrac.errors import NoAdmissibleDirection
from neharifrac.fiber import label
from neharifrac.solver import sample_directions


def make_spec(cells=64, s=0.4, q=0.5, alpha=1.5, beta=1.5, lam=0.01, mu=0.01,
              f=None, g=None, b=None, left=-1.0, right=1.0):
    return nf.ProblemSpec(
        grid=nf.GridSpec(left, right, cells),
        s=s, q=q, alpha=alpha, beta=beta, lam=lam, mu=mu,
        f=f or nf.WeightSpec.constant(1.0),
        g=g or nf.WeightSpec.constant(1.0),
        b=b or nf.WeightSpec.cos_pi_x(1.0),
    )


@pytest.fixture(scope="session")
def problem64():
    return nf.validate_params(make_spec(cells=64))


@pytest.fixture(scope="session")
def form64(problem64):
    return nf.assemble_form(problem64.grid, problem64.s)


@pytest.fixture(scope="session")
def problem128():
    return nf.validate_params(make_spec(cells=128))


@pytest.fixture(scope="session")
def form128(problem128):
    return nf.assemble_form(problem128.grid, problem128.s)


@pytest.fixture(scope="session")
def grid16():
    return nf.GridSpec(-1.0, 1.0, 16)


@pytest.fixture(scope="session")
def form16(grid16):
    return nf.assemble_form(grid16, 0.4)


@pytest.fixture(scope="session")
def solved64(problem64, form64):
    """Both branches of the 64-cell fixture, reused across test modules."""
    opts = nf.SolverOptions(seed=42, restarts=3)
    solved = nf.solve_points([problem64], form64, list(nf.Branch), opts)
    return solved[nf.Branch.PLUS][0], solved[nf.Branch.MINUS][0]


@pytest.fixture(scope="session")
def constants64(problem64, form64, solved64):
    plus, minus = solved64
    extra = [plus.u, plus.w, minus.u, minus.w]
    return nf.compute_constants(problem64, nf.estimate_S(form64, 3.0, extra))


def nodal(pair):
    """The written nodal values of a pair: its (2, n) interior array with a
    zero at either end of each component."""
    return np.pad(pair, ((0, 0), (1, 1)))


def random_x0_pair(problem, rng, nonnegative=False):
    """Random pair, its (2, n) interior values."""
    pair = rng.standard_normal((2, problem.grid.cells - 1))
    return np.abs(pair) if nonnegative else pair


def bump_pair(problem, center, width, amp_u=1.0, amp_w=1.0):
    """Smooth nonnegative bump pair used to steer the coupling sign."""
    x = problem.grid.nodes()[1:-1]
    prof = np.maximum(0.0, 1 - ((x - center) / width) ** 2) ** 2
    return np.array([amp_u * prof, amp_w * prof])


def energy(problem, form, pair):
    """The energy J of the pair, its (2, n) array of interior values."""
    st = nf.pair_stats(problem, form, pair)
    return scaled_record(st.norm2, st.K, st.B, 1.0, problem.q, problem.alpha + problem.beta)[0]


def weight_to_json(spec):
    """The config object of a weight spec, which ``WeightSpec.from_json``
    reads back."""
    return {"kind": spec.kind, **spec.params}


def initial_direction(problem, form, rng, branch=nf.Branch.PLUS):
    """Random nonnegative direction pair with positive singular integral,
    its (2, n) array of interior values: ``sample_directions`` with the one
    problem and the one generator rng, which it draws from as the solver
    draws from each restart's generator. Raises NoAdmissibleDirection when
    1000 attempts find none."""
    X, found = sample_directions([problem], form, [rng], branch)
    if not found[0]:
        raise NoAdmissibleDirection(
            f"no admissible initial direction for branch {branch.value} in 1000 samples")
    return X[:, 0]


def classify(problem, form, pair):
    """Manifold membership of a pair: ``fiber.label`` of its phi'(1) and
    phi''(1)."""
    st = nf.pair_stats(problem, form, pair)
    _, d1, d2 = nf.phi_from_stats(st, problem.q, problem.alpha + problem.beta, 1.0)
    return label(d1, d2, st.scale())


def rho_minimum(c, d, q):
    """Minimizer and minimum of rho(t) = c t^2 - d t^{1-q} on t > 0."""
    t_min = (d * (1 - q) / (2 * c)) ** (1 / (1 + q))
    rho_min = -(1 + q) / 2 * d ** (2 / (1 + q)) * ((1 - q) / (2 * c)) ** ((1 - q) / (1 + q))
    return t_min, rho_min


def rho_coefficients(alpha, beta, q, S, Lambda):
    """(c, d) of the scalar comparison rho(t) = c t^2 - d t^{1-q}, which
    bounds the manifold energy from below."""
    ab = alpha + beta
    c = 0.5 - 1.0 / ab
    d = (1.0 / (1 - q) - 1.0 / ab) * Lambda ** ((1 + q) / 2) * S ** (-(1 - q) / 2)
    return c, d


def reference_stats(problem, form, pair):
    """(norm2, K, B) by the nodal formulas the raw-array kernel replaced,
    kept as an oracle: full nodal arrays and the trapezoid weights rebuilt
    per call."""
    w = problem.grid.trapezoid_weights()
    q = problem.q
    u, v = nodal(pair)
    up = np.maximum(u, 0.0)
    vp = np.maximum(v, 0.0)
    norm2 = (float(u[1:-1] @ form.matrix @ u[1:-1])
             + float(v[1:-1] @ form.matrix @ v[1:-1]))
    K = float(problem.lam * np.sum(w * problem.f_vals * up ** (1 - q))
              + problem.mu * np.sum(w * problem.g_vals * vp ** (1 - q)))
    B = float(np.sum(w * problem.b_vals * up**problem.alpha * vp**problem.beta))
    return norm2, K, B


def _smoothed_primitive(t, q, eps):
    """Primitive of max(t, eps)^{-q}, C^1 across t = eps."""
    return np.where(t >= eps,
                    np.maximum(t, eps) ** (1 - q) / (1 - q),
                    eps ** (1 - q) / (1 - q) + eps ** (-q) * (t - eps))


def energy_smoothed(problem, form, pair, eps):
    """Energy with the singular term replaced by its eps-smoothed version,
    kept as the finite-difference oracle of ``pair_gradient``.

    Below eps the integrand continues linearly with slope eps^{-q}, so the
    value is finite and the gradient formula of ``smoothed_gradient`` is its
    exact derivative everywhere. The smoothed integrand is positive at 0,
    so the boundary nodes contribute to the trapezoid sum.
    """
    w = problem.grid.trapezoid_weights()
    q = problem.q
    st = nf.pair_stats(problem, form, pair)
    u, v = nodal(pair)
    sing = (problem.lam * np.sum(w * problem.f_vals * _smoothed_primitive(u, q, eps))
            + problem.mu * np.sum(w * problem.g_vals * _smoothed_primitive(v, q, eps)))
    return float(st.norm2 / 2 - sing - st.B / (problem.alpha + problem.beta))


def pair_gradient(problem, form, pair, eps):
    """Nodal gradient (gu, gw) of the eps-smoothed energy at one pair, zero
    at the pinned boundary: ``smoothed_gradient`` on the pair's block of
    one row, with the products ``stats_and_products`` gives it, as the
    solver runs them."""
    X = np.array(pair, dtype=float)[:, None]
    GX = stats_and_products(problem, form, X)[3]
    return np.pad(smoothed_gradient(problem, X, GX, eps)[:, 0], ((0, 0), (1, 1)))


def reference_gradient(problem, form, pair, eps):
    """Nodal gradient of the eps-smoothed energy by the replaced formulas."""
    w = problem.grid.trapezoid_weights()
    q, al, be = problem.q, problem.alpha, problem.beta
    ab = al + be
    u, v = nodal(pair)
    up = np.maximum(u, 0.0)
    vp = np.maximum(v, 0.0)
    gu = np.zeros_like(u)
    gv = np.zeros_like(v)
    i = slice(1, -1)
    gu[i] = (form.matrix @ u[i]
             - problem.lam * (w * problem.f_vals)[i] * np.maximum(u[i], eps) ** (-q)
             - (al / ab) * (w * problem.b_vals)[i] * up[i] ** (al - 1) * vp[i] ** be)
    gv[i] = (form.matrix @ v[i]
             - problem.mu * (w * problem.g_vals)[i] * np.maximum(v[i], eps) ** (-q)
             - (be / ab) * (w * problem.b_vals)[i] * up[i] ** al * vp[i] ** (be - 1))
    return gu, gv


def pair_of(report):
    """A solver report's iterate as a pair, its (2, n) interior array."""
    return np.array([report.u, report.w])
