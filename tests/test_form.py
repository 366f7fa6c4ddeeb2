import mpmath
import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.linalg import solve_toeplitz

import neharifrac as nf
from neharifrac.errors import InvalidOrder, ValidationError
from neharifrac import form as form_mod
from neharifrac.form import (
    form_symbol, inverse_first_column, riesz_map, same_cell_integral, strang_eigenvalues)

from conftest import make_spec


def hat(grid, node=None):
    u = np.zeros(grid.node_count)
    u[grid.cells // 2 if node is None else node] = 1.0
    return nf.GridFunction(grid, u)


# ---------------------------------------------------------------------------
# closed-form cell integrals against adaptive-quadrature oracles


def test_same_cell_integral_value():
    # oracle: symbolic integration of |x-y|^{1-2s} over one unit cell squared
    s = 0.4
    expected = 2.0 / ((2 - 2 * s) * (3 - 2 * s))  # = 2/2.64
    assert same_cell_integral(1.0, s) == pytest.approx(expected, rel=1e-15)
    assert same_cell_integral(1.0, s) == pytest.approx(0.757575757575, rel=1e-10)
    # h-scaling h^{3-2s}
    assert same_cell_integral(0.5, s) == pytest.approx(expected * 0.5 ** 2.2, rel=1e-13)


def _entry_by_quadrature(m, s):
    """G_{0m} on unit cells: the full-line energy pairing of the hats at 0
    and m, as adaptive quadrature over the cell pairs of the union of their
    supports plus the closed-form exterior interaction."""
    def tent(centre):
        return lambda x: max(0.0, 1.0 - abs(x - centre))

    p, q = tent(0.0), tent(float(m))

    def integrand(y, x):
        return (p(x) - p(y)) * (q(x) - q(y)) * abs(x - y) ** (-1 - 2 * s)

    def touches(cell, centre):
        return cell in (centre - 1, centre)

    total = 0.0
    cells = range(-1, m + 1)  # unit cells [c, c+1] covering [-1, m+1]
    for a in cells:
        for b in cells:
            # the integrand is symmetric and vanishes unless each hat
            # differs between the two cells
            if b > a or not ((touches(a, 0) or touches(b, 0))
                             and (touches(a, m) or touches(b, m))):
                continue
            if a == b:  # the y < x triangle; the y > x one is its mirror
                val, _ = dblquad(integrand, a, a + 1, lambda x: a, lambda x: x,
                                 epsabs=1e-14, epsrel=1e-13)
            else:
                val, _ = dblquad(integrand, a, a + 1, b, b + 1,
                                 epsabs=1e-14, epsrel=1e-13)
            total += 2 * val
    if m <= 1:  # the hats overlap: interaction with the exterior of [-1, m+1]
        def kappa(x):
            return ((x + 1) ** (-2 * s) + (m + 1 - x) ** (-2 * s)) / (2 * s)
        val, _ = quad(lambda x: p(x) * q(x) * kappa(x), -1, m + 1, points=[0, m],
                      epsabs=1e-14, epsrel=1e-13, limit=200)
        total += 2 * val
    return total


@pytest.mark.parametrize("s", [0.2, 0.3, 0.4, 0.45])
def test_form_entries_against_quadrature(s):
    symbol = form_symbol(s, 1.0, 5)
    for m in range(5):
        assert symbol[m] == pytest.approx(_entry_by_quadrature(m, s), rel=1e-12)


def _symbol_mpmath(m, s):
    """The closed form taken literally, at 50 digits."""
    with mpmath.workdps(50):
        s = mpmath.mpf(s)
        e = 3 - 2 * s
        diff = sum(w * abs(mpmath.mpf(m + k - 2)) ** e
                   for k, w in enumerate((1, -4, 6, -4, 1)))
        return float(2 * diff / ((1 - 2 * s) * (2 - 2 * s) * (3 - 2 * s) * (2 * s)))


@pytest.mark.parametrize("s", [1 / 6 + 1e-3, 0.4, 0.5 - 1e-12])
def test_form_symbol_against_mpmath(s):
    symbol = form_symbol(s, 1.0, 65536)
    ms = list(range(12)) + [15, 16, 63, 100, 1000, 4095, 12345, 65535]
    for m in ms:
        assert symbol[m] == pytest.approx(_symbol_mpmath(m, s), rel=1e-13), m


def test_form_is_the_toeplitz_symbol(form16, grid16):
    # entries depend on |i-j| only and scale with h^{1-2s} (h = 1/8 here)
    symbol = grid16.h ** 0.2 * form_symbol(0.4, 1.0, grid16.cells - 1)
    i = np.arange(grid16.cells - 1)
    assert form16.matrix == pytest.approx(symbol[np.abs(i[:, None] - i[None, :])],
                                          rel=1e-14)


# ---------------------------------------------------------------------------
# assembled form


def test_zero_function_has_zero_norm(form16, grid16):
    zero = nf.GridFunction(grid16, np.zeros(grid16.node_count))
    assert nf.seminorm_sq(form16, zero) == 0.0


def test_quadratic_scaling_exact(form16, grid16):
    rng = np.random.default_rng(3)
    u = np.zeros(grid16.node_count)
    u[1:-1] = rng.standard_normal(grid16.cells - 1)
    a = nf.seminorm_sq(form16, nf.GridFunction(grid16, u))
    b = nf.seminorm_sq(form16, nf.GridFunction(grid16, 2 * u))
    assert b == pytest.approx(4 * a, rel=1e-14)


def test_form_matches_brute_force_oracle(form16, grid16):
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = np.zeros(grid16.node_count)
        u[1:-1] = rng.standard_normal(grid16.cells - 1)
        assembled = nf.seminorm_sq(form16, nf.GridFunction(grid16, u))
        oracle = nf.brute_force_norm(grid16, 0.4, u, refine=8)
        assert assembled == pytest.approx(oracle, rel=0.02)


def test_center_hat_positive_and_near_oracle(form16, grid16):
    val = nf.seminorm_sq(form16, hat(grid16))
    assert val > 0
    oracle = nf.brute_force_norm(grid16, 0.4, hat(grid16).values, refine=8)
    assert val == pytest.approx(oracle, rel=0.02)


def test_matrix_exactly_symmetric(form16):
    assert np.abs(form16.matrix - form16.matrix.T).max() == 0.0


def test_bilinearity_and_symmetry_on_random_vectors(form16, grid16):
    rng = np.random.default_rng(7)
    G = form16.matrix
    n = grid16.cells - 1
    for _ in range(100):
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        a, bb = rng.standard_normal(2)
        left = (a * u + bb * v) @ G @ (a * u + bb * v)
        expand = (a * a * (u @ G @ u) + 2 * a * bb * (u @ G @ v) + bb * bb * (v @ G @ v))
        assert left == pytest.approx(expand, rel=1e-12, abs=1e-12)
        assert u @ G @ v == pytest.approx(v @ G @ u, rel=1e-13, abs=1e-15)


def test_positive_definite_on_random_vectors(form16, grid16):
    rng = np.random.default_rng(11)
    n = grid16.cells - 1
    for _ in range(100):
        u = rng.standard_normal(n)
        assert u @ form16.matrix @ u > 0


def test_reflection_invariance(form16, grid16):
    rng = np.random.default_rng(5)
    u = np.zeros(grid16.node_count)
    u[1:-1] = rng.standard_normal(grid16.cells - 1)
    a = nf.seminorm_sq(form16, nf.GridFunction(grid16, u))
    b = nf.seminorm_sq(form16, nf.GridFunction(grid16, u[::-1].copy()))
    assert b == pytest.approx(a, rel=1e-12)


def test_refinement_consistency():
    # fixed profile: hat of half-width 0.125 centered at 0
    values = []
    for cells in (16, 32, 64, 128):
        grid = nf.GridSpec(-1.0, 1.0, cells)
        form = nf.assemble_form(grid, 0.4)
        x = grid.nodes()
        prof = np.maximum(0.0, 1 - np.abs(x) / 0.125)
        prof[0] = prof[-1] = 0.0
        values.append(nf.seminorm_sq(form, nf.GridFunction(grid, prof)))
    # the hat lies in every grid's piecewise-linear space and the form is
    # exact, so all four grids give the same norm up to roundoff
    assert values == pytest.approx([values[0]] * 4, rel=1e-12)


def test_pair_norm_additive(form16, grid16):
    # the pair's squared norm is the norm2 of its pair statistics
    problem = nf.validate_params(make_spec(cells=16, s=form16.s))
    assert problem.grid == grid16
    rng = np.random.default_rng(13)
    u = np.zeros(grid16.node_count)
    u[1:-1] = rng.standard_normal(grid16.cells - 1)
    s = nf.seminorm_sq(form16, nf.GridFunction(grid16, u))

    def norm2(pair):
        return nf.pair_stats(problem, form16, pair).norm2

    v = u[1:-1]
    assert norm2(np.array([v, np.zeros_like(v)])) == pytest.approx(s)
    assert norm2(np.array([v, v])) == pytest.approx(2 * s)
    pair = np.array([v, v])
    assert norm2(3.0 * pair) == pytest.approx(9 * 2 * s, rel=1e-13)


def test_apply_form_consistency(form16, grid16):
    rng = np.random.default_rng(17)
    u = np.zeros(grid16.node_count)
    v = np.zeros(grid16.node_count)
    u[1:-1] = rng.standard_normal(grid16.cells - 1)
    v[1:-1] = rng.standard_normal(grid16.cells - 1)
    gu = nf.apply_form(form16, nf.GridFunction(grid16, u)).values
    gv = nf.apply_form(form16, nf.GridFunction(grid16, v)).values
    assert gu @ v == pytest.approx(gv @ u, rel=1e-13)
    assert gu @ u == pytest.approx(nf.seminorm_sq(form16, nf.GridFunction(grid16, u)),
                                   rel=1e-14)
    zero = nf.GridFunction(grid16, np.zeros(grid16.node_count))
    assert np.all(nf.apply_form(form16, zero).values == 0.0)


def test_grid_mismatch_rejected(form16):
    other = nf.GridSpec(-1.0, 1.0, 8)
    with pytest.raises(ValidationError, match="grid function does not match the form's grid"):
        nf.seminorm_sq(form16, nf.GridFunction(other, np.zeros(other.node_count)))


def test_assemble_rejects_bad_order(grid16):
    with pytest.raises(InvalidOrder):
        nf.assemble_form(grid16, 0.6)


@pytest.mark.parametrize("cells", [4, 33, 34, 128, 512])
def test_riesz_map_is_the_inverse(cells):
    # odd and even sizes, up to the crossover
    form = nf.assemble_form(nf.GridSpec(-1.0, 1.0, cells), 0.4)
    riesz = riesz_map(form)
    assert np.array_equal(riesz, riesz.T)
    assert np.abs(form.matrix @ riesz - np.eye(cells - 1)).max() <= 1e-13
    oracle = np.linalg.inv(form.matrix)
    assert np.abs(riesz - oracle).max() <= 1e-13 * np.abs(oracle).max()


# ---------------------------------------------------------------------------
# matrix-free path: FFT products and the Gohberg-Semencul inverse


@pytest.mark.parametrize("s", [0.2, 0.4, 0.49])
@pytest.mark.parametrize("cells", [512, 1024, 2048])
def test_matrix_free_apply_and_riesz_match_dense(monkeypatch, cells, s):
    monkeypatch.setattr(form_mod, "MATRIX_FREE_CELLS", 2)
    form = nf.assemble_form(nf.GridSpec(-1.0, 1.0, cells), s)
    assert form.matrix_free
    rng = np.random.default_rng(cells)
    x = form.grid.nodes()[1:-1]
    for v in (rng.standard_normal(cells - 1), np.cos(0.5 * np.pi * x)):
        dense = form.matrix @ v
        assert np.linalg.norm(form.apply(v) - dense) <= 1e-12 * np.linalg.norm(dense)
        exact = np.linalg.solve(form.matrix, v)
        err = np.linalg.norm(form.riesz(v) - exact)
        assert err <= 1e-12 * np.linalg.norm(exact)


@pytest.mark.parametrize("cells", [512, 1000, 2048, 16384])
def test_riesz_rows_do_not_depend_on_the_block(cells):
    # the stacked transforms give a row the same bytes alone, as a one-row
    # block and among fifteen others; solving one branch alone relies on it.
    # From 16384 cells a lone vector's temporaries reach the size at which
    # numpy computes a product in place with its operands swapped, which
    # rounds a complex product differently
    form = nf.assemble_form(nf.GridSpec(-1.0, 1.0, cells), 0.4)
    assert form.matrix_free
    rows = np.random.default_rng(cells).standard_normal((16, cells - 1))
    block = form.riesz(rows)
    assert block.shape == rows.shape
    for i in (0, 7, 15):
        assert form.riesz(rows[i]).tobytes() == block[i].tobytes()
        assert form.riesz(rows[i:i + 1])[0].tobytes() == block[i].tobytes()
    if cells <= 2048:  # a dense solve beyond that is too large for a test
        exact = np.linalg.solve(form.matrix, rows.T).T
        assert np.linalg.norm(block - exact) <= 1e-12 * np.linalg.norm(exact)


@pytest.mark.parametrize("cells", [16, 1024, 8192, 65536])
def test_inverse_first_column_solves_for_e1(cells):
    for s in (0.01, 0.17, 0.4, 0.4999):
        form = nf.assemble_form(nf.GridSpec(-1.0, 1.0, cells), s)
        x = inverse_first_column(form)
        assert x[0] > 0, s
        residual = form.apply(x)
        residual[0] -= 1.0
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(form.symbol), s


@pytest.mark.parametrize("cells", [4, 5, 64, 511, 512, 1024, 4096])
def test_inverse_first_column_matches_levinson(cells):
    # oracle: scipy's Levinson solver on the same symbol. s = 0.4999 stops at
    # 1024 cells: at 4096 G's condition number is 2e3, and Durbin's
    # recursion, Levinson's and CG each miss an extended-precision solution
    # by 2e-14 to 1.3e-13
    for s in (0.01, 0.17, 0.4) + ((0.4999,) if cells <= 1024 else ()):
        form = nf.assemble_form(nf.GridSpec(-1.0, 1.0, cells), s)
        e1 = np.zeros(cells - 1)
        e1[0] = 1.0
        oracle = solve_toeplitz(form.symbol, e1)
        x = inverse_first_column(form)
        assert np.linalg.norm(x - oracle) <= 1e-13 * np.linalg.norm(oracle), s


@pytest.mark.parametrize("cells", [64, 1024, 8192, 65536])
def test_inverse_first_column_iterations_stay_flat(monkeypatch, cells):
    for s in (0.01, 0.17, 0.4, 0.4999):
        form = nf.assemble_form(nf.GridSpec(-1.0, 1.0, cells), s)
        products = []
        apply = form.apply

        def counted(v):
            products.append(1)
            return apply(v)

        monkeypatch.setattr(form, "apply", counted)
        inverse_first_column(form)
        assert 0 < len(products) <= 20, s


@pytest.mark.parametrize("cells", [4, 5, 64, 1024, 65536])
def test_strang_circulant_is_positive_definite(cells):
    # odd and even orders; the least ratio to c_0 was 2.2e-5, at s = 0.4999
    # and 65536 cells
    for s in (0.001, 0.01, 0.17, 0.4, 0.4999):
        symbol = form_symbol(s, 2.0 / cells, cells - 1)
        eigenvalues = strang_eigenvalues(symbol)
        assert len(eigenvalues) == cells // 2 + 1
        assert eigenvalues.min() > 0, s


def test_crossover_selects_the_path():
    below = nf.assemble_form(nf.GridSpec(-1.0, 1.0, form_mod.MATRIX_FREE_CELLS - 1), 0.4)
    at = nf.assemble_form(nf.GridSpec(-1.0, 1.0, form_mod.MATRIX_FREE_CELLS), 0.4)
    assert not below.matrix_free and at.matrix_free
    # the dense path applies the matrix itself
    v = np.linspace(0.0, 1.0, below.grid.cells - 1)
    assert np.array_equal(below.apply(v), below.matrix @ v)
