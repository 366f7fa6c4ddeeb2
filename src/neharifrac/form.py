"""Assembly of the squared zero-exterior energy norm as an explicit matrix.

For nodal values u on the grid (zero at the boundary), u' G u equals the
double-integral energy

    int_{Omega x Omega} (u(x)-u(y))^2 / |x-y|^{1+2s} dx dy
        + 2 int_Omega u(x)^2 kappa(x) dx,

of the piecewise-linear interpolant extended by zero, where kappa collects
the interaction with the exterior of the interval.

The two terms together are the full-line energy of the zero extension,
which is translation-invariant. On a uniform grid the Galerkin matrix of
the hat functions is therefore Toeplitz (Duo, van Wyk & Zhang, JCP 2018),
with entries in closed form: for m = |i-j|,

    G_ij = 2 h^{1-2s} / [(1-2s)(2-2s)(3-2s)(2s)]
           * sum_{k=0..4} (-1)^k C(4,k) |m+k-2|^{3-2s}.

Taken literally, the fourth difference cancels catastrophically for large
m and the 1/(1-2s) factor for s near 1/2; form_symbol evaluates it without
either loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, InvalidOrder
from .problem import GridFunction, GridPair, GridSpec

_DIRECT_INVERSE = 32  # triangular blocks up to this size go to np.linalg.inv
SERIES_TERMS = 30  # powers m^{-4} ... m^{-62}; for m >= 3 the tail is below roundoff
_FOURTH_DIFFERENCE = np.array([1.0, -4.0, 6.0, -4.0, 1.0])


def _check_order(s: float) -> None:
    if not (0.0 < s < 0.5):
        raise InvalidOrder(f"form assembly needs s in (0, 1/2), got {s}")


def exterior_kernel(grid: GridSpec, s: float) -> GridFunction:
    """Nodal values of kappa(x) = [(R-x)^{-2s} + (x-L)^{-2s}] / (2s).

    kappa(x) is the integral of |x-y|^{-(1+2s)} over the complement of the
    interval. It blows up at the endpoints; the boundary entries of the
    returned function are set to 0 (they are only ever paired with nodal
    values that vanish there).
    """
    _check_order(s)
    x = grid.nodes()
    vals = np.zeros_like(x)
    xi = x[1:-1]
    vals[1:-1] = ((grid.right - xi) ** (-2 * s) + (xi - grid.left) ** (-2 * s)) / (2 * s)
    return GridFunction(grid, vals)


def same_cell_integral(h: float, s: float) -> float:
    """Exact value of the double integral of |x-y|^{1-2s} over one cell squared."""
    return 2.0 * h ** (3 - 2 * s) / ((2 - 2 * s) * (3 - 2 * s))


def form_symbol(s: float, h: float, count: int) -> np.ndarray:
    """Toeplitz entries G_{i,i+m} for m = 0 .. count-1 on a grid of width h.

    m < 3: |x|^{3-2s}/(1-2s) is replaced by x^2 expm1((1-2s) log|x|)/(1-2s);
    the two differ by x^2/(1-2s), which the fourth difference annihilates,
    and the replacement has a finite limit as s -> 1/2.

    m >= 3: binomial series of |m+d|^{3-2s} in d/m. Odd powers and the
    powers 0 and 2 drop out of the fourth difference, and the factors
    (1-2s)(2-2s)(3-2s)(2s) cancel against the binomial coefficients, so
    G = -2 h^{1-2s} sum_{j even >= 4} P_j (2^{j+1} - 8) m^{3-2s-j} with
    P_j = prod_{i=4}^{j-1} (3-2s-i) / j!.
    """
    _check_order(s)
    e = 3.0 - 2.0 * s
    m = np.arange(count, dtype=float)
    c = np.empty(count)

    near = m[:3]
    x = np.abs(near[:, None] + np.arange(-2.0, 3.0))
    with np.errstate(divide="ignore"):  # x = 0: log -> -inf, and 0 * expm1(-inf) = 0
        terms = x * x * np.expm1((1 - 2 * s) * np.log(x)) / (1 - 2 * s)
    c[:3] = 2.0 * (terms @ _FOURTH_DIFFERENCE) / ((2 - 2 * s) * (3 - 2 * s) * (2 * s))

    coef = np.empty(SERIES_TERMS)
    p = 1.0 / 24.0
    for k in range(SERIES_TERMS):
        j = 4 + 2 * k
        if k:
            p *= (e - j + 2) * (e - j + 1) / ((j - 1) * j)
        coef[k] = p * (2.0 ** (j + 1) - 8.0)
    far = m[3:]
    inv_sq = far ** -2.0
    acc = np.zeros_like(far)
    for a in coef[::-1]:  # Horner in m^{-2}
        acc = acc * inv_sq + a
    c[3:] = -2.0 * far ** (e - 4.0) * acc
    return h ** (1 - 2 * s) * c


@dataclass
class GagliardoForm:
    """Dense symmetric matrix of the squared energy norm over interior nodes."""

    matrix: np.ndarray
    quad_weights: np.ndarray
    s: float
    grid: GridSpec

    def __post_init__(self):
        n = self.grid.cells - 1
        if self.matrix.shape != (n, n):
            raise GridMismatch("form matrix does not match the grid")


def assemble_form(grid: GridSpec, s: float) -> GagliardoForm:
    """Assemble the energy form matrix for piecewise-linear nodal functions."""
    n = grid.cells - 1
    c = form_symbol(s, grid.h, n)
    # row i of the sliding windows over [c_{n-1} .. c_1, c_0, c_1 .. c_{n-1}],
    # taken in reverse, is c[|i - j|] for j = 0 .. n-1
    mirrored = np.concatenate([c[:0:-1], c])
    matrix = np.lib.stride_tricks.sliding_window_view(mirrored, n)[::-1].copy()
    return GagliardoForm(matrix=matrix, quad_weights=grid.trapezoid_weights(),
                         s=s, grid=grid)


def _interior(form: GagliardoForm, u: GridFunction) -> np.ndarray:
    if u.grid != form.grid:
        raise GridMismatch("grid function does not match the form's grid")
    return u.values[1:-1]


def seminorm_sq(form: GagliardoForm, u: GridFunction) -> float:
    """Squared energy norm u' G u of a single grid function."""
    v = _interior(form, u)
    return float(v @ form.matrix @ v)


def pair_norm_sq(form: GagliardoForm, p: GridPair) -> float:
    """Squared product norm: sum of the two component squared norms."""
    return seminorm_sq(form, p.u) + seminorm_sq(form, p.w)


def riesz_map(form: GagliardoForm) -> np.ndarray:
    """Inverse of the form matrix: takes a nodal gradient to its H^s Riesz
    representative.

    Built as L^{-T} L^{-1} from the Cholesky factor L, with L^{-1} by
    recursive halving, so the work is in triangular-block matrix products.
    np.linalg.inv gives the same matrix, but its threaded LU stalled for
    about 0.1 s in one call of ten at 127 interior nodes on a 2-core x86
    host, against under 1 ms for this route.
    """
    inv_low = _lower_inverse(np.linalg.cholesky(form.matrix))
    return inv_low.T @ inv_low


def _lower_inverse(low: np.ndarray) -> np.ndarray:
    n = low.shape[0]
    if n <= _DIRECT_INVERSE:
        return np.linalg.inv(low)
    k = n // 2
    head = _lower_inverse(low[:k, :k])
    tail = _lower_inverse(low[k:, k:])
    out = np.zeros_like(low)
    out[:k, :k] = head
    out[k:, k:] = tail
    out[k:, :k] = -tail @ (low[k:, :k] @ head)
    return out


def apply_form(form: GagliardoForm, u: GridFunction) -> GridFunction:
    """Matrix-vector product G u, zero-padded back to all nodes.

    The result represents the nonlocal bilinear form paired against the
    nodal hat functions, so <Gu, v> over interior nodes equals the energy
    pairing of u with v.
    """
    v = _interior(form, u)
    out = np.zeros(form.grid.node_count)
    out[1:-1] = form.matrix @ v
    return GridFunction(form.grid, out)
