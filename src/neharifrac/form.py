"""The squared zero-exterior energy norm as a Toeplitz operator.

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

import functools

import numpy as np

from .errors import GridMismatch, InvalidOrder
from .problem import GridFunction, GridPair, GridSpec

# grids with at least this many cells apply G by FFT and invert it by PCG;
# the README gives the timings behind the value
MATRIX_FREE_CELLS = 512
PCG_RTOL = 1e-11  # residual reduction of a matrix-free riesz by default
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


def chan_eigenvalues(symbol: np.ndarray) -> np.ndarray:
    """Eigenvalues of T. Chan's optimal circulant for the symmetric Toeplitz
    matrix with first column symbol, in numpy.fft.rfft order.

    The circulant closest to T in the Frobenius norm has first column
    c_k = ((n-k) t_k + k t_{n-k}) / n (Chan & Ng, SIAM Rev. 1996). Its
    eigenvalues are the Rayleigh quotients of T at the Fourier vectors, so
    they are positive whenever T is positive definite.
    """
    n = len(symbol)
    k = np.arange(1, n)
    c = np.empty(n)
    c[0] = symbol[0]
    c[1:] = ((n - k) * symbol[1:] + k * symbol[:0:-1]) / n
    return np.fft.rfft(c).real


class GagliardoForm:
    """The squared energy norm over interior nodes, as an operator.

    Built from the O(N) Toeplitz symbol. Below MATRIX_FREE_CELLS cells,
    apply is a dense product and riesz goes through the cached dense
    inverse. From MATRIX_FREE_CELLS on, apply is a circulant-embedding FFT
    product and riesz is conjugate gradients preconditioned by Chan's
    circulant, and neither builds an N x N array. The dense matrix and
    inverse are built on first use at every size.
    """

    def __init__(self, grid: GridSpec, s: float):
        n = grid.cells - 1
        self.grid = grid
        self.s = s
        self.symbol = form_symbol(s, grid.h, n)
        self.quad_weights = grid.trapezoid_weights()
        self.matrix_free = grid.cells >= MATRIX_FREE_CELLS
        self._inverse = None
        if self.matrix_free:
            # circulant of power-of-two length >= 2n - 1 with T as its
            # leading block; a raw length 2n - 1 can factor badly for the FFT
            self._length = 1 << (2 * n - 2).bit_length()
            column = np.zeros(self._length)
            column[:n] = self.symbol
            column[self._length - n + 1:] = self.symbol[:0:-1]
            self._embedding = np.fft.rfft(column).real
            self._chan = chan_eigenvalues(self.symbol)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix G, built on first use."""
        return _toeplitz(self.symbol)

    def inverse(self) -> np.ndarray:
        """The dense inverse of G, built by ``riesz_map`` on first call."""
        if self._inverse is None:
            self._inverse = riesz_map(self)
        return self._inverse

    def apply(self, x: np.ndarray) -> np.ndarray:
        """G x for an array x over the interior nodes, or for each row of x."""
        if not self.matrix_free:
            return (self.matrix @ x.T).T
        y = np.fft.irfft(np.fft.rfft(x, self._length) * self._embedding, self._length)
        return y[..., :x.shape[-1]]

    def riesz(self, x: np.ndarray, x0: np.ndarray | None = None,
              rtol: float = PCG_RTOL) -> np.ndarray:
        """G^{-1} x: the H^s Riesz representative of a nodal gradient, or of
        each row of x (rows nonzero).

        Below MATRIX_FREE_CELLS this is a product with the dense inverse,
        and x0 and rtol are unused. From there on it is conjugate gradients
        preconditioned by Chan's circulant, started from x0 (zero if None),
        which stop once each row's residual has fallen by the factor rtol.
        """
        if not self.matrix_free:
            return (self.inverse() @ x.T).T
        n = x.shape[-1]
        y = np.zeros_like(x) if x0 is None else x0.copy()
        r = x.copy() if x0 is None else x - self.apply(y)
        stop = rtol * rtol * np.einsum("...i,...i->...", r, r)
        p = np.zeros_like(x)
        rz_old = 1.0
        for _ in range(n):
            if np.all(np.einsum("...i,...i->...", r, r) <= stop):
                break
            z = np.fft.irfft(np.fft.rfft(r) / self._chan, n)
            rz = np.einsum("...i,...i->...", r, z)
            p = z + (rz / rz_old)[..., None] * p
            Gp = self.apply(p)
            a = (rz / np.einsum("...i,...i->...", p, Gp))[..., None]
            y += a * p
            r -= a * Gp
            rz_old = rz
        return y


def _toeplitz(symbol: np.ndarray) -> np.ndarray:
    n = len(symbol)
    # row i of the sliding windows over [c_{n-1} .. c_1, c_0, c_1 .. c_{n-1}],
    # taken in reverse, is c[|i - j|] for j = 0 .. n-1
    mirrored = np.concatenate([symbol[:0:-1], symbol])
    return np.lib.stride_tricks.sliding_window_view(mirrored, n)[::-1].copy()


def assemble_form(grid: GridSpec, s: float) -> GagliardoForm:
    """The energy form operator for piecewise-linear nodal functions."""
    return GagliardoForm(grid, s)


def _interior(form: GagliardoForm, u: GridFunction) -> np.ndarray:
    if u.grid != form.grid:
        raise GridMismatch("grid function does not match the form's grid")
    return u.values[1:-1]


def seminorm_sq(form: GagliardoForm, u: GridFunction) -> float:
    """Squared energy norm u' G u of a single grid function."""
    v = _interior(form, u)
    return float(v @ form.apply(v))


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
    host, against under 1 ms for this route. The G it factors is not kept.
    """
    inv_low = _lower_inverse(np.linalg.cholesky(_toeplitz(form.symbol)))
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
    out = np.zeros(form.grid.node_count)
    out[1:-1] = form.apply(_interior(form, u))
    return GridFunction(form.grid, out)
