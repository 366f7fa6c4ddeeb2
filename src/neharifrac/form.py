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

The Riesz map G^{-1} comes from one vector, its first column x = G^{-1} e_1,
by the Gohberg-Semencul formula. inverse_first_column finds x by conjugate
gradients preconditioned with a circulant, in O(N log N) time.

The form is also the one object through which the kernels see the
discretization: its interior nodes and interval ends, the quadrature
weights of the interval integrals at the interior nodes, and the map
between interior values and written nodal values. A function is its
array of interior values, and a pair the (2, n) array of both.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import FirstColumnNotConverged, GridMismatch, InvalidOrder, ValidationError
from .problem import GridFunction, GridSpec

# grids with at least this many cells apply G and its inverse by FFT; the
# README gives the timings behind the value
MATRIX_FREE_CELLS = 512
# preconditioned CG on G x = e_1 stops at this residual norm (that of e_1
# is 1). It took 7 to 16 iterations for s in [0.01, 0.4999] at 64 to 65536
# cells and 18 at 262144, so reaching the cap means something is wrong
CG_TOLERANCE = 1e-16
CG_MAX_ITERS = 50
SERIES_TERMS = 30  # powers m^{-4} ... m^{-62}; for m >= 3 the tail is below roundoff
_FOURTH_DIFFERENCE = np.array([1.0, -4.0, 6.0, -4.0, 1.0])


def _check_order(s: float) -> None:
    if not (0.0 < s < 0.5):
        raise InvalidOrder(f"form assembly needs s in (0, 1/2), got {s}")


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


class GagliardoForm:
    """The squared energy norm over interior nodes, as an operator.

    Built from the O(N) Toeplitz symbol. Below MATRIX_FREE_CELLS cells,
    apply is a dense product and riesz goes through the cached dense
    inverse. From MATRIX_FREE_CELLS on, apply is a circulant-embedding FFT
    product and riesz applies the Gohberg-Semencul formula by FFT, and
    neither builds an N x N array. The dense matrix and inverse are built
    on first use at every size. Beside the operator it carries what the
    kernels read of the discretization: ``nodes``, ``left`` and ``right``,
    ``weights``, ``written_values`` and ``interior_values``.
    """

    def __init__(self, grid: GridSpec, s: float):
        n = grid.cells - 1
        self.grid = grid
        self.s = s
        self.left, self.right = grid.left, grid.right  # the interval's ends
        self.symbol = form_symbol(s, grid.h, n)
        self.matrix_free = grid.cells >= MATRIX_FREE_CELLS
        # the least quotient of the grid's own S starts, by exponent r: it
        # depends on the form alone, so thresholds.estimate_S keeps it here
        self.refined_quotients: dict[float, float] = {}
        if self.matrix_free:
            # circulant of power-of-two length >= 2n - 1 with T as its
            # leading block; a raw length 2n - 1 can factor badly for the FFT
            self._length = 1 << (2 * n - 2).bit_length()
            column = np.zeros(self._length)
            column[:n] = self.symbol
            column[self._length - n + 1:] = self.symbol[:0:-1]
            self._embedding = np.fft.rfft(column).real

    @property
    def nodes(self) -> np.ndarray:
        """The interior node coordinates, read-only."""
        return self.grid.nodes()[1:-1]

    @property
    def weights(self) -> np.ndarray:
        """The quadrature weights of the K, B and L^r sums at the interior
        nodes (the trapezoid weights), read-only."""
        return self.grid.trapezoid_weights()[1:-1]

    def written_values(self, interior: np.ndarray) -> np.ndarray:
        """The nodal values written for a function, from its interior ones: a
        zero at either end. The L^r sums run over this array, ends included:
        numpy sums it in another order than the interior values alone."""
        return np.concatenate(([0.0], interior, [0.0]))

    def interior_values(self, values: np.ndarray) -> np.ndarray:
        """The interior values of written nodal values, along the last axis:
        the inverse of ``written_values``. Raises ValidationError for values
        that are not finite or do not vanish at either end."""
        if not np.all(np.isfinite(values)):
            raise ValidationError("nodal values must be finite")
        if np.any(values[..., [0, -1]] != 0.0):
            raise ValidationError("pair components must vanish at boundary nodes")
        return values[..., 1:-1]

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix G, built on first use."""
        return _toeplitz(self.symbol)

    @functools.cached_property
    def inverse(self) -> np.ndarray:
        """The dense inverse of G, built by ``riesz_map`` on first use."""
        return riesz_map(self)

    @functools.cached_property
    def _inverse_factors(self) -> tuple[float, np.ndarray]:
        # x_0 and the transforms of the first columns x and z of the
        # Gohberg-Semencul factors, stacked, on the circulant length
        x = inverse_first_column(self)
        z = np.concatenate([[0.0], x[:0:-1]])
        return x[0], np.fft.rfft(np.stack([x, z]), self._length)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """G x for an array x over the interior nodes, or for each row of x."""
        if not self.matrix_free:
            return (self.matrix @ x.T).T
        y = np.fft.irfft(np.fft.rfft(x, self._length) * self._embedding, self._length)
        return y[..., :x.shape[-1]]

    def riesz(self, x: np.ndarray) -> np.ndarray:
        """G^{-1} x: the H^s Riesz representative of a nodal gradient, or of
        each row of x, whatever its leading shape.

        Below MATRIX_FREE_CELLS this is one product with the dense inverse.
        From there on it applies the Gohberg-Semencul formula (see
        ``inverse_first_column``), each triangular Toeplitz product a
        convolution by FFT, with L' = J L J for the reversal J. The products
        by L(x) and by L(z) run as one stacked transform each way, four FFT
        calls in all. Every row of x meets the same arithmetic whatever the
        rows beside it: the second products are taken in place with the
        factor first, since numpy computes a product with a temporary of
        the same shape and 256 KiB or more into that temporary with the
        operands swapped, and a complex product rounds differently when
        they are. Either way the first call computes x = G^{-1} e_1 by
        preconditioned CG.
        """
        if not self.matrix_free:
            return (self.inverse @ x.reshape(-1, x.shape[-1]).T).T.reshape(x.shape)
        n, length = x.shape[-1], self._length
        x0, factors = self._inverse_factors
        factors = factors.reshape((2,) + (1,) * (x.ndim - 1) + factors.shape[-1:])
        back = np.fft.rfft(x[..., ::-1], length)
        spectrum = np.fft.rfft(np.fft.irfft(factors * back, length)[..., n - 1::-1], length)
        low, shifted = np.multiply(factors, spectrum, out=spectrum)
        y = np.fft.irfft(np.subtract(low, shifted, out=low), length)
        return y[..., :n] / x0


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


def strang_eigenvalues(symbol: np.ndarray) -> np.ndarray:
    """Eigenvalues, in rfft order, of Strang's circulant for the symmetric
    Toeplitz matrix with first column symbol.

    The circulant has order len(symbol) + 1, the grid's cell count. Its
    first column is symbol[0 .. order // 2] mirrored, so it agrees with the
    matrix on every diagonal within half the order of the main one.
    """
    order = len(symbol) + 1
    half = symbol[:order // 2 + 1]
    return np.fft.rfft(np.concatenate([half, half[1:(order + 1) // 2][::-1]])).real


def inverse_first_column(form: GagliardoForm) -> np.ndarray:
    """The first column x = G^{-1} e_1 of the inverse of the form matrix.

    Conjugate gradients on G x = e_1, products with G by ``form.apply``,
    preconditioned by the leading block of the inverse of Strang's
    circulant C (``strang_eigenvalues``; R. Chan & Strang, 1989):
    r -> (C^{-1} [r; 0])[:N], an FFT of the cell count. A block of the
    inverse of a positive-definite circulant is positive definite, so CG
    applies. G's condition number grows like N^{2s}, but the iteration count
    barely moves with N (see CG_MAX_ITERS): O(N log N) time and O(N) memory.
    CG runs until its residual is below CG_TOLERANCE, that is to roundoff;
    if it has not after CG_MAX_ITERS products it raises
    FirstColumnNotConverged rather than return an inaccurate x.

    By Gohberg & Semencul (1972), x determines all of
    G^{-1} = (L(x) L(x)' - L(z) L(z)') / x_0, where L(c) is the lower
    triangular Toeplitz matrix with first column c and
    z = (0, x_{N-1}, ..., x_1).
    """
    n, cells = len(form.symbol), form.grid.cells
    eigenvalues = strang_eigenvalues(form.symbol)

    def precondition(r: np.ndarray) -> np.ndarray:
        return np.fft.irfft(np.fft.rfft(r, cells) / eigenvalues, cells)[:n]

    x = np.zeros(n)
    r = np.zeros(n)
    r[0] = 1.0
    p = precondition(r)
    rz = r @ p
    for _ in range(CG_MAX_ITERS):
        q = form.apply(p)
        step = rz / (p @ q)
        x += step * p
        r -= step * q
        residual_sq = r @ r
        if residual_sq <= CG_TOLERANCE ** 2:
            return x
        z = precondition(r)
        rz, previous = r @ z, rz
        p = z + (rz / previous) * p
    raise FirstColumnNotConverged(
        f"CG for the first column of G^-1 left a residual of {residual_sq ** 0.5:.3g} after "
        f"{CG_MAX_ITERS} iterations (cells={cells}, s={form.s}); the Riesz map "
        "would be inaccurate")


def riesz_map(form: GagliardoForm) -> np.ndarray:
    """Inverse of the form matrix: takes a nodal gradient to its H^s Riesz
    representative.

    Built from the first column by the Gohberg-Semencul formula (see
    ``inverse_first_column``), whose entries obey the diagonal recurrence
    M[i, j] = M[i-1, j-1] + (x_i x_j - z_i z_j) / x_0 with M[0, j] = x_j:
    O(N^2) elementwise work, one row at a time, and no matrix product (a
    threaded BLAS product stalls on a shared host). The terms are exactly
    symmetric and each diagonal sums them in the same order as its mirror,
    so the result is exactly symmetric. The CG for x multiplies by G through
    ``form.apply``, so below MATRIX_FREE_CELLS the dense G is built too.
    """
    x = inverse_first_column(form)
    z = np.concatenate([[0.0], x[:0:-1]])
    inverse = (np.outer(x, x) - np.outer(z, z)) / x[0]
    for i in range(1, len(x)):
        inverse[i, 1:] += inverse[i - 1, :-1]
    return inverse


def apply_form(form: GagliardoForm, u: GridFunction) -> GridFunction:
    """Matrix-vector product G u, zero-padded back to all nodes.

    The result represents the nonlocal bilinear form paired against the
    nodal hat functions, so <Gu, v> over interior nodes equals the energy
    pairing of u with v.
    """
    out = np.zeros(form.grid.node_count)
    out[1:-1] = form.apply(_interior(form, u))
    return GridFunction(form.grid, out)
