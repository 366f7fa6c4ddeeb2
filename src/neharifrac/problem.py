"""Problem data: grid, weight functions, parameter validation.

The continuous problem lives on a bounded interval with homogeneous
exterior condition (functions vanish outside the interval). Everything
downstream works with nodal values on a uniform grid; the underlying
representation is the piecewise-linear interpolant extended by zero.
``validate_params`` checks a ProblemSpec and returns it as a
ValidatedProblem: the same frozen fields, plus the critical exponent and
the weights sampled at the nodes. Every interval integral takes the
grid's ``trapezoid_weights``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    ConfigParseError,
    GridMismatch,
    InvalidExponent,
    InvalidOrder,
    SampleLengthMismatch,
    ValidationError,
    WeightSignViolation,
    ZeroParameters,
)

DIMENSION = 1  # interval domain; keeps the exterior integral closed-form

# s must satisfy n > 2s (here n = 1) and leave room for a legal coupling
# exponent window 2 < alpha+beta < 2n/(n-2s) - 1, which forces s > 1/6.
S_LOWER = 1.0 / 6.0
S_UPPER = 0.5


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [left, right] with ``cells`` cells of width h."""

    left: float
    right: float
    cells: int

    def __post_init__(self):
        if not np.isfinite(self.left) or not np.isfinite(self.right):
            raise ValidationError("grid endpoints must be finite")
        if self.right <= self.left:
            raise ValidationError("grid requires right > left")
        if self.cells < 4:
            raise ValidationError("grid requires at least 4 cells")

    @property
    def h(self) -> float:
        return (self.right - self.left) / self.cells

    @property
    def node_count(self) -> int:
        return self.cells + 1

    def nodes(self) -> np.ndarray:
        return np.linspace(self.left, self.right, self.cells + 1)

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.cells + 1, self.h)
        w[0] = w[-1] = self.h / 2
        return w


@dataclass(frozen=True)
class WeightSpec:
    """Description of a coefficient function, sampled at the grid nodes.

    Supported kinds and their parameters:
      constant(value), gaussian(center, width, amplitude),
      cos_pi_x(amplitude), linear_x(slope, offset), samples(values).
    """

    kind: str
    params: dict = field(default_factory=dict)

    # the numeric parameters of each kind; samples takes a list of values
    PARAMS = {"constant": ("value",), "gaussian": ("center", "width", "amplitude"),
              "cos_pi_x": ("amplitude",), "linear_x": ("slope", "offset"), "samples": ()}

    def __post_init__(self):
        if self.kind not in self.PARAMS:
            raise ValidationError(f"unknown weight kind {self.kind!r}")

    @classmethod
    def constant(cls, value: float) -> "WeightSpec":
        return cls("constant", {"value": float(value)})

    @classmethod
    def gaussian(cls, center: float, width: float, amplitude: float) -> "WeightSpec":
        return cls("gaussian", {"center": float(center), "width": float(width),
                                "amplitude": float(amplitude)})

    @classmethod
    def cos_pi_x(cls, amplitude: float) -> "WeightSpec":
        return cls("cos_pi_x", {"amplitude": float(amplitude)})

    @classmethod
    def linear_x(cls, slope: float, offset: float) -> "WeightSpec":
        return cls("linear_x", {"slope": float(slope), "offset": float(offset)})

    @classmethod
    def samples(cls, values) -> "WeightSpec":
        return cls("samples", {"values": [float(v) for v in values]})

    @classmethod
    def from_json(cls, obj: dict) -> "WeightSpec":
        d = dict(obj)
        kind = d.pop("kind", None)
        if kind is None:
            raise ValidationError("weight spec needs a 'kind' field")
        # a key the kind does not read would be dropped without a word;
        # samples reads its values and nothing else
        if kind in cls.PARAMS:
            extra = sorted(set(d) - set(cls.PARAMS[kind] or ("values",)))
            if extra:
                raise ConfigParseError(f"weight kind {kind!r} takes no key "
                                       f"{', '.join(map(repr, extra))}")
        # a missing or non-numeric parameter raises KeyError, TypeError or
        # ValueError here, while the config is read, not when it is sampled
        if kind == "samples":
            d["values"] = [float(v) for v in d["values"]]
        for name in cls.PARAMS.get(kind, ()):
            d[name] = float(d[name])
        return cls(kind, d)

    def to_json(self) -> dict:
        return {"kind": self.kind, **self.params}


@dataclass
class GridFunction:
    """Nodal values of a function on a grid (length cells+1)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.node_count,):
            raise SampleLengthMismatch(
                f"expected {self.grid.node_count} nodal values, got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("nodal values must be finite")

    def scaled(self, t: float) -> "GridFunction":
        return GridFunction(self.grid, t * self.values)


@dataclass
class GridPair:
    """A pair (u, w) of grid functions vanishing on the boundary nodes.

    Encodes an element of the product of two zero-exterior energy spaces;
    the boundary values are forced to be exactly zero.
    """

    u: GridFunction
    w: GridFunction

    def __post_init__(self):
        if self.u.grid != self.w.grid:
            raise GridMismatch("pair components live on different grids")
        for comp in (self.u, self.w):
            if comp.values[0] != 0.0 or comp.values[-1] != 0.0:
                raise ValidationError("pair components must vanish at boundary nodes")

    @classmethod
    def from_arrays(cls, grid: GridSpec, u: np.ndarray, w: np.ndarray) -> "GridPair":
        return cls(GridFunction(grid, u), GridFunction(grid, w))

    @property
    def grid(self) -> GridSpec:
        return self.u.grid

    def scaled(self, t: float) -> "GridPair":
        return GridPair(self.u.scaled(t), self.w.scaled(t))


@dataclass(frozen=True)
class ProblemSpec:
    """All scalar parameters plus the three weight functions."""

    grid: GridSpec
    s: float
    q: float
    alpha: float
    beta: float
    lam: float
    mu: float
    f: WeightSpec
    g: WeightSpec
    b: WeightSpec


def critical_exponent(n: int, s: float) -> float:
    """Critical Sobolev exponent 2n/(n-2s) of the fractional embedding."""
    if n <= 2 * s:
        raise InvalidOrder(f"need n > 2s, got n={n}, s={s}")
    return 2.0 * n / (n - 2.0 * s)


def sample_weight(w: WeightSpec, grid: GridSpec) -> GridFunction:
    """Evaluate a weight spec at the grid nodes.

    cos_pi_x maps the interval affinely onto [-1, 1] before applying
    cos(pi * .), so the sign change always happens inside the domain.
    """
    x = grid.nodes()
    p = w.params
    if w.kind == "constant":
        vals = np.full_like(x, p["value"])
    elif w.kind == "gaussian":
        vals = p["amplitude"] * np.exp(-(((x - p["center"]) / p["width"]) ** 2))
    elif w.kind == "cos_pi_x":
        xhat = (2.0 * x - grid.left - grid.right) / (grid.right - grid.left)
        vals = p["amplitude"] * np.cos(np.pi * xhat)
    elif w.kind == "linear_x":
        vals = p["slope"] * x + p["offset"]
    elif w.kind == "samples":
        vals = np.asarray(p["values"], dtype=float)
        if vals.shape != (grid.node_count,):
            raise SampleLengthMismatch(
                f"samples weight has {vals.shape[0] if vals.ndim == 1 else 'bad'} "
                f"entries, grid has {grid.node_count} nodes"
            )
    else:  # pragma: no cover - guarded by WeightSpec.__post_init__
        raise ValidationError(f"unknown weight kind {w.kind!r}")
    return GridFunction(grid, vals)


@dataclass(frozen=True, eq=False)
class ValidatedProblem(ProblemSpec):
    """A ProblemSpec that passed ``validate_params``, with its critical
    exponent and its weights sampled at the grid nodes."""

    crit_exp: float
    f_vals: np.ndarray
    g_vals: np.ndarray
    b_vals: np.ndarray

    @functools.cached_property
    def weighted_coefficients(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lam w f, mu w g, w b) on the interior nodes, w the trapezoid
        weights: the factors of the energy's integrals, formed once."""
        w = self.grid.trapezoid_weights()[1:-1]
        i = slice(1, -1)
        return self.lam * w * self.f_vals[i], self.mu * w * self.g_vals[i], w * self.b_vals[i]


def validate_params(spec: ProblemSpec) -> ValidatedProblem:
    """Check every structural assumption and sample the weights: the spec's
    fields, the critical exponent and the sampled weights, as one
    ValidatedProblem.

    Raises the error class of the first violation found; the exception
    carries the full list of detected violations.
    """
    violations: list[tuple[str, str]] = []

    if not (0.0 < spec.q < 1.0):
        violations.append(("InvalidExponent", f"q must lie in (0,1), got {spec.q}"))
    if spec.alpha <= 1.0:
        violations.append(("InvalidExponent", f"alpha must exceed 1, got {spec.alpha}"))
    if spec.beta <= 1.0:
        violations.append(("InvalidExponent", f"beta must exceed 1, got {spec.beta}"))

    crit = float("nan")
    if not (S_LOWER < spec.s < S_UPPER):
        violations.append(
            ("InvalidOrder", f"s must lie in (1/6, 1/2) for an interval domain, got {spec.s}")
        )
    else:
        crit = critical_exponent(DIMENSION, spec.s)
        ab = spec.alpha + spec.beta
        if not (2.0 < ab < crit - 1.0):
            violations.append(
                ("InvalidExponent",
                 f"alpha+beta must lie in (2, {crit - 1.0:g}), got {ab}")
            )

    for name, value in (("lambda", spec.lam), ("mu", spec.mu)):
        if not np.isfinite(value):
            violations.append(("ValidationError", f"{name} must be finite, got {value}"))
    if spec.lam == 0.0 and spec.mu == 0.0:
        violations.append(("ZeroParameters", "(lambda, mu) = (0, 0) is excluded"))

    f_vals = sample_weight(spec.f, spec.grid).values
    g_vals = sample_weight(spec.g, spec.grid).values
    b_vals = sample_weight(spec.b, spec.grid).values

    interior = slice(1, spec.grid.cells)
    if np.min(f_vals[interior]) <= 0.0:
        violations.append(("WeightSignViolation", "f must be strictly positive on interior nodes"))
    if np.min(g_vals[interior]) <= 0.0:
        violations.append(("WeightSignViolation", "g must be strictly positive on interior nodes"))
    if np.max(b_vals[interior]) <= 0.0:
        violations.append(("WeightSignViolation",
                           "b must be strictly positive on some interior node"))

    if violations:
        kind, msg = violations[0]
        cls = {
            "ValidationError": ValidationError,
            "InvalidExponent": InvalidExponent,
            "InvalidOrder": InvalidOrder,
            "WeightSignViolation": WeightSignViolation,
            "ZeroParameters": ZeroParameters,
        }[kind]
        raise cls(msg, violations)

    return ValidatedProblem(**{f.name: getattr(spec, f.name) for f in fields(ProblemSpec)},
                            crit_exp=crit, f_vals=f_vals, g_vals=g_vals, b_vals=b_vals)
