"""Problem data: grid, weight functions, parameter validation.

The continuous problem lives on a bounded interval with homogeneous
exterior condition (functions vanish outside the interval). Everything
downstream works with nodal values on a uniform grid; the underlying
representation is the piecewise-linear interpolant extended by zero.
``validate_params`` checks a ProblemSpec and returns it as a
ValidatedProblem: the same frozen fields, plus the critical exponent, the
weights sampled at the nodes and the weight norms of f and g. Every
interval integral takes the grid's ``trapezoid_weights``; past this module
the kernels read them, the nodes and the written nodal values from the
form (``form.GagliardoForm``). ``ValidatedProblem.with_parameters`` gives
a validated problem at another (lambda, mu) without validating the rest
again, as the points of a sweep need.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    ConfigParseError,
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
# the most cells whose cells + 1 nodal float64 values numpy can index: a
# larger grid is refused before any array is allocated
MAX_CELLS = np.iinfo(np.intp).max // 8 - 1


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
        if self.cells > MAX_CELLS:
            raise ValidationError(f"grid requires at most {MAX_CELLS} cells, got {self.cells}: "
                                  "numpy cannot index its nodal values")

    @property
    def h(self) -> float:
        return (self.right - self.left) / self.cells

    @property
    def node_count(self) -> int:
        return self.cells + 1

    def nodes(self) -> np.ndarray:
        """The cells + 1 node coordinates, read-only."""
        return self._arrays[0]

    def trapezoid_weights(self) -> np.ndarray:
        """The trapezoid weights of the nodes, read-only."""
        return self._arrays[1]

    @functools.cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        # built once per grid and shared by every caller, so no caller may
        # write to them
        x = np.linspace(self.left, self.right, self.cells + 1)
        w = np.full(self.cells + 1, self.h)
        w[0] = w[-1] = self.h / 2
        x.flags.writeable = w.flags.writeable = False
        return x, w


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
    """Nodal values of a function on a grid (length cells+1). The kernels
    take arrays; the benchmark's form and oracle checks still build these."""

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


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def sample_weight(w: WeightSpec, grid: GridSpec) -> np.ndarray:
    """Evaluate a weight spec at the grid nodes.

    cos_pi_x maps the interval affinely onto [-1, 1] before applying
    cos(pi * .), so the sign change always happens inside the domain. A
    value beyond the float range comes out inf or NaN without a warning,
    which ``validate_params`` refuses by the weight's name.
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
    else:  # samples, the last kind WeightSpec admits
        vals = np.asarray(p["values"], dtype=float)
        if vals.shape != (grid.node_count,):
            raise SampleLengthMismatch(
                f"samples weight has {vals.shape[0] if vals.ndim == 1 else 'bad'} "
                f"entries, grid has {grid.node_count} nodes"
            )
    return vals


def q_star(alpha: float, beta: float, q: float) -> float:
    """Conjugate integrability exponent (alpha+beta)/(alpha+beta-1+q)."""
    ab = alpha + beta
    return ab / (ab - 1 + q)


def weight_norm(r: float, values: np.ndarray, weights: np.ndarray) -> float:
    """Discrete L^r norm (sum w_i |v_i|^r)^{1/r} with quadrature weights."""
    if r < 1:
        raise ValueError(f"weight_norm requires r >= 1, got {r}")
    # a power beyond the float range comes out inf, which compute_constants
    # turns into ConstantsOutOfRange
    with np.errstate(over="ignore"):
        total = float(np.sum(weights * np.abs(values) ** r))
    return total ** (1.0 / r)


@dataclass(frozen=True, eq=False)
class ValidatedProblem(ProblemSpec):
    """A ProblemSpec that passed ``validate_params``, with its critical
    exponent, its weights sampled at the grid nodes and the weight norms
    of f and g at ``q_star``, which depend on neither lambda nor mu."""

    crit_exp: float
    f_vals: np.ndarray
    g_vals: np.ndarray
    b_vals: np.ndarray
    f_norm: float
    g_norm: float

    @functools.cached_property
    def weighted_coefficients(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lam w f, mu w g, w b) on the interior nodes, w the trapezoid
        weights: the factors of the energy's integrals, formed once."""
        w = self.grid.trapezoid_weights()[1:-1]
        i = slice(1, -1)
        return self.lam * w * self.f_vals[i], self.mu * w * self.g_vals[i], w * self.b_vals[i]

    def with_parameters(self, lam: float, mu: float) -> "ValidatedProblem":
        """This problem at (lam, mu): the same grid, exponents, sampled
        weights and weight norms, fields that ``dataclasses.replace``
        carries, with only the (lambda, mu) rules of ``validate_params``
        checked again, since nothing else depends on them."""
        _raise_first(_parameter_violations(lam, mu))
        return dataclasses.replace(self, lam=lam, mu=mu)


def _parameter_violations(lam: float, mu: float) -> list[tuple[type[ValidationError], str]]:
    """The violations of the rules on (lambda, mu): both finite, not both zero."""
    violations = []
    for name, value in (("lambda", lam), ("mu", mu)):
        if not np.isfinite(value):
            violations.append((ValidationError, f"{name} must be finite, got {value}"))
    if lam == 0.0 and mu == 0.0:
        violations.append((ZeroParameters, "(lambda, mu) = (0, 0) is excluded"))
    return violations


def _raise_first(violations: list[tuple[type[ValidationError], str]]) -> None:
    # the first violation's class, carrying every violation
    if violations:
        cls, msg = violations[0]
        raise cls(msg, [(c.__name__, m) for c, m in violations])


def validate_params(spec: ProblemSpec) -> ValidatedProblem:
    """Check every structural assumption and sample the weights: the spec's
    fields, the critical exponent, the sampled weights and the weight norms
    of f and g, as one ValidatedProblem.

    A weight that is not finite at some node raises ValidationError naming
    it, before any other rule is checked. Otherwise raises the error class
    of the first violation found; the exception carries the full list of
    detected violations.
    """
    violations: list[tuple[type[ValidationError], str]] = []

    if not (0.0 < spec.q < 1.0):
        violations.append((InvalidExponent, f"q must lie in (0,1), got {spec.q}"))
    if spec.alpha <= 1.0:
        violations.append((InvalidExponent, f"alpha must exceed 1, got {spec.alpha}"))
    if spec.beta <= 1.0:
        violations.append((InvalidExponent, f"beta must exceed 1, got {spec.beta}"))

    crit = float("nan")
    if not (S_LOWER < spec.s < S_UPPER):
        violations.append(
            (InvalidOrder, f"s must lie in (1/6, 1/2) for an interval domain, got {spec.s}")
        )
    else:
        crit = critical_exponent(DIMENSION, spec.s)
        ab = spec.alpha + spec.beta
        if not (2.0 < ab < crit - 1.0):
            violations.append(
                (InvalidExponent,
                 f"alpha+beta must lie in (2, {crit - 1.0:g}), got {ab}")
            )

    violations += _parameter_violations(spec.lam, spec.mu)

    sampled = []
    for name in ("f", "g", "b"):
        sampled.append(sample_weight(getattr(spec, name), spec.grid))
        if not np.all(np.isfinite(sampled[-1])):
            raise ValidationError(f"weight {name}: nodal values must be finite")
    f_vals, g_vals, b_vals = sampled

    interior = slice(1, spec.grid.cells)
    if np.min(f_vals[interior]) <= 0.0:
        violations.append((WeightSignViolation, "f must be strictly positive on interior nodes"))
    if np.min(g_vals[interior]) <= 0.0:
        violations.append((WeightSignViolation, "g must be strictly positive on interior nodes"))
    if np.max(b_vals[interior]) <= 0.0:
        violations.append((WeightSignViolation,
                           "b must be strictly positive on some interior node"))

    _raise_first(violations)
    qs, w = q_star(spec.alpha, spec.beta, spec.q), spec.grid.trapezoid_weights()
    return ValidatedProblem(**{f.name: getattr(spec, f.name) for f in fields(ProblemSpec)},
                            crit_exp=crit, f_vals=f_vals, g_vals=g_vals, b_vals=b_vals,
                            f_norm=weight_norm(qs, f_vals, w), g_norm=weight_norm(qs, g_vals, w))
