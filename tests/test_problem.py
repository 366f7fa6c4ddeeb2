import dataclasses
import math
import warnings

import numpy as np
import pytest

import neharifrac as nf
from neharifrac.errors import (
    ConfigParseError,
    InvalidExponent,
    InvalidOrder,
    WeightSignViolation,
    ValidationError,
    ZeroParameters,
)

from conftest import make_spec, weight_to_json


def test_critical_exponent_values():
    # oracle: direct evaluation of 2n/(n - 2s)
    for n, s in ((1, 0.4), (1, 0.25), (1, 0.3)):
        expected = 2.0 * n / (n - 2.0 * s)
        assert nf.critical_exponent(n, s) == pytest.approx(expected, rel=1e-15)
    assert nf.critical_exponent(1, 0.4) == pytest.approx(10.0, rel=1e-12)
    assert nf.critical_exponent(1, 0.25) == pytest.approx(4.0, rel=1e-12)


def test_critical_exponent_rejects_supercritical_order():
    with pytest.raises(InvalidOrder):
        nf.critical_exponent(1, 0.5)
    with pytest.raises(InvalidOrder):
        nf.critical_exponent(1, 0.7)


def test_validate_accepts_fixture():
    p = nf.validate_params(make_spec())
    assert p.crit_exp == pytest.approx(10.0, rel=1e-12)
    # the accepted window holds simultaneously
    assert 2 < p.alpha + p.beta < p.crit_exp - 1
    assert 1 / 6 < p.s < 0.5


def test_validate_rejects_bad_exponents():
    with pytest.raises(InvalidExponent):
        nf.validate_params(make_spec(q=1.0))
    with pytest.raises(InvalidExponent):
        nf.validate_params(make_spec(q=0.0))
    with pytest.raises(InvalidExponent):
        nf.validate_params(make_spec(alpha=1.0))
    with pytest.raises(InvalidExponent):
        nf.validate_params(make_spec(alpha=5.0, beta=5.0))  # alpha+beta too large


def test_validate_rejects_bad_order():
    with pytest.raises(InvalidOrder):
        nf.validate_params(make_spec(s=0.5))
    with pytest.raises(InvalidOrder):
        nf.validate_params(make_spec(s=1.0 / 6.0))
    with pytest.raises(InvalidOrder):
        nf.validate_params(make_spec(s=0.1))


def test_validate_rejects_zero_parameters():
    with pytest.raises(ZeroParameters):
        nf.validate_params(make_spec(lam=0.0, mu=0.0))
    # one of the two may vanish
    nf.validate_params(make_spec(lam=0.0, mu=0.01))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["lam", "mu"])
def test_validate_rejects_nonfinite_parameters(name, value):
    # NaN passes every comparison-based check; it must not reach the constants
    with pytest.raises(ValidationError) as exc:
        nf.validate_params(make_spec(**{name: value}))
    assert "must be finite" in str(exc.value)


def test_validate_rejects_sign_violations():
    with pytest.raises(WeightSignViolation):
        nf.validate_params(make_spec(f=nf.WeightSpec.constant(0.0)))
    with pytest.raises(WeightSignViolation):
        nf.validate_params(make_spec(g=nf.WeightSpec.constant(-1.0)))
    with pytest.raises(WeightSignViolation):
        nf.validate_params(make_spec(b=nf.WeightSpec.constant(-1.0)))
    # b only needs a positive part somewhere
    nf.validate_params(make_spec(b=nf.WeightSpec.linear_x(1.0, 0.0)))


def test_validate_collects_all_violations():
    # each kind, when it comes first, is the class raised, and violations
    # names every kind found, in order, led by the raised message
    cases = [
        (dict(lam=math.nan, f=nf.WeightSpec.constant(-1.0)),
         [ValidationError, WeightSignViolation]),
        (dict(q=1.0, lam=0.0, mu=0.0), [InvalidExponent, ZeroParameters]),
        (dict(s=0.6, lam=0.0, mu=0.0), [InvalidOrder, ZeroParameters]),
        (dict(f=nf.WeightSpec.constant(-1.0), b=nf.WeightSpec.constant(-1.0)),
         [WeightSignViolation, WeightSignViolation]),
        (dict(lam=0.0, mu=0.0, g=nf.WeightSpec.constant(-1.0)),
         [ZeroParameters, WeightSignViolation]),
    ]
    for overrides, kinds in cases:
        with pytest.raises(ValidationError) as info:
            nf.validate_params(make_spec(**overrides))
        exc = info.value
        assert type(exc) is kinds[0]
        assert [k for k, _ in exc.violations] == [c.__name__ for c in kinds]
        assert all(type(m) is str for _, m in exc.violations)
        assert str(exc) == exc.violations[0][1]


def test_accepted_weights_have_required_signs():
    p = nf.validate_params(make_spec())
    interior = slice(1, p.grid.cells)
    assert p.f_vals[interior].min() > 0
    assert p.g_vals[interior].min() > 0
    assert p.b_vals.max() > 0


def test_sample_weight_constant():
    grid = nf.GridSpec(-1.0, 1.0, 8)
    vals = nf.sample_weight(nf.WeightSpec.constant(1.0), grid)
    assert np.all(vals == 1.0)


def test_sample_weight_cos_pi_x():
    grid = nf.GridSpec(-1.0, 1.0, 8)
    vals = nf.sample_weight(nf.WeightSpec.cos_pi_x(1.0), grid)
    x = grid.nodes()
    assert vals[np.argmin(np.abs(x))] == pytest.approx(1.0)
    assert vals[0] == pytest.approx(-1.0)
    assert vals[-1] == pytest.approx(-1.0)
    # affine remap: same shape on a shifted interval
    grid2 = nf.GridSpec(3.0, 7.0, 8)
    vals2 = nf.sample_weight(nf.WeightSpec.cos_pi_x(1.0), grid2)
    assert vals2 == pytest.approx(vals)


def test_sample_weight_linear_x_odd_at_midpoint():
    grid = nf.GridSpec(-1.0, 1.0, 8)
    vals = nf.sample_weight(nf.WeightSpec.linear_x(1.0, 0.0), grid)
    mid = grid.cells // 2
    assert vals[mid] == pytest.approx(0.0, abs=1e-15)


def test_sample_weight_samples_roundtrip_and_mismatch():
    grid = nf.GridSpec(-1.0, 1.0, 4)
    vals = nf.sample_weight(nf.WeightSpec.samples([1, 2, 3, 2, 1]), grid)
    assert vals == pytest.approx([1, 2, 3, 2, 1])
    with pytest.raises(ValidationError, match="samples weight has 3 entries, grid has 5 nodes"):
        nf.sample_weight(nf.WeightSpec.samples([1, 2, 3]), grid)


def test_weight_spec_json_round_trip():
    specs = [nf.WeightSpec.constant(1.5), nf.WeightSpec.gaussian(0.1, 0.5, 2.0),
             nf.WeightSpec.cos_pi_x(1.0), nf.WeightSpec.linear_x(1.0, -0.5),
             nf.WeightSpec.samples([0.0, 1.0, 0.0])]
    for spec in specs:
        assert nf.WeightSpec.from_json(weight_to_json(spec)) == spec
    with pytest.raises(ConfigParseError, match="'offset'"):
        nf.WeightSpec.from_json({"kind": "samples", "values": [1.0], "offset": 0.0})


def test_sample_weight_deterministic():
    grid = nf.GridSpec(-1.0, 1.0, 32)
    w = nf.WeightSpec.gaussian(0.2, 0.5, 1.3)
    a = nf.sample_weight(w, grid)
    b = nf.sample_weight(w, grid)
    assert np.array_equal(a, b)


def test_grid_spec_invariants():
    grid = nf.GridSpec(-1.0, 1.0, 10)
    assert grid.h == pytest.approx(0.2, rel=1e-15)
    x = grid.nodes()
    assert x[0] == -1.0 and x[-1] == 1.0
    assert np.allclose(np.diff(x), grid.h)
    w = grid.trapezoid_weights()
    assert w.sum() == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(Exception):
        nf.GridSpec(1.0, -1.0, 10)
    with pytest.raises(Exception):
        nf.GridSpec(-1.0, 1.0, 3)


def test_grid_pair_enforces_boundary_zeros():
    # written nodal values read back as a pair must vanish at both ends and
    # be finite; they are the inverse of the form's written_values
    form = nf.assemble_form(nf.GridSpec(-1.0, 1.0, 8), 0.4)
    good = np.zeros(9)
    good[4] = 1.0
    pair = form.interior_values(np.stack([good, good]))
    assert np.array_equal(pair, [good[1:-1], good[1:-1]])
    assert np.array_equal(form.written_values(pair[0]), good)
    for k, value in ((0, 0.5), (-1, 0.5), (4, np.nan), (4, np.inf)):
        bad = good.copy()
        bad[k] = value
        with pytest.raises(ValidationError):
            form.interior_values(np.stack([good, bad]))


@pytest.mark.parametrize("name", ["f", "g", "b"])
def test_a_weight_that_leaves_the_float_range_is_refused_by_name(name):
    # a gaussian of width 0 is NaN at its center; sampling it warns of
    # nothing, and validation names the weight
    spec = dataclasses.replace(make_spec(cells=64),
                               **{name: nf.WeightSpec.gaussian(0.0, 0.0, 1.0)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(nf.sample_weight(getattr(spec, name), spec.grid)).any()
        with pytest.raises(ValidationError, match=f"^weight {name}: nodal values must be finite"):
            nf.validate_params(spec)


def test_a_validated_problem_is_its_frozen_spec():
    spec = make_spec(cells=32)
    problem = nf.validate_params(spec)
    assert isinstance(problem, nf.ProblemSpec)
    for f in dataclasses.fields(nf.ProblemSpec):
        assert getattr(problem, f.name) == getattr(spec, f.name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.lam = 0.02


def test_grid_arrays_are_built_once_and_read_only():
    # every caller shares the grid's nodes and weights, so none may write
    grid = nf.GridSpec(-1.0, 1.0, 10)
    assert grid.nodes() is grid.nodes()
    assert grid.trapezoid_weights() is grid.trapezoid_weights()
    assert np.array_equal(grid.nodes(), np.linspace(-1.0, 1.0, 11))
    for values in (grid.nodes(), grid.trapezoid_weights()):
        with pytest.raises(ValueError):
            values[0] = 0.0
    # a grid equal to another builds its own arrays, with the same values
    other = nf.GridSpec(-1.0, 1.0, 10)
    assert other == grid and other.nodes() is not grid.nodes()
    assert np.array_equal(other.trapezoid_weights(), grid.trapezoid_weights())


def test_a_grid_numpy_cannot_index_is_refused():
    # the nodal values of one cell more would take more bytes than numpy
    # can index; nothing is allocated
    nf.GridSpec(-1.0, 1.0, nf.problem.MAX_CELLS)
    with pytest.raises(ValidationError, match="at most"):
        nf.GridSpec(-1.0, 1.0, nf.problem.MAX_CELLS + 1)


@pytest.mark.parametrize("lam,mu", [(0.02, 0.005), (-0.01, 0.01), (0.0, 1e300), (1e-300, 0.0)])
def test_a_problem_at_other_parameters_is_the_validated_one(lam, mu):
    # with_parameters checks only the (lambda, mu) rules and keeps the
    # sampled weights, and gives what a fresh validation at (lam, mu) gives
    shared = nf.validate_params(make_spec(cells=32))
    moved = shared.with_parameters(lam, mu)
    fresh = nf.validate_params(make_spec(cells=32, lam=lam, mu=mu))
    for f in dataclasses.fields(nf.ValidatedProblem):
        a, b = getattr(moved, f.name), getattr(fresh, f.name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name
    for a, b in zip(moved.weighted_coefficients, fresh.weighted_coefficients):
        assert np.array_equal(a, b)
    assert moved.f_vals is shared.f_vals and moved.grid is shared.grid
    assert (shared.lam, shared.mu) == (0.01, 0.01)


@pytest.mark.parametrize("lam,mu", [(0.0, 0.0), (math.nan, 0.01), (0.01, math.inf),
                                    (-math.inf, math.nan)])
def test_a_problem_at_invalid_parameters_fails_as_validation_does(lam, mu):
    shared = nf.validate_params(make_spec(cells=32))
    with pytest.raises(ValidationError) as moved:
        shared.with_parameters(lam, mu)
    with pytest.raises(ValidationError) as fresh:
        nf.validate_params(make_spec(cells=32, lam=lam, mu=mu))
    assert type(moved.value) is type(fresh.value)
    assert moved.value.violations == fresh.value.violations
