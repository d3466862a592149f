"""Error taxonomy: everything user-facing derives from ValueError."""

import math

import numpy as np
import pytest

from dunklpd import (
    AccuracyWarning,
    ConfigurationError,
    DomainError,
    InputError,
    NotInCatalogError,
    make_config,
)
from dunklpd.functions import (
    CatalogFunction,
    DensityProduct,
    SampledFunction,
    bessel_k_profile,
    evaluate_handle,
    gaussian,
    gaussian_density,
    generalized_cauchy,
    sample_grid,
    sample_on_axes,
    uniform_axes,
)
from dunklpd.quadrature import QuadratureSpec
from dunklpd.kernel import dunkl_operator_1d, kernel_1d, kernel_nd, kernel_real_1d, kernel_real_nd
from dunklpd.posdef import (
    PointSet,
    _heat_product,
    bessel_integral_identity,
    bound_check,
    builtin_points,
    heat_kernel,
    heat_kernel_mass,
    kernel_independence,
    quadratic_form_heat,
)
from dunklpd.root_system import MultiplicityConfig, weight
from dunklpd.transform import forward, forward_grid, inverse, numeric_density, spectral_density, weighted_norm
from dunklpd.translation import convolve, convolve_direct, translate, translate_mass


def test_hierarchy():
    assert issubclass(ConfigurationError, ValueError)
    assert issubclass(DomainError, ValueError)
    assert issubclass(InputError, ValueError)
    assert issubclass(NotInCatalogError, ConfigurationError)
    assert issubclass(AccuracyWarning, UserWarning)


def test_catchable_as_value_error():
    try:
        raise NotInCatalogError("x")
    except ValueError:
        pass


_NAN = [math.nan]
_G = gaussian(1.0)
_S = SampledFunction((np.linspace(-1.0, 1.0, 5),), np.ones(5))

# entry points that coerce points or times; a non-finite one must raise a
# package error, never return nan or a verdict: InputError for every point
# that goes through the one point check, DomainError for times and for the
# kernel's own arguments
_NON_FINITE = {
    "bound_check": (InputError, lambda c: bound_check(c, None, _G, [_NAN])),
    "forward": (InputError, lambda c: forward(c, None, _G, _NAN)),
    "inverse": (InputError, lambda c: inverse(c, None, _G, _NAN)),
    "convolve": (InputError, lambda c: convolve(c, None, _G, _G, _NAN)),
    "convolve_direct": (InputError, lambda c: convolve_direct(c, None, _G, _G, [math.inf])),
    "translate_y": (InputError, lambda c: translate(c, None, _G, _NAN, [0.5])),
    "translate_x": (InputError, lambda c: translate(c, None, _G, [0.5], _NAN)),
    "translate_mass": (InputError, lambda c: translate_mass(c, None, _G, _NAN)),
    "kernel_independence": (
        InputError,
        lambda c: kernel_independence(c, [[0.0], [1.0]], [[0.5], _NAN, [2.0]]),
    ),
    "heat_kernel_x": (InputError, lambda c: heat_kernel(c, 0.5, _NAN, [0.1])),
    "heat_kernel_t": (DomainError, lambda c: heat_kernel(c, math.inf, [0.2], [0.1])),
    "heat_kernel_mass": (InputError, lambda c: heat_kernel_mass(c, None, 0.5, _NAN)),
    "quadratic_form_heat_t": (
        DomainError,
        lambda c: quadratic_form_heat(c, None, _G, builtin_points(1, 2, coefficients=[1.0, -1.0]), math.inf),
    ),
    "kernel_nd": (DomainError, lambda c: kernel_nd(c, _NAN, [1.0])),
    "kernel_1d": (DomainError, lambda c: kernel_1d(0.5, math.nan, 1.0)),
    "kernel_1d_inf_times_zero": (DomainError, lambda c: kernel_1d(0.5, math.inf, 0.0)),
    "kernel_real_1d": (DomainError, lambda c: kernel_real_1d(0.5, math.nan, 1.0)),
    "catalog_evaluate_nan": (InputError, lambda c: _G.evaluate(c, _NAN)),
    "catalog_evaluate_inf": (InputError, lambda c: _G.evaluate(c, [[0.5], [math.inf]])),
    "cauchy_evaluate_inf": (InputError, lambda c: generalized_cauchy(3.0).evaluate(c, [[-math.inf]])),
    "bessel_k_evaluate_nan": (InputError, lambda c: bessel_k_profile(3.0).evaluate(c, [_NAN])),
    "sampled_evaluate_nan": (InputError, lambda c: _S.evaluate(c, [_NAN])),
    "sampled_evaluate_inf": (InputError, lambda c: _S.evaluate(c, [[math.inf], [0.5]])),
}


@pytest.mark.parametrize("name", sorted(_NON_FINITE))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_input_raises(name):
    error, call = _NON_FINITE[name]
    with pytest.raises(error, match="finite"):
        call(make_config(1, [0.5]))


_D3 = make_config(3, [1.0, 0.5, 0.0])


@pytest.mark.parametrize(
    "call",
    [
        lambda: heat_kernel(_D3, 1e-200, [0.0, 0.0, 0.0], [0.1, 0.2, 0.3]),
        lambda: heat_kernel(_D3, np.float64(1e-200), [0.0, 0.0, 0.0], np.zeros((4, 3))),
        lambda: heat_kernel_mass(_D3, None, 1e-200, [0.0, 0.0, 0.0]),
        lambda: _heat_product(_D3, np.array([0.5, 1e-200]), np.zeros((3, 2)), np.ones((3, 2)), np.multiply),
    ],
    ids=["heat_kernel", "heat_kernel_numpy_t", "heat_kernel_mass", "heat_product_time_per_pair"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_heat_prefactor_raises_domain_error(call):
    # (2t)^-(gamma+d/2) at t = 1e-200 and gamma + d/2 = 3 is past the float range
    with pytest.raises(DomainError, match="overflows"):
        call()


@pytest.mark.parametrize(
    "what,call",
    [
        ("forward transform", lambda c, q: forward(c, q, _G, [0.5])),
        ("inverse transform", lambda c, q: inverse(c, q, _G, [[0.5], [1.0]])),
        ("grid transform", lambda c, q: forward_grid(c, q, _G, (np.linspace(-1.0, 1.0, 3),))),
        ("convolution", lambda c, q: convolve(c, q, _G, _G, [0.5])),
    ],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_checked_operator_raises_on_a_non_finite_result(what, call):
    # a 1e300 box overflows the weighted sum to nan, and the n/2n check cannot see a nan scale
    with pytest.raises(DomainError, match=f"^{what}: the result is not finite"):
        call(make_config(1, [0.5]), QuadratureSpec(1e300, 16))


# the one point check refuses what is not an array of real numbers before
# converting it: strings, ragged rows and complex numbers would escape as
# other errors, complex arrays lose their imaginary parts, and None turns nan
@pytest.mark.parametrize(
    "points",
    ["abc", [[0.5], [0.1, 0.2]], [1 + 2j], np.array([0.5 + 0.0j]), None],
    ids=["string", "ragged", "complex_list", "complex_array", "none"],
)
@pytest.mark.filterwarnings("error")
def test_malformed_points_raise_input_error(points):
    with pytest.raises(InputError, match="expected real points in R\\^1"):
        forward(make_config(1, [0.5]), None, _G, points)


def test_numpy_integers_are_accepted_as_integers():
    spec = QuadratureSpec(10.0, np.int64(64))
    assert spec == QuadratureSpec(10.0, 64) and type(spec.nodes_per_axis) is int
    config = make_config(np.int64(2), [1, 0])
    assert config == make_config(2, [1, 0]) and type(config.dimension) is int
    assert np.array_equal(builtin_points(np.int64(2), np.int64(3)).points, builtin_points(2, 3).points)
    assert np.array_equal(uniform_axes(1, 2.0, np.int64(5))[0], uniform_axes(1, 2.0, 5)[0])


@pytest.mark.parametrize(
    "error,match,call",
    [
        (ConfigurationError, "even integer >= 8, got 64.0", lambda: QuadratureSpec(10.0, 64.0)),
        (ConfigurationError, "even integer >= 8, got '64'", lambda: QuadratureSpec(10.0, "64")),
        (ConfigurationError, "dimension must be an integer", lambda: make_config(2.0, [1, 0])),
        (ConfigurationError, "dimension must be an integer", lambda: make_config(np.True_, [1])),
        (InputError, "whole numbers >= 1, got 1 and 2.5", lambda: builtin_points(1, 2.5)),
        (InputError, "whole numbers >= 1, got 2.5 and 3", lambda: builtin_points(2.5, 3)),
        (InputError, "whole numbers >= 1, got 0 and 3", lambda: builtin_points(0, 3)),
        (InputError, "whole number of at least 2 nodes per axis, got '5'", lambda: uniform_axes(1, 2.0, "5")),
        (ConfigurationError, "positive and finite, got 'abc'", lambda: QuadratureSpec("abc", 64)),
        (ConfigurationError, "positive and finite, got None", lambda: QuadratureSpec(None, 64)),
        (InputError, "whole number >= 1, got 2.5", lambda: uniform_axes(2.5, 1.0, 5)),
        (InputError, "whole number >= 1, got '2'", lambda: uniform_axes("2", 1.0, 5)),
        (InputError, "whole number >= 1, got 0", lambda: uniform_axes(0, 1.0, 5)),
        (ConfigurationError, "positive and finite, got True", lambda: QuadratureSpec(True, 64)),
        (InputError, "whole numbers >= 1, got True and 3", lambda: builtin_points(True, 3)),
        (InputError, "whole numbers >= 1, got 1 and True", lambda: builtin_points(1, True)),
        (InputError, "whole number >= 1, got True", lambda: uniform_axes(True, 1.0, 5)),
        (InputError, "finite and positive, got True", lambda: uniform_axes(1, True, 5)),
    ],
    ids=[
        "spec_float",
        "spec_string",
        "dimension_float",
        "dimension_numpy_bool",
        "points_float",
        "points_dimension_float",
        "points_dimension_zero",
        "axes_string",
        "spec_radius_string",
        "spec_radius_none",
        "axes_dimension_float",
        "axes_dimension_string",
        "axes_dimension_zero",
        "spec_radius_bool",
        "points_dimension_bool",
        "points_count_bool",
        "axes_dimension_bool",
        "axes_extent_bool",
    ],
)
def test_non_integer_counts_raise_package_errors(error, match, call):
    with pytest.raises(error, match=match):
        call()


# forward_grid's output nodes go through the one point check: a wrong number
# of axes or a non-finite node is refused before any quadrature runs
@pytest.mark.parametrize(
    "axes",
    [
        (np.linspace(-1.0, 1.0, 5),),
        (np.linspace(-1.0, 1.0, 5),) * 3,
        (np.linspace(-1.0, 1.0, 5), np.array([0.0, math.nan, 1.0])),
    ],
    ids=["one_axis", "three_axes", "nan_node"],
)
def test_forward_grid_checks_its_output_nodes(axes):
    with pytest.raises(InputError, match="points"):
        forward_grid(make_config(2, [1.0, 0.0]), QuadratureSpec(4.0, 8), _G, axes)


# grid axes are one finite 1-D real axis per dimension (root_system._query_axes):
# no axes, a 2-D axis or a scalar one raised numpy's ValueError or TypeError, or
# in axis_factors came back as a (1, 2, 2) factor; a callable sampled on a 2-D
# axis (sample_grid's points route) raised numpy's "could not broadcast"
_SQUARE = np.zeros((2, 2))
_X0 = lambda p: p[:, 0]


@pytest.mark.parametrize(
    "call",
    [
        lambda c: forward_grid(c, None, _G, out_axes=()),
        lambda c: forward_grid(c, QuadratureSpec(4.0, 8), _G, (_SQUARE,)),
        lambda c: sample_on_axes(c, _G, (_SQUARE,)),
        lambda c: _G.on_axes(c, (_SQUARE,)),
        lambda c: bessel_k_profile(3.0).on_axes(c, (0.5,)),
        lambda c: _G.axis_factors(c, (_SQUARE,)),
        lambda c: sample_grid(c, _X0, (_SQUARE,)),
        lambda c: DensityProduct(c, (_X0,)).on_axes(c, (_SQUARE,)),
        lambda c: sample_on_axes(c, _G, None),
    ],
    ids=[
        "forward_grid_no_axes",
        "forward_grid_square_axis",
        "sample_on_axes_square_axis",
        "on_axes_square_axis",
        "on_axes_scalar_axis",
        "axis_factors_square_axis",
        "sample_grid_square_axis",
        "density_product_on_axes_square_axis",
        "sample_on_axes_none",
    ],
)
@pytest.mark.filterwarnings("error")
def test_malformed_grid_axes_raise_input_error(call):
    with pytest.raises(InputError, match="grid axes"):
        call(make_config(1, [0.5]))


# a callable's values must be numbers (evaluate_handle), and a norm that is not
# finite raises instead of coming back as nan
def test_callable_returning_strings_raises_input_error():
    with pytest.raises(InputError, match="must return numbers, got <U1"):
        forward(make_config(1, [0.5]), None, lambda p: np.array(["a"] * len(p)), [0.0])


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.filterwarnings("error")
def test_weighted_norm_of_non_finite_values_raises_domain_error(value):
    with pytest.raises(DomainError, match="^weighted norm: the result is not finite"):
        weighted_norm(make_config(1, [0.5]), None, lambda p: np.full(len(p), value))


@pytest.mark.parametrize(
    "call",
    [
        lambda c: bound_check(c, None, _G, np.zeros((0, 1))),
        lambda c: kernel_independence(c, np.zeros((0, 1)), np.zeros((0, 1))),
        lambda c: kernel_independence(c, np.zeros((0, 1)), [[0.5]]),
    ],
    ids=["bound_check", "kernel_independence", "kernel_independence_with_probes"],
)
def test_empty_point_sets_raise_input_error(call):
    with pytest.raises(InputError, match="at least one"):
        call(make_config(1, [0.5]))


# times and the norm order are real numbers: a bool is not taken as 1, and None, a
# string or a complex value raises the package's error instead of TypeError
_TWO = builtin_points(1, 2, coefficients=[1.0, -1.0])


@pytest.mark.parametrize(
    "value",
    [True, np.True_, None, "1", 1 + 0j, np.complex128(1.0)],
    ids=["bool", "numpy_bool", "none", "string", "complex", "numpy_complex"],
)
@pytest.mark.parametrize(
    "error,match,call",
    [
        (DomainError, "^time must be positive and finite", lambda c, v: heat_kernel(c, v, [0.2], [0.1])),
        (DomainError, "^time must be positive and finite", lambda c, v: heat_kernel_mass(c, None, v, [0.2])),
        (DomainError, "^smoothing time must be positive", lambda c, v: quadratic_form_heat(c, None, _G, _TWO, v)),
        (InputError, "^norm order must be finite and >= 1", lambda c, v: weighted_norm(c, None, _G, v)),
    ],
    ids=["heat_kernel", "heat_kernel_mass", "quadratic_form_heat", "weighted_norm"],
)
def test_times_and_orders_must_be_real_numbers(value, error, match, call):
    with pytest.raises(error, match=match):
        call(make_config(1, [0.5]), value)


def test_real_times_and_orders_of_every_numeric_type_are_accepted():
    config = make_config(1, [0.5])
    for t in (1, 0.5, np.float32(0.5), np.int64(1), np.array(0.5)):
        assert heat_kernel(config, t, [0.2], [0.1]) == heat_kernel(config, float(t), [0.2], [0.1])
    assert weighted_norm(config, None, _G, np.int64(1)) == weighted_norm(config, None, _G, 1.0)


# One check per kind of input (root_system): a coordinate that is not a real
# number raises InputError from _real_points, and a real parameter goes through
# _in_range, whose caller raises the type it uses for a value out of range.
# First the measured escapes: each came back as a bare ValueError or TypeError,
# with a ComplexWarning and the imaginary part dropped, or was taken as a number.
_C1 = make_config(1, [0.5])
_CUBE = QuadratureSpec(4.0, 8)
_HINTED = forward_grid(_C1, QuadratureSpec(8.0, 32), _G, (np.linspace(-1.0, 1.0, 3),))
_JSON_KAPPA = '{"dimension": 1, "kappa": [%s]}'  # as read by the command line's --config
_ESCAPES = {
    "kernel_nd_string": (InputError, lambda: kernel_nd(_C1, "abc", [1.0])),
    "kernel_real_nd_string": (InputError, lambda: kernel_real_nd(_C1, "abc", [1.0])),
    "kernel_nd_complex": (InputError, lambda: kernel_nd(_C1, np.array([0.5 + 1j]), [1.0])),
    "kernel_1d_string": (InputError, lambda: kernel_1d(0.5, "a", 1.0)),
    "kernel_1d_none": (InputError, lambda: kernel_1d(0.5, None, 1.0)),
    "kernel_real_1d_string": (InputError, lambda: kernel_real_1d(0.5, "a", 1.0)),
    "kernel_real_1d_none": (InputError, lambda: kernel_real_1d(0.5, None, 1.0)),
    "kernel_1d_kappa_string": (DomainError, lambda: kernel_1d("a", 1.0, 1.0)),
    "kernel_1d_kappa_bool": (DomainError, lambda: kernel_1d(True, 1.0, 1.0)),
    "operator_kappa_bool": (DomainError, lambda: dunkl_operator_1d(True, np.cos, 1.0)),
    "operator_x_string": (InputError, lambda: dunkl_operator_1d(0.5, np.cos, "abc")),
    "operator_x_complex": (InputError, lambda: dunkl_operator_1d(0.5, np.cos, 1 + 1j)),
    "evaluate_handle_callable": (InputError, lambda: evaluate_handle(_C1, lambda p: p[:, 0], [[0.5 + 1j]])),
    "density_product": (InputError, lambda: DensityProduct(_C1, (_G,))([[0.5 + 1j]])),
    "spectral_density": (InputError, lambda: spectral_density(_C1, None, _G)([[0.5 + 1j]])),
    "spectral_density_hint": (InputError, lambda: spectral_density(_C1, None, _HINTED)([[0.5 + 1j]])),
    "forward_grid_hint": (InputError, lambda: _HINTED.spectral_hint([[0.5 + 1j]])),
    "numeric_density": (InputError, lambda: numeric_density(_C1, _CUBE, _G)([[0.5 + 1j]])),
    "on_axes_complex": (InputError, lambda: _G.on_axes(_C1, (np.array([0.5 + 1j, 1.0]),))),
    "on_axes_string": (InputError, lambda: _G.on_axes(_C1, (["a", "b"],))),
    "sample_on_axes_complex": (InputError, lambda: sample_on_axes(_C1, _G, (np.array([0.5 + 1j, 1.0]),))),
    "sample_on_axes_string": (InputError, lambda: sample_on_axes(_C1, _G, (["a", "b"],))),
    "forward_grid_axes_complex": (InputError, lambda: forward_grid(_C1, _CUBE, _G, (np.array([0.5 + 1j, 1.0]),))),
    "forward_grid_axes_string": (InputError, lambda: forward_grid(_C1, _CUBE, _G, (["a", "b"],))),
    "sampled_axes_complex": (InputError, lambda: SampledFunction((np.array([1j, 1.0]),), np.zeros(2))),
    "sampled_values_string": (InputError, lambda: SampledFunction((np.array([0.0, 1.0]),), np.array(["a", "b"]))),
    "point_set_coefficients_string": (InputError, lambda: PointSet([[0.0], [1.0]], ["a", "b"])),
    "catalog_param_string": (ConfigurationError, lambda: CatalogFunction("gaussian", "1")),
    "catalog_param_none": (ConfigurationError, lambda: CatalogFunction("gaussian", None)),
    "gaussian_string": (ConfigurationError, lambda: gaussian("2")),
    "config_json_string": (ConfigurationError, lambda: MultiplicityConfig.from_json(_JSON_KAPPA % '"0.5"')),
    "config_json_bool": (ConfigurationError, lambda: MultiplicityConfig.from_json(_JSON_KAPPA % "true")),
    "heat_kernel_time_array": (DomainError, lambda: heat_kernel(_C1, np.array([0.5, 1.0]), [0.2], [0.1])),
}

# Then one row per public entry and kind of bad value: None, a string, a complex
# scalar, a complex array, and for real parameters a real array.
_NOT_COORDINATES = {"none": None, "string": "abc", "complex": 0.5 + 1j, "complex_array": np.array([0.5 + 1j])}
_NOT_REALS = {**_NOT_COORDINATES, "string": "1", "array": np.array([0.5, 1.0])}
_COORDINATE_ENTRIES = {
    "kernel_nd": lambda v: kernel_nd(_C1, v, [1.0]),
    "kernel_real_nd": lambda v: kernel_real_nd(_C1, [1.0], v),
    "kernel_1d_x": lambda v: kernel_1d(0.5, v, 1.0),
    "kernel_real_1d_y": lambda v: kernel_real_1d(0.5, 1.0, v),
    "dunkl_operator_1d_x": lambda v: dunkl_operator_1d(0.5, np.cos, v),
    "forward": lambda v: forward(_C1, _CUBE, _G, v),
    "weight": lambda v: weight(_C1, v),
    "heat_kernel_x": lambda v: heat_kernel(_C1, 0.5, v, [0.1]),
    "evaluate_handle": lambda v: evaluate_handle(_C1, lambda p: p[:, 0], v),
    "density_product": lambda v: DensityProduct(_C1, (_G,))(v),
    "spectral_density": lambda v: spectral_density(_C1, None, _G)(v),
    "spectral_density_hint": lambda v: spectral_density(_C1, None, _HINTED)(v),
    "numeric_density": lambda v: numeric_density(_C1, _CUBE, _G)(v),
    "on_axes": lambda v: _G.on_axes(_C1, (v,)),
    "axis_factors": lambda v: _G.axis_factors(_C1, (v,)),
    "sample_on_axes": lambda v: sample_on_axes(_C1, _G, (v,)),
    "forward_grid": lambda v: forward_grid(_C1, _CUBE, _G, (v,)),
    "sampled_function_axes": lambda v: SampledFunction((v,), np.zeros(2)),
    "point_set": lambda v: PointSet(v),
}
_REAL_ENTRIES = {
    "kernel_1d_kappa": (DomainError, "multiplicity must be finite", lambda v: kernel_1d(v, 1.0, 1.0)),
    "kernel_real_1d_kappa": (DomainError, "multiplicity must be finite", lambda v: kernel_real_1d(v, 1.0, 1.0)),
    "dunkl_operator_1d_kappa": (
        DomainError,
        "multiplicity must be finite",
        lambda v: dunkl_operator_1d(v, np.cos, 1.0),
    ),
    "catalog_function": (ConfigurationError, "parameter t must be positive", lambda v: CatalogFunction("gaussian", v)),
    "gaussian_density": (ConfigurationError, "parameter t must be positive", lambda v: gaussian_density(v)),
    "generalized_cauchy": (ConfigurationError, "parameter p must be positive", lambda v: generalized_cauchy(v)),
    "bessel_k_profile": (ConfigurationError, "parameter p must be positive", lambda v: bessel_k_profile(v)),
    "make_config": (ConfigurationError, "multiplicities must be real numbers", lambda v: make_config(1, [v])),
    "quadrature_radius": (ConfigurationError, "radius must be positive and finite", lambda v: QuadratureSpec(v, 64)),
    "grid_extent": (InputError, "extent must be finite and positive", lambda v: uniform_axes(1, v, 5)),
    "heat_kernel_t": (DomainError, "^time must be positive and finite", lambda v: heat_kernel(_C1, v, [0.2], [0.1])),
    "heat_kernel_mass": (
        DomainError,
        "^time must be positive and finite",
        lambda v: heat_kernel_mass(_C1, None, v, [0.2]),
    ),
    "quadratic_form_heat": (
        DomainError,
        "^smoothing time must be positive",
        lambda v: quadratic_form_heat(_C1, None, _G, _TWO, v),
    ),
    "weighted_norm": (InputError, "^norm order must be finite and >= 1", lambda v: weighted_norm(_C1, None, _G, v)),
    "bessel_integral_identity": (
        DomainError,
        "^need a finite real p >= 2.0",
        lambda v: bessel_integral_identity(_C1, None, v),
    ),
}
_RULE = [pytest.param(error, None, call, id=name) for name, (error, call) in _ESCAPES.items()]
_RULE += [
    pytest.param(InputError, "expected real points", lambda e=entry, v=value: e(v), id=f"{name}-{kind}")
    for name, entry in _COORDINATE_ENTRIES.items()
    for kind, value in _NOT_COORDINATES.items()
]
_RULE += [
    pytest.param(error, match, lambda e=entry, v=value: e(v), id=f"{name}-{kind}")
    for name, (error, match, entry) in _REAL_ENTRIES.items()
    for kind, value in _NOT_REALS.items()
]


@pytest.mark.parametrize("error,match,call", _RULE)
@pytest.mark.filterwarnings("error")
def test_each_kind_of_input_has_one_check(error, match, call):
    with pytest.raises(error, match=match):
        call()
