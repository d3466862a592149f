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
from dunklpd.functions import SampledFunction, bessel_k_profile, gaussian, generalized_cauchy, uniform_axes
from dunklpd.quadrature import QuadratureSpec
from dunklpd.kernel import kernel_1d, kernel_nd, kernel_real_1d
from dunklpd.posdef import (
    _heat_product,
    bound_check,
    builtin_points,
    heat_kernel,
    heat_kernel_mass,
    kernel_independence,
    quadratic_form_heat,
)
from dunklpd.transform import forward, forward_grid, inverse
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
