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
from dunklpd.functions import SampledFunction, bessel_k_profile, gaussian, generalized_cauchy
from dunklpd.quadrature import QuadratureSpec
from dunklpd.kernel import kernel_1d, kernel_nd, kernel_real_1d
from dunklpd.posdef import (
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
    ],
    ids=["heat_kernel", "heat_kernel_numpy_t", "heat_kernel_mass"],
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
