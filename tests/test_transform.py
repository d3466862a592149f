"""Forward/inverse integral transform: frozen values, pairs, duality."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dunklpd import AccuracyWarning, InputError, NotInCatalogError, make_config
from dunklpd.functions import (
    gaussian,
    gaussian_density,
    generalized_cauchy,
    bessel_k_profile,
    evaluate_handle,
    uniform_axes,
)
from dunklpd.posdef import builtin_points, closure_suite, quadratic_form_heat
from dunklpd.quadrature import QuadratureSpec
from dunklpd.transform import (
    catalog_partner,
    closed_form_transform,
    forward,
    forward_grid,
    inverse,
    numeric_density,
    plancherel_duality,
    spectral_density,
    tabulated_density,
    weighted_norm,
)
from dunklpd.translation import convolve, convolve_direct, convolve_grid, translate


class TestFrozenValues:
    def test_free_gaussian_at_a_point(self, cfg_free):
        # classical normalized Fourier transform of exp(-x^2/2) is itself;
        # value frozen at xi = 1.3
        got = forward(cfg_free, None, gaussian(0.5), np.array([1.3]))
        np.testing.assert_allclose(got, math.exp(-0.845), rtol=1e-9)
        np.testing.assert_allclose(got, 0.42955735821073915, rtol=1e-9)

    def test_forward_of_even_function_is_real(self, cfg_half):
        vals = forward(cfg_half, None, gaussian(1.0), np.linspace(-2, 2, 7).reshape(-1, 1))
        assert np.max(np.abs(vals.imag)) < 1e-12


class TestCatalogPairs:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_gaussian_pair_all_multiplicities(self, t):
        for kappa in ([0.0], [0.5], [2.0]):
            cfg = make_config(1, kappa)
            probes = np.linspace(-2.4, 2.4, 9).reshape(-1, 1)
            got = forward(cfg, None, gaussian(t), probes)
            want = evaluate_handle(cfg, gaussian_density(t), probes)
            np.testing.assert_allclose(got.real, want, rtol=1e-7)

    def test_cauchy_pair(self, cfg_half):
        p = 4.0
        probes = np.array([[0.5], [1.0], [2.0]])
        got = forward(cfg_half, QuadratureSpec(40.0, 384), generalized_cauchy(p), probes)
        want = evaluate_handle(cfg_half, bessel_k_profile(p), probes)
        np.testing.assert_allclose(got.real, want, rtol=1e-6)

    def test_partner_mapping(self):
        assert catalog_partner(gaussian(2.0)) == gaussian_density(2.0)
        assert catalog_partner(gaussian_density(2.0)) == gaussian(2.0)
        assert catalog_partner(generalized_cauchy(3.0)) == bessel_k_profile(3.0)
        assert catalog_partner(bessel_k_profile(3.0)) == generalized_cauchy(3.0)

    def test_closed_form_transform_rejects_noncatalog(self, cfg_half):
        with pytest.raises(NotInCatalogError):
            closed_form_transform(cfg_half, lambda p: p[:, 0])


class TestInversion:
    def test_round_trip_at_probes(self, cfg_half):
        spec = QuadratureSpec(16.0, 256)
        probes = np.linspace(-1.8, 1.8, 7).reshape(-1, 1)
        den = tabulated_density(cfg_half, spec, gaussian(1.0))
        back = inverse(cfg_half, spec, den, probes)
        want = evaluate_handle(cfg_half, gaussian(1.0), probes)
        np.testing.assert_allclose(back.real, want, rtol=1e-9, atol=1e-12)
        assert np.max(np.abs(back.imag)) < 1e-12

    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def test_linearity(self, a, b):
        cfg = make_config(1, [0.5])
        spec = QuadratureSpec(10.0, 96)
        xi = np.array([[0.7]])
        f = lambda p: np.exp(-p[:, 0] ** 2)
        g = lambda p: np.exp(-2.0 * p[:, 0] ** 2)
        combo = lambda p: a * f(p) + b * g(p)
        lhs = forward(cfg, spec, combo, xi)
        rhs = a * forward(cfg, spec, f, xi) + b * forward(cfg, spec, g, xi)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestGridTransform:
    def test_matches_pointwise_transform(self, cfg_plane):
        axes = uniform_axes(2, 2.0, 5)
        grid_vals = forward_grid(cfg_plane, None, gaussian(1.0), axes)
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        pointwise = forward(cfg_plane, None, gaussian(1.0), pts)
        np.testing.assert_allclose(grid_vals.values.reshape(-1), pointwise, rtol=1e-12, atol=1e-13)

    def test_carries_spectral_hint(self, cfg_half):
        out = forward_grid(cfg_half, None, gaussian(1.0), uniform_axes(1, 3.0, 9))
        assert out.spectral_hint is not None
        probe = np.array([[0.4]])
        np.testing.assert_allclose(
            out.spectral_hint(probe), evaluate_handle(cfg_half, gaussian(1.0), probe), rtol=1e-12
        )

    def test_underresolved_grid_warns(self, cfg_half):
        with pytest.warns(AccuracyWarning):
            forward_grid(
                cfg_half,
                QuadratureSpec(16.0, 8),
                gaussian(0.02),
                uniform_axes(1, 4.0, 5),
            )


_COARSE = QuadratureSpec(16.0, 16)
_G = gaussian(1.0)

# every operator that warns through transform._checked; at d=1 kappa=0.3
# on 16 nodes each one's n/2n check moves its result by 5e-4 or more
_CHECKED_OPERATORS = {
    "forward": lambda c: forward(c, _COARSE, _G, [0.5]),
    "inverse": lambda c: inverse(c, _COARSE, _G, [0.5]),
    "forward_grid": lambda c: forward_grid(c, _COARSE, _G),
    "translate": lambda c: translate(c, _COARSE, _G, [0.3], [0.5]),
    "convolve": lambda c: convolve(c, _COARSE, _G, _G, [0.5]),
    "convolve_direct": lambda c: convolve_direct(c, _COARSE, _G, _G, [0.5]),
    "quadratic_form_heat": lambda c: quadratic_form_heat(
        c, _COARSE, _G, builtin_points(1, 3, coefficients=[1.0, -1.0, 0.5]), 0.1
    ),
}


@pytest.mark.parametrize("name", sorted(_CHECKED_OPERATORS))
def test_accuracy_warning_points_at_the_caller(name):
    with pytest.warns(AccuracyWarning) as record:
        _CHECKED_OPERATORS[name](make_config(1, [0.3]))
    assert [w.filename for w in record] == [__file__]


# package functions that reach _checked through another package function
# (inverse reads the lazy density's forward transforms through Grid.sample);
# their warnings must skip the package frames too
_NESTED_CALLERS = {
    "tabulated_density": lambda c: inverse(c, _COARSE, tabulated_density(c, _COARSE, _G), [0.5]),
    "convolve_grid": lambda c: convolve_grid(c, _COARSE, _G, _G),
    "closure_suite": lambda c: closure_suite(c, _COARSE, _G, gaussian(2.0)),
}


@pytest.mark.parametrize("name", sorted(_NESTED_CALLERS))
def test_nested_accuracy_warning_points_at_the_caller(name):
    with pytest.warns(AccuracyWarning) as record:
        _NESTED_CALLERS[name](make_config(1, [0.3]))
    assert {w.filename for w in record} == {__file__}


class TestDensities:
    def test_exact_partner_used_for_catalog(self, cfg_half):
        den = spectral_density(cfg_half, None, gaussian(1.0))
        pts = np.array([[0.3], [1.1]])
        np.testing.assert_allclose(
            den(pts), evaluate_handle(cfg_half, gaussian_density(1.0), pts), rtol=1e-13
        )

    def test_numeric_density_matches_exact_partner(self, cfg_half):
        f = lambda p: np.exp(-p[:, 0] ** 2)
        den = numeric_density(cfg_half, None, f)
        pts = np.array([[0.0], [0.9], [2.2]])
        want = evaluate_handle(cfg_half, gaussian_density(1.0), pts)
        np.testing.assert_allclose(np.asarray(den(pts)).real, want, rtol=1e-9)

    @pytest.mark.filterwarnings("ignore::dunklpd.AccuracyWarning")
    def test_tabulated_density_falls_back_off_grid(self, cfg_half):
        # the density read off the integration grids
        spec = QuadratureSpec(10.0, 64)
        f = lambda p: np.exp(-p[:, 0] ** 2)
        den = tabulated_density(cfg_half, spec, f)
        off = np.array([[0.123], [1.456]])
        want = evaluate_handle(cfg_half, gaussian_density(1.0), off)
        np.testing.assert_allclose(np.asarray(den(off)).real, want, rtol=1e-8)


class TestPlancherel:
    def test_norm_preserved(self, cfg_half):
        f = gaussian(1.0)
        n_f = weighted_norm(cfg_half, None, f)
        n_hat = weighted_norm(cfg_half, None, gaussian_density(1.0))
        np.testing.assert_allclose(n_f, n_hat, rtol=1e-10)

    @pytest.mark.parametrize("p", [0.5, math.inf, -math.inf, math.nan])
    def test_norm_order_must_be_finite_and_at_least_one(self, cfg_half, p):
        with pytest.raises(InputError, match="finite and >= 1"):
            weighted_norm(cfg_half, None, gaussian(1.0), p)

    def test_duality_report(self, cfg_half):
        rep = plancherel_duality(cfg_half, None, gaussian(1.0), gaussian(2.0))
        assert rep.passed
        assert rep.abs_error <= rep.tolerance or rep.rel_error <= rep.tolerance
