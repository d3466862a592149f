"""Function catalog, sampled handles, and CSV persistence."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from dunklpd import ConfigurationError, DomainError, InputError, make_config
from dunklpd.functions import (
    CatalogFunction,
    SampledFunction,
    _bessel_k_profile_values,
    bessel_k_profile,
    evaluate_handle,
    gaussian,
    gaussian_density,
    generalized_cauchy,
    load_sampled_csv,
    sample_on_axes,
    sampled_to_csv,
    save_sampled_csv,
    uniform_axes,
)


def _bessel_k(alpha, x):
    # independent oracle: K_a(x) = int_0^inf exp(-x cosh t) cosh(a t) dt; for
    # the x >= 0.5 used here the integrand underflows to 0 well before t = 40
    val, _ = integrate.quad(lambda t: math.exp(-x * math.cosh(t)) * math.cosh(alpha * t), 0.0, 40.0)
    return val


class TestCatalog:
    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            gaussian(0.0)
        with pytest.raises(ConfigurationError):
            generalized_cauchy(-3.0)
        with pytest.raises(ConfigurationError):
            CatalogFunction("sinc", 1.0)
        with pytest.raises(ConfigurationError):
            gaussian(float("nan"))

    def test_config_dependent_validation(self, cfg_plane):
        # gamma + d/2 + 1 = 3 for this config
        with pytest.raises(ConfigurationError):
            generalized_cauchy(3.0).validate_for(cfg_plane)
        generalized_cauchy(3.5).validate_for(cfg_plane)
        with pytest.raises(ConfigurationError):
            bessel_k_profile(2.9).validate_for(cfg_plane)
        bessel_k_profile(3.0).validate_for(cfg_plane)

    def test_gaussian_values(self, cfg_half, rng):
        pts = rng.normal(size=(30, 1))
        np.testing.assert_allclose(
            gaussian(1.5).evaluate(cfg_half, pts), np.exp(-1.5 * pts[:, 0] ** 2), rtol=1e-14
        )

    def test_gaussian_density_normalization_exponent(self, cfg_plane):
        # prefactor (2t)^-(gamma + d/2) with the squared norm in the exponent
        t = 0.8
        val = gaussian_density(t).evaluate(cfg_plane, np.array([[0.3, -0.4]]))[0]
        expected = (2 * t) ** -(cfg_plane.gamma + 1.0) * math.exp(-0.25 / (4 * t))
        np.testing.assert_allclose(val, expected, rtol=1e-14)

    def test_cauchy_values(self, cfg_half, rng):
        pts = rng.normal(size=(20, 1))
        np.testing.assert_allclose(
            generalized_cauchy(4.0).evaluate(cfg_half, pts),
            (1.0 + pts[:, 0] ** 2) ** -4.0,
            rtol=1e-14,
        )

    def test_bessel_profile_matches_special_function(self, cfg_half):
        p = 3.0
        alpha = p - cfg_half.gamma - 0.5  # = 2 here
        r = np.array([0.5, 1.0, 2.5])
        expected = [x**alpha * _bessel_k(alpha, x) / (math.gamma(p) * 2.0 ** (p - 1.0)) for x in r]
        got = bessel_k_profile(p).evaluate(cfg_half, r.reshape(-1, 1))
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_bessel_profile_continuous_at_origin(self, cfg_half):
        p = 3.0
        f = bessel_k_profile(p)
        at_zero = f.value_at_zero(cfg_half)
        near = f.evaluate(cfg_half, np.array([[1e-7], [1e-5], [1e-4]]))
        np.testing.assert_allclose(near, at_zero, rtol=1e-6)
        alpha = p - cfg_half.gamma - 0.5
        limit = 2.0 ** (alpha - 1.0) * math.gamma(alpha) / (math.gamma(p) * 2.0 ** (p - 1.0))
        np.testing.assert_allclose(at_zero, limit, rtol=1e-13)

    @pytest.mark.parametrize("p", [3.0, 2.7])  # alpha = 2 (kn) and 1.7 (kv)
    def test_bessel_profile_per_distinct_radius_matches_elementwise(self, cfg_half, p, rng):
        # the profile is evaluated once per distinct radius and gathered back;
        # that must equal evaluating each radius alone, bit for bit
        base = np.concatenate((rng.uniform(0.0, 12.0, 40), [0.0, 5e-7, 1e-6, 3.0]))
        r = rng.permutation(np.concatenate((base, base[::3], [0.0, 0.0, 3.0])))
        alone = np.concatenate([_bessel_k_profile_values(cfg_half, p, np.array([v])) for v in r])
        got = _bessel_k_profile_values(cfg_half, p, r)
        assert got.shape == r.shape and got.tobytes() == alone.tobytes()
        square = _bessel_k_profile_values(cfg_half, p, r[:40].reshape(5, 8))
        assert square.shape == (5, 8)
        assert square.tobytes() == alone[:40].tobytes()
        point = _bessel_k_profile_values(cfg_half, p, np.asarray(r[5]))
        assert point.shape == () and point.tobytes() == alone[5].tobytes()
        # signed zeros reach the profile through r = sqrt(r^2) at the origin
        pts = np.array([[0.0], [-0.0], [1.5], [-1.5]])
        via_points = bessel_k_profile(p).evaluate(cfg_half, pts)
        assert via_points[0] == via_points[1] and via_points[2] == via_points[3]

    @given(st.sampled_from(["gaussian", "gaussian_density"]), st.floats(0.1, 4.0))
    def test_radial_profiles_peak_at_origin(self, kind, t):
        cfg = make_config(1, [0.5])
        f = CatalogFunction(kind, t)
        pts = np.linspace(-4, 4, 41).reshape(-1, 1)
        vals = f.evaluate(cfg, pts)
        assert np.all(vals <= f.value_at_zero(cfg) + 1e-15)
        assert np.all(vals > 0)

    def test_dimension_check(self, cfg_plane):
        with pytest.raises(DomainError):
            gaussian(1.0).evaluate(cfg_plane, np.zeros((3, 1)))


class TestSampledFunction:
    def test_shape_validation(self):
        ax = np.linspace(-1, 1, 5)
        with pytest.raises(InputError):
            SampledFunction((ax,), np.zeros(4))
        with pytest.raises(InputError):
            SampledFunction((ax[::-1],), np.zeros(5))
        with pytest.raises(InputError):
            SampledFunction((), np.zeros(()))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_axes_must_be_finite(self, bad):
        with pytest.raises(InputError):
            SampledFunction((np.array([-1.0, 0.0, bad]),), np.zeros(3))
        with pytest.raises(InputError):
            SampledFunction((np.full(3, bad),), np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_values_must_be_finite(self, cfg_half, bad):
        ax = np.linspace(-4.0, 4.0, 41)
        values = np.exp(-ax * ax).astype(complex)
        values[17] = bad
        with pytest.raises(InputError, match="finite"):
            SampledFunction((ax,), values)
        with pytest.raises(InputError, match="finite"):
            sample_on_axes(cfg_half, lambda p: np.where(p[:, 0] == ax[17], bad, 1.0), (ax,))

    def test_exact_at_nodes_zero_outside(self, cfg_half):
        axes = uniform_axes(1, 2.0, 21)
        fn = sample_on_axes(cfg_half, gaussian(1.0), axes)
        at_nodes = fn.evaluate(cfg_half, axes[0].reshape(-1, 1))
        np.testing.assert_allclose(at_nodes, np.exp(-axes[0] ** 2), rtol=1e-14)
        outside = fn.evaluate(cfg_half, np.array([[2.5], [-3.0]]))
        np.testing.assert_array_equal(outside, 0.0)

    def test_interpolation_is_multilinear(self, cfg_plane):
        axes = uniform_axes(2, 1.0, 3)
        plane = lambda p: 2.0 + 3.0 * p[:, 0] - p[:, 1]
        fn = sample_on_axes(cfg_plane, plane, axes)
        probe = np.array([[0.37, -0.21], [0.9, 0.9]])
        np.testing.assert_allclose(fn.evaluate(cfg_plane, probe), plane(probe), rtol=1e-13)

    def test_dimension_mismatch(self, cfg_half, cfg_plane):
        fn = sample_on_axes(cfg_half, gaussian(1.0), uniform_axes(1, 2.0, 9))
        with pytest.raises(DomainError):
            fn.evaluate(cfg_plane, np.zeros((1, 2)))

    def test_evaluate_handle_accepts_callables(self, cfg_half):
        got = evaluate_handle(cfg_half, lambda p: p[:, 0] ** 2, np.array([[3.0]]))
        np.testing.assert_allclose(got, [9.0])
        with pytest.raises(InputError):
            evaluate_handle(cfg_half, 42, np.array([[0.0]]))


class TestCsv:
    def test_round_trip_preserves_values(self, cfg_plane, tmp_path):
        axes = uniform_axes(2, 1.5, 7)
        fn = sample_on_axes(cfg_plane, lambda p: np.exp(-np.sum(p * p, 1)) * (1 + 0.5j), axes)
        path = tmp_path / "sampled.csv"
        save_sampled_csv(fn, str(path))
        back = load_sampled_csv(str(path))
        assert back.dimension == 2
        np.testing.assert_array_equal(back.values, fn.values)
        for a, b in zip(back.axes, fn.axes):
            np.testing.assert_array_equal(a, b)

    def test_header_format(self, cfg_half):
        fn = sample_on_axes(cfg_half, gaussian(1.0), uniform_axes(1, 1.0, 3))
        text = sampled_to_csv(fn)
        assert text.splitlines()[0] == "x1,re,im"

    def test_load_rejects_bad_inputs(self, tmp_path):
        bad_header = tmp_path / "a.csv"
        bad_header.write_text("a,b,c\n0,0,0\n")
        with pytest.raises(InputError):
            load_sampled_csv(str(bad_header))

        ragged = tmp_path / "b.csv"
        ragged.write_text("x1,re,im\n0.0,1.0\n")
        with pytest.raises(InputError):
            load_sampled_csv(str(ragged))

        holes = tmp_path / "c.csv"
        holes.write_text("x1,x2,re,im\n0,0,1,0\n0,1,1,0\n1,0,1,0\n")
        with pytest.raises(InputError):
            load_sampled_csv(str(holes))

        empty = tmp_path / "d.csv"
        empty.write_text("")
        with pytest.raises(InputError):
            load_sampled_csv(str(empty))

    def test_uniform_axes_validation(self):
        with pytest.raises(InputError):
            uniform_axes(1, 1.0, 1)

    @pytest.mark.parametrize("extent", [np.nan, np.inf, -np.inf, 0.0, -2.0])
    def test_uniform_axes_rejects_bad_extent(self, extent):
        with pytest.raises(InputError):
            uniform_axes(1, extent, 5)

    @pytest.mark.parametrize(
        "row", ["nan,1.0,0", "inf,1.0,0", "0.5,nan,0", "0.5,1.0,-inf"], ids=["x-nan", "x-inf", "re-nan", "im-inf"]
    )
    def test_load_rejects_non_finite_fields(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"x1,re,im\n-1.0,0.5,0\n0.0,1.0,0\n{row}\n")
        with pytest.raises(InputError, match="finite"):
            load_sampled_csv(str(path))
