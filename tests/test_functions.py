"""Function catalog, sampled handles, and CSV persistence."""

import math
import tracemalloc
from itertools import groupby, permutations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate
from scipy import special as sps

from dunklpd import ConfigurationError, DomainError, InputError, make_config
from dunklpd.posdef import bochner_certify, bound_check, builtin_points, gram
from dunklpd.quadrature import Grid, QuadratureSpec
from dunklpd.transform import catalog_partner, forward, spectral_density
from dunklpd.functions import (
    CatalogFunction,
    DensityProduct,
    SampledFunction,
    _bessel_k_profile_values,
    _mirror_half,
    _query_points,
    bessel_k_profile,
    evaluate_handle,
    gaussian,
    gaussian_density,
    generalized_cauchy,
    load_sampled_csv,
    sample_grid,
    sample_on_axes,
    sampled_to_csv,
    save_sampled_csv,
    tensor_axes,
    tensor_points,
    uniform_axes,
)


# (p, r, bessel_k_profile(p) at radius r) at d=1 kappa 1/2, so a = p - 1; 40-digit mpmath
_FROZEN_BESSEL_K_LARGE_P = [
    (100.0, 5e-7, 0.0050505050505050472841),
    (100.0, 2e-6, 0.0050505050505049989693),
    (100.0, 1e-3, 0.0050505050376211090663),
    (100.0, 0.05, 0.0050504728407551807132),
    (100.0, 0.1, 0.0050503762127507841265),
    (100.0, 1.0, 0.0050376376976641551945),
    (140.0, 5e-7, 0.0035971223021582717522),
    (140.0, 2e-6, 0.0035971223021582473152),
    (140.0, 1e-3, 0.0035971222956417474775),
    (140.0, 0.05, 0.0035971060108806599026),
    (140.0, 0.1, 0.0035970571374937461998),
    (140.0, 1.0, 0.0035906117183423513159),
]


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
        at_zero = float(f.evaluate(cfg_half, np.zeros(1)))
        near = f.evaluate(cfg_half, np.array([[1e-7], [1e-5], [1e-4]]))
        np.testing.assert_allclose(near, at_zero, rtol=1e-6)
        alpha = p - cfg_half.gamma - 0.5
        limit = 2.0 ** (alpha - 1.0) * math.gamma(alpha) / (math.gamma(p) * 2.0 ** (p - 1.0))
        np.testing.assert_allclose(at_zero, limit, rtol=1e-13)

    @pytest.mark.parametrize("p", [3.0, 2.7])  # alpha = 2 (an integer order) and 1.7
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

    def test_ladder_orders_match_mpmath(self):
        # at a >= 1 a multiple of 1/2 up to 8, r^a K_a(r) is the upward recurrence (_bessel_k_ladder):
        # against 20-digit mpmath on every 50th radius of geomspace(1e-6, 60, 2000) it is
        # within 1e-15 relative at every order, and no worse than r^a kv(a, r) on the same radii
        mpmath = pytest.importorskip("mpmath")
        config = make_config(1, [0.5])  # a = p - 1
        r = np.geomspace(1e-6, 60.0, 2000)[::50]
        worst = {"ladder": 0.0, "kv": 0.0}
        with mpmath.workdps(20):
            for alpha in np.arange(1.0, 8.5, 0.5):
                want = [mpmath.mpf(x) ** alpha * mpmath.besselk(alpha, x) for x in r]
                ladder = _bessel_k_profile_values(config, alpha + 1.0, r)
                for route, got in (("ladder", ladder), ("kv", r**alpha * sps.kv(alpha, r))):
                    err = max(float(abs(mpmath.mpf(float(g)) - w) / w) for g, w in zip(got, want))
                    worst[route] = max(worst[route], err)
        assert worst["ladder"] <= 1e-15 and worst["ladder"] <= worst["kv"], worst
        # below r = 1e-6 the profile is its limit 2^(a-1) Gamma(a)
        tiny = _bessel_k_profile_values(config, 5.0, np.array([0.0, 5e-7]))
        assert np.all(tiny == 2.0**3 * math.gamma(4.0))

    @pytest.mark.parametrize("kappa,p", [([0.3], 4.0), ([0.5], 10.0), ([0.5], 9.5)], ids=["a3.2", "a9", "a8.5"])
    def test_other_orders_stay_on_kv(self, kappa, p):
        # a fractional order (3.2, the kappa 0.3 config) and orders past the ladder bound
        # are r^a kv(a, r) bit for bit
        config = make_config(1, kappa)
        alpha = p - config.gamma - 0.5
        r = np.geomspace(1e-6, 60.0, 2000)
        assert alpha > 8.0 or not (2.0 * alpha).is_integer()
        assert _bessel_k_profile_values(config, p, r).tobytes() == (r**alpha * sps.kv(alpha, r)).tobytes()

    # at |x| = 1e200, r^2 overflows to inf; every member is at its limit 0 there, on both
    # routes.  The Bessel-K products are nan at r = inf, which once sent it to the
    # small-radius sum: its value at the origin at d=1, -inf at d=2.  Ladder orders
    # a = 2 and 3, and the kv order a = 3.2
    @pytest.mark.parametrize(
        "dim,kappa,p", [(1, [0.5], 3.0), (2, [1.0, 0.0], 5.0), (1, [0.3], 4.0)], ids=["a2", "a3", "a3.2-kv"]
    )
    @pytest.mark.filterwarnings("error")
    def test_every_member_vanishes_at_an_overflowing_radius(self, dim, kappa, p):
        # squaring 1e200 overflows to inf without a RuntimeWarning, on both routes
        config = make_config(dim, kappa)
        far = 1e200 * np.vstack([np.eye(dim), -np.eye(dim)])
        axis = np.array([-1e200, -1.0, 1.0, 1e200])  # mirrored: on_axes takes its orthant
        finite = np.ix_(*[[1, 2]] * dim)
        for f in (gaussian(1.0), gaussian_density(1.0), generalized_cauchy(p), bessel_k_profile(p)):
            at_points = f.evaluate(config, far)
            on_axes = f.on_axes(config, [axis] * dim)
            assert at_points.tolist() == [0.0] * (2 * dim), f
            assert np.all(on_axes[finite] > 0.0), f
            on_axes[finite] = 0.0
            assert np.all(on_axes == 0.0), f

    @pytest.mark.filterwarnings("error")
    def test_bessel_profile_stays_finite_near_the_origin_at_large_p(self):
        # r^a K_a(r) as a product is 0 * inf or inf there (a = 99 up to r = 0.05, a = 139 up to 0.1);
        # values that are finite as a product keep its bits
        config = make_config(1, [0.5])
        for p, cases in groupby(_FROZEN_BESSEL_K_LARGE_P, key=lambda case: case[0]):
            r, want = np.array([case[1:] for case in cases]).T
            got = bessel_k_profile(p).evaluate(config, r.reshape(-1, 1))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
            alpha = p - config.gamma - 0.5
            with np.errstate(all="ignore"):
                product = 1.0 / (sps.gamma(p) * 2.0 ** (p - 1.0)) * (r**alpha * sps.kv(alpha, r))
            kept = np.isfinite(product) & (r >= 1e-6)
            assert 0 < kept.sum() < len(r)
            assert got[kept].tobytes() == product[kept].tobytes()

    @pytest.mark.parametrize(
        "f",
        [gaussian_density(1e-200), bessel_k_profile(200.0), bessel_k_profile(1e300)],
        ids=["gd", "bk200", "bk1e300"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_overflowing_constant_is_a_configuration_error(self, f):
        # (2t)^-(gamma+d/2) overflows, Gamma(p) 2^(p-1) overflows: never OverflowError or nan
        config = make_config(3, [1.0, 0.5, 0.0])
        for call in (
            lambda: f.validate_for(config),
            lambda: f.evaluate(config, np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])),
            lambda: f.on_axes(config, uniform_axes(3, 1.0, 3)),
            lambda: spectral_density(config, None, catalog_partner(f)),
        ):
            with pytest.raises(ConfigurationError, match="finite positive"):
                call()

    @given(st.sampled_from(["gaussian", "gaussian_density"]), st.floats(0.1, 4.0))
    def test_radial_profiles_peak_at_origin(self, kind, t):
        cfg = make_config(1, [0.5])
        f = CatalogFunction(kind, t)
        pts = np.linspace(-4, 4, 41).reshape(-1, 1)
        vals = f.evaluate(cfg, pts)
        assert np.all(vals <= f.evaluate(cfg, np.zeros(1)) + 1e-15)
        assert np.all(vals > 0)

    def test_dimension_check(self, cfg_plane):
        with pytest.raises(InputError):
            gaussian(1.0).evaluate(cfg_plane, np.zeros((3, 1)))


class TestGridRoute:
    # not mirrored: each axis is squared whole, and the outer sum must still
    # equal the row sums of tensor_points bit for bit
    _AXES = {
        1: (np.array([-0.4, 0.1, 2.5]),),
        2: (np.array([-1.0, 0.3]), np.array([-2.0, 0.0, 0.5, 1.5, 3.0])),
        3: (np.array([0.0, 1.0, 2.0]), np.array([-1.0, 1.0]), np.array([-3.0, -1.0, 0.2, 0.7, 4.0])),
    }

    @staticmethod
    def _members(config):
        edge = config.gamma + config.dimension / 2.0 + 1.0
        return [gaussian(0.9), gaussian_density(1.4), generalized_cauchy(edge + 0.25), bessel_k_profile(edge + 1.0)]

    @pytest.mark.parametrize("dim,kappa", [(1, [0.5]), (2, [1.0, 0.0]), (3, [1.0, 0.5, 0.0])])
    def test_unmirrored_axes_equal_the_points_route(self, dim, kappa):
        config = make_config(dim, kappa)
        axes = self._AXES[dim]
        shape = tuple(len(a) for a in axes)
        for f in self._members(config):
            want = f.evaluate(config, tensor_points(axes)).reshape(shape)
            np.testing.assert_array_equal(f.on_axes(config, axes), want)
            np.testing.assert_array_equal(sample_grid(config, f, axes), want)
            np.testing.assert_array_equal(sample_on_axes(config, f, axes).values, want.astype(complex))

    def test_mixed_mirrored_and_unmirrored_axes(self, cfg_plane):
        axes = (np.array([-2.0, -0.5, 0.5, 2.0]), np.array([-1.0, 0.25, 3.0]))
        for f in self._members(cfg_plane):
            want = f.evaluate(cfg_plane, tensor_points(axes)).reshape(4, 3)
            np.testing.assert_array_equal(f.on_axes(cfg_plane, axes), want)

    def test_on_axes_checks_its_axes(self, cfg_plane):
        ax = np.array([-1.0, 1.0])
        with pytest.raises(InputError):
            gaussian(1.0).on_axes(cfg_plane, (ax,))
        with pytest.raises(InputError, match="finite"):
            gaussian(1.0).on_axes(cfg_plane, (ax, np.array([-np.inf, 0.0, np.inf])))

    def test_catalog_density_is_a_plain_callable(self, cfg_plane):
        density = spectral_density(cfg_plane, None, gaussian(1.0))
        partner = catalog_partner(gaussian(1.0))
        assert density == DensityProduct(cfg_plane, (partner,))
        one = density(np.array([0.3, -0.4]))
        assert one.shape == (1,)
        np.testing.assert_array_equal(one, partner.evaluate(cfg_plane, np.array([[0.3, -0.4]])))
        batch = np.array([[0.3, -0.4], [0.0, 0.0], [2.0, 1.0]])
        np.testing.assert_array_equal(density(batch), partner.evaluate(cfg_plane, batch))
        np.testing.assert_array_equal(evaluate_handle(cfg_plane, density, batch), density(batch))

    def test_catalog_spectral_density_is_the_one_factor_product(self):
        for config in (make_config(1, [0.5]), make_config(3, [1.0, 0.5, 0.0])):
            for f in TestGridRoute._members(config):
                assert spectral_density(config, None, f) == DensityProduct(config, (catalog_partner(f),))

    def test_sampled_handles_and_callables_take_the_points_route(self, cfg_half):
        axes = (np.linspace(-2.0, 2.0, 9),)
        sampled = sample_on_axes(cfg_half, lambda p: np.cos(p[:, 0]), axes)
        np.testing.assert_array_equal(sample_grid(cfg_half, sampled, axes), sampled.values)
        np.testing.assert_array_equal(sample_grid(cfg_half, lambda p: 2.0 * p[:, 0], axes), 2.0 * axes[0])

    def test_mirror_half(self):
        ax = np.array([-2.0, -0.5, 0.5, 2.0])
        assert _mirror_half(ax) == 2
        assert _mirror_half(np.append(ax[:-1], np.nextafter(2.0, 3.0))) == 0
        assert _mirror_half(np.array([-2.0, -0.5, 0.5, 2.5])) == 0
        assert _mirror_half(np.array([1.0])) == 0
        # odd: the centre must be exactly 0
        assert _mirror_half(np.array([-2.0, 0.0, 2.0])) == 1
        assert _mirror_half(np.array([-2.0, 1e-300, 2.0])) == 0
        assert _mirror_half(np.array([0.0])) == 0

    @pytest.mark.parametrize("count", range(2, 42))
    def test_uniform_axes_are_exactly_mirrored(self, count):
        (ax,) = uniform_axes(1, 2.7, count)
        np.testing.assert_array_equal(ax, -ax[::-1])
        assert _mirror_half(ax) == count // 2
        if count % 2:
            assert ax[count // 2] == 0.0
        assert ax[0] == -2.7 and ax[-1] == 2.7 and np.all(np.diff(ax) > 0)
        # linspace's own rounding is absolute, a few ulp of the extent
        assert np.max(np.abs(ax - np.linspace(-2.7, 2.7, count))) <= 2.0 * np.spacing(2.7)

    @pytest.mark.parametrize("dim,kappa,count", [(1, [0.5], 9), (2, [1.0, 0.0], 7), (3, [1.0, 0.5, 0.0], 5)])
    def test_odd_uniform_axes_evaluate_the_orthant(self, dim, kappa, count, monkeypatch):
        config = make_config(dim, kappa)
        axes = uniform_axes(dim, 3.0, count)
        sizes = []
        real = CatalogFunction.profile
        monkeypatch.setattr(CatalogFunction, "profile", lambda f, c, r2: sizes.append(np.size(r2)) or real(f, c, r2))
        for f in self._members(config):
            want = f.evaluate(config, tensor_points(axes)).reshape((count,) * dim)
            np.testing.assert_array_equal(sample_grid(config, f, axes), want)
        # count^d on the points route; on the grid route ceil(count / 2) nodes per axis, and at
        # d = 3 one node per orbit of the coordinate permutations on that orthant
        half = count // 2 + 1
        assert sizes == [count**dim, half**dim if dim < 3 else math.comb(half + 2, 3)] * 4

    def test_radius_squared_is_invariant_under_permuting_coordinates(self):
        # r^2 sums the coordinate squares in ascending order, so every order of the
        # coordinates gives the same bits: the orbit route at d = 3 rests on it
        config = make_config(3, [1.0, 0.5, 0.0])
        pts = np.random.default_rng(20).uniform(-3.0, 3.0, (400, 3))
        for f in self._members(config):
            want = f.evaluate(config, pts)
            for sigma in permutations(range(3)):
                np.testing.assert_array_equal(f.evaluate(config, pts[:, sigma]), want, err_msg=f"{f.kind} {sigma}")

    @pytest.mark.parametrize("nodes", [48, 96])
    def test_the_profile_takes_one_radius_per_orbit(self, nodes, monkeypatch):
        # at d = 3 on equal mirrored axes, C(n + 2, 3) radii for the n^3 orthant; on unequal
        # axes every orthant node, the product of the half lengths
        config = make_config(3, [1.0, 0.5, 0.0])
        axes = Grid(config, QuadratureSpec(10.0, nodes)).axes
        unequal = (axes[0], uniform_axes(1, 4.0, 9)[0], axes[2])
        sizes = []
        real = CatalogFunction.profile
        monkeypatch.setattr(CatalogFunction, "profile", lambda f, c, r2: sizes.append(np.size(r2)) or real(f, c, r2))
        for f in self._members(config):
            f.on_axes(config, axes)
            f.on_axes(config, unequal)
            f.on_axes(config, self._AXES[3])
        half = nodes // 2
        # (the middle axis of _AXES[3], [-1, 1], is mirrored: one node of it)
        assert sizes == [math.comb(half + 2, 3), half * 5 * half, 3 * 1 * 5] * 4


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
        with pytest.raises(InputError):
            fn.evaluate(cfg_plane, np.zeros((1, 2)))

    def test_evaluate_handle_accepts_callables(self, cfg_half):
        got = evaluate_handle(cfg_half, lambda p: p[:, 0] ** 2, np.array([[3.0]]))
        np.testing.assert_allclose(got, [9.0])
        with pytest.raises(InputError):
            evaluate_handle(cfg_half, 42, np.array([[0.0]]))

    # a raw callable returns one value per point; any other shape used to escape as
    # shape (3,) from evaluate_handle and as numpy's reshape ValueError from the operators
    @pytest.mark.parametrize("bad", [lambda p: np.ones(3), lambda p: np.ones((len(p), 2))], ids=["short", "wide"])
    def test_a_callable_of_the_wrong_shape_raises_input_error(self, cfg_half, bad):
        got = r"got \((3,|4, 2)\)"
        with pytest.raises(InputError, match=r"points of shape \(4, 1\) must return shape \(4,\), " + got):
            evaluate_handle(cfg_half, bad, np.zeros((4, 1)))
        spec = QuadratureSpec(6.0, 16)
        for call in (
            lambda: forward(cfg_half, spec, bad, [0.5]),
            lambda: gram(cfg_half, spec, bad, builtin_points(1, 2)),
            lambda: bound_check(cfg_half, spec, bad, [0.5]),
            lambda: bochner_certify(cfg_half, spec, bad),
        ):
            with pytest.raises(InputError, match=r"must return shape \(\d+,\), got \((3,|\d+, 2)\)"):
                call()


class TestTensorAxes:
    _AXES = {
        1: (np.array([-0.4, 0.1, 2.5]),),
        2: (np.array([-1.0, 0.3]), np.array([-2.0, 0.0, 0.5, 1.5])),
        3: (np.array([0.0, 1.0, 2.0]), np.array([-1.0, 1.0]), np.array([-3.0, -1.0, 0.2, 0.7, 4.0])),
    }

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_inverts_tensor_points(self, dim):
        axes = self._AXES[dim]
        got = tensor_axes(tensor_points(axes))
        assert got is not None and len(got) == dim
        for a, b in zip(got, axes):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_tensor_points_equals_the_stacked_meshgrid(self, dim):
        axes = self._AXES[dim]
        mesh = np.meshgrid(*axes, indexing="ij")
        want = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        got = tensor_points(axes)
        assert got.shape == want.shape and got.dtype == want.dtype and got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_other_point_sets_are_not_grids(self, dim):
        pts = tensor_points(self._AXES[dim])
        swapped = pts.copy()
        swapped[[0, 1]] = swapped[[1, 0]]
        assert tensor_axes(swapped) is None
        assert tensor_axes(pts[::-1]) is None
        assert tensor_axes(builtin_points(dim, 5).points) is None
        # at d = 1 any ascending list is a grid, so a removed node leaves one
        assert (tensor_axes(np.delete(pts, 1, axis=0)) is None) == (dim > 1)

    # grids of several blocks of whole slabs (at most functions._CHECK_ROWS rows), the last one partial
    _BLOCKED = {2: (200, 300), 3: (4, 70, 70)}

    @pytest.mark.parametrize("dim", [2, 3])
    def test_a_changed_node_or_swapped_slabs_are_not_a_grid(self, dim):
        rng = np.random.default_rng(dim)
        axes = tuple(np.sort(rng.normal(size=n)) for n in self._BLOCKED[dim])
        pts = tensor_points(axes)
        assert tensor_axes(pts) is not None
        slab = len(pts) // len(axes[0])
        for row in (slab // 2, len(pts) - slab // 2):  # inside the first and the last slab
            for col in range(dim):
                nudged = pts.copy()
                nudged[row, col] = np.nextafter(nudged[row, col], np.inf)
                assert tensor_axes(nudged) is None, (row, col)
        for i, j in ((0, 1), (len(axes[0]) - 2, len(axes[0]) - 1)):
            swapped = pts.reshape(len(axes[0]), slab, dim).copy()
            swapped[[i, j]] = swapped[[j, i]]
            assert tensor_axes(swapped.reshape(-1, dim)) is None, (i, j)


def _sorted_tensor_axes(points):
    """The sorting definition of tensor_axes: np.unique of each column, then
    the exact C-order check; the oracle for the linear-time scan."""
    axes = tuple(np.unique(col) for col in points.T)
    shape = tuple(len(a) for a in axes)
    if len(points) == 0 or math.prod(shape) != len(points):
        return None
    for i, a in enumerate(axes):
        if np.any(points[:, i].reshape(shape) != a.reshape((-1,) + (1,) * (len(axes) - i - 1))):
            return None
    return axes


def _tensor_axes_cases():
    grids = {
        1: [(np.array([0.3]),), (np.array([-0.4, 0.1, 2.5]),)],
        2: [
            (np.array([-1.0, 0.3]), np.array([-2.0, 0.0, 0.5, 1.5])),
            (np.array([0.7]), np.array([-1.0, 1.0, 2.0])),
            (np.array([-1.0, 1.0, 2.0]), np.array([0.7])),
        ],
        3: [
            (np.array([0.0, 1.0, 2.0]), np.array([-1.0, 1.0]), np.array([-3.0, -1.0, 0.2, 0.7, 4.0])),
            (np.array([0.5]), np.array([-1.0, 1.0]), np.array([0.25])),
            (np.array([-2.0, 2.0]), np.array([3.0]), np.array([-1.0, 0.0, 1.0])),
            (np.array([1.0]), np.array([2.0]), np.array([3.0])),
        ],
    }
    for dim, axes_list in grids.items():
        for n, axes in enumerate(axes_list):
            pts = tensor_points(axes)
            yield f"d{dim}-{n}-grid", pts
            yield f"d{dim}-{n}-reversed", pts[::-1]
            if len(pts) > 1:
                swapped = pts.copy()
                swapped[[0, -1]] = swapped[[-1, 0]]
                yield f"d{dim}-{n}-swapped", swapped
                yield f"d{dim}-{n}-removed", np.delete(pts, len(pts) // 2, axis=0)
            yield f"d{dim}-{n}-duplicated", np.insert(pts, 1, pts[0], axis=0)
            yield f"d{dim}-{n}-doubled", np.concatenate([pts, pts])
            for row in (0, len(pts) - 1):
                nudged = pts.copy()
                nudged[row, -1] = np.nextafter(nudged[row, -1], np.inf)
                yield f"d{dim}-{n}-nudged-last-{row}", nudged
                nudged = pts.copy()
                nudged[row, 0] = np.nextafter(nudged[row, 0], -np.inf)
                yield f"d{dim}-{n}-nudged-first-{row}", nudged
        yield f"d{dim}-empty", np.empty((0, dim))


_TENSOR_AXES_CASES = dict(_tensor_axes_cases())


@pytest.mark.parametrize("case", sorted(_TENSOR_AXES_CASES))
def test_tensor_axes_matches_the_sorting_definition(case):
    points = _TENSOR_AXES_CASES[case]
    want = _sorted_tensor_axes(points)
    got = tensor_axes(points)
    if want is None:
        assert got is None
    else:
        assert got is not None and len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


class TestQueryPoints:
    # rows at stride 0 (np.broadcast_to) are one row in memory, so the
    # finiteness check reads that row alone, with the verdict of every row
    @pytest.mark.parametrize("dim", [2, 3])
    def test_broadcast_rows_are_checked_at_the_cost_of_one_row(self, dim):
        config = make_config(dim, [0.5] * dim)
        block = np.broadcast_to(np.linspace(-1.0, 1.0, dim), (10**6, dim))
        tracemalloc.start()
        try:
            pts, single = _query_points(config, block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6, f"checking one broadcast row allocated {peak} bytes"
        assert pts.shape == block.shape and not single and np.shares_memory(pts, block)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_broadcast_non_finite_row_raises(self, bad):
        row = np.array([0.2, bad, -0.4])
        with pytest.raises(InputError, match="finite"):
            _query_points(make_config(3, [1.0, 0.5, 0.0]), np.broadcast_to(row, (10**6, 3)))


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

    def test_full_text(self):
        # 17 significant digits keep the sign of zero and every bit of a double
        fn = SampledFunction((np.array([-0.0, 0.1, 2.0]),), np.array([0.1 + 0.0j, -0.0 - 2.5j, 1e300 + 1j / 3]))
        assert sampled_to_csv(fn) == (
            "x1,re,im\n"
            "-0,0.10000000000000001,0\n"
            "0.10000000000000001,-0,-2.5\n"
            "2,1.0000000000000001e+300,0.33333333333333331\n"
        )

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

        # four rows, as many as a 2x2 grid, but (0,0) twice and (1,0) missing
        duplicate = tmp_path / "e.csv"
        duplicate.write_text("x1,x2,re,im\n0,0,1,0\n0,0,2,0\n0,1,3,0\n1,1,4,0\n")
        with pytest.raises(InputError, match="full tensor grid"):
            load_sampled_csv(str(duplicate))

        no_coordinates = tmp_path / "f.csv"
        no_coordinates.write_text("re,im\n1,0\n")
        with pytest.raises(InputError, match="header"):
            load_sampled_csv(str(no_coordinates))

        empty = tmp_path / "d.csv"
        empty.write_text("")
        with pytest.raises(InputError):
            load_sampled_csv(str(empty))

    def test_uniform_axes_validation(self):
        for count in (1, 2.5, np.nan, np.inf):  # linspace would truncate 2.5 to 2 nodes
            with pytest.raises(InputError):
                uniform_axes(1, 1.0, count)
        np.testing.assert_array_equal(uniform_axes(1, 2.0, 3.0)[0], [-2.0, 0.0, 2.0])

    @pytest.mark.parametrize("extent", [np.nan, np.inf, -np.inf, 0.0, -2.0, None, "abc"])
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
