"""Weighted tensor quadrature: exactness, defaults, and the two-pass check."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dunklpd import ConfigurationError, functions, make_config, quadrature
from dunklpd.functions import (
    CatalogFunction,
    DensityProduct,
    bessel_k_profile,
    evaluate_handle,
    gaussian,
    gaussian_density,
    generalized_cauchy,
)
from dunklpd.quadrature import Grid, QuadratureSpec, default_spec, integrate_with_check, two_pass
from dunklpd.transform import catalog_partner, spectral_density


class TestSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            QuadratureSpec(-1.0, 64)
        with pytest.raises(ConfigurationError):
            QuadratureSpec(float("inf"), 64)
        with pytest.raises(ConfigurationError):
            QuadratureSpec(10.0, 4)
        with pytest.raises(ConfigurationError):
            QuadratureSpec(10.0, 64.0)
        with pytest.raises(ConfigurationError):
            QuadratureSpec(10.0, 65)  # every axis is mirrored: an even count

    def test_doubled(self):
        spec = QuadratureSpec(8.0, 48)
        assert spec.doubled() == QuadratureSpec(8.0, 96)

    def test_defaults_cover_supported_dimensions(self):
        for d in (1, 2, 3):
            spec = default_spec(d)
            assert spec.radius > 0 and spec.nodes_per_axis >= 48
        with pytest.raises(ConfigurationError):
            default_spec(4)


class TestGrid:
    def test_axes_are_symmetric_and_sorted(self):
        grid = Grid(make_config(1, [0.5]), QuadratureSpec(5.0, 32))
        (axis,) = grid.axes
        assert np.all(np.diff(axis) > 0)
        # exactly: transform._axis_matrices builds phases on the mirrored half only
        np.testing.assert_array_equal(axis, -axis[::-1])
        assert axis.min() > -5.0 and axis.max() < 5.0

    @pytest.mark.parametrize("radius,nodes", [(16.0, 256), (10.0, 96), (5.0, 10), (40.0, 768)])
    def test_zero_multiplicity_axis_keeps_the_rule_weights(self, radius, nodes):
        # |y|^0 is exactly 1, the origin included, so a kappa = 0 axis carries the bare rule weights
        grid = Grid(make_config(2, [0.0, 1.0]), QuadratureSpec(radius, nodes))
        _, weights = quadrature._axis_rule(radius, nodes)
        assert grid.axis_weights[0].tobytes() == weights.tobytes()
        assert grid.axis_weights[0].flags.writeable

    def test_legendre_rule_is_solved_once_per_half_panel_size(self, monkeypatch):
        calls = []
        real = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: calls.append(n) or real(n))
        quadrature._unit_rule.cache_clear()
        quadrature._axis_rule.cache_clear()
        rules = {radius: quadrature._axis_rule(radius, 96) for radius in (10.0, 12.0)}
        assert calls == [48]
        x, w = real(48)
        for radius, (nodes, weights) in rules.items():
            half = radius / 2.0
            np.testing.assert_array_equal(nodes, np.concatenate([(x - 1.0) * half, (x + 1.0) * half]))
            np.testing.assert_array_equal(weights, np.concatenate([w * half, w * half]))
            assert not nodes.flags.writeable and not weights.flags.writeable

    def test_points_order_matches_weight_grid(self):
        cfg = make_config(2, [1.0, 0.0])
        grid = Grid(cfg, QuadratureSpec(3.0, 16))
        pts = grid.points()
        assert pts.shape == (16 * 16, 2)
        w = grid.weight_grid()
        assert w.shape == (16, 16)

    def test_monomial_exactness_with_weight(self):
        # int_{-R}^{R} |x|^(2k) x^(2m) dx = 2 R^(2k+2m+1) / (2k+2m+1); the
        # origin-split rule must integrate this to near machine precision
        R = 3.0
        for kappa in (0.5, 1.0, 2.5):
            cfg = make_config(1, [kappa])
            grid = Grid(cfg, QuadratureSpec(R, 48))
            for m in (0, 1, 4):
                vals = grid.points()[:, 0] ** (2 * m)
                closed = 2.0 * R ** (2 * kappa + 2 * m + 1) / (2 * kappa + 2 * m + 1)
                np.testing.assert_allclose(grid.integrate(vals), closed, rtol=1e-13)

    @given(st.sampled_from([0.0, 0.5, 1.5]), st.integers(0, 3))
    def test_odd_integrands_vanish(self, kappa, m):
        cfg = make_config(1, [kappa])
        grid = Grid(cfg, QuadratureSpec(4.0, 32))
        vals = grid.points()[:, 0] ** (2 * m + 1)
        assert abs(grid.integrate(vals)) < 1e-12 * (1 + 4.0 ** (2 * m + 2))

    def test_weighted_gaussian_mass_matches_normalizer(self):
        # int h^2 exp(-|x|^2/2) dx is exactly 1/mehta
        for d, kappa in ((1, [0.5]), (1, [2.0]), (2, [1.0, 0.0])):
            cfg = make_config(d, kappa)
            grid = Grid(cfg, default_spec(d))
            pts = grid.points()
            vals = np.exp(-0.5 * np.sum(pts * pts, axis=1))
            np.testing.assert_allclose(grid.integrate(vals), 1.0 / cfg.mehta, rtol=1e-12)

    def test_complex_values_integrate_to_complex(self):
        cfg = make_config(1, [0.0])
        grid = Grid(cfg, QuadratureSpec(6.0, 64))
        x = grid.points()[:, 0]
        got = grid.integrate(np.exp(-x * x) * (1.0 + 2.0j))
        assert isinstance(got, complex)
        np.testing.assert_allclose(got, math.sqrt(math.pi) * (1.0 + 2.0j), rtol=1e-12)


_SAMPLING_CONFIGS = [(1, [0.5]), (2, [1.0, 0.0]), (3, [1.0, 0.5, 0.0])]


def _catalog(config):
    """One member of each kind, at admissible parameters for config."""
    edge = config.gamma + config.dimension / 2.0 + 1.0
    return [gaussian(1.3), gaussian_density(0.7), generalized_cauchy(edge + 0.5), bessel_k_profile(edge + 0.5)]


def _sampling_axes(config, nodes):
    """The axes of Grid(config, QuadratureSpec(5.0, nodes)) at an even count; at an
    odd count the axes of the nodes + 1 rule less their first node, which are not
    mirrored, so sample_grid's route for unmirrored axes stays covered."""
    axis = quadrature._axis_rule(5.0, nodes + nodes % 2)[0][nodes % 2 :]
    assert functions._mirror_half(axis) == (0 if nodes % 2 else nodes // 2)
    return (axis,) * config.dimension


class TestGridSampling:
    # catalog handles sample from the axis squares on the nonnegative orthant;
    # that route must equal evaluating every node of the tensor grid, bit for bit
    # at d = 3 the realistic sizes take the orbit route: the 48- and 96-node grids and the
    # certification mesh, whose odd axes hold an exact 0
    @pytest.mark.parametrize("dim,kappa", _SAMPLING_CONFIGS)
    @pytest.mark.parametrize("nodes", [8, 9, 16, 17, 48, 96, "certification_mesh"])
    def test_catalog_sample_equals_the_points_route(self, dim, kappa, nodes):
        config = make_config(dim, kappa)
        if nodes == "certification_mesh":
            axes = functions.uniform_axes(dim, *quadrature._RESOLUTION[nodes][dim])
        else:
            axes = _sampling_axes(config, nodes)
        shape = (len(axes[0]),) * dim
        for f in _catalog(config):
            got = functions.sample_grid(config, f, axes)
            want = evaluate_handle(config, f, functions.tensor_points(axes)).reshape(shape)
            assert got.shape == shape and got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dim,kappa", _SAMPLING_CONFIGS)
    @pytest.mark.parametrize("nodes", [8, 9])
    def test_catalog_density_sample_equals_the_points_route(self, dim, kappa, nodes):
        config = make_config(dim, kappa)
        axes = _sampling_axes(config, nodes)
        pts = functions.tensor_points(axes)
        grid = Grid(config, QuadratureSpec(5.0, nodes + nodes % 2))
        for f in _catalog(config):
            density = spectral_density(config, None, f)
            assert isinstance(density, DensityProduct) and density.factors == (catalog_partner(f),)
            got = functions.sample_grid(config, density, axes)
            np.testing.assert_array_equal(got, density(pts).reshape(got.shape))
            # the folded summand is the orthant of the weighted sample, doubled once per axis, bit for bit
            orthant = (slice(grid.shape[0] // 2, None),) * dim
            summand = grid.summand(density)
            assert summand.folded and all(a is b for a, b in zip(summand.axes, grid.half_axes))
            dense = 2.0**dim * (grid.sample(density) * grid.weight_grid())[orthant]
            assert (summand.axis_vw is not None) == (f.kind in (functions.GAUSSIAN, functions.GAUSSIAN_DENSITY))
            if summand.axis_vw is None:
                np.testing.assert_array_equal(summand.vw, dense)
            elif dim == 1:
                assert summand.vw is None
                np.testing.assert_array_equal(summand.axis_vw[0], dense)
            else:
                # the Gaussians' factors: exp(-s) turns the rounding of its argument s
                # into a relative error near s eps / 2, and s reaches 52 here (gaussian(0.7)
                # at |x|^2 = 75); the worst difference measured is 24.9 eps, at d=3
                outer = functools.reduce(np.multiply.outer, summand.axis_vw)
                np.testing.assert_allclose(outer, dense, rtol=32 * np.finfo(float).eps, atol=0.0)

    @pytest.mark.parametrize("dim,kappa", _SAMPLING_CONFIGS)
    def test_catalog_sampling_builds_no_points(self, dim, kappa, monkeypatch):
        config = make_config(dim, kappa)
        grid = Grid(config, QuadratureSpec(5.0, 16))
        sizes = []
        real = CatalogFunction.profile
        monkeypatch.setattr(CatalogFunction, "profile", lambda f, c, r2: sizes.append(np.size(r2)) or real(f, c, r2))

        def refuse(*args):
            raise AssertionError("catalog sampling built an (N, d) point array")

        monkeypatch.setattr(functions, "tensor_points", refuse)
        monkeypatch.setattr(Grid, "points", refuse)
        for f in _catalog(config):
            grid.sample(f)
        grid.sample(spectral_density(config, None, gaussian(1.0)))
        # the nonnegative half of each mirrored 16-node axis, prod ceil(n_i / 2) nodes, and at
        # d = 3 one node per orbit of the coordinate permutations there, C(8 + 2, 3)
        assert sizes == [8**dim if dim < 3 else math.comb(8 + 2, 3)] * 5

    def test_config_checks_hold_on_the_grid_route(self):
        config = make_config(2, [1.0, 0.0])  # gamma + d/2 + 1 = 3
        grid = Grid(config, QuadratureSpec(5.0, 8))
        with pytest.raises(ConfigurationError):
            grid.sample(generalized_cauchy(3.0))
        with pytest.raises(ConfigurationError):
            grid.summand(bessel_k_profile(2.9))

    @pytest.mark.parametrize("dim,kappa", _SAMPLING_CONFIGS)
    @pytest.mark.parametrize("nodes", [8, 9])
    def test_density_product_sample_equals_the_points_route(self, dim, kappa, nodes):
        config = make_config(dim, kappa)
        axes = _sampling_axes(config, nodes)
        shape = (len(axes[0]),) * dim
        rho = spectral_density(config, None, gaussian(0.7))
        hinted = replace(functions.sample_on_axes(config, gaussian(1.3), axes), spectral_hint=rho)
        products = [
            DensityProduct(config, (rho, spectral_density(config, None, gaussian_density(0.4)))),
            DensityProduct(config, (gaussian(0.3), gaussian(1.1))),
            DensityProduct(config, (rho, spectral_density(config, None, hinted))),
            DensityProduct(config, (spectral_density(config, None, hinted), rho)),
            DensityProduct(config, (rho, gaussian(2.0 * 0.05))),  # the heat-damped density
        ]
        pts = functions.tensor_points(axes)
        for product in products:
            want = product(pts).reshape(shape)
            got = functions.sample_grid(config, product, axes)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        # the damping factor as a catalog Gaussian is the exp(-2t|xi|^2) it replaces
        # (|xi|^2 the squares summed in ascending order, the r^2 of every catalog handle)
        r2 = functools.reduce(np.add, np.sort(pts * pts, axis=-1).T)
        assert np.array_equal(products[-1](pts), rho(pts) * np.exp(-2.0 * 0.05 * r2))

    def test_density_product_of_catalog_factors_builds_no_points(self, monkeypatch):
        config = make_config(3, [1.0, 0.5, 0.0])
        grid = Grid(config, QuadratureSpec(5.0, 8))

        def refuse(*args):
            raise AssertionError("catalog product sampling built an (N, d) point array")

        product = DensityProduct(config, (gaussian(0.3), gaussian_density(1.1)))
        want = product(grid.points()).reshape(grid.shape)
        monkeypatch.setattr(functions, "tensor_points", refuse)
        monkeypatch.setattr(Grid, "points", refuse)
        assert np.array_equal(grid.sample(product), want)

    def test_raw_callables_stay_on_the_points_route(self):
        config = make_config(2, [1.0, 0.0])
        grid = Grid(config, QuadratureSpec(5.0, 8))
        seen = []
        got = grid.sample(lambda p: seen.append(p.shape) or p[:, 0] - 2.0 * p[:, 1])
        assert seen == [(64, 2)]
        pts = grid.points()
        np.testing.assert_array_equal(got, (pts[:, 0] - 2.0 * pts[:, 1]).reshape(8, 8))


class TestTwoPassCheck:
    def test_smooth_integrand_reports_tiny_delta(self):
        cfg = make_config(1, [1.0])
        value, delta = integrate_with_check(
            cfg, QuadratureSpec(12.0, 64), lambda p: np.exp(-0.5 * np.sum(p * p, axis=1))
        )
        np.testing.assert_allclose(value, 1.0 / cfg.mehta, rtol=1e-12)
        assert delta < 1e-12 * abs(value)

    def test_underresolved_integrand_reports_large_delta(self):
        cfg = make_config(1, [0.0])
        _, delta = integrate_with_check(
            cfg, QuadratureSpec(12.0, 8), lambda p: np.cos(37.0 * p[:, 0]) * np.exp(-p[:, 0] ** 2)
        )
        assert delta > 1e-3


class TestTwoPass:
    CFG = make_config(2, [0.5, 1.0])

    def test_runs_spec_then_doubled_and_returns_fine(self):
        calls = []

        def run(grid):
            assert isinstance(grid, Grid) and grid.config is self.CFG
            calls.append((grid.spec, grid.shape))
            return float(grid.spec.nodes_per_axis)

        fine, delta = two_pass(run, self.CFG, QuadratureSpec(4.0, 16))
        assert calls == [(QuadratureSpec(4.0, 16), (16, 16)), (QuadratureSpec(4.0, 32), (32, 32))]
        assert fine == 32.0 and delta == 16.0

    def test_tuple_result(self):
        run = lambda grid: (1.0 / grid.spec.nodes_per_axis, 2.0 + 1j)
        fine, delta = two_pass(run, self.CFG, QuadratureSpec(4.0, 8))
        assert fine == (1.0 / 16, 2.0 + 1j)
        assert delta == pytest.approx(1.0 / 8 - 1.0 / 16, rel=1e-15)

    def test_doubles_every_spec_together(self):
        seen = []

        def run(inner, outer):
            assert all(isinstance(g, Grid) and g.config is self.CFG for g in (inner, outer))
            seen.append((inner.spec.nodes_per_axis, outer.spec.nodes_per_axis, outer.spec.radius))
            return inner.spec.nodes_per_axis + outer.spec.nodes_per_axis

        fine, delta = two_pass(run, self.CFG, QuadratureSpec(4.0, 8), QuadratureSpec(9.0, 12))
        assert seen == [(8, 12, 9.0), (16, 24, 9.0)]
        assert fine == 40 and delta == 20.0

    def test_empty_result_has_zero_delta(self):
        fine, delta = two_pass(lambda grid: np.empty(0, dtype=complex), self.CFG, QuadratureSpec(4.0, 8))
        assert fine.size == 0
        assert delta == 0.0 and isinstance(delta, float)

    def test_delta_is_largest_entrywise_change(self):
        coarse = np.array([[1.0, 2.0], [3.0, 4.0]])
        fine = np.array([[1.5, 2.0], [3.0, 4.0 - 3.0j]])
        run = lambda grid: fine if grid.spec.nodes_per_axis == 16 else coarse
        got, delta = two_pass(run, self.CFG, QuadratureSpec(4.0, 8))
        assert got is fine
        assert delta == 3.0
