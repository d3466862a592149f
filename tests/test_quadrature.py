"""Weighted tensor quadrature: exactness, defaults, and the two-pass check."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dunklpd import ConfigurationError, make_config
from dunklpd.quadrature import Grid, QuadratureSpec, default_spec, integrate_with_check, two_pass


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
        np.testing.assert_allclose(axis, -axis[::-1], atol=1e-15)
        assert axis.min() > -5.0 and axis.max() < 5.0

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
    def test_runs_spec_then_doubled_and_returns_fine(self):
        calls = []

        def run(sp):
            calls.append(sp.nodes_per_axis)
            return float(sp.nodes_per_axis)

        fine, delta = two_pass(run, QuadratureSpec(4.0, 16))
        assert calls == [16, 32]
        assert fine == 32.0 and delta == 16.0

    def test_tuple_result(self):
        fine, delta = two_pass(lambda sp: (1.0 / sp.nodes_per_axis, 2.0 + 1j), QuadratureSpec(4.0, 8))
        assert fine == (1.0 / 16, 2.0 + 1j)
        assert delta == pytest.approx(1.0 / 8 - 1.0 / 16, rel=1e-15)

    def test_doubles_every_spec_together(self):
        seen = []

        def run(inner, outer):
            seen.append((inner.nodes_per_axis, outer.nodes_per_axis, outer.radius))
            return inner.nodes_per_axis + outer.nodes_per_axis

        fine, delta = two_pass(run, QuadratureSpec(4.0, 8), QuadratureSpec(9.0, 12))
        assert seen == [(8, 12, 9.0), (16, 24, 9.0)]
        assert fine == 40 and delta == 20.0

    def test_empty_result_has_zero_delta(self):
        fine, delta = two_pass(lambda sp: np.empty(0, dtype=complex), QuadratureSpec(4.0, 8))
        assert fine.size == 0
        assert delta == 0.0 and isinstance(delta, float)

    def test_delta_is_largest_entrywise_change(self):
        coarse = np.array([[1.0, 2.0], [3.0, 4.0]])
        fine = np.array([[1.5, 2.0], [3.0, 4.0 - 3.0j]])
        got, delta = two_pass(lambda sp: fine if sp.nodes_per_axis == 16 else coarse, QuadratureSpec(4.0, 8))
        assert got is fine
        assert delta == 3.0
