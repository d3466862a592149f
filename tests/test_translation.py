"""Generalized shift and convolution: reductions, symmetry, mass."""

import re
import warnings

import numpy as np
import pytest

from dunklpd import AccuracyWarning, DomainError, InputError, make_config
from dunklpd.functions import (
    evaluate_handle,
    gaussian,
    gaussian_density,
    generalized_cauchy,
    sample_on_axes,
    uniform_axes,
)
from dunklpd.quadrature import Grid, QuadratureSpec, Summand
from dunklpd.transform import spectral_density
from dunklpd.translation import _translate_at, convolve, convolve_direct, convolve_grid, translate, translate_mass


class TestTranslate:
    def test_zero_shift_is_identity(self, cfg_half):
        probes = np.linspace(-2.0, 2.0, 9).reshape(-1, 1)
        got = translate(cfg_half, None, gaussian(1.0), np.array([0.0]), probes)
        want = evaluate_handle(cfg_half, gaussian(1.0), probes)
        np.testing.assert_allclose(got.real, want, rtol=1e-10, atol=1e-12)
        assert np.max(np.abs(got.imag)) < 1e-12

    def test_free_case_reduces_to_ordinary_shift(self, cfg_free):
        y = np.array([0.7])
        probes = np.linspace(-2.0, 2.0, 9).reshape(-1, 1)
        got = translate(cfg_free, None, gaussian(1.0), y, probes)
        want = np.exp(-((probes[:, 0] - 0.7) ** 2))
        np.testing.assert_allclose(got.real, want, rtol=1e-9, atol=1e-11)

    def test_point_symmetry_for_radial_functions(self, cfg_half):
        x = np.array([[1.1]])
        y = np.array([0.6])
        a = translate(cfg_half, None, gaussian(1.0), y, x)
        b = translate(cfg_half, None, gaussian(1.0), np.array([1.1]), np.array([[0.6]]))
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_translated_density_stays_nonnegative(self, cfg_half):
        # shifts of the exact transform of a gaussian must not dip negative
        probes = np.linspace(-4.0, 4.0, 33).reshape(-1, 1)
        got = translate(cfg_half, None, gaussian_density(1.0), np.array([0.8]), probes)
        assert float(np.min(got.real)) > -1e-10
        assert np.max(np.abs(got.imag)) < 1e-10


    def test_shift_is_exactly_one_point(self, cfg_plane):
        # the shift goes through the package's point check: a column (d, 1) is d points of R^1, not one of R^d
        f, x = gaussian(1.0), np.array([[0.3, -0.2]])
        want = translate(cfg_plane, None, f, [0.5, 0.2], x)
        assert translate(cfg_plane, None, f, [[0.5, 0.2]], x) == want
        for bad in ([[0.5], [0.2]], [[0.5, 0.2], [0.1, 0.0]], [0.5], [0.5, np.nan]):
            with pytest.raises(InputError):
                translate(cfg_plane, None, f, bad, x)
            with pytest.raises(InputError):
                translate_mass(cfg_plane, None, f, bad)

class TestMass:
    def test_mass_preserved_under_shift(self, cfg_half):
        rep = translate_mass(cfg_half, None, gaussian_density(1.0), np.array([0.8]))
        assert rep.passed
        assert "shift" in rep.notes

    def test_wide_outer_box_for_slow_decay(self, cfg_half):
        rep = translate_mass(
            cfg_half,
            QuadratureSpec(16.0, 384),
            generalized_cauchy(4.0),
            np.array([0.5]),
            tolerance=1e-5,
            outer=QuadratureSpec(30.0, 256),
        )
        assert rep.passed

    def test_rejects_signed_functions(self, cfg_half):
        wiggle = sample_on_axes(
            cfg_half, lambda p: np.sin(3.0 * p[:, 0]), uniform_axes(1, 4.0, 61)
        )
        with pytest.raises(DomainError):
            translate_mass(cfg_half, None, wiggle, np.array([0.5]))

    @pytest.mark.parametrize("s", [1e-13, 1.0, 1e9])
    def test_nonnegativity_check_ignores_the_input_scale(self, cfg_half, s):
        # s (sin(r^2) - 0.05) e^(-r^2) dips to -0.05 s at every s
        axes = uniform_axes(1, 8.0, 161)
        r2 = lambda p: p[:, 0] ** 2
        dip = sample_on_axes(cfg_half, lambda p: s * (np.sin(r2(p)) - 0.05) * np.exp(-r2(p)), axes)
        with pytest.raises(DomainError):
            translate_mass(cfg_half, None, dip, np.array([0.5]))
        bump = sample_on_axes(cfg_half, lambda p: s * np.exp(-r2(p)), axes)
        assert translate_mass(cfg_half, None, bump, np.array([0.5])).passed

    def test_rejects_raw_callables(self, cfg_half):
        with pytest.raises(DomainError):
            translate_mass(cfg_half, None, lambda p: np.exp(-p[:, 0] ** 2), np.array([0.5]))

    # translate_mass folds the position sum always and the spectral sum for a
    # catalog input; here both are written out unfolded: the translate by y at
    # every outer node, the complex sum over every spectral node, integrated
    # against the outer weights, on the fine pass's grids
    @pytest.mark.parametrize(
        "dim,kappa,sampled",
        [(1, [0.5], False), (1, [0.3], False), (2, [1.0, 0.0], False), (1, [0.5], True)],
    )
    def test_folded_mass_matches_the_unfolded_double_sum(self, dim, kappa, sampled, monkeypatch):
        config = make_config(dim, kappa)
        spec, outer = QuadratureSpec(8.0, 24), QuadratureSpec(10.0, 16)
        f = gaussian_density(1.0)
        if sampled:
            f = sample_on_axes(config, gaussian(1.0), uniform_axes(dim, 6.0, 41))
        y = np.full(dim, 0.7 / np.sqrt(dim))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyWarning)
            density = spectral_density(config, spec, f)
            folds, real = [], Grid.summand

            def summand(grid, fn):
                out = real(grid, fn)
                folds.append(out.folded)
                return out

            monkeypatch.setattr(Grid, "summand", summand)
            rep = translate_mass(config, spec, f, y, outer=outer)
        assert folds[-2:] == [not sampled] * 2  # the coarse and the fine pass
        gi, go = Grid(config, spec.doubled()), Grid(config, outer.doubled())
        unfolded = Summand(gi.axes, gi.sample(density) * gi.weight_grid(), False)
        rows = _translate_at(gi, unfolded, y[None], go.points())[0]
        want = go.integrate(rows)
        assert abs(complex(rep.computed) - want) <= 1e-13 * abs(want)

    # the suites' mass report at its default box passes on its value, but its
    # own n/2n check does not back the pass: the 96- and 48-node spectral grids
    # are too coarse for the phases of the shift (with the inner nodes doubled
    # the deltas are 3.9e-12 and 9.9e-11)
    @pytest.mark.parametrize(
        "dim,kappa",
        [
            pytest.param(dim, kappa, marks=pytest.mark.xfail(strict=True, reason=f"measured resolution delta {delta} against 1e-6"))
            for dim, kappa, delta in ((2, [1.0, 0.0], "4.29e-6"), (3, [1.0, 0.5, 0.0], "5.05e-2"))
        ],
    )
    def test_default_box_backs_the_mass_report(self, dim, kappa):
        config = make_config(dim, kappa)
        rep = translate_mass(config, None, gaussian_density(1.0), np.full(dim, 0.8 / np.sqrt(dim)))
        delta = float(re.search(r"resolution delta (\S+)", rep.notes).group(1))
        assert delta <= rep.tolerance


class TestConvolution:
    def test_commutative(self, cfg_half):
        x = np.array([[0.4], [1.2]])
        fg = convolve(cfg_half, None, gaussian(1.0), gaussian(2.0), x)
        gf = convolve(cfg_half, None, gaussian(2.0), gaussian(1.0), x)
        np.testing.assert_allclose(fg, gf, rtol=1e-12)

    def test_direct_route_matches_spectral_route(self, cfg_half):
        # independent double-quadrature evaluation of the same convolution
        spec = QuadratureSpec(12.0, 96)
        x = np.array([[0.5]])
        spectral = convolve(cfg_half, spec, gaussian(1.0), gaussian(1.0), x)
        direct = convolve_direct(cfg_half, spec, gaussian(1.0), gaussian(1.0), x)
        np.testing.assert_allclose(direct, spectral, rtol=1e-6)

    def test_free_case_is_classical_convolution(self, cfg_free):
        # normalized gaussian convolution: widths add in the density scale
        t1, t2 = 0.5, 1.5
        x = np.array([[0.9]])
        got = convolve(cfg_free, None, gaussian_density(t1), gaussian_density(t2), x)
        want = evaluate_handle(cfg_free, gaussian_density(t1 + t2), x)
        np.testing.assert_allclose(got.real, want, rtol=1e-9)

    @pytest.mark.filterwarnings("ignore::dunklpd.AccuracyWarning")
    def test_grid_convolution_carries_product_hint(self, cfg_half):
        # coarse spec keeps this cheap; only the hint payload is under test
        out = convolve_grid(cfg_half, QuadratureSpec(10.0, 48), gaussian(1.0), gaussian(1.0))
        assert out.spectral_hint is not None
        pts = np.array([[0.3], [1.7]])
        d1 = evaluate_handle(cfg_half, gaussian_density(1.0), pts)
        np.testing.assert_allclose(out.spectral_hint(pts), d1 * d1, rtol=1e-12)

    @pytest.mark.filterwarnings("ignore::dunklpd.AccuracyWarning")
    @pytest.mark.parametrize("dim, kappa", [(1, [0.5]), (2, [1.0, 0.0])])
    def test_grid_convolution_is_convolve_on_the_nodes(self, dim, kappa):
        # the grid transform and the scattered sum at every node are two
        # routes to the same numbers; only the summation order differs
        config = make_config(dim, kappa)
        spec = QuadratureSpec(6.0, 16)
        f, g = gaussian(1.0), gaussian_density(2.0)
        out = convolve_grid(config, spec, f, g)
        grid = Grid(config, spec)
        assert out.values.shape == grid.shape
        want = convolve(config, spec, f, g, grid.points())
        np.testing.assert_allclose(out.values.ravel(), want, rtol=1e-13)
        probes = grid.points()[::7]
        df = evaluate_handle(config, gaussian_density(1.0), probes)
        dg = evaluate_handle(config, gaussian(2.0), probes)
        np.testing.assert_array_equal(out.spectral_hint(probes), df * dg)
