"""Positive-definiteness machinery: Gram verdicts, certificates, heat kernel."""

import math

import numpy as np
import pytest

from dunklpd import DomainError, InputError, functions, make_config, posdef
from dunklpd.functions import gaussian, gaussian_density, generalized_cauchy, bessel_k_profile
from dunklpd.identities import _indefinite_profile, cauchy_exponent
from dunklpd.posdef import (
    PointSet,
    bessel_integral_identity,
    bochner_certify,
    bochner_forward,
    bound_check,
    builtin_points,
    gram,
    heat_kernel,
    heat_kernel_mass,
    kernel_independence,
    quadratic_form,
    quadratic_form_heat,
    strict_pd_certify,
)
from dunklpd.quadrature import Grid, QuadratureSpec, integrate_with_check
from dunklpd.translation import translate


class TestPointSets:
    def test_builtin_sizes_and_coefficients(self):
        for n in (2, 5, 8):
            ps = builtin_points(1, n)
            assert ps.size == n and ps.points.shape == (n, 1)
        ps = builtin_points(2, 3, coefficients=np.array([1.0, 2.0, -1.0]))
        assert ps.coefficients is not None

    def test_point_set_validation(self):
        with pytest.raises(InputError):
            PointSet(np.array([[0.0], [1.0]]), coefficients=np.array([1.0]))
        with pytest.raises(InputError):
            PointSet(np.array([[0.5], [0.5]]))
        with pytest.raises(InputError):
            PointSet(np.array([[0.0], [1.0]]), coefficients=np.array([0.0, 0.0]))

    # the conversion of the one point check (root_system._real_points), so no
    # bare TypeError or ValueError escapes
    @pytest.mark.parametrize(
        "points,match",
        [([[1 + 1j], [0.0]], "got complex values"), ([["a"], [1.0]], "could not convert"), (None, "got None")],
        ids=["complex", "string", "none"],
    )
    @pytest.mark.filterwarnings("error")
    def test_point_set_rejects_what_is_not_real(self, points, match):
        with pytest.raises(InputError, match=match):
            PointSet(points)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_point_set_rejects_non_finite(self, bad):
        with pytest.raises(InputError, match="finite"):
            PointSet(np.array([[0.0], [bad]]))
        with pytest.raises(InputError, match="finite"):
            PointSet(np.array([[0.0, 1.0], [1.0, bad]]))
        with pytest.raises(InputError, match="finite"):
            PointSet(np.array([[0.0], [1.0]]), coefficients=np.array([1.0, bad]))


class TestGram:
    def test_gaussian_gram_is_spd(self, cfg_half):
        rep = gram(cfg_half, None, gaussian(1.0), builtin_points(1, 5))
        assert rep.psd and rep.spd
        assert rep.hermitian_residual < 1e-12
        assert rep.min_eigenvalue > 0

    def test_cauchy_gram_is_spd(self, cfg_plane):
        rep = gram(cfg_plane, None, generalized_cauchy(4.0), builtin_points(2, 4))
        assert rep.psd and rep.spd

    def test_indefinite_profile_fails_psd(self, cfg_half):
        rep = gram(cfg_half, None, _indefinite_profile(cfg_half), builtin_points(1, 4))
        assert not rep.psd
        # the most negative eigenvalue is pinned by regression
        np.testing.assert_allclose(rep.min_eigenvalue, -0.2638571255, rtol=1e-5)

    def test_nan_profile_raises_input_error(self, cfg_half):
        nan_phi = lambda p: np.full(len(p), np.nan)
        with pytest.raises(InputError, match="non-finite"):
            gram(cfg_half, None, nan_phi, PointSet([[0.3], [1.0]]))

    def test_quadratic_form_needs_coefficients(self, cfg_half):
        with pytest.raises(InputError):
            quadratic_form(cfg_half, None, gaussian(1.0), builtin_points(1, 3))

    def test_quadratic_form_nonnegative_for_pd_function(self, cfg_half, rng):
        coeff = rng.normal(size=4) + 1j * rng.normal(size=4)
        pts = builtin_points(1, 4, coefficients=coeff)
        val = quadratic_form(cfg_half, None, gaussian(1.0), pts)
        assert abs(val.imag) < 1e-10
        assert val.real > 0

    @pytest.mark.parametrize("dim, kappa, columns", [(1, [0.5], 2), (2, [1.0, 0.0], 1)])
    def test_point_dimension_must_match_config(self, dim, kappa, columns):
        config = make_config(dim, kappa)
        pts = PointSet(np.arange(3.0 * columns).reshape(3, columns), coefficients=[1.0, -1.0, 0.5])
        with pytest.raises(InputError, match="expected points in R\\^"):
            gram(config, None, gaussian(1.0), pts)
        with pytest.raises(InputError, match="expected points in R\\^"):
            quadratic_form(config, None, gaussian(1.0), pts)
        with pytest.raises(InputError, match="expected points in R\\^"):
            quadratic_form_heat(config, None, gaussian(1.0), pts, 0.1)


class TestClosure:
    def test_rejects_non_catalog_input_before_computing(self, cfg_half, monkeypatch):
        def no_gram(*args):
            raise AssertionError("closure_suite built a Gram matrix before validating its inputs")

        monkeypatch.setattr(posdef, "_gram_from_density", no_gram)
        with pytest.raises(DomainError, match="catalog"):
            posdef.closure_suite(cfg_half, None, gaussian(1.0), lambda p: np.exp(-np.sum(p * p, axis=1)))


class TestBochnerCertificates:
    def test_accepts_catalog_pd_functions(self, cfg_half):
        for phi in (gaussian(1.0), generalized_cauchy(4.0)):
            assert bochner_certify(cfg_half, None, phi).passed

    def test_rejects_indefinite_profile_with_location(self, cfg_half):
        rep = bochner_certify(cfg_half, None, _indefinite_profile(cfg_half))
        assert not rep.passed
        # frozen dip: minimum near -5.1965e-2 at xi = -3.55
        np.testing.assert_allclose(rep.computed, 0.051964989312446044, rtol=1e-6)
        assert "-3.55" in rep.notes

    def test_forward_route_demands_nonnegative_input(self, cfg_half):
        with pytest.raises(InputError):
            bochner_forward(cfg_half, None, _indefinite_profile(cfg_half))

    @pytest.mark.parametrize("s", [1e-13, 1.0, 1e9])
    def test_forward_route_input_check_ignores_the_input_scale(self, cfg_half, s):
        # s (sin(r^2) - 0.05) e^(-r^2) dips to -0.05 s at every s
        r2 = lambda p: np.sum(p * p, axis=-1)
        with pytest.raises(InputError):
            bochner_forward(cfg_half, None, lambda p: s * (np.sin(r2(p)) - 0.05) * np.exp(-r2(p)))
        bochner_forward(cfg_half, None, lambda p: s * np.exp(-r2(p)))

    def test_forward_route_returns_exact_partner(self, cfg_half):
        out = bochner_forward(cfg_half, None, gaussian_density(1.0))
        assert out == gaussian(1.0)

    def test_strict_certificate_samples_the_transform_once(self, cfg_plane, monkeypatch):
        # the peak is read from the samples behind the nonnegativity report
        calls = []
        real = posdef.sample_grid
        monkeypatch.setattr(posdef, "sample_grid", lambda *a: calls.append(a) or real(*a))
        rep = strict_pd_certify(cfg_plane, None, gaussian(1.0))
        assert rep.passed and len(calls) == 1

    # builtin_points(d, n) leads builtin_points(d, 8), so by Cauchy interlacing the
    # one n = 8 Gram matrix gives the floor and tolerance of the probes at 3, 5 and 8
    @pytest.mark.parametrize("kind", ["gaussian", "generalized_cauchy"])
    @pytest.mark.parametrize("dim,kappa", [(1, [0.5]), (2, [1.0, 0.0])])
    def test_strict_certificate_reads_one_gram_matrix_that_covers_the_smaller_sets(
        self, dim, kappa, kind, monkeypatch
    ):
        config = make_config(dim, kappa)
        phi = gaussian(1.0) if kind == "gaussian" else generalized_cauchy(cauchy_exponent(config))
        reps = [gram(config, None, phi, builtin_points(dim, n)) for n in (3, 5, 8)]
        sizes = []
        monkeypatch.setattr(posdef, "gram", lambda c, q, f, pts: sizes.append(pts.size) or gram(c, q, f, pts))
        rep = strict_pd_certify(config, None, phi)
        assert sizes == [8]
        assert rep.computed == pytest.approx(max(0.0, max(-r.min_eigenvalue for r in reps)), rel=1e-15, abs=0.0)
        assert rep.tolerance == pytest.approx(max(r.tolerance for r in reps), rel=1e-15, abs=0.0)
        lo, hi = min(r.min_eigenvalue for r in reps), max(r.max_eigenvalue for r in reps)
        assert f"n=8: [{lo:.3e}, {hi:.3e}]" in rep.notes

    def test_strict_certificate(self, cfg_half):
        rep = strict_pd_certify(cfg_half, None, gaussian(1.0))
        assert rep.passed
        with pytest.raises(InputError):
            strict_pd_certify(cfg_half, None, _indefinite_profile(cfg_half))

    @pytest.mark.parametrize("s", [1e-12, 1e-9, 1.0, 1e9])
    def test_strict_certificate_ignores_the_input_scale(self, cfg_half, s):
        assert strict_pd_certify(cfg_half, None, lambda p: s * np.exp(-np.sum(p * p, axis=-1))).passed

    def test_strict_certificate_refuses_the_zero_function(self, cfg_half):
        with pytest.raises(InputError, match="numerically zero"):
            strict_pd_certify(cfg_half, None, lambda p: np.zeros(len(p)))


class TestPhaseIndependence:
    PROBES = np.linspace(-4.0, 4.0, 64).reshape(-1, 1)

    def test_distinct_points_give_wellseparated_singular_value(self, cfg_half):
        sigma = kernel_independence(cfg_half, np.array([[0.0], [1.0], [2.0]]), self.PROBES)
        np.testing.assert_allclose(sigma, 3.658781518851778, rtol=1e-9)
        assert sigma > 1e-3

    def test_duplicate_points_collapse(self, cfg_half):
        xs = np.array([[0.0], [1.0], [1.0]])
        with pytest.raises(InputError):
            kernel_independence(cfg_half, xs, self.PROBES)
        sigma = kernel_independence(cfg_half, xs, self.PROBES, enforce_distinct=False)
        assert sigma <= 1e-12

    def test_needs_enough_probes(self, cfg_half):
        with pytest.raises(InputError):
            kernel_independence(cfg_half, np.zeros((3, 1)), np.zeros((2, 1)))


class TestStructuralBounds:
    def test_translate_diagonal_bounds(self, cfg_half, rng):
        xs = rng.uniform(-3.0, 3.0, size=(12, 1))
        rep = bound_check(cfg_half, None, gaussian(1.0), xs)
        assert rep.passed

    def test_verdict_does_not_change_when_phi_is_rescaled(self, cfg_half):
        # the excess scales with phi, and so must the tolerance: 1e-8 |phi(0)|
        xs = builtin_points(1, 7).points
        reports = {}
        for s in (1e-6, 1.0, 1e3, 1e6, 1e9):
            reports[s] = bound_check(cfg_half, None, lambda p, s=s: s * np.exp(-np.sum(p * p, axis=-1)), xs)
        assert all(rep.passed for rep in reports.values())
        unit = reports[1.0].computed
        assert unit > 0.0
        for s, rep in reports.items():
            assert rep.tolerance == 1e-8 * s
            np.testing.assert_allclose(rep.computed / s, unit, rtol=0.25)

    def test_nan_profile_fails(self, cfg_half):
        rep = bound_check(cfg_half, None, lambda p: np.full(len(p), np.nan), [[0.3], [1.0]])
        assert not rep.passed and np.isnan(rep.computed)

    def test_diagonal_is_one_phase_build_per_pass(self, cfg_plane, rng, monkeypatch):
        xs = rng.uniform(-2.5, 2.5, size=(50, 2))
        builds, results = [], []
        real_build, real_two_pass = posdef._axis_matrices, posdef.two_pass
        monkeypatch.setattr(posdef, "_axis_matrices", lambda *a: builds.append(a) or real_build(*a))
        monkeypatch.setattr(posdef, "two_pass", lambda *a: results.append(real_two_pass(*a)) or results[-1])
        bound_check(cfg_plane, None, gaussian(1.0), xs)
        assert len(builds) == 2
        (diag, _), = results
        want = [translate(cfg_plane, None, gaussian(1.0), x, x) for x in xs]
        np.testing.assert_allclose(diag, want, rtol=1e-12)


class TestHeatKernel:
    def test_symmetry_and_positivity(self, cfg_half, rng):
        for _ in range(20):
            t = float(rng.uniform(0.05, 3.0))
            x = rng.uniform(-3, 3, size=1)
            y = rng.uniform(-3, 3, size=1)
            v = heat_kernel(cfg_half, t, x, y)
            w = heat_kernel(cfg_half, t, y, x)
            assert v >= 0.0
            np.testing.assert_allclose(v, w, rtol=1e-12)

    def test_free_case_is_classical(self, cfg_free, rng):
        for _ in range(10):
            t = float(rng.uniform(0.1, 2.0))
            x = rng.uniform(-2, 2, size=1)
            y = rng.uniform(-2, 2, size=1)
            classical = (4 * math.pi * t) ** -0.5 * math.exp(-((x[0] - y[0]) ** 2) / (4 * t))
            np.testing.assert_allclose(heat_kernel(cfg_free, t, x, y), classical, rtol=1e-10)

    def test_large_argument_does_not_overflow(self, cfg_half):
        v = heat_kernel(cfg_half, 0.01, np.array([50.0]), np.array([50.0]))
        assert np.isfinite(v) and v > 0

    def test_mass_normalized(self, cfg_half):
        rep = heat_kernel_mass(cfg_half, None, 1.0, np.array([0.8]))
        assert rep.passed
        np.testing.assert_allclose(rep.computed, 1.0, atol=1e-6)

    def test_batches_must_match_or_broadcast(self, cfg_half):
        with pytest.raises(InputError, match="2 points x against 3 points y"):
            heat_kernel(cfg_half, 0.5, np.zeros((2, 1)), np.ones((3, 1)))
        with pytest.raises(InputError, match="expected points in R\\^"):
            heat_kernel(cfg_half, 0.5, np.zeros((2, 2)), np.ones((2, 1)))
        one_to_many = heat_kernel(cfg_half, 0.5, np.array([[0.3]]), np.array([[0.1], [0.7]]))
        assert one_to_many.shape == (2,)
        np.testing.assert_array_equal(one_to_many[1], heat_kernel(cfg_half, 0.5, [0.3], [0.7]))

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 0.3])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_grid_route_equals_the_pair_by_pair_route(self, dim, kappa):
        # the nodes in a shuffled order are no tensor grid, so they take the
        # pair by pair loop; un-shuffled, that must equal the grid route bit for bit
        config = make_config(dim, [kappa] * dim)
        nodes = Grid(config, QuadratureSpec(9.0, {1: 40, 2: 24, 3: 12}[dim])).points()
        x = np.linspace(-1.3, 2.1, dim)
        order = np.random.default_rng(dim).permutation(len(nodes))
        want = np.empty(len(nodes))
        want[order] = heat_kernel(config, 0.6, np.broadcast_to(x, nodes.shape), nodes[order])
        for got in (
            heat_kernel(config, 0.6, x, nodes),
            heat_kernel(config, 0.6, np.broadcast_to(x, nodes.shape), nodes),
            heat_kernel(config, 0.6, nodes, x[None]),
            heat_kernel(config, 0.6, nodes, np.broadcast_to(x, nodes.shape)),
        ):
            assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("dim,kappa", [(1, [0.3]), (2, [1.0, 0.5]), (3, [1.0, 0.5, 0.0]), (3, [0.0, 0.0, 0.0])])
    def test_one_time_per_pair_equals_heat_kernel_pair_by_pair(self, dim, kappa):
        # the prefactor is taken per time in Python floats: numpy's power of
        # the time array differs by an ulp at some t, and the values must not
        config = make_config(dim, kappa)
        rng = np.random.default_rng(dim)
        t = 10.0 ** rng.uniform(-2.0, 1.0, 200)
        x, y = rng.uniform(-6.0, 6.0, (2, 200, dim))
        got = posdef._heat_product(config, t, x.T, y.T, np.multiply)
        want = [heat_kernel(config, tv, xv, yv) for tv, xv, yv in zip(t.tolist(), x, y)]
        assert got.tobytes() == np.array(want).tobytes()

    def test_grid_route_evaluates_each_axis_alone(self, monkeypatch):
        config = make_config(3, [1.0, 0.5, 0.3])
        nodes = Grid(config, QuadratureSpec(9.0, 16)).points()
        sizes = []
        real = posdef._real_1d_scaled
        monkeypatch.setattr(posdef, "_real_1d_scaled", lambda k, z: sizes.append(np.size(z)) or real(k, z))
        heat_kernel(config, 0.6, [0.4, -0.2, 1.1], nodes)
        assert sizes == [16, 16, 16]
        heat_kernel(config, 0.6, [0.4, -0.2, 1.1], nodes[::-1])
        assert sizes[3:] == [16**3] * 3

    def test_grid_route_reads_the_nodes_once(self, monkeypatch):
        # a side at row stride 0 is one point without reading its rows and is
        # tried first, so past the point check only tensor_axes reads the
        # nodes, once per call in either argument order; a repeated point in
        # memory (np.repeat) is compared row by row and takes the grid route
        config = make_config(3, [1.0, 0.5, 0.3])
        nodes = Grid(config, QuadratureSpec(9.0, 16)).points()
        x = np.array([0.4, -0.2, 1.1])
        want = heat_kernel(config, 0.6, x, nodes)
        calls, sizes = [], []
        real_axes, real_scaled = posdef.tensor_axes, posdef._real_1d_scaled
        monkeypatch.setattr(posdef, "tensor_axes", lambda p: calls.append(len(p)) or real_axes(p))
        monkeypatch.setattr(posdef, "_real_1d_scaled", lambda k, z: sizes.append(np.size(z)) or real_scaled(k, z))
        for point in (x[None], np.broadcast_to(x, nodes.shape), np.repeat(x[None], len(nodes), axis=0)):
            for got in (heat_kernel(config, 0.6, point, nodes), heat_kernel(config, 0.6, nodes, point)):
                assert got.tobytes() == want.tobytes()
        assert calls == [len(nodes)] * 6 and sizes == [16] * 18

    def test_mass_integrates_the_grid_route(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("heat_kernel_mass built an (N, d) point array")

        monkeypatch.setattr(Grid, "points", refuse)
        monkeypatch.setattr(functions, "tensor_points", refuse)
        config = make_config(2, [1.0, 0.0])
        rep = heat_kernel_mass(config, None, 1.0, [0.8, -0.3])
        assert rep.passed

    # the point goes through the one point check before anything reads it
    @pytest.mark.parametrize(
        "x,match",
        [
            ([1 + 1j], "got complex values"),
            ("a", "could not convert"),
            (None, "got None"),
            ([[0.1], [0.2]], "takes one point in R\\^1, got 2"),
            ([0.1, 0.2], "expected points in R\\^1"),
        ],
        ids=["complex", "string", "none", "two_rows", "wrong_dimension"],
    )
    @pytest.mark.filterwarnings("error")
    def test_mass_rejects_what_is_not_one_real_point(self, cfg_half, x, match):
        with pytest.raises(InputError, match=match):
            heat_kernel_mass(cfg_half, None, 0.5, x)

    def test_mass_notes_print_the_point_as_a_flat_list(self):
        config = make_config(2, [1.0, 0.0])
        for x in ([0.8, -0.3], [[0.8, -0.3]], np.array([0.8, -0.3])):
            assert heat_kernel_mass(config, None, 1.0, x).notes.startswith("t=1.0, x=[0.8, -0.3], resolution delta ")

    def test_rejects_nonpositive_time(self, cfg_half):
        with pytest.raises(DomainError):
            heat_kernel(cfg_half, 0.0, np.array([0.0]), np.array([0.0]))
        for t in (0.0, -1.0, math.inf):
            with pytest.raises(DomainError):
                heat_kernel_mass(cfg_half, None, t, np.array([0.0]))
        with pytest.raises(DomainError):
            quadratic_form_heat(
                cfg_half, None, gaussian(1.0), builtin_points(1, 2, coefficients=np.array([1.0, -1.0])), 0.0
            )


class TestSmoothedForm:
    def test_converges_to_gram_form(self, cfg_half):
        pts = builtin_points(1, 2, coefficients=np.array([1.0, -1.0]))
        target = quadratic_form(cfg_half, None, gaussian(1.0), pts)
        gaps = [
            abs(quadratic_form_heat(cfg_half, None, gaussian(1.0), pts, t) - target)
            for t in (0.4, 0.2, 0.1, 0.05, 0.0125)
        ]
        # gap shrinks monotonically with the smoothing time; the asymptotic
        # linear rate only sets in well below these times
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.2 * gaps[0]

    # the damping exp(-2t|xi|^2) turns the Gaussian pair's transform into
    # s^(gamma+d/2) times that of gaussian(s), s = 1/(1+8t), so the smoothed
    # form is a Gram form in closed form
    @pytest.mark.parametrize("dim,kappa", [(1, [0.5]), (1, [2.0]), (2, [1.0, 0.0])])
    @pytest.mark.parametrize("t", [0.2, 0.05, 4e-4])
    def test_closed_form_for_the_gaussian(self, dim, kappa, t):
        config = make_config(dim, kappa)
        pts = builtin_points(dim, 5, coefficients=np.array([1.0, -0.5, 0.25j, 0.7, -0.3]))
        s = 1.0 / (1.0 + 8.0 * t)
        want = s ** (config.gamma + dim / 2.0) * quadratic_form(config, None, gaussian(s), pts)
        got = quadratic_form_heat(config, None, gaussian(1.0), pts, t)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestRadialMassIdentity:
    # radius 30 keeps the e^-r profile tail below the identity tolerance
    _SPEC = QuadratureSpec(30.0, 256)

    def test_matches_oracle_constant(self, cfg_half):
        p = cfg_half.gamma + 0.5 + 2.0
        rep = bessel_integral_identity(cfg_half, self._SPEC, p)
        assert rep.passed
        oracle = math.gamma(p) * 2.0 ** (p - 1.0) / cfg_half.mehta
        np.testing.assert_allclose(rep.expected, oracle, rtol=1e-13)

    def test_alternate_constant_stays_rejected(self, cfg_half):
        # a plausible-looking alternate normalization differs by 2^-(2p-2);
        # lock the rejection so a future edit cannot silently flip to it
        p = cfg_half.gamma + 0.5 + 2.0
        rep = bessel_integral_identity(cfg_half, self._SPEC, p)
        alternate = math.gamma(p) / (cfg_half.mehta * 2.0 ** (p - 1.0))
        assert "non-matching" in rep.notes
        assert abs(rep.computed - alternate) > 0.9 * abs(rep.computed - rep.computed * 2.0 ** -(2 * p - 2))
        np.testing.assert_allclose(alternate / rep.expected, 2.0 ** -(2 * p - 2), rtol=1e-12)

    def test_domain_edge(self, cfg_half):
        with pytest.raises(DomainError):
            bessel_integral_identity(cfg_half, None, 1.2)

    # p is one real number in [edge, inf), checked before any use: the kinds of
    # non-real input are rows of tests/test_errors.py; a list, a bool and the
    # non-finite values raise DomainError here, not a TypeError or a later ConfigurationError
    @pytest.mark.parametrize("p", [[5.0], True, math.nan, math.inf, -math.inf])
    def test_rejects_a_parameter_outside_its_domain(self, cfg_half, p):
        with pytest.raises(DomainError, match="need a finite real p >= 2.0"):
            bessel_integral_identity(cfg_half, None, p)

    def test_profile_samples_on_the_grid_route(self, cfg_plane, monkeypatch):
        spec = QuadratureSpec(20.0, 32)
        p = cfg_plane.gamma + 1.0 + 2.0
        norm = math.gamma(p) * 2.0 ** (p - 1.0)
        # the points route, integrated at n and 2n nodes and scaled, as the identity does
        want = integrate_with_check(cfg_plane, spec, lambda gp: bessel_k_profile(p).evaluate(cfg_plane, gp))

        def refuse(*args):
            raise AssertionError("the catalog profile was sampled at an (N, d) point array")

        monkeypatch.setattr(functions, "tensor_points", refuse)
        monkeypatch.setattr(Grid, "points", refuse)
        rep = bessel_integral_identity(cfg_plane, spec, p)
        assert rep.computed == norm * want[0]
        assert f"resolution delta {norm * want[1]:.3e}" in rep.notes
