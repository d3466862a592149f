"""Identity suites as a whole: selection, coverage, and a full green run."""

import inspect
import sys
import warnings

import numpy as np
import pytest

from dunklpd import (
    AccuracyWarning,
    InputError,
    functions,
    identities,
    make_config,
    posdef,
    quadrature,
    run_suites,
    transform,
)
from dunklpd import kernel as kernel_module
from dunklpd.functions import bessel_k_profile, gaussian, gaussian_density, generalized_cauchy
from dunklpd.identities import (
    SUITE_NAMES,
    _compare,
    _diag_points,
    _indefinite_profile,
    cauchy_exponent,
    round_trip_specs,
    round_trips,
    suite_heat,
    suite_kernel,
    suite_posdef,
    suite_transform,
    suite_translation,
)
from dunklpd.reports import IdentityReport
from dunklpd.transform import inverse, tabulated_density


# Every report of d=1, kappa=0.3, the generic Bessel branch run end to end.
# The weight |y|^0.6 makes the Gauss-Legendre panels converge only
# algebraically, so these miss their tolerance on the default boxes
# (measured abs error / tolerance):
_GENERIC_SHORTFALLS = {
    "kernel_gaussian_pairing_formula": "1.5e-7 / 1e-7",
    "inversion_round_trip_gaussian": "7.8e-6 / 1e-6",
    "inversion_round_trip_gaussian_density": "4.6e-6 / 1e-6",
    "inversion_round_trip_generalized_cauchy": "9.3e-6 / 1e-6",
    "inversion_round_trip_bessel_k_profile": "2.3e-6 / 1e-6",
    "gaussian_transform_pair": "1.5e-7 / 1e-7",
    "selfreciprocal_gaussian_fixed_point": "1.5e-7 / 1e-8",
    "transform_pairing_symmetry_mixed": "1.0e-7 / 1e-7",
    "translation_preserves_weighted_mass": "1.6e-5 / 1e-6",
    "convolution_product_rule": "1.5e-6 / 1e-6",
    "translate_bounds_gaussian": "8.5e-8 / 1e-8",
}
_GENERIC_REPORTS = [
    "kernel_argument_symmetry",
    "kernel_scaling_symmetry",
    "kernel_conjugation_rule",
    "kernel_modulus_bound",
    "kernel_value_at_origin",
    "kernel_small_argument_continuity",
    "kernel_operator_eigen_relation",
    "kernel_gaussian_pairing_formula",
    "kernel_exponential_growth_bound",
    "inversion_round_trip_gaussian",
    "inversion_round_trip_gaussian_density",
    "inversion_round_trip_generalized_cauchy",
    "inversion_round_trip_bessel_k_profile",
    "gaussian_transform_pair",
    "selfreciprocal_gaussian_fixed_point",
    "cauchy_matern_transform_pair",
    "transform_pairing_symmetry",
    "transform_pairing_symmetry_mixed",
    "transform_double_is_parity",
    "transform_sup_bound",
    "translation_at_origin_identity",
    "translation_exchange_pairing",
    "translation_point_symmetry",
    "translation_preserves_weighted_mass",
    "matern_translate_mass",
    "translated_gaussian_density_nonnegative",
    "convolution_commutativity",
    "convolution_product_rule",
    "convolution_definition_consistency",
    "young_convolution_bound",
    "gram_positive_semidefinite_gaussian",
    "gram_positive_semidefinite_cauchy",
    "gram_strictly_positive_definite_sweep",
    "transform_nonnegativity_gaussian",
    "transform_nonnegativity_cauchy",
    "certifier_rejects_indefinite_profile",
    "translate_bounds_gaussian",
    "quadratic_form_matches_spectral_integral",
    "heat_smoothed_form_limit",
    "radial_bessel_profile_weighted_mass",
    "translation_phases_linearly_independent",
    "duplicate_point_degeneracy",
    "strict_pd_certificate_gaussian",
    "strict_pd_certificate_cauchy",
    "convolution_closure_gram_psd",
    "product_closure_gram_psd",
    "heat_kernel_weighted_mass",
    "heat_kernel_nonnegative",
    "heat_kernel_argument_symmetry",
    "heat_kernel_is_translated_gaussian_density",
]


@pytest.fixture(scope="module")
def generic_reports():
    return {r.identity_name: r for r in run_suites(make_config(1, [0.3]))}


def test_generic_config_runs_every_report(generic_reports):
    assert sorted(generic_reports) == sorted(_GENERIC_REPORTS)


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(
            n,
            marks=pytest.mark.xfail(
                strict=True, reason=f"measured abs error / tolerance {_GENERIC_SHORTFALLS[n]}"
            ),
        )
        if n in _GENERIC_SHORTFALLS
        else n
        for n in _GENERIC_REPORTS
    ],
)
def test_generic_config_report(generic_reports, name):
    rep = generic_reports[name]
    assert rep.passed, rep.line()


# The boxes each suite builds at d=1 kappa 1/2 and d=2 (1, 0): per suite,
# {radius: node counts} over every Grid and the (d, extent, count) of every
# uniform_axes mesh.  An edit of quadrature._RESOLUTION shows here as the
# boxes it moves.
_SUITE_BOXES = {
    1: {
        "kernel": ({16.0: (512,)}, set()),
        "transform": ({16.0: (256, 384, 512, 768), 40.0: (256, 384, 512, 768)}, set()),
        "translation": ({16.0: (256, 384, 512, 768), 30.0: (256, 512)}, set()),
        "posdef": ({16.0: (256, 512), 30.0: (256, 512)}, {(1, 8.0, 641), (1, 8.0, 1601)}),
        "heat": ({16.0: (256, 512), 27.129319932501073: (256, 512), 27.929319932501073: (256, 512)}, set()),
    },
    2: {
        "kernel": ({12.0: (192,)}, set()),
        "transform": ({12.0: (96, 192), 16.0: (128, 256, 320, 640), 33.0: (128, 256, 320, 640)}, set()),
        "translation": ({12.0: (96, 128, 192, 256, 512), 28.0: (96, 192)}, set()),
        "posdef": ({12.0: (96, 192), 30.0: (128, 256)}, {(2, 6.0, 121), (2, 6.0, 181)}),
        "heat": (
            {
                12.0: (96, 128, 192, 256),
                13.564659966250536: (128, 256),
                14.130345391199775: (128, 256),
                27.129319932501073: (128, 256),
                27.69500535745031: (128, 256),
            },
            set(),
        ),
    },
}


def _run_suites_recording_boxes(config, monkeypatch):
    """Every suite's reports, in run_suites order, and the boxes each suite
    builds, in the form of _SUITE_BOXES."""
    seen = {}
    real_init, real_axes = quadrature.Grid.__init__, functions.uniform_axes

    def init(self, cfg, spec):
        seen["grids"].add((spec.radius, spec.nodes_per_axis))
        real_init(self, cfg, spec)

    def axes(d, extent, count):
        seen["meshes"].add((d, float(extent), count))
        return real_axes(d, extent, count)

    monkeypatch.setattr(quadrature.Grid, "__init__", init)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dunklpd" and getattr(module, "uniform_axes", None) is real_axes:
            monkeypatch.setattr(module, "uniform_axes", axes)
    reports, boxes = [], {}
    for suite in SUITE_NAMES:
        seen["grids"], seen["meshes"] = set(), set()
        reports += run_suites(config, which=suite)
        grids = {}
        for radius, nodes in sorted(seen["grids"]):
            grids.setdefault(radius, []).append(nodes)
        boxes[suite] = ({radius: tuple(nodes) for radius, nodes in grids.items()}, seen["meshes"])
    return reports, boxes


def test_all_suites_pass_on_reference_config(cfg_half, monkeypatch):
    reports, boxes = _run_suites_recording_boxes(cfg_half, monkeypatch)
    failing = [r.line() for r in reports if not r.passed]
    assert not failing, "\n".join(failing)
    assert len(reports) >= 40
    assert boxes == _SUITE_BOXES[1]


def test_suite_selection(cfg_half):
    kernel_only = run_suites(cfg_half, which="kernel")
    assert all(r.identity_name.startswith("kernel") for r in kernel_only)
    with pytest.raises(InputError):
        run_suites(cfg_half, which="fourier")


def test_suites_pass_in_two_dimensions(cfg_plane, monkeypatch):
    reports, boxes = _run_suites_recording_boxes(cfg_plane, monkeypatch)
    failing = [r.line() for r in reports if not r.passed]
    assert not failing, "\n".join(failing)
    assert boxes == _SUITE_BOXES[2]


def test_suites_take_no_quadrature_argument():
    # every suite reads default_spec and quadrature._RESOLUTION, so a run
    # never mixes a caller's box with the table's
    assert list(inspect.signature(run_suites).parameters) == ["config", "which"]
    for suite in (suite_kernel, suite_transform, suite_translation, suite_posdef, suite_heat):
        assert list(inspect.signature(suite).parameters) == ["config"], suite.__name__


def test_kernel_translation_and_heat_suites_pass_in_three_dimensions():
    cfg = make_config(3, [0.5, 1.0, 0.0])
    reports = suite_kernel(cfg) + suite_translation(cfg) + suite_heat(cfg)
    failing = [r.line() for r in reports if not r.passed]
    assert not failing, "\n".join(failing)


@pytest.mark.parametrize("dim, kappa", [(1, [0.5]), (2, [1.0, 0.0])])
def test_kernel_and_heat_suites_evaluate_their_sample_families_as_arrays(dim, kappa, monkeypatch):
    # the heat suite's random (t, x, y) samples and the eigen relation's
    # Richardson differences are one array evaluation each, not one call per
    # sample; what is left are the suites' few single-pair checks
    config = make_config(dim, kappa)
    real = kernel_module._horner
    sizes = []
    monkeypatch.setattr(kernel_module, "_horner", lambda x, c: sizes.append(np.size(x)) or real(x, c))
    for suite, most in (("kernel", 10), ("heat", 1)):
        sizes.clear()
        run_suites(config, suite)
        assert sizes.count(1) <= most, suite


def test_posdef_suite_builds_each_gram_matrix_it_reads_once(cfg_half, monkeypatch):
    # the suite builds the Gaussian on the builtin sizes it reads, 2, 5 and 8, and
    # the Cauchy profile on 5; strict_pd_certify builds its one probe at 8 per function
    calls = []
    real = posdef.gram
    for module in (identities, posdef):
        spy = lambda c, q, f, pts, m=module.__name__: calls.append((m, f.kind, pts.size)) or real(c, q, f, pts)
        monkeypatch.setattr(module, "gram", spy)
    suite_posdef(cfg_half)
    suite = [("dunklpd.identities", "gaussian", n) for n in (2, 5, 8)]
    suite.append(("dunklpd.identities", "generalized_cauchy", 5))
    strict = [("dunklpd.posdef", kind, 8) for kind in ("gaussian", "generalized_cauchy")]
    assert len(calls) == 6
    assert sorted(calls) == sorted(suite + strict)


def test_round_trips_run_one_two_pass_each(cfg_half, monkeypatch):
    # both legs double together: one n/2n pair per round trip, not one for the
    # inverse leg plus one per forward leg it samples (3 each)
    runs = []
    real = transform.two_pass
    monkeypatch.setattr(
        transform, "two_pass", lambda run, config, *specs: runs.append(specs) or real(run, config, *specs)
    )
    kinds = [r.identity_name.removeprefix("inversion_round_trip_") for r in round_trips(cfg_half)]
    assert len(kinds) == 4
    assert runs == [round_trip_specs(cfg_half, kind) for kind in kinds]


def test_round_trips_warn_once_each_naming_the_round_trip():
    # at kappa=0.3 every round trip is underresolved (a known defect of the
    # Gauss-Legendre panels at fractional 2 kappa); each warns once, under its
    # own name, from the suite code that runs it
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        names = [r.identity_name for r in round_trips(make_config(1, [0.3]))]
    assert len(names) == 4
    assert [w.category for w in record] == [AccuracyWarning] * 4
    assert [str(w.message).split(":")[0] for w in record] == names
    assert {w.filename for w in record} == {identities.__file__}


@pytest.mark.parametrize("dim, kappa", [(1, [0.5]), (2, [1.0, 0.0])])
def test_round_trips_match_the_tabulated_density_route(dim, kappa, monkeypatch):
    # the composite's fine pass is inverse at the doubled inverse leg of forward
    # at the doubled forward leg, the value the nested public route returns
    config = make_config(dim, kappa)
    computed = {}
    real = identities._compare

    def spy(name, expected, got, *args, **kwargs):
        computed[name] = got
        return real(name, expected, got, *args, **kwargs)

    monkeypatch.setattr(identities, "_compare", spy)
    list(round_trips(config))
    p = cauchy_exponent(config)
    probes = _diag_points(config, np.linspace(-1.2, 1.2, 9))
    for f in (gaussian(1.0), gaussian_density(1.0), generalized_cauchy(p), bessel_k_profile(p)):
        fwd_spec, inv_spec = round_trip_specs(config, f.kind)
        want = inverse(config, inv_spec, tabulated_density(config, fwd_spec, f), probes)
        assert np.array_equal(computed[f"inversion_round_trip_{f.kind}"], want), f.kind


def test_reports_are_well_formed(cfg_half):
    for rep in run_suites(cfg_half, which="transform"):
        assert rep.identity_name
        assert rep.tolerance > 0
        assert np.isfinite(rep.abs_error)


def test_indefinite_profile_is_a_genuine_falsifier(cfg_half):
    # the profile must evaluate real and even but carry a signed transform;
    # its minimum pins the falsifier used across the certification tests
    f = _indefinite_profile(cfg_half)
    x = np.linspace(-4, 4, 33).reshape(-1, 1)
    vals = np.asarray(f.evaluate(cfg_half, x))
    np.testing.assert_allclose(vals.imag, 0.0, atol=1e-12)
    np.testing.assert_allclose(vals, vals[::-1], rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize(
    "dim, kappa, exponent",
    [(1, [0.0], 4.0), (1, [0.5], 5.0), (1, [2.0], 6.0), (2, [1.0, 0.0], 5.0), (3, [1.0, 0.5, 0.0], 6.0)],
)
def test_cauchy_exponent_on_the_sweep(dim, kappa, exponent):
    assert cauchy_exponent(make_config(dim, kappa)) == exponent


class TestCompare:
    def test_relative_error_picks_the_worst_pair(self):
        # abs errors 0.5, 0.1, 1.0 against |expected| 100, 0.1, 50: relative 0.005, 1, 0.02
        rep = _compare("fam", [100.0, 0.1, 50.0], [100.5, 0.2, 51.0], 1e-3, notes="n")
        assert (rep.identity_name, rep.expected, rep.computed, rep.notes) == ("fam", 0.1, 0.2, "n")

    def test_relative_floor_at_zero_expected(self):
        # an exact zero divides by 1e-30: a miss there dominates, an exact hit
        # scores 0 (not the nan of 0 / 0, which argmax would pick)
        rep = _compare("fam", [1.0, 0.0], [2.0, 1e-20], 1e-3)
        assert (rep.expected, rep.computed) == (0.0, 1e-20)
        rep = _compare("fam", [1.0, 0.0], [1.5, 0.0], 1e-3)
        assert (rep.expected, rep.computed) == (1.0, 1.5)

    def test_absolute_mode(self):
        rep = _compare("fam", [100.0, 0.1], [100.5, 0.2], 1e-3, relative=False)
        assert (rep.expected, rep.computed) == (100.0, 100.5)

    def test_first_index_on_ties(self):
        rep = _compare("fam", [[1.0, 2.0], [3.0, 4.0]], [[1.0, 3.0], [3.0, 6.0]], 1e-3)
        assert (rep.expected, rep.computed) == (2.0, 3.0)

    def test_scalar_pair_matches_identity_report(self):
        rep = _compare("one", 2.0 + 1j, 2.5 - 1j, 1e-2, notes="x")
        assert rep == IdentityReport("one", 2.0 + 1j, 2.5 - 1j, 1e-2, notes="x")
        assert rep.to_dict() == IdentityReport("one", 2.0 + 1j, 2.5 - 1j, 1e-2, notes="x").to_dict()
