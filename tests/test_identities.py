"""Identity suites as a whole: selection, coverage, and a full green run."""

import numpy as np
import pytest

from dunklpd import InputError, identities, make_config, posdef, run_suites
from dunklpd.identities import (
    _compare,
    _indefinite_profile,
    cauchy_exponent,
    suite_heat,
    suite_kernel,
    suite_posdef,
    suite_transform,
    suite_translation,
)
from dunklpd.reports import IdentityReport


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


def test_all_suites_pass_on_reference_config(cfg_half):
    reports = run_suites(cfg_half)
    failing = [r.line() for r in reports if not r.passed]
    assert not failing, "\n".join(failing)
    assert len(reports) >= 40


def test_suite_selection(cfg_half):
    kernel_only = run_suites(cfg_half, which="kernel")
    assert all(r.identity_name.startswith("kernel") for r in kernel_only)
    with pytest.raises(InputError):
        run_suites(cfg_half, which="fourier")


def test_suites_pass_in_two_dimensions(cfg_plane):
    reports = run_suites(cfg_plane)
    failing = [r.line() for r in reports if not r.passed]
    assert not failing, "\n".join(failing)


def test_kernel_translation_and_heat_suites_pass_in_three_dimensions():
    cfg = make_config(3, [0.5, 1.0, 0.0])
    reports = suite_kernel(cfg, None) + suite_translation(cfg, None) + suite_heat(cfg, None)
    failing = [r.line() for r in reports if not r.passed]
    assert not failing, "\n".join(failing)


def test_posdef_suite_builds_each_gram_matrix_it_reads_once(cfg_half, monkeypatch):
    # the suite builds the Gaussian on builtin sizes 2..8 and the Cauchy profile
    # on 5; strict_pd_certify builds its own probes at 3, 5 and 8 per function
    calls = []
    real = posdef.gram
    for module in (identities, posdef):
        spy = lambda c, q, f, pts, m=module.__name__: calls.append((m, f.kind, pts.size)) or real(c, q, f, pts)
        monkeypatch.setattr(module, "gram", spy)
    suite_posdef(cfg_half)
    suite = [("dunklpd.identities", "gaussian", n) for n in range(2, 9)]
    suite.append(("dunklpd.identities", "generalized_cauchy", 5))
    strict = [("dunklpd.posdef", kind, n) for kind in ("gaussian", "generalized_cauchy") for n in (3, 5, 8)]
    assert len(calls) == 14
    assert sorted(calls) == sorted(suite + strict)


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
