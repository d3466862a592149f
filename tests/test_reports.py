"""Report records: pass logic, serialization, Gram eigenvalue verdicts."""

import json

import numpy as np
import pytest

from dunklpd.errors import InputError
from dunklpd.reports import GramReport, IdentityReport, reports_to_json


class TestIdentityReport:
    def test_passes_on_absolute_error(self):
        rep = IdentityReport("x", 0.0, 5e-9, 1e-8)
        assert rep.passed and rep.abs_error == 5e-9

    def test_passes_on_relative_error(self):
        # large values pass via the relative branch even when the absolute
        # error exceeds the tolerance
        rep = IdentityReport("x", 1e9, 1e9 + 1.0, 1e-8)
        assert rep.passed

    def test_fails_when_both_exceed(self):
        rep = IdentityReport("x", 1.0, 1.1, 1e-3)
        assert not rep.passed

    def test_complex_expectations(self):
        rep = IdentityReport("x", 1.0 + 1.0j, 1.0 + 1.0j, 1e-12)
        assert rep.passed and rep.abs_error == 0.0

    def test_line_format(self):
        line = IdentityReport("my_check", 1.0, 1.0, 1e-6).line()
        assert line.startswith("[PASS] my_check:")
        assert "tol=1.0e-06" in line
        assert IdentityReport("bad", 1.0, 2.0, 1e-9).line().startswith("[FAIL]")

    def test_nan_against_zero_fails(self):
        rep = IdentityReport("k", 0.0, float("nan"), 1e-12)
        assert not rep.passed and rep.rel_error == float("inf")
        assert IdentityReport("k", 0.0, 0.0, 0.0).rel_error == 0.0

    def test_to_dict_handles_complex_and_infinite(self):
        d = IdentityReport("x", 1.0 + 2.0j, 0.5, 1e-3).to_dict()
        assert d["expected"] == [1.0, 2.0]
        d = IdentityReport("x", 0.0, 1.0, 1e-3).to_dict()
        assert d["rel_error"] is None  # infinite relative error has no JSON literal
        json.dumps(d, allow_nan=False)


class TestBound:
    """IdentityReport.bound: expected 0 against the excess clipped at 0."""

    @pytest.mark.parametrize("excess", [-3.5, -1e-300, -0.0, 0.0])
    def test_no_excess_passes_with_zero(self, excess):
        rep = IdentityReport.bound("b", excess, 0.0)
        assert rep.passed and rep.expected == 0.0 and rep.computed == 0.0
        assert np.copysign(1.0, rep.computed) == 1.0

    def test_excess_above_tolerance_fails(self):
        rep = IdentityReport.bound("b", 2e-6, 1e-6, notes="n")
        assert not rep.passed and rep.computed == 2e-6 and rep.notes == "n"
        assert IdentityReport.bound("b", 5e-7, 1e-6).passed

    @pytest.mark.parametrize("excess", [float("nan"), np.float64("nan")])
    def test_nan_excess_fails(self, excess):
        rep = IdentityReport.bound("b", excess, 1e-6)
        assert not rep.passed and np.isnan(rep.computed)

    @pytest.mark.parametrize("excess", [-2.0, -0.0, 0.0, 5e-324, 1e-9, 0.3, np.float64(-1e-3), np.float64(7.5)])
    def test_equals_the_clipped_report(self, excess):
        want = IdentityReport("b", 0.0, max(0.0, excess), 1e-8, notes="n")
        got = IdentityReport.bound("b", excess, 1e-8, notes="n")
        assert got.to_dict() == want.to_dict()
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


class TestReportsToJson:
    def test_writes_file_and_flags(self, tmp_path):
        reps = [IdentityReport("a", 1.0, 1.0, 1e-9), IdentityReport("b", 1.0, 2.0, 1e-9)]
        path = tmp_path / "out.json"
        text = reports_to_json(reps, str(path), extra={"suite": "demo"})
        data = json.loads(path.read_text())
        assert json.loads(text) == data
        assert data["all_pass"] is False
        assert data["suite"] == "demo"
        assert [r["identity_name"] for r in data["reports"]] == ["a", "b"]


class TestGramReport:
    def test_requires_square(self):
        with pytest.raises(ValueError):
            GramReport.from_matrix(np.zeros((2, 3)))

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValueError, match="non-empty"):
            GramReport.from_matrix(np.zeros((0, 0)))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_matrix(self, entry):
        # eigvalsh turns [[nan, 0], [0, 1]] into eigenvalues [0, -0], and an
        # all-nan matrix into LinAlgError
        with pytest.raises(InputError, match="non-finite"):
            GramReport.from_matrix(np.array([[entry, 0.0], [0.0, 1.0]]))
        with pytest.raises(InputError, match="non-finite"):
            GramReport.from_matrix(np.full((2, 2), entry))

    def test_spd_matrix(self):
        rep = GramReport.from_matrix(np.diag([3.0, 1.0, 0.5]))
        assert rep.psd and rep.spd
        assert rep.min_eigenvalue == pytest.approx(0.5)
        assert rep.max_eigenvalue == pytest.approx(3.0)

    def test_near_singular_is_psd_not_spd(self):
        rep = GramReport.from_matrix(np.diag([1.0, 1e-12]))
        assert rep.psd and not rep.spd

    def test_indefinite_matrix(self):
        rep = GramReport.from_matrix(np.diag([1.0, -0.2]))
        assert not rep.psd and not rep.spd

    def test_verdicts_scale_with_largest_eigenvalue(self):
        # -1e-7 is fatal at scale 1 but within tolerance at scale 1e3
        small = GramReport.from_matrix(np.diag([1.0, -1e-7]))
        large = GramReport.from_matrix(np.diag([1e3, -1e-7]))
        assert not small.psd
        assert large.psd

    @pytest.mark.parametrize("factor", [1.0, 1e-9, 1e3])
    def test_verdicts_invariant_under_rescaling(self, rng, factor):
        b = rng.normal(size=(5, 5))
        spd_matrix = b @ b.T + 0.1 * np.eye(5)
        indefinite = spd_matrix - 2.0 * np.linalg.eigvalsh(spd_matrix)[1] * np.eye(5)
        for matrix, verdict in ((spd_matrix, (True, True)), (indefinite, (False, False))):
            rep = GramReport.from_matrix(factor * matrix)
            assert (rep.psd, rep.spd) == verdict

    def test_zero_matrix_is_psd_not_spd(self):
        rep = GramReport.from_matrix(np.zeros((3, 3)))
        assert rep.psd and not rep.spd

    def test_hermitian_residual_reported(self):
        m = np.array([[1.0, 0.1 + 0.05j], [0.1 - 0.02j, 1.0]])
        rep = GramReport.from_matrix(m)
        assert rep.hermitian_residual > 0.01

    def test_quadrature_delta_loosens_tolerance(self):
        strict = GramReport.from_matrix(np.diag([1.0, -1e-6]))
        loose = GramReport.from_matrix(np.diag([1.0, -1e-6]), quadrature_delta=1e-5)
        assert not strict.psd
        assert loose.psd

    def test_psd_report_passes_a_psd_matrix_with_zero(self):
        rep = GramReport.from_matrix(np.diag([2.0, 0.5]))
        out = rep.psd_report("psd_check", "two points")
        assert out.passed and out.computed == 0.0 and out.expected == 0.0
        assert out.tolerance == rep.tolerance
        assert out.notes == "two points; eigenvalues [5.000000e-01, 2.000000e+00]; hermitian residual 0.000e+00"

    def test_psd_report_fails_an_indefinite_matrix(self):
        rep = GramReport.from_matrix(np.diag([1.0, -0.2]))
        out = rep.psd_report("psd_check")
        assert not out.passed
        assert out.identity_name == "psd_check"
        assert out.computed == -rep.min_eigenvalue == pytest.approx(0.2)
        assert out.tolerance == rep.tolerance
        assert out.notes.startswith("eigenvalues [-2.000000e-01, 1.000000e+00]")
