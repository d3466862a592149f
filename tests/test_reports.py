"""Report records: pass logic, serialization, Gram eigenvalue verdicts."""

import json

import numpy as np
import pytest

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

    def test_to_dict_handles_complex_and_infinite(self):
        d = IdentityReport("x", 1.0 + 2.0j, 0.5, 1e-3).to_dict()
        assert d["expected"] == [1.0, 2.0]
        d = IdentityReport("x", 0.0, 1.0, 1e-3).to_dict()
        assert d["rel_error"] is None  # infinite relative error has no JSON literal
        json.dumps(d, allow_nan=False)


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
