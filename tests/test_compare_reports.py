"""scripts/compare_reports.py on two tiny report directories."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from dunklpd.reports import IdentityReport, reports_to_json

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(directory, reports, name="d1_kappa_0.5.json"):
    directory.mkdir(exist_ok=True)
    reports_to_json(reports, str(directory / name))
    return directory


BASE = [
    IdentityReport("a", 1.0, 1.0 + 1e-10, 1e-6, notes="x"),
    IdentityReport("b", 0.0, 1.0 + 2.0j, 1e-3, notes="complex"),
    IdentityReport("c", 2.0, 2.0, 1e-9),
]


def test_identical_directories_agree(script, tmp_path, capsys):
    old = _write(tmp_path / "old", BASE)
    new = _write(tmp_path / "new", BASE)
    assert script.main([str(old), str(new)]) == 0
    assert "3 reports matched, 0 differences, 0 notes-only changes" in capsys.readouterr().out


def test_nothing_to_match_fails(script, tmp_path, capsys):
    # two empty directories, or reports under other file names, compare nothing
    empty_old, empty_new = tmp_path / "empty_old", tmp_path / "empty_new"
    empty_old.mkdir()
    empty_new.mkdir()
    assert script.main([str(empty_old), str(empty_new)]) == 1
    assert "0 reports matched, 0 differences" in capsys.readouterr().out
    old = _write(tmp_path / "old", BASE)
    other = _write(tmp_path / "other", BASE, name="d2_kappa_1.0_0.0.json")
    assert script.main([str(old), str(other)]) == 1
    assert "0 reports matched" in capsys.readouterr().out


def test_notes_only_changes_are_listed_but_pass(script, tmp_path, capsys):
    old = _write(tmp_path / "old", BASE)
    new = _write(tmp_path / "new", [BASE[0], IdentityReport("b", 0.0, 1.0 + 2.0j, 1e-3, notes="y"), BASE[2]])
    assert script.main([str(old), str(new)]) == 0
    out = capsys.readouterr().out
    assert "notes     d1_kappa_0.5.json b" in out and "new: y" in out


def test_value_changes_beyond_rtol_fail(script, tmp_path, capsys):
    old = _write(tmp_path / "old", BASE)
    nudged = [IdentityReport("a", 1.0, 1.0 + 1e-10 + 1e-11, 1e-6, notes="x"), BASE[1], BASE[2]]
    new = _write(tmp_path / "new", nudged)
    assert script.main([str(old), str(new)]) == 1
    assert "changed   d1_kappa_0.5.json a computed" in capsys.readouterr().out
    within = [IdentityReport("a", 1.0, (1.0 + 1e-10) * (1.0 + 1e-13), 1e-6, notes="x"), BASE[1], BASE[2]]
    assert script.main([str(old), str(_write(tmp_path / "within", within))]) == 0


def test_added_missing_and_flipped_reports_fail(script, tmp_path, capsys):
    old = _write(tmp_path / "old", BASE)
    # b dropped, c computed differently (and so failing), d new
    new = _write(
        tmp_path / "new", [BASE[0], IdentityReport("c", 2.0, 3.0, 1e-9), IdentityReport("d", 1.0, 1.0, 1e-9)]
    )
    _write(new, BASE[:1], name="d2_kappa_1.0_0.0.json")
    assert script.main([str(old), str(new)]) == 1
    out = capsys.readouterr().out
    assert "missing   d1_kappa_0.5.json b" in out
    assert "added     d1_kappa_0.5.json d" in out
    assert "added     d2_kappa_1.0_0.0.json a" in out
    assert "pass flip d1_kappa_0.5.json c: True -> False" in out
    assert "changed   d1_kappa_0.5.json c computed: 2.0 -> 3.0" in out


def test_non_finite_values_compare_as_null(script, tmp_path):
    old = _write(tmp_path / "old", [IdentityReport("a", 0.0, 1.0, 1e-3)])
    payload = json.loads((old / "d1_kappa_0.5.json").read_text())
    payload["reports"][0]["computed"] = None
    new = tmp_path / "new"
    new.mkdir()
    (new / "d1_kappa_0.5.json").write_text(json.dumps(payload))
    assert script.main([str(old), str(new)]) == 1
    assert script.main([str(new), str(new)]) == 0


def test_rejects_a_missing_directory(script, tmp_path):
    with pytest.raises(SystemExit):
        script.main([str(tmp_path / "nowhere"), str(tmp_path)])


def test_rtol_zero_checks_bit_identity(script, tmp_path, capsys):
    old = _write(tmp_path / "old", BASE)
    one_ulp = np.nextafter(1.0 + 1e-10, 2.0)
    new = _write(tmp_path / "new", [IdentityReport("a", 1.0, one_ulp, 1e-6, notes="x"), BASE[1], BASE[2]])
    assert script.main([str(old), str(new)]) == 0
    assert script.main(["--rtol", "0", str(old), str(new)]) == 1
    assert "changed   d1_kappa_0.5.json a computed" in capsys.readouterr().out
    assert script.main(["--rtol", "0", str(old), str(old)]) == 0


def test_rejects_a_negative_rtol(script, tmp_path):
    with pytest.raises(SystemExit):
        script.main(["--rtol", "-1", str(tmp_path), str(tmp_path)])


def test_atol_lets_rounding_level_changes_through(script, tmp_path, capsys):
    # a residue of 1e-15 that moves by 1e-16 changes by 9 % relative: the
    # default (atol 0) flags it, an atol above the difference does not
    old = _write(tmp_path / "old", [IdentityReport.bound("r", 1e-15, 1e-12), BASE[2]])
    new = _write(tmp_path / "new", [IdentityReport.bound("r", 1.1e-15, 1e-12), BASE[2]])
    assert script.main([str(old), str(new)]) == 1
    assert "changed   d1_kappa_0.5.json r computed" in capsys.readouterr().out
    assert script.main(["--atol", "1.5e-16", str(old), str(new)]) == 0
    assert "0 differences" in capsys.readouterr().out
    assert script.main(["--atol", "0.5e-16", str(old), str(new)]) == 1
    assert "changed   d1_kappa_0.5.json r computed" in capsys.readouterr().out
    # atol is absolute: the same 1e-16 step on a value of 2 is still within rtol,
    # and a step of 1e-3 on it is beyond both
    far = _write(tmp_path / "far", [IdentityReport.bound("r", 1e-15, 1e-12), IdentityReport("c", 2.0, 2.001, 1e-9)])
    assert script.main(["--atol", "1.5e-16", str(old), str(far)]) == 1
    assert "changed   d1_kappa_0.5.json c computed" in capsys.readouterr().out


def test_rejects_a_negative_atol(script, tmp_path):
    with pytest.raises(SystemExit):
        script.main(["--atol", "-1e-14", str(tmp_path), str(tmp_path)])


def test_residual_imaginary_parts_pass_at_the_sweep_tolerances(script, tmp_path, capsys):
    # a computed value written as [re, 1e-18] against the same value turned real
    old = _write(tmp_path / "old", [IdentityReport("a", 2.0, complex(2.0000000000000124, 1e-18), 1e-6)])
    new = _write(tmp_path / "new", [IdentityReport("a", 2.0, 2.0000000000000124, 1e-6)])
    assert json.loads((old / "d1_kappa_0.5.json").read_text())["reports"][0]["computed"] == [2.0000000000000124, 1e-18]
    assert script.main(["--rtol", "1e-12", "--atol", "1e-14", str(old), str(new)]) == 0
    assert "1 reports matched, 0 differences" in capsys.readouterr().out
    assert script.main(["--rtol", "0", str(old), str(new)]) == 1
    assert "changed   d1_kappa_0.5.json a computed" in capsys.readouterr().out
