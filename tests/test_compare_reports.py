"""scripts/compare_reports.py on two tiny report directories."""

import importlib.util
import json
from pathlib import Path

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
