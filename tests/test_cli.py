"""Command-line harness: exit codes, file formats, determinism."""

import importlib.metadata
import importlib.util
import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dunklpd import cli
from dunklpd.reports import IdentityReport


REPO_ROOT = Path(__file__).resolve().parents[1]


def _pyproject():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def _distribution_installed(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"dimension": 1, "kappa": [0.5]}))
    return str(path)


@pytest.fixture()
def plane_config_path(tmp_path):
    path = tmp_path / "config2.json"
    path.write_text(json.dumps({"dimension": 2, "kappa": [1.0, 0.0]}))
    return str(path)


class TestTransformCommand:
    def test_writes_grid_csv(self, config_path, tmp_path, capsys):
        out = tmp_path / "fwd.csv"
        rc = cli.main(
            ["transform", "--config", config_path, "--function", "gaussian:t=1", "--output", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x1,re,im"
        assert len(lines) == 162  # default 1d output grid plus header
        assert "written to" in capsys.readouterr().out

    def test_custom_grid_and_determinism(self, config_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["transform", "--config", config_path, "--function", "cauchy:p=4", "--grid", "5,21"]
        assert cli.main(args + ["--output", str(a)]) == 0
        assert cli.main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_through_csv(self, config_path, tmp_path):
        fwd = tmp_path / "fwd.csv"
        back = tmp_path / "back.csv"
        cli.main(["transform", "--config", config_path, "--function", "gaussian:t=1", "--output", str(fwd)])
        rc = cli.main(
            ["transform", "--config", config_path, "--function", str(fwd), "--inverse", "--output", str(back)]
        )
        assert rc == 0
        data = np.loadtxt(str(back), delimiter=",", skiprows=1)
        want = np.exp(-data[:, 0] ** 2)
        # multilinear resampling of the intermediate grid caps the accuracy
        assert float(np.max(np.abs(data[:, 1] - want))) < 5e-3

    def test_strict_escalates_warnings(self, config_path, tmp_path, capsys):
        fwd = tmp_path / "fwd.csv"
        cli.main(["transform", "--config", config_path, "--function", "gaussian:t=1", "--output", str(fwd)])
        rc = cli.main(
            [
                "transform",
                "--config",
                config_path,
                "--function",
                str(fwd),
                "--inverse",
                "--strict",
                "--output",
                str(tmp_path / "b.csv"),
            ]
        )
        assert rc == 1
        assert "escalated" in capsys.readouterr().err


class TestCertifyCommand:
    def test_pd_function_passes(self, config_path, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = cli.main(
            [
                "certify",
                "--config",
                config_path,
                "--function",
                "gaussian:t=2",
                "--points",
                "builtin:5",
                "--strict-pd",
                "--report",
                str(report),
            ]
        )
        assert rc == 0
        payload = json.loads(report.read_text())
        assert payload["pass"] is True
        assert payload["gram"]["psd"] and payload["gram"]["spd"]
        assert payload["bochner"]["pass"] is True
        assert payload["strict"]["pass"] is True
        assert payload["config"] == {"dimension": 1, "kappa": [0.5]}
        assert "[PASS]" in capsys.readouterr().out

    def test_falsifier_fails_with_exit_one(self, config_path, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = cli.main(
            [
                "certify",
                "--config",
                config_path,
                "--function",
                "sinmod",
                "--points",
                "builtin:4",
                "--strict-pd",
                "--report",
                str(report),
            ]
        )
        assert rc == 1
        payload = json.loads(report.read_text())
        assert payload["pass"] is False
        assert payload["gram"]["psd"] is False
        assert payload["bochner"]["pass"] is False
        assert "skipped" in payload["strict"]["notes"]
        assert "[FAIL]" in capsys.readouterr().out

    def test_points_csv(self, config_path, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("x1\n0.0\n0.9\n2.1\n")
        rc = cli.main(
            ["certify", "--config", config_path, "--function", "bessel_k:p=2.5", "--points", str(pts)]
        )
        assert rc == 0


class TestVerifyCommand:
    def test_kernel_suite_passes(self, plane_config_path, tmp_path, capsys):
        report = tmp_path / "verify.json"
        rc = cli.main(
            ["verify", "--config", plane_config_path, "--suite", "kernel", "--report", str(report)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "identities passed" in out
        payload = json.loads(report.read_text())
        assert payload["all_pass"] is True
        assert payload["suite"] == "kernel"
        assert payload["config"]["dimension"] == 2

    def test_suite_script_writes_the_verify_report(self, config_path, tmp_path):
        # scripts/run_identity_suites.py --json DIR writes, per config, the
        # file `dunklpd verify --report` writes for that config and suite
        path = REPO_ROOT / "scripts" / "run_identity_suites.py"
        spec = importlib.util.spec_from_file_location("run_identity_suites", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        out_dir = tmp_path / "reports"
        assert script.main(["--suite", "kernel", "--config", "1:0.5", "--json", str(out_dir)]) == 0
        report = tmp_path / "verify.json"
        cli.main(["verify", "--config", config_path, "--suite", "kernel", "--report", str(report)])
        assert [p.name for p in out_dir.iterdir()] == ["d1_kappa_0.5.json"]
        assert (out_dir / "d1_kappa_0.5.json").read_bytes() == report.read_bytes()

    @pytest.mark.parametrize("suite, config, underresolved", [("heat", "1:0.3", True), ("kernel", "1:0.5", False)])
    def test_suite_script_counts_accuracy_warnings(self, suite, config, underresolved, capsys):
        # the summary row carries the AccuracyWarnings the config raised; at
        # kappa=0.3 the heat suite's checks are underresolved, the kernel
        # suite at kappa=1/2 raises none
        path = REPO_ROOT / "scripts" / "run_identity_suites.py"
        spec = importlib.util.spec_from_file_location("run_identity_suites", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        script.main(["--suite", suite, "--config", config])
        out, err = capsys.readouterr()
        header, row = out.splitlines()[-2:]
        assert header.split() == ["config", "passed", "warnings", "seconds"]
        count = int(row.split()[-2])
        assert (count >= 1) == underresolved
        assert err.count("AccuracyWarning") == count

    def test_round_trip_script_table(self, capsys):
        # scripts/round_trip_report.py prints one row per inversion round trip
        path = REPO_ROOT / "scripts" / "round_trip_report.py"
        spec = importlib.util.spec_from_file_location("round_trip_report", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert script.main(["--dims", "1"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.split()[-2:] == ["rel", "seconds"]
        assert len(rows) == 12  # three d=1 configs, four catalog functions
        assert all(float(row.split()[-2]) < 1e-6 for row in rows)

    def test_heat_smoothing_sweep_table(self, capsys):
        # scripts/heat_smoothing_sweep.py prints the sharp form and one row per t,
        # with the gap/t figures its docstring quotes
        path = REPO_ROOT / "scripts" / "heat_smoothing_sweep.py"
        spec = importlib.util.spec_from_file_location("heat_smoothing_sweep", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert script.main([]) == 0
        sharp, header, *rows = capsys.readouterr().out.splitlines()
        assert sharp.startswith("sharp form value: ") and float(sharp.split(": ")[1]) > 0.0
        assert header.split() == ["t", "gap", "gap/t", "ratio"]
        slope = {float(row.split()[0]): float(row.split()[2]) for row in rows}
        assert len(rows) == len(slope) == 8
        assert f"{slope[0.05]:.2f}" == "6.93" and f"{slope[0.0004]:.2f}" == "10.43"
        assert "6.93" in script.__doc__ and "10.43" in script.__doc__

    def test_failing_suite_exits_one(self, config_path, monkeypatch, capsys):
        broken = [IdentityReport("always_wrong", 1.0, 2.0, 1e-9)]
        monkeypatch.setattr(cli, "run_suites", lambda *a, **k: broken)
        rc = cli.main(["verify", "--config", config_path, "--suite", "kernel"])
        assert rc == 1
        assert "NOT all" in capsys.readouterr().out


class TestUsageErrors:
    @pytest.mark.parametrize(
        "mutation",
        [
            {"function": "nosuch:t=1"},
            {"function": "gaussian:p=1"},
            {"function": "gaussian:t=abc"},
            {"function": "gaussian:t=-2"},
            {"function": "cauchy:p=1.0"},  # below the config's validity edge
            {"function": "gaussian:t=1,t=2"},  # a repeated parameter
            {"function": "gaussian:t=1,"},  # a trailing comma: the grammar is name:param=value
            {"function": "gaussian:"},
            {"function": "gaussian:t"},
        ],
    )
    def test_bad_function_specs(self, config_path, tmp_path, mutation, capsys):
        rc = cli.main(
            [
                "transform",
                "--config",
                config_path,
                "--function",
                mutation["function"],
                "--output",
                str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dimension": 1, "kappa": [-1.0]}))
        rc = cli.main(["verify", "--config", str(bad)])
        assert rc == 2
        missing = str(tmp_path / "nope.json")
        assert cli.main(["verify", "--config", missing]) == 2
        capsys.readouterr()

    def test_bad_grid_and_points(self, config_path, tmp_path, capsys):
        rc = cli.main(
            [
                "transform",
                "--config",
                config_path,
                "--function",
                "gaussian:t=1",
                "--grid",
                "banana",
                "--output",
                str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 2
        rc = cli.main(
            ["certify", "--config", config_path, "--function", "gaussian:t=1", "--points", "builtin:zz"]
        )
        assert rc == 2
        pts = tmp_path / "pts.csv"
        pts.write_text("wrong\n0.0\n")
        rc = cli.main(["certify", "--config", config_path, "--function", "gaussian:t=1", "--points", str(pts)])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("grid", ["nan,5", "inf,5", "0,5"])
    def test_non_finite_grid_extent(self, config_path, tmp_path, grid, capsys):
        out = tmp_path / "x.csv"
        rc = cli.main(
            ["transform", "--config", config_path, "--function", "gaussian:t=1", "--grid", grid, "--output", str(out)]
        )
        assert rc == 2
        assert "extent" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_sampled_function(self, config_path, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("x1,re,im\n-1.0,0.5,0\n0.0,1.0,0\nnan,0.5,0\n")
        rc = cli.main(["certify", "--config", config_path, "--function", str(csv)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err
        assert "PASS" not in captured.out

    def test_non_finite_points(self, config_path, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("x1\n0.0\nnan\n")
        rc = cli.main(["certify", "--config", config_path, "--function", "gaussian:t=1", "--points", str(pts)])
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("body", ["0.0\n0.5,1.0\n", "0.0\nnan\n"], ids=["ragged", "nan"])
    def test_malformed_points_csv(self, config_path, tmp_path, body, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("x1\n" + body)
        rc = cli.main(["certify", "--config", config_path, "--function", "gaussian:t=1", "--points", str(pts)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("route", ["function", "points"])
    def test_header_only_csv(self, config_path, tmp_path, route, capsys):
        # a header with no rows is refused before numpy's loadtxt warns about it
        csv = tmp_path / "header_only.csv"
        if route == "function":
            csv.write_text("x1,re,im\n")
            argv = ["transform", "--config", config_path, "--function", str(csv), "--output", str(tmp_path / "o.csv")]
        else:
            csv.write_text("x1\n\n")
            argv = ["certify", "--config", config_path, "--function", "gaussian:t=1", "--points", str(csv)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(argv)
        assert rc == 2
        assert [str(w.message) for w in caught] == []
        captured = capsys.readouterr()
        assert captured.err == f"error: {csv}: no data rows\n"
        assert captured.out == ""

    @pytest.mark.parametrize("function", ["gaussian:t=1e-300", "cauchy:p=1e300", "bessel_k:p=200"])
    def test_overflowing_catalog_constant(self, tmp_path, function, capsys):
        # the transform partner's (or the member's own) normalization constant is past the float range at d=3
        config = tmp_path / "config3.json"
        config.write_text(json.dumps({"dimension": 3, "kappa": [1.0, 0.5, 0.0]}))
        rc = cli.main(["certify", "--config", str(config), "--function", function])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "finite positive" in captured.err
        assert "PASS" not in captured.out

    def test_sampled_csv_without_coordinates(self, config_path, tmp_path, capsys):
        csv = tmp_path / "d0.csv"
        csv.write_text("re,im\n1,0\n")
        out = tmp_path / "o.csv"
        rc = cli.main(["transform", "--config", config_path, "--function", str(csv), "--output", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_dimension_mismatch_between_config_and_samples(self, plane_config_path, tmp_path, capsys):
        csv = tmp_path / "one_d.csv"
        csv.write_text("x1,re,im\n-1.0,0.5,0\n0.0,1.0,0\n1.0,0.5,0\n")
        rc = cli.main(
            [
                "transform",
                "--config",
                plane_config_path,
                "--function",
                str(csv),
                "--output",
                str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 2
        capsys.readouterr()


class TestEntryPoint:
    def test_console_script_installed(self):
        # the declared entry point, run the way an installer's generated wrapper runs it
        scripts = _pyproject()["project"].get("scripts", {})
        assert scripts.get("dunklpd") == "dunklpd.cli:main"
        module, attr = scripts["dunklpd"].split(":")
        wrapper = f"import sys; from {module} import {attr}; sys.argv[0] = 'dunklpd'; sys.exit({attr}())"
        proc = subprocess.run([sys.executable, "-c", wrapper, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: dunklpd")

    @pytest.mark.skipif(
        not _distribution_installed("dunklpd"),
        reason="no installed 'dunklpd' distribution (importlib.metadata.PackageNotFoundError), "
        "so no console script is on PATH",
    )
    def test_console_script_on_path(self):
        exe = shutil.which("dunklpd")
        assert exe, "console script should be on PATH after install"
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dunklpd.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "transform" in proc.stdout and "certify" in proc.stdout and "verify" in proc.stdout
