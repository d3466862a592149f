"""The identity suites over the seven-config sweep match their committed baseline.

tests/sweep_baseline holds the reports that scripts/run_identity_suites.py
writes for the five validation configs and the two kappa 0.3 configs.  A
fresh run is compared with it through scripts/compare_reports.compare at
rtol 1e-12 and atol 1e-14, which leaves room for BLAS and libm rounding
between machines; any added or missing report, pass flip or moved value
fails.  A change that moves report values on purpose regenerates the
baseline, from the repository root, with

    PYTHONPATH=src python3 scripts/run_identity_suites.py --json tests/sweep_baseline \\
        --config 1:0 --config 1:0.5 --config 1:2 --config 2:1,0 --config 3:1,0.5,0 \\
        --config 1:0.3 --config 2:0.3,1.7

and lists the moved reports in CHANGES.md; the diff of the baseline is then
the record of the change.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BASELINE = ROOT / "tests" / "sweep_baseline"
CONFIGS = ("1:0", "1:0.5", "1:2", "2:1,0", "3:1,0.5,0", "1:0.3", "2:0.3,1.7")
REPORTS = 346  # 54 + 50 + 50 + 49 + 44 + 50 + 49


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_matches_the_committed_baseline(tmp_path):
    sweep, compare_reports = _script("run_identity_suites"), _script("compare_reports")
    # the kappa 0.3 configs fail 11 reports each, so the exit status is 1; the baseline holds the verdicts
    sweep.main(["--json", str(tmp_path)] + [arg for config in CONFIGS for arg in ("--config", config)])
    old, new = compare_reports.load(BASELINE), compare_reports.load(tmp_path)
    failures, _ = compare_reports.compare(old, new, rtol=1e-12, atol=1e-14)
    assert failures == []
    assert len(old.keys() & new.keys()) == REPORTS
