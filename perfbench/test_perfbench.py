"""Self-tests of the benchmark.  From the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracer
import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    # the report names the metrics that apply to this workload only
    for name in ("fail_frac", "wall_s", "setup_s", "peak_rss_mb", "req_p50_s", "req_p90_s"):
        assert f" {name} " in proc.stdout
    if workload != "certify":
        assert " suite_s." in proc.stdout or workload == "suites-d3"


def test_workload_without_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "certify", "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _tiny_plan(tmp_path, name="certify", seed=5):
    return workloads.Plan(name, seed, str(tmp_path / name), tiny=True)


def test_wrong_expected_exit_code_raises_fail_frac(tmp_path):
    plan = _tiny_plan(tmp_path)
    good = next(r for r in plan.requests if isinstance(r, workloads.Certify) and r.expect == 0)
    bad = workloads.Certify(good.config, good.function, good.points, expect=1)
    passes = [worker.run_pass(plan, [good]), worker.run_pass(plan, [bad])]
    assert passes[0]["failed"] == 0
    assert passes[1]["failed"] == 1 and passes[1]["unexpected"] == 1
    assert worker.summarize(passes, [])["end_to_end"]["fail_frac"][0] == pytest.approx(0.5)


def test_wrong_partner_fails_the_csv_check(tmp_path):
    plan = _tiny_plan(tmp_path)
    fwd = next(r for r in plan.requests if isinstance(r, workloads.Transform) and not r.inverse)
    outcome, _ = workloads.execute(fwd, plan)
    assert outcome.failed == 0
    t = float(fwd.catalog.split("=")[1])
    wrong = workloads.Transform(fwd.config, fwd.function, fwd.output, False, f"gaussian:t={t * 1.01}")
    outcome, _ = workloads.execute(wrong, plan)
    assert outcome.failed == 1 and outcome.unexpected == 1


def test_known_defects_count_but_do_not_break_correctness(tmp_path):
    plan = _tiny_plan(tmp_path, "generic-kappa")
    (req,) = plan.requests
    outcome, _ = workloads.execute(req, plan)
    known = workloads.KNOWN_DEFECTS[(req.config, req.suite)]
    assert outcome.failed == len(known) and outcome.unexpected == 0


def test_counts_repeat_exactly(tmp_path):
    runs = []
    for i in range(2):
        plan = workloads.Plan("certify", 7, str(tmp_path / str(i)), tiny=True)
        runs.append(worker.measure(plan, 0.0, True, None)["per_layer"])
    counts = [{k: v for k, v in r.items() if v[1] in ("count", "B")} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["kernel.products.ladder"][0] > 0


def test_recorder_restores_every_binding():
    import dunklpd
    from dunklpd import identities, quadrature, transform

    before = (identities.forward, transform.forward, dunklpd.forward, quadrature.Grid.__init__)
    rec = tracer.Recorder()
    rec.install()
    assert identities.forward is not before[0] and dunklpd.forward is not before[2]
    assert identities.forward is transform.forward
    rec.uninstall()
    assert (identities.forward, transform.forward, dunklpd.forward, quadrature.Grid.__init__) == before


def test_self_time_excludes_children():
    spans = [
        (0, -1, "cli", "main", 0.0, 10.0, None),
        (0, 0, "posdef", "gram", 1.0, 5.0, None),
        (0, 1, "kernel", "_phase_1d", 2.0, 3.0, ("ladder", 40)),
        (0, 1, "quadrature", "Grid.__init__", 3.0, 4.0, ((1, (0.5,), 16.0, 256), 256)),
        (0, 1, "quadrature", "Grid.__init__", 4.0, 4.5, ((1, (0.5,), 16.0, 256), 256)),
    ]
    m = tracer.layer_metrics(spans)
    assert m["cli.self_s"][0] == pytest.approx(6.0)
    assert m["posdef.self_s"][0] == pytest.approx(1.5)
    assert m["kernel.rate.ladder"][0] == pytest.approx(40.0)
    assert m["quadrature.repeat_ratio"][0] == pytest.approx(0.5)
    assert m["posdef.calls"][0] == 1 and m["quadrature.grid_nodes"][0] == 512


def test_request_that_raises_is_counted_and_timed(tmp_path):
    plan = _tiny_plan(tmp_path)
    # no config file is written for this kappa, so reading the report raises
    p = worker.run_pass(plan, [workloads.Verify((1, (0.77,)), "kernel")])
    assert p["failed"] == 1 and p["unexpected"] == 1
    assert len(p["times"]) == 1 and p["wall"] > 0.0


def test_times_are_scaled_by_each_pass_speed():
    def fake(wall, speed):
        return {"traced": False, "speed": speed, "wall": wall, "times": [wall], "suites": {"kernel": wall},
                "attempted": 1, "failed": 0, "unexpected": 0, "messages": []}

    m = worker.summarize([fake(2.0, 0.5), fake(1.0, 1.0), fake(3.0, 1.0 / 3.0)], [])["end_to_end"]
    assert m["wall_s"][0] == pytest.approx(1.0) and m["suite_s.kernel"][0] == pytest.approx(1.0)
    assert m["wall_raw_s"][0] == pytest.approx(2.0)
