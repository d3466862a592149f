"""Benchmark of dunklpd: seeded workloads, a correctness gate, named metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suites-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in fresh single-threaded interpreters, one at a time:
SETUP_SAMPLES - 1 that only set up (for the median of setup_s) and one that
sets up and then measures.  The report lists every metric that applies to
the workload by name and unit; the last line is one JSON object whose
metrics are BENCHMARK.json's end_to_end list (--trace 0) or its per_layer
list (--trace 1).  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("suites-small", "suites-d3", "generic-kappa", "certify")
SETUP_SAMPLES = 11
RUN_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Start one worker, wait for it, return its JSON line."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py")] + args[:5] + [repr(t0)] + args[5:]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker {' '.join(args[:5])} ran past the time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args[:5])} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    args = [name, str(seed), str(seconds), str(trace)]
    extra = ["tiny"] if tiny else []
    setups = [run_child(args + ["setup"] + extra, deadline) for _ in range(SETUP_SAMPLES - 1)]
    result = run_child(args + ["measure"] + extra, deadline)
    setups.append(result)
    for metric in ("setup_s", "setup_raw_s"):
        result["end_to_end"][metric] = [statistics.median(s[metric] for s in setups), "s"]
    result["setup_samples"] = len(setups)
    return result


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


NOTES = {
    "setup_s": "median of {setup_samples} fresh interpreters, at reference speed",
    "setup_raw_s": "median of {setup_samples} fresh interpreters, measured",
    "wall_s": "median of {passes} untraced passes, at reference speed",
    "wall_raw_s": "median of {passes} untraced passes, measured: {pass_walls}",
    "speed": "calibration slice at reference speed over its time, median of passes",
    "req_p50_s": "n={requests}",
    "req_p90_s": "n={requests}",
    "fail_frac": "{failed}/{attempted} operations",
    "quadrature.points_bytes": "computed from array sizes",
    "trace.overhead_frac": "traced over untraced pass wall time, minus 1",
}


def report(name: str, seed: int, result: dict, facts: str) -> None:
    print(f"== {name} seed={seed} passes={result['passes']} traced_passes={result['traced_passes']}")
    print(f"   machine: {facts}")
    for section in ("end_to_end", "per_layer"):
        for metric, (value, unit) in sorted(result[section].items()):
            note = NOTES.get(metric, "").format(**result)
            print(f"   {metric:<32} {fmt(value):>14} {unit:<6} {note}")
    for metric in ("req_p50_s", "req_p90_s"):
        if metric not in result["end_to_end"]:
            print(f"   {metric:<32} {'-':>14} {'s':<6} not reported: n={result['requests']} < 100")
    for message in result["messages"]:
        print(f"   fail: {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dunklpd benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="one cheap pass per workload (self-tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dunklpd" / "__init__.py").is_file():
        print(f"error: no dunklpd sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    facts = None
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace, args.tiny)
            if facts is None:
                machine = dict(result["machine"], nproc=os.cpu_count(), cpu=cpu_model())
                facts = " ".join(f"{k}={v}" for k, v in machine.items())
            report(name, args.seed, result, facts)
            measured = dict(result["end_to_end"], **result["per_layer"])
            prefix = "" if len(names) == 1 else f"{name}/"
            for m in wanted:
                value, unit = measured[m["name"]]
                if unit != m["unit"]:
                    raise RuntimeError(f"{m['name']} measured in {unit}, BENCHMARK.json says {m['unit']}")
                summary["metrics"][prefix + m["name"]] = {"value": value, "unit": unit}
            summary["correct"] &= result["unexpected"] == 0 and result["warmup_unexpected"] == 0
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
    except (RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
