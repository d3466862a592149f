"""One fresh benchmark process: set up a workload, then measure it.

Started by run.py, one at a time, never by hand:

    python3 perfbench/worker.py <workload> <seed> <seconds> <trace> <setup|measure> <t0> [tiny]

`t0` is the parent's time.monotonic() just before it started this process
(CLOCK_MONOTONIC is shared by all processes), so setup_s covers interpreter
start, the package import, input generation and one untimed warm-up
request.  `setup` mode stops there; `measure` mode then runs passes of the
workload in a closed loop with one client and prints one JSON line.

The machine's speed drifts by up to 30 % over minutes, and nearly all work
on it drifts together.  So the process also times a fixed calibration slice of
work outside the package, and the time metrics are reported at a reference
speed: measured seconds times CAL_REF_S over the slice's time, taken at the
same moment.  The measured seconds are printed as well (`*_raw_s`).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy
import scipy
import scipy.special

import tracer
import workloads

MAX_PASSES = 12
# The slice's time at the reference speed (a fixed constant, near its time
# on the baseline machine when that runs fast), and the longest gap between
# slices in a pass.
CAL_REF_S = 0.1
CAL_EVERY_S = 2.0


def calibrate() -> float:
    """Time one fixed slice of work that uses no package code, about a third
    each of a Python loop, a Bessel function of fractional order and sorts,
    as the workloads mix interpreter, special-function and array work."""
    start = time.perf_counter()
    total = 0
    for i in range(500_000):
        total += i * i
    x = numpy.linspace(0.1, 50.0, 20_000)
    for _ in range(3):
        scipy.special.jv(0.3, x)
    a = numpy.random.default_rng(0).standard_normal(200_000)
    for _ in range(20):
        numpy.sort(a)
    return time.perf_counter() - start


def machine_facts() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_pass(plan, reqs, recorder=None) -> dict:
    times, attempted, failed, unexpected, messages = [], 0, 0, 0, []
    suites: dict[str, float] = {}
    plan.recorder = recorder
    if recorder is not None:
        recorder.spans = []
        recorder.install()
    slices = [calibrate()]
    last = time.perf_counter()
    try:
        for i, req in enumerate(reqs):
            if recorder is not None:
                recorder.request = i
            start = time.perf_counter()
            try:
                outcome, elapsed = workloads.execute(req, plan)
            except Exception as exc:  # the loop must go on, count it and time it
                outcome, elapsed = workloads.Outcome(), time.perf_counter() - start
                outcome.fail(f"{type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
            times.append(elapsed)
            attempted += outcome.attempted
            failed += outcome.failed
            unexpected += outcome.unexpected
            messages += [f"{workloads.label(req)}: {m}" for m in outcome.messages]
            if isinstance(req, workloads.Verify):
                suites[req.suite] = suites.get(req.suite, 0.0) + elapsed
            if time.perf_counter() - last >= CAL_EVERY_S:
                slices.append(calibrate())
                last = time.perf_counter()
    finally:
        if recorder is not None:
            recorder.uninstall()
        plan.recorder = None
    return {
        "traced": recorder is not None,
        "speed": CAL_REF_S / statistics.median(slices),
        "wall": sum(times),
        "times": times,
        "suites": suites,
        "attempted": attempted,
        "failed": failed,
        "unexpected": unexpected,
        "messages": messages,
    }


def measure(plan, seconds: float, trace: bool, spans_path: str | None) -> dict:
    """Closed loop over passes until `seconds` are used, at least two; a
    traced run alternates untraced and traced passes."""
    recorder = tracer.Recorder() if trace else None
    passes, layers, traced_spans = [], [], []
    start = time.perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        p = run_pass(plan, plan.requests, recorder if traced else None)
        if traced:
            layers.append(tracer.layer_metrics(recorder.spans))
            traced_spans.append(recorder.spans)
        passes.append(p)
        k += 1
        elapsed = time.perf_counter() - start
        typical = statistics.median(q["wall"] for q in passes)
        if k >= MAX_PASSES or (k >= 2 and elapsed + 0.5 * typical >= seconds):
            break
    if trace and spans_path:
        tracer.dump(spans_path, traced_spans)
    return summarize(passes, layers)


def summarize(passes: list, layers: list) -> dict:
    """End-to-end metrics from the untraced passes, layer metrics from the
    traced ones; every value is (value, unit).  Times of a pass are scaled
    by that pass's speed."""
    plain = [p for p in passes if not p["traced"]]
    times = [t * p["speed"] for p in plain for t in p["times"]]
    metrics = {
        "wall_s": (statistics.median(p["wall"] * p["speed"] for p in plain), "s"),
        "wall_raw_s": (statistics.median(p["wall"] for p in plain), "s"),
        "speed": (statistics.median(p["speed"] for p in plain), "ratio"),
    }
    # a percentile needs ten samples beyond it
    if len(times) >= 100:
        metrics["req_p50_s"] = (statistics.median(times), "s")
        metrics["req_p90_s"] = (statistics.quantiles(times, n=10)[8], "s")
    for suite in sorted({s for p in plain for s in p["suites"]}):
        sums = [p["suites"].get(suite, 0.0) * p["speed"] for p in plain]
        metrics[f"suite_s.{suite}"] = (statistics.median(sums), "s")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics["fail_frac"] = (failed / attempted, "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    layer = {}
    if layers:
        layer = tracer.median_metrics(layers)
        # measured times: passes alternate, so the drift cancels, and the
        # spans a traced run holds slow the calibration slice down
        traced_wall = statistics.median(p["wall"] for p in passes if p["traced"])
        layer["trace.overhead_frac"] = (traced_wall / metrics["wall_raw_s"][0] - 1.0, "ratio")
    messages = [m for p in passes for m in p["messages"]]
    return {
        "end_to_end": metrics,
        "per_layer": layer,
        "passes": len(plain),
        "pass_walls": " ".join(f"{p['wall']:.3f}" for p in plain),
        "traced_passes": len(passes) - len(plain),
        "requests": len(times),
        "attempted": attempted,
        "failed": failed,
        "unexpected": sum(p["unexpected"] for p in passes),
        "messages": sorted(set(messages))[:20],
    }


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, mode, t0 = argv[:6]
    tiny = argv[6:] == ["tiny"]
    rundir = os.path.join(".bench_run", f"{workload}-{os.getpid()}")
    try:
        plan = workloads.Plan(workload, int(seed), rundir, tiny=tiny)
        outcome, _ = workloads.execute(plan.warmup, plan)
        setup_raw_s = time.monotonic() - float(t0)
        setup = {"setup_s": setup_raw_s * CAL_REF_S / calibrate(), "setup_raw_s": setup_raw_s}
        if mode == "setup":
            print(json.dumps(setup))
            return 0
        spans_path = os.path.join(".bench_run", f"spans-{workload}.json")
        result = measure(plan, float(seconds), trace == "1", spans_path)
        result.update(setup)
        result["warmup_unexpected"] = outcome.unexpected
        result["machine"] = machine_facts()
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
