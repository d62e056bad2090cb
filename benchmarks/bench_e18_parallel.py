"""E18 (extension) — parallel execution backends, identical reports.

The paper's premise is millions of instances feeding one hive; the
``repro.exec`` backends let the pod fleet actually run in parallel
(worker processes, pods partitioned into shards) while the
coordinator plans every random draw up front and the hive folds shard
tree deltas and ingests batch entries in global execution order. The
claims under test, post session-protocol redesign:

* the *report is bit-identical across backends* for a fixed seed —
  every leg, unconditionally;
* the session protocol streams each round in windows (the hive ingests
  window w while the worker runs w+1), so one worker process keeps pace
  with the in-process serial loop (``process-1`` vs ``serial``) — on a
  1-core host the two processes time-share a single CPU, so the strict
  >= 1x assertion is gated on >= 2 cores and a looser floor guards the
  single-core overhead;
* on a >= 4-core host the 4-worker process backend halves the serial
  wall-clock at fleet scale (n_pods >= 40).

Wall-clock numbers land in ``benchmarks/out/e18_parallel.json`` (free
form) and ``benchmarks/out/BENCH_e18.json`` (stable schema v1, see
``schema.py``) so CI's perf-regression job can compare against the
floors recorded in ``benchmarks/floors.json`` even on hosts where the
strict assertions are gated off.
"""

import json
import os
import time
from pathlib import Path

from repro.metrics.report import render_table
from repro.platform import PlatformConfig, SoftBorgPlatform
from repro.workloads.scenarios import crash_scenario

from schema import write_bench_json

OUT_DIR = Path(__file__).parent / "out"

N_PODS = 40
ROUNDS = 3
EXECUTIONS = 2000
#: Best-of-N wall-clock per leg: speedup is a floor property and the
#: minimum is the right estimator on jittery shared hosts.
REPEATS = 2

#: (leg name, backend, workers). ``process-1`` is the session-protocol
#: acid test: same work as serial plus the whole coordinator/worker
#: wire — any per-round shipping overhead shows up directly.
LEGS = (
    ("serial", "serial", 1),
    ("process-1", "process", 1),
    ("process-4", "process", 4),
)


def _run_backend(backend, workers):
    platform = SoftBorgPlatform(
        crash_scenario(n_users=60, volatility=0.5, seed=2),
        PlatformConfig(n_pods=N_PODS, rounds=ROUNDS,
                       executions_per_round=EXECUTIONS,
                       fixing=False, enable_proofs=False, seed=2,
                       backend=backend, workers=workers))
    start = time.perf_counter()
    report = platform.run()
    elapsed = time.perf_counter() - start
    return report, elapsed


def run_experiment():
    results = {}
    for leg, backend, workers in LEGS:
        report, elapsed = _run_backend(backend, workers)
        for _ in range(REPEATS - 1):
            _report, again = _run_backend(backend, workers)
            elapsed = min(elapsed, again)
        results[leg] = (report, elapsed)
    return results


def test_e18_parallel(benchmark, emit):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    serial_report, serial_s = results["serial"]
    rows = []
    for leg, _backend, _workers in LEGS:
        report, elapsed = results[leg]
        rows.append([
            leg,
            report.total_executions,
            report.total_failures,
            f"{elapsed:.2f}",
            f"{serial_s / elapsed:.2f}x",
            "yes" if report.as_dict() == serial_report.as_dict()
            else "NO",
        ])
    table = render_table(
        ["leg", "executions", "failures", "wall-clock (s)",
         "speedup", "report == serial"],
        rows,
        title=f"E18: execution backends at fleet scale"
              f" ({N_PODS} pods, {ROUNDS}x{EXECUTIONS} executions,"
              f" {os.cpu_count()} cores)")
    emit("e18_parallel", table)

    speedup = {leg: serial_s / results[leg][1] for leg in results}
    identical = {
        leg: results[leg][0].as_dict() == serial_report.as_dict()
        for leg in results}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "e18_parallel.json", "w",
              encoding="utf-8") as handle:
        json.dump({
            "n_pods": N_PODS,
            "rounds": ROUNDS,
            "executions_per_round": EXECUTIONS,
            "cpu_count": os.cpu_count(),
            "wall_clock_s": {leg: results[leg][1] for leg in results},
            "speedup_vs_serial": speedup,
            "reports_identical": identical,
        }, handle, indent=2, sort_keys=True)
    write_bench_json("e18", {
        "serial_wall_s": serial_s,
        "process_speedup_1w": speedup["process-1"],
        "process_speedup_4w": speedup["process-4"],
        "reports_identical": all(identical.values()),
    })

    # Determinism is unconditional: every backend reproduces the serial
    # report bit for bit at the same seed.
    assert serial_report.total_executions == ROUNDS * EXECUTIONS
    assert all(identical.values()), identical

    # Single-worker floor, unconditional: the session protocol must
    # keep one worker within striking distance of serial even when
    # coordinator and worker time-share one core (pre-redesign this
    # was 0.67x). The strict >= 1x claim needs a second core for the
    # worker to actually run beside the coordinator.
    assert speedup["process-1"] >= 0.8, speedup
    cores = os.cpu_count() or 1
    if cores >= 2:
        assert speedup["process-1"] >= 1.0, speedup
    # The fleet-scale claim needs cores to be real: on >= 4-core hosts
    # the process backend must halve the serial wall-clock.
    if cores >= 4:
        assert speedup["process-4"] >= 2.0, speedup
