"""E23 (extension) — hot-path compute overhaul.

The PR-10 optimization bundle — expression interning + incremental
slice keys, the wire codec's varint fast paths, the interpreter
dispatch table, and lazy span shipping — is only admissible because it
is *identity-preserving*: every report stays bit-identical across
backends. This experiment pins the payoff side of that bargain against
the recorded pre-overhaul baselines (measured on the same workload at
the PR-9 tree):

* serial rounds/sec on the E18 workload (the whole closed loop:
  interpreter, capture, dedup, codec, replay, ingest) — pre-overhaul
  **1.739 rounds/sec**; the floor demands >= 1.25x;
* ``condition_slices`` probe rate on a 24-conjunct PathCondition (the
  solver probes every slice at every fork, so this is the cache's
  innermost loop) — pre-overhaul **1099 probes/sec**; the floor
  demands >= 2x;
* interpreter pairs per slice probe: race-demo live runs under a
  seeded random scheduler, each followed by the hive-side replay of
  its trace (the two executions every SoftBorg run costs), counted
  against the probe leg timed beside it in the same process. The
  probe code did not change with the lowered interpreter, so the
  ratio cancels most of the host's speed (on a host that drops to a
  slower clock, the probe leg slows a little more than the
  interpreter). Baseline recorded with the tree-walking interpreter
  that lowering replaced; the floor demands >= 1.2x.

Tables land in ``benchmarks/out/e23_hotpath.{txt,json}``; the flat CI
document in ``benchmarks/out/BENCH_e23.json`` (floors in
``benchmarks/floors.json``).
"""

import json
import os
import time
from pathlib import Path

from repro.metrics.report import render_table
from repro.platform import PlatformConfig, SoftBorgPlatform
from repro.progmodel.corpus import make_race_demo
from repro.progmodel.interpreter import Interpreter
from repro.progmodel.ir import Const, Input
from repro.sched.scheduler import RandomScheduler
from repro.symbolic.cache import condition_slices
from repro.symbolic.pathcond import PathCondition
from repro.tracing.trace import trace_from_result
from repro.workloads.scenarios import crash_scenario

from schema import write_bench_json

OUT_DIR = Path(__file__).parent / "out"

#: Recorded at the PR-9 tree on the reference container (best of 3).
BASELINE_SERIAL_RPS = 1.739
BASELINE_PROBE_RPS = 1099.0
#: Interpreter pairs per slice probe, recorded with the tree-walking
#: interpreter on a 2-core x86 container (Python 3.11): the median of
#: 25 runs, each the ratio of the two legs' bests of PAIRED_REPEATS.
BASELINE_INTERP_PER_PROBE = 0.02140

SERIAL_ROUNDS = 3
SERIAL_EXECUTIONS = 2000
PROBE_ITERATIONS = 2000
INTERP_PAIRS = 400
REPEATS = 3
#: The probe and interpreter legs alternate this many times: the host
#: switches between speeds, and more rounds let both bests land on the
#: same one.
PAIRED_REPEATS = 5


def _serial_leg():
    """The E18 serial workload: elapsed seconds for the whole loop."""
    platform = SoftBorgPlatform(
        crash_scenario(n_users=60, volatility=0.5, seed=2),
        PlatformConfig(n_pods=40, rounds=SERIAL_ROUNDS,
                       executions_per_round=SERIAL_EXECUTIONS,
                       fixing=False, enable_proofs=False, seed=2,
                       backend="serial"))
    start = time.perf_counter()
    platform.run()
    return time.perf_counter() - start


def _probe_leg():
    """Repeated slice probes over a grown PathCondition; probes/sec."""
    cond = PathCondition()
    for i in range(24):
        expr = (Input(f"x{i % 8}") + Const(i)) > Const(i * 3)
        cond = cond.extended(expr, i % 2 == 0)
    start = time.perf_counter()
    for _ in range(PROBE_ITERATIONS):
        slices = condition_slices(cond)
    elapsed = time.perf_counter() - start
    assert slices, "probe workload produced no slices"
    return PROBE_ITERATIONS / elapsed


def _interp_leg():
    """Race-demo live runs, each followed by the replay of its trace;
    pairs/sec."""
    program = make_race_demo().program
    start = time.perf_counter()
    for i in range(INTERP_PAIRS):
        live = Interpreter(program).run(
            {"k": 1 + i % 3}, scheduler=RandomScheduler(seed=i))
        Interpreter(program).replay(trace_from_result(live).replay_source())
    return INTERP_PAIRS / (time.perf_counter() - start)


def run_experiment():
    serial_best = min(_serial_leg() for _ in range(REPEATS))
    # The probe and interpreter legs alternate, so their bests are
    # taken at the same host speed.
    probe_rates, interp_rates = [], []
    for _ in range(PAIRED_REPEATS):
        probe_rates.append(_probe_leg())
        interp_rates.append(_interp_leg())
    return {
        "serial_rps": SERIAL_ROUNDS / serial_best,
        "probe_rps": max(probe_rates),
        "interp_pps": max(interp_rates),
    }


def test_e23_hotpath(benchmark, emit):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    serial_speedup = results["serial_rps"] / BASELINE_SERIAL_RPS
    probe_speedup = results["probe_rps"] / BASELINE_PROBE_RPS
    interp_per_probe = results["interp_pps"] / results["probe_rps"]
    interp_speedup = interp_per_probe / BASELINE_INTERP_PER_PROBE
    rows = [
        ["serial loop (E18 workload)", f"{BASELINE_SERIAL_RPS:.2f}",
         f"{results['serial_rps']:.2f}", f"{serial_speedup:.2f}x"],
        ["slice probes (24 conjuncts)", f"{BASELINE_PROBE_RPS:.0f}",
         f"{results['probe_rps']:.0f}", f"{probe_speedup:.1f}x"],
        ["interpreter pairs per probe", f"{BASELINE_INTERP_PER_PROBE:.4f}",
         f"{interp_per_probe:.4f}", f"{interp_speedup:.2f}x"],
    ]
    table = render_table(
        ["hot path", "before", "after", "speedup"],
        rows,
        title=f"E23: hot-path overhaul vs pre-overhaul baselines"
              f" (best of {REPEATS}, probe and interpreter best of"
              f" {PAIRED_REPEATS}, {os.cpu_count()} cores)")
    emit("e23_hotpath", table)

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "e23_hotpath.json", "w",
              encoding="utf-8") as handle:
        json.dump({
            "baseline_serial_rps": BASELINE_SERIAL_RPS,
            "baseline_probe_rps": BASELINE_PROBE_RPS,
            "baseline_interp_per_probe": BASELINE_INTERP_PER_PROBE,
            "serial_rounds_per_sec": results["serial_rps"],
            "probe_per_sec": results["probe_rps"],
            "interp_pairs_per_sec": results["interp_pps"],
            "interp_pairs_per_probe": interp_per_probe,
        }, handle, indent=2, sort_keys=True)
    write_bench_json("e23", {
        "serial_rounds_per_sec": results["serial_rps"],
        "serial_speedup_vs_pre": serial_speedup,
        "probe_per_sec": results["probe_rps"],
        "probe_speedup_vs_pre": probe_speedup,
        "interp_pairs_per_sec": results["interp_pps"],
        "interp_pairs_per_probe": interp_per_probe,
        "interp_speedup_vs_pre": interp_speedup,
    })

    # The acceptance bars (recorded margins are ~1.9x and ~150x, so
    # these hold comfortably even on jittery shared runners; the
    # interpreter's read 1.14-1.64x in 25 runs on a 2-core x86
    # container, and as a same-process ratio it moves far less with
    # the host's speed than a bare pairs/sec would).
    assert serial_speedup >= 1.25, \
        f"serial hot path regressed: {serial_speedup:.2f}x vs pre"
    assert probe_speedup >= 2.0, \
        f"slice-probe hot path regressed: {probe_speedup:.1f}x vs pre"
    assert interp_speedup >= 1.2, \
        f"interpreter hot path regressed: {interp_speedup:.2f}x vs pre"
