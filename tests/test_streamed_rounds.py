"""Streamed rounds: a round runs in ``WINDOWS`` windows, and the hive
ingests window w while the shards run w+1.

Two contracts are pinned here. Windows are exact: a hive fed window by
window through ``window_sink`` ends in the same state as a reference
hive that ingests the round's returned windows — their batches,
concatenated — in one ``ingest_batch`` call, on every backend, for the
demos and for every registry bug. And a real worker
crash in the middle of a round, or right after its last window, loses
no run and ingests no trace twice: the windows already received stay
received, and the respawned worker runs only the rest (docs/CHAOS.md,
"Real crashes"). A crash after the platform has drawn the next round's
runs, mid-round, changes no later plan.
"""

import os
import signal
import struct
import threading
from multiprocessing import Pipe

import pytest

from repro.analysis.localize import localize_from_tree, rank_of_block
from repro.exec import (
    WINDOWS, PlannedRun, RoundPlan, SyncDelta, make_backend,
    partition_windows,
)
from repro.hive.hive import Hive
from repro.loop import window_sink
from repro.obs import Registry, set_registry
from repro.platform import PlatformConfig, SoftBorgPlatform
from repro.pod.pod import Pod
from repro.progmodel.bugs import BugKind, BugSpec
from repro.progmodel.builder import ProgramBuilder
from repro.progmodel.corpus import (
    SeededProgram, make_crash_demo, make_deadlock_demo, make_race_demo,
)
from repro.progmodel.interpreter import ExecutionLimits
from repro.progmodel.ir import Input, v
from repro.registry import RegistryRunConfig, build_registry
from repro.registry.harness import _bug_workload
from repro.rng import make_rng
from repro.tracing.capture import FullCapture
from repro.workloads.population import UserPopulation
from repro.workloads.scenarios import Scenario

DEMOS = {"crash": make_crash_demo, "race": make_race_demo,
         "deadlock": make_deadlock_demo}
PLAN_SIZES = (0, 1, 7, 401)          # 7: fewer runs than windows
BACKENDS = (("serial", 1), ("process", 1), ("process", 2), ("process", 4))


def _pods(program, count=6, limits=None):
    return [Pod(f"pod{i}", program, limits=limits, seed=i + 1)
            for i in range(count)]


def _plan(program, n_runs, n_pods=6, seed=0):
    rng = make_rng(seed, "windows", program.name, n_runs)
    domains = sorted(program.inputs.items())
    runs = [PlannedRun(i, rng.randrange(n_pods),
                       {name: rng.randint(lo, hi) for name, (lo, hi)
                        in domains})
            for i in range(n_runs)]
    return RoundPlan(round_index=0, hive_version=program.version, runs=runs)


def _hive(program, limits=None):
    return Hive(program, limits=limits, validate_fixes=False,
                enable_proofs=False)


def _ingest_returned(hive, results):
    """The reference: the round's returned batches (its windows
    concatenated) in one call."""
    hive.ingest_batch(
        [batch for result in results for batch in result.batches])


def _state(hive):
    """Everything the hive's analyses and reports read."""
    return {
        "stats": hive.stats.as_dict(),
        "paths": hive.tree.canonical_paths(),
        "size": (hive.tree.node_count, hive.tree.path_count,
                 hive.tree.insert_count),
        "deadlocks": hive.deadlocks.diagnoses(),
        "races": hive.races.reports(),
        "invariants": hive.invariants.invariants(),
        "buckets": repr(hive.bucketer.buckets()),
        "digest_paths": dict(hive._digest_paths),
        "failure_traces": list(hive._failure_traces),
        "schedules": list(hive._dangerous_schedules),
    }


def _entry_indices(results):
    return [entry.global_index for result in results
            for batch in result.batches for entry in batch.entries]


class TestWindowGeometry:
    @pytest.mark.parametrize("n_runs", PLAN_SIZES + (16, 17))
    @pytest.mark.parametrize("n_shards", (1, 2, 4))
    def test_windows_cut_the_plan_by_position(self, n_runs, n_shards):
        runs = [PlannedRun(i, (i * 7) % 5, {}) for i in range(n_runs)]
        shards = partition_windows(runs, n_shards)
        assert len(shards) == n_shards
        assert all(len(windows) == WINDOWS for windows in shards)
        size = max(1, -(-n_runs // WINDOWS))
        for shard_id, windows in enumerate(shards):
            for index, window in enumerate(windows):
                for run in window:
                    assert run.pod_index % n_shards == shard_id
                    assert run.global_index // size == index
        # Every run lands in exactly one window of one shard.
        flat = sorted(run.global_index for windows in shards
                      for window in windows for run in window)
        assert flat == list(range(n_runs))


class TestWindowsAreExact:
    """Per-window ingest equals the one-call reference, on serial and
    process with 1, 2 and 4 workers, at every plan size, and for every
    registry bug."""

    @pytest.mark.parametrize("dedup", (False, True))
    @pytest.mark.parametrize("demo", sorted(DEMOS))
    def test_streamed_hive_equals_the_reference(self, demo, dedup):
        program = DEMOS[demo]().program
        states = {}
        for name, workers in BACKENDS:
            with make_backend(name, _pods(program), program,
                              workers=workers, dedup=dedup) as backend:
                for n_runs in PLAN_SIZES:
                    plan = _plan(program, n_runs)
                    streamed = _hive(program)
                    sink = window_sink(streamed)
                    calls = []

                    def counting(parts, sink=sink, calls=calls):
                        calls.append(len(parts))
                        sink(parts)
                    results = backend.run_round(plan, counting)
                    reference = _hive(program)
                    _ingest_returned(reference, results)

                    assert calls == [backend.workers] * WINDOWS
                    records = sorted(record.global_index
                                     for result in results
                                     for record in result.records)
                    assert records == list(range(n_runs))
                    entries = _entry_indices(results)
                    assert sorted(entries) == list(range(n_runs))
                    state = _state(streamed)
                    assert state == _state(reference)
                    ingested = (streamed.stats.traces_ingested
                                + streamed.stats.heartbeats_ingested)
                    assert ingested == len(entries)
                    states.setdefault(n_runs, {})[(name, workers)] = state
        # The same windows on every backend: the same hive.
        for by_backend in states.values():
            serial = by_backend[("serial", 1)]
            for state in by_backend.values():
                assert state == serial

    def test_a_round_without_a_sink_returns_the_same_result(self):
        # Nothing consumes a window early, so a sink-less round (chaos,
        # serve) runs as one window; its records and its entries in
        # global order equal the streamed round's.
        import repro.exec.backends as backends
        program = make_race_demo().program
        plan = _plan(program, 101)
        counts = []
        real = backends.partition_windows

        def recording(runs, n_shards, windows):
            counts.append(windows)
            return real(runs, n_shards, windows)
        for name, workers in BACKENDS:
            rounds = []
            for sink in (lambda parts: None, None):
                with make_backend(name, _pods(program), program,
                                  workers=workers) as backend:
                    with pytest.MonkeyPatch.context() as patch:
                        patch.setattr(backends, "partition_windows",
                                      recording)
                        results = backend.run_round(plan, sink)
                rounds.append([
                    (result.records,
                     sorted(((entry.global_index, entry.payload)
                             for batch in result.batches
                             for entry in batch.entries),
                            key=lambda item: item[0]))
                    for result in results])
            assert rounds[0] == rounds[1]
        assert counts == [WINDOWS, 1] * len(BACKENDS)

    def test_every_registry_bug_streams_exactly(self):
        # The registry harness streams each bug's round into its hive:
        # per-window ingest equals the one-call reference for every
        # registry bug, planned as run_bug plans it, on serial and
        # process with 1 and 2 workers.
        config = RegistryRunConfig(seed=0)
        limits = ExecutionLimits(max_steps=config.max_steps)

        def outputs(hive, bug):
            return {
                "stats": hive.stats.as_dict(),
                "paths": hive.tree.canonical_paths(),
                "deadlocks": hive.deadlocks.diagnoses(),
                "races": hive.races.reports(),
                "invariants": hive.invariants.invariants(),
                "rank": rank_of_block(localize_from_tree(hive.tree),
                                      *bug.spec.defect_site),
            }
        for bug in build_registry(seed=0).bugs("all"):
            by_backend = {}
            for name, workers in BACKENDS[:3]:
                pods, plan = _bug_workload(bug, config, limits)
                streamed = _hive(bug.program, limits=limits)
                with make_backend(name, pods, bug.program,
                                  capture=FullCapture(), limits=limits,
                                  workers=workers) as backend:
                    results = backend.run_round(plan, window_sink(streamed))
                reference = _hive(bug.program, limits=limits)
                _ingest_returned(reference, results)
                state = outputs(streamed, bug)
                assert state == outputs(reference, bug), (bug.ref, name,
                                                          workers)
                assert streamed.stats.traces_ingested == len(plan.runs)
                by_backend[name, workers] = state
            serial = by_backend["serial", 1]
            assert all(state == serial for state in by_backend.values()), \
                bug.ref


def _slow_program(spins=2000):
    """About 10 ms per run: a window is still running when the
    coordinator receives the one before it."""
    builder = ProgramBuilder("slow_demo", inputs={"n": (0, 3)})
    main = builder.function("main")
    entry = main.block("entry")
    entry.assign("i", 0)
    entry.jump("head")
    main.block("head").branch(v("i") < spins, "body", "check")
    main.block("body").assign("i", v("i") + 1).jump("head")
    main.block("check").branch(Input("n") == 3, "boom", "end")
    main.block("boom").crash("bug:crash:slow_demo").halt()
    main.block("end").halt()
    return builder.build()


def _platform_run(backend, workers, after_draw=None):
    """Three 24-run rounds of the slow program on ``backend``; calls
    ``after_draw(platform, draws)`` after each draw of a round's runs.
    Returns the plans the rounds executed and what the run reported."""
    program = _slow_program()
    bug = BugSpec(bug_id="slow_demo", kind=BugKind.CRASH,
                  site_function="main", site_block="boom",
                  trigger={"n": 3})
    scenario = Scenario(
        seeded=SeededProgram(program=program, bugs=[bug]),
        population=UserPopulation(program, 8, volatility=0.3, seed=2))
    platform = SoftBorgPlatform(scenario, PlatformConfig(
        n_pods=4, rounds=3, executions_per_round=24, max_steps=20_000,
        enable_proofs=False, seed=2, backend=backend, workers=workers))
    draw = platform._draw_runs
    draws = []

    def drawing():
        runs = draw()
        draws.append(len(runs))
        if after_draw is not None:
            after_draw(platform, len(draws))
        return runs
    platform._draw_runs = drawing
    plans = []
    run_round = platform.backend.run_round

    def recording(plan, sink=None):
        plans.append(plan)
        return run_round(plan, sink)
    platform.backend.run_round = recording
    platform.run()
    assert draws == [24, 24, 24]
    return plans, {"report": platform.report.as_dict(),
                   "hive": platform.hive.stats.as_dict(),
                   "paths": platform.hive.tree.canonical_paths(),
                   "epoch": platform.backend.epoch}


@pytest.fixture
def registry():
    """A fresh enabled metrics registry, so respawns are counted."""
    fresh = Registry(enabled=True)
    previous = set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)


def _check_exactly_once(results, ingested, hive, n_runs):
    records = sorted(record.global_index for result in results
                     for record in result.records)
    assert records == list(range(n_runs))
    entries = _entry_indices(results)
    assert sorted(entries) == list(range(n_runs))
    assert len(ingested) == len(set(ingested))
    assert sorted(ingested) == sorted(entries)
    assert (hive.stats.traces_ingested
            + hive.stats.heartbeats_ingested) == len(entries)


class TestMidRoundKill:
    """The real-crash contract: SIGKILL a worker from the sink when the
    first window arrives. Its pipe may still hold later windows; the
    coordinator drains them, sees EOF, respawns the worker at the
    current epoch and sends it only the windows not yet received. A
    worker killed after its last window has already finished the
    round; the next round respawns it. A platform whose worker dies
    right after the next round's runs were drawn plans and reports
    exactly as a serial run does."""

    @pytest.mark.parametrize("workers", (1, 2))
    def test_no_run_lost_and_no_trace_ingested_twice(self, workers,
                                                     registry):
        program = _slow_program()
        limits = ExecutionLimits(max_steps=20_000)
        n_runs = 24
        plan = RoundPlan(round_index=0, hive_version=program.version,
                         runs=[PlannedRun(i, i % 4, {"n": i % 4})
                               for i in range(n_runs)])
        hive = _hive(program, limits=limits)
        with make_backend("process", _pods(program, 4, limits), program,
                          limits=limits, workers=workers) as backend:
            epoch = backend.publish(SyncDelta(hive_program=program))
            victim = backend._procs[0]
            sink = window_sink(hive)
            ingested = []

            def killing_sink(parts):
                if not ingested and victim.is_alive():
                    os.kill(victim.pid, signal.SIGKILL)
                ingested.extend(_entry_indices(parts))
                sink(parts)
            results = backend.run_round(plan, killing_sink)
            assert not victim.is_alive()
            assert backend._procs[0] is not victim
            assert backend.epoch == epoch
            assert backend.probe(0)["epoch"] == epoch
        _check_exactly_once(results, ingested, hive, n_runs)
        assert registry.counter("exec.worker_respawns").value >= 1

    @pytest.mark.parametrize("workers", (1, 2))
    def test_a_kill_after_the_last_window_loses_nothing(self, workers,
                                                        registry):
        # The worker has sent every window when it dies: the round is
        # already complete and keeps every record, and the next round
        # respawns the worker at the current epoch.
        program = _slow_program(spins=200)
        limits = ExecutionLimits(max_steps=20_000)
        n_runs = 24

        def plan(round_index):
            return RoundPlan(round_index=round_index,
                             hive_version=program.version,
                             runs=[PlannedRun(i, i % 4, {"n": i % 4})
                                   for i in range(n_runs)])
        with make_backend("process", _pods(program, 4, limits), program,
                          limits=limits, workers=workers) as backend:
            epoch = backend.publish(SyncDelta(hive_program=program))
            victim = backend._procs[0]
            for round_index in (0, 1):
                hive = _hive(program, limits=limits)
                sink = window_sink(hive)
                ingested = []
                windows = []

                def killing_sink(parts, sink=sink, ingested=ingested,
                                 windows=windows):
                    windows.append(parts)
                    ingested.extend(_entry_indices(parts))
                    sink(parts)
                    if len(windows) == WINDOWS and victim.is_alive():
                        os.kill(victim.pid, signal.SIGKILL)
                        victim.join(timeout=10)
                results = backend.run_round(plan(round_index),
                                            killing_sink)
                _check_exactly_once(results, ingested, hive, n_runs)
                respawns = registry.counter("exec.worker_respawns").value
                assert respawns == round_index
            assert not victim.is_alive()
            assert backend._procs[0] is not victim
            assert backend.epoch == epoch
            for shard_id in range(workers):
                assert backend.probe(shard_id)["epoch"] == epoch

    @pytest.mark.parametrize("workers", (1, 2))
    def test_a_kill_after_the_next_round_is_drawn(self, workers, registry):
        # A streamed round draws the next round's runs once it has
        # ingested its first window. Kill the worker right after that
        # draw, in the round after a fix deployed: the respawned worker
        # replays the published deploy and re-runs the windows not yet
        # received, and every later plan and the report equal a serial
        # run's (the slow program is single-threaded and fault-free, so
        # a pod's restarted RNG stream changes none of its runs).
        serial_plans, serial_outputs = _platform_run("serial", workers)
        kills = []

        def kill_after_draw(platform, draws):
            # Draw 1 plans round 0; draw r + 2 happens during round r.
            if draws == 3:
                victim = platform.backend._procs[0]
                os.kill(victim.pid, signal.SIGKILL)
                kills.append(victim)
        plans, outputs = _platform_run("process", workers, kill_after_draw)
        assert len(kills) == 1
        kills[0].join(timeout=10)
        assert not kills[0].is_alive()
        assert registry.counter("exec.worker_respawns").value == 1
        assert plans == serial_plans
        assert outputs == serial_outputs
        # The fix deployed at the end of round 0, before the kill.
        assert [plan.hive_version for plan in plans] == [1, 2, 2]

    def test_a_torn_window_message_is_rerun(self, registry):
        # A worker that dies inside a send leaves a message cut short:
        # a length header promising more bytes than ever arrive. The
        # coordinator reads it as a death, respawns, and re-runs the
        # windows it has not received.
        program = make_crash_demo().program
        n_runs = 40
        plan = _plan(program, n_runs)
        hive = _hive(program)
        with make_backend("process", _pods(program), program,
                          workers=1) as backend:
            backend._procs[0].kill()
            backend._procs[0].join(timeout=10)
            backend._pipes[0].close()
            ours, theirs = Pipe()
            backend._pipes[0] = ours

            def torn_worker():
                theirs.recv()                  # the round
                os.write(theirs.fileno(),
                         struct.pack("!i", 4096) + b"\x80" * 16)
                theirs.close()
            thread = threading.Thread(target=torn_worker)
            thread.start()
            sink = window_sink(hive)
            ingested = []

            def recording_sink(parts):
                ingested.extend(_entry_indices(parts))
                sink(parts)
            results = backend.run_round(plan, recording_sink)
            thread.join(timeout=10)
            assert not thread.is_alive()
        _check_exactly_once(results, ingested, hive, n_runs)
        assert registry.counter("exec.worker_respawns").value == 1
