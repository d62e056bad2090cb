"""Fold each distinct replay once.

With a replay memo, ``Hive.ingest_batch`` admits, buckets,
race-analyzes and digests every entry as it arrives, and folds each
distinct replay of the call into the tree and the deadlock and
invariant analyzers once, with the number of entries that share it
(``Hive._fold_replay``). Those folds are count-linear or idempotent;
the race analyzer is not (its lockset refinement starts only once a
variable is seen shared, so a repeated fold refines accesses the first
one skipped), so it stays per entry.

These tests hold the memoized hive to per-entry folding, on the whole
analyzer state, over the crash, race, deadlock and shortread demos and
over generated programs, with and without pod-side dedup.
"""

import dataclasses

import pytest

from repro.analysis.deadlock import DeadlockAnalyzer
from repro.analysis.invariants import InvariantMiner
from repro.exec.batch import BatchEntry, TraceBatch
from repro.exec.plan import PlannedRun, partition_windows
from repro.exec.shard import Shard
from repro.hive.hive import Hive
from repro.loop import window_sink
from repro.pod.pod import Pod
from repro.progmodel.bugs import BugKind
from repro.progmodel.builder import ProgramBuilder
from repro.progmodel.corpus import (
    CorpusConfig, generate_program, make_crash_demo, make_deadlock_demo,
    make_race_demo, make_shortread_demo,
)
from repro.progmodel.interpreter import Interpreter
from repro.sched.scheduler import RoundRobinScheduler
from repro.tracing.capture import FullCapture
from repro.tracing.encode import encode_trace
from repro.tree.exectree import ExecutionTree
from repro.workloads.population import UserPopulation

# name -> (program, pod fault rate)
DEMOS = {
    "crash": (make_crash_demo, 0.0),
    "race": (make_race_demo, 0.0),
    "deadlock": (make_deadlock_demo, 0.0),
    "shortread": (make_shortread_demo, 0.3),
}
GENERATED = [
    (CorpusConfig(seed=seed, n_inputs=3, input_domain=4, n_segments=4),
     kinds)
    for seed, kinds in enumerate([
        (BugKind.CRASH,), (BugKind.ASSERT,), (BugKind.SHORT_READ,),
        (BugKind.DEADLOCK,), (BugKind.RACE,), (BugKind.CRASH, BugKind.RACE),
    ])
]


def _programs():
    for name, (make, fault_rate) in sorted(DEMOS.items()):
        yield name, make().program, fault_rate
    for config, kinds in GENERATED:
        name = "gen-" + "-".join(kind.value for kind in kinds)
        yield name, generate_program(name, config, kinds).program, 0.2


PROGRAMS = list(_programs())


def _windows(program, fault_rate, dedup, n_runs=96):
    """A streamed round's windows from a serial shard. Few users, so
    entries repeat payloads and replay sources; pod 0 runs a newer
    version than the hive, so some traces are stale."""
    population = UserPopulation(program, 4, volatility=0.0, seed=3)
    pods = [Pod(f"pod{i}", program, fault_rate=fault_rate, seed=i + 1)
            for i in range(4)]
    shard = Shard(0, dict(enumerate(pods)), program, dedup=dedup)
    shard.apply_update(dataclasses.replace(
        program, version=program.version + 1), (0,))
    runs = [PlannedRun(i, i % 4, population.sample_execution()[1])
            for i in range(n_runs)]
    return list(shard.run_windows(partition_windows(runs, 1)[0]))


def _hive(program):
    return Hive(program, validate_fixes=False, enable_proofs=False)


class _RecordingHive(Hive):
    """Records every ``(replay, count)`` fold."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.folds = []

    def _fold_replay(self, replay, count):
        self.folds.append((replay, count))
        super()._fold_replay(replay, count)


class _UnrolledHive(Hive):
    """Folds a replay that ``count`` entries share as ``count`` single
    folds: the count-linearity reference."""

    def _fold_replay(self, replay, count):
        for _ in range(count):
            super()._fold_replay(replay, 1)


def _sets(mapping):
    return {key: sorted(value) for key, value in mapping.items()}


def _full_state(hive):
    """The hive's whole analyzer state, internals included."""
    graph = hive.deadlocks.graph
    miner = hive.invariants

    def var_stats(table):
        return {key: (stats.lo, stats.hi, stats.samples, stats.none_seen)
                for key, stats in table.items()}
    return {
        "stats": hive.stats.as_dict(),
        "tree": (hive.tree.canonical_paths(),
                 sorted(hive.tree.observed_decisions().items()),
                 hive.tree.node_count, hive.tree.path_count,
                 hive.tree.insert_count),
        "deadlocks": (graph.edges(), _sets(graph._edge_sites),
                      _sets(graph._acquire_sites),
                      hive.deadlocks.observed_deadlocks,
                      hive.deadlocks.diagnoses()),
        "races": ({name: (state.accesses, sorted(state.threads),
                          sorted(state.writers), sorted(state.sites),
                          state.virgin,
                          None if state.candidate is None
                          else sorted(state.candidate))
                   for name, state in hive.races._variables.items()},
                  hive.races.executions_analyzed, hive.races.reports()),
        "invariants": (miner.executions, var_stats(miner._globals),
                       var_stats(miner._returns), miner._equal_pairs,
                       miner.invariants()),
        "buckets": ([(bucket.key, bucket.count, bucket.first_seen_index,
                      sorted(bucket._paths))
                     for bucket in hive.bucketer.buckets()],
                    hive.bucketer.total_reports,
                    hive.bucketer.total_failures),
        "digest_paths": dict(hive._digest_paths),
        "failure_traces": list(hive._failure_traces),
        "schedules": list(hive._dangerous_schedules),
    }


def _batches(results):
    return [batch for result in results for batch in result.batches]


class TestFoldOnceEqualsPerEntry:
    """A round streamed through ``window_sink`` (one memo, eight calls)
    ends in the state folding every entry on its own ends in."""

    @pytest.mark.parametrize("dedup", (False, True))
    @pytest.mark.parametrize("name,program,fault_rate", PROGRAMS,
                             ids=[name for name, _p, _f in PROGRAMS])
    def test_windows_fold_like_single_entries(self, name, program,
                                              fault_rate, dedup):
        windows = _windows(program, fault_rate, dedup)
        folded = _hive(program)
        sink = window_sink(folded)
        for window in windows:
            sink([window])
        # Per entry: no memo, so every trace replays and folds at once.
        per_entry = _hive(program)
        for window in windows:
            per_entry.ingest_batch(window.batches)
        # The same replays and calls, each count unrolled into single
        # folds.
        unrolled = _UnrolledHive(program, validate_fixes=False,
                                 enable_proofs=False)
        sink = window_sink(unrolled)
        for window in windows:
            sink([window])
        state = _full_state(folded)
        assert state == _full_state(per_entry)
        assert state == _full_state(unrolled)
        assert folded.stats.stale_traces > 0
        assert folded.tree.insert_count > 0

    def test_one_call_over_the_round_folds_alike(self):
        # The whole round's batches in one memoized call: each distinct
        # replay folds once for the round.
        for name, program, fault_rate in PROGRAMS:
            windows = _windows(program, fault_rate, dedup=False)
            folded = _hive(program)
            folded.ingest_batch(_batches(windows), {})
            per_entry = _hive(program)
            per_entry.ingest_batch(_batches(windows))
            assert _full_state(folded) == _full_state(per_entry), name

    def test_each_distinct_replay_folds_once_per_call(self):
        program = make_crash_demo().program
        windows = _windows(program, 0.0, dedup=False)
        hive = _RecordingHive(program, validate_fixes=False,
                              enable_proofs=False)
        memo = {}
        for window in windows:
            before = len(hive.folds)
            hive.ingest_batch(window.batches, memo)
            calls = hive.folds[before:]
            # One fold per distinct replay of the call, together
            # holding every entry of the window that replayed.
            assert len({id(replay) for replay, _count in calls}) == len(
                calls)
            assert sum(count for _replay, count in calls) == sum(
                1 for batch in window.batches for entry in batch.entries
                if memo[entry.payload].program_version == program.version)
        assert len(hive.folds) < hive.stats.traces_ingested


def _race_program():
    """Thread 0 writes ``x`` without a lock; thread 1 then writes it
    holding ``L``."""
    builder = ProgramBuilder("lockset_demo", inputs={"go": (0, 1)},
                             threads=("main", "worker"),
                             global_vars={"x": 0})
    builder.function("main").block("entry").store_global("x", 1).halt()
    entry = builder.function("worker").block("entry")
    entry.lock("L")
    entry.store_global("x", 2)
    entry.unlock("L")
    entry.halt()
    return builder.build()


class TestRacesFoldPerEntry:
    def test_a_repeated_replay_refines_the_lockset(self):
        # Folded once, x's candidate lockset is {L} (thread 0's write
        # came before x was shared); folded a second time, thread 0's
        # write is refined too, the set empties and x is racy. Two
        # entries of the same trace in one memoized call must report
        # the race, as two single folds do.
        program = _race_program()
        result = Interpreter(program).run({"go": 0},
                                          scheduler=RoundRobinScheduler())
        payload = encode_trace(FullCapture().capture(result, pod_id="p"))
        batch = TraceBatch(shard_id=0, program_name=program.name,
                           program_version=program.version, sequence=0,
                           entries=[BatchEntry(0, payload),
                                    BatchEntry(1, payload)])
        once = _hive(program)
        once.ingest_batch([dataclasses.replace(batch,
                                               entries=batch.entries[:1])])
        assert once.races.reports() == []
        folded = _hive(program)
        folded.ingest_batch([batch], {})
        assert [report.variable for report in folded.races.reports()] == [
            "x"]
        per_entry = _hive(program)
        per_entry.ingest_batch([batch])
        assert _full_state(folded) == _full_state(per_entry)


class TestCountLinearAnalyzers:
    """``count=n`` equals ``n`` single calls, from an empty analyzer and
    from one that has already folded other executions."""

    @staticmethod
    def _replays(program, fault_rate):
        hive = _RecordingHive(program, validate_fixes=False,
                              enable_proofs=False)
        hive.ingest_batch(_batches(_windows(program, fault_rate, False)),
                          {})
        return [replay for replay, _count in hive.folds]

    @pytest.mark.parametrize("name,program,fault_rate", PROGRAMS,
                             ids=[name for name, _p, _f in PROGRAMS])
    def test_count_equals_repeated_single_folds(self, name, program,
                                                fault_rate):
        replays = self._replays(program, fault_rate)
        assert replays
        for prefix in (0, len(replays) // 2):
            for count in (1, 2, 5):
                for replay in replays[prefix:]:
                    counted = self._analyzers(program, replays[:prefix])
                    single = self._analyzers(program, replays[:prefix])
                    self._fold(counted, replay, count)
                    for _ in range(count):
                        self._fold(single, replay, 1)
                    assert self._state(counted) == self._state(single)

    @staticmethod
    def _analyzers(program, history):
        analyzers = (ExecutionTree(program.name, program.version),
                     DeadlockAnalyzer(), InvariantMiner())
        for replay in history:
            TestCountLinearAnalyzers._fold(analyzers, replay, 1)
        return analyzers

    @staticmethod
    def _fold(analyzers, replay, count):
        tree, deadlocks, invariants = analyzers
        tree.insert_path(replay.path_decisions, replay.outcome, count=count)
        deadlocks.add_execution(replay, count=count)
        invariants.add_execution(replay, count=count)

    @staticmethod
    def _state(analyzers):
        tree, deadlocks, invariants = analyzers
        return (tree.canonical_paths(),
                sorted(tree.observed_decisions().items()),
                tree.node_count, tree.insert_count,
                deadlocks.graph.edges(), _sets(deadlocks.graph._edge_sites),
                deadlocks.observed_deadlocks,
                invariants.executions, invariants._equal_pairs,
                {name: (stats.lo, stats.hi, stats.samples)
                 for name, stats in invariants._globals.items()},
                {tid: (stats.lo, stats.hi, stats.samples, stats.none_seen)
                 for tid, stats in invariants._returns.items()},
                invariants.invariants())
