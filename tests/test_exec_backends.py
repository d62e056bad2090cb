"""Parallel executor tests: batch wire format, the session protocol
(epochs, deltas, worker respawn replay), cross-backend determinism,
shard-merge algebra, and the TraceSink surface."""

import dataclasses
import os
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, TraceError, TreeError
from repro.exec import (
    BatchEntry, PlannedRun, ResultPacker, ResultUnpacker, SerialBackend,
    SyncDelta, TraceBatch, decode_batch, encode_batch, pack_runs,
    partition_runs, partition_windows, unpack_runs,
)
from repro.exec.backends import (
    make_backend, resolve_backend_name, resolve_workers,
)
from repro.exec.plan import RoundPlan
from repro.exec.shard import Shard
from repro.hive.hive import Hive
from repro.interfaces import TraceSink
from repro.loop import window_sink
from repro.platform import PlatformConfig, SoftBorgPlatform
from repro.pod.pod import Pod
from repro.progmodel.bugs import BugKind
from repro.progmodel.corpus import (
    CorpusConfig, generate_program, make_crash_demo, make_deadlock_demo,
    make_race_demo,
)
from repro.progmodel.interpreter import Interpreter, Outcome
from repro.sched.scheduler import RandomScheduler
from repro.tracing.dedup import Heartbeat
from repro.tracing.encode import decode_trace, encode_trace
from repro.tracing.trace import trace_from_result
from repro.tree.exectree import ExecutionTree
from repro.workloads.population import UserPopulation
from repro.workloads.scenarios import (
    crash_scenario, deadlock_scenario, race_scenario,
)


def _trace(program, inputs):
    return trace_from_result(Interpreter(program).run(inputs))


# -- wire format ---------------------------------------------------------------

class TestBatchWire:
    def _batch(self):
        demo = make_crash_demo()
        entries = [
            BatchEntry(global_index=0, payload=encode_trace(
                _trace(demo.program, {"n": 1, "mode": 2}))),
            BatchEntry(global_index=1, heartbeat=Heartbeat(
                program_name=demo.program.name,
                program_version=demo.program.version,
                digest=b"\x07" * 12, count=3)),
            BatchEntry(global_index=2, payload=encode_trace(
                _trace(demo.program, {"n": 7, "mode": 2}))),
        ]
        return demo, TraceBatch(
            shard_id=2, program_name=demo.program.name,
            program_version=demo.program.version, sequence=5,
            entries=entries)

    def test_round_trip(self):
        demo, batch = self._batch()
        decoded = decode_batch(encode_batch(batch))
        assert decoded.shard_id == 2
        assert decoded.sequence == 5
        assert decoded.program_name == demo.program.name
        assert decoded.program_version == demo.program.version
        assert len(decoded) == 3
        for original, copy in zip(batch.entries, decoded.entries):
            assert copy.global_index == original.global_index
            assert copy.payload == original.payload
        beat = decoded.entries[1].heartbeat
        assert beat is not None
        assert beat.digest == b"\x07" * 12
        assert beat.count == 3
        # Payloads still decode to real traces after the round trip.
        trace = decode_trace(decoded.entries[0].payload)
        assert trace.program_name == demo.program.name

    def test_truncated_and_trailing_bytes_raise(self):
        demo, batch = self._batch()
        blob = encode_batch(batch)
        with pytest.raises(TraceError):
            decode_batch(blob[:-1])
        with pytest.raises(TraceError):
            decode_batch(blob + b"\x00")
        # A well-formed, checksummed v2 frame (no trace-context byte,
        # zero entries): decode reads v3 only.
        name = demo.program.name.encode("utf-8")
        body = (bytes([2, len(name)]) + name
                + bytes([demo.program.version, 2, 5, 0]))
        v2_frame = body + zlib.crc32(body).to_bytes(4, "big")
        with pytest.raises(TraceError, match="version 2"):
            decode_batch(v2_frame)


# -- planning ------------------------------------------------------------------

class TestPartition:
    def test_pods_map_to_exactly_one_shard_in_order(self):
        runs = [PlannedRun(global_index=i, pod_index=i % 5, inputs={})
                for i in range(20)]
        shards = partition_runs(runs, 3)
        assert sum(len(s) for s in shards) == 20
        for shard_id, shard_runs in enumerate(shards):
            for run in shard_runs:
                assert run.pod_index % 3 == shard_id
            # Global order is preserved within the shard.
            indices = [run.global_index for run in shard_runs]
            assert indices == sorted(indices)


# -- cross-backend determinism -------------------------------------------------

def _run(backend, workers=0, **overrides):
    config = dict(rounds=4, executions_per_round=20, n_pods=8, seed=2,
                  backend=backend, workers=workers)
    config.update(overrides)
    scenario_seed = config.pop("scenario_seed", 2)
    scenario = config.pop("scenario", crash_scenario)(seed=scenario_seed)
    platform = SoftBorgPlatform(scenario, PlatformConfig(**config))
    return platform, platform.run().as_dict()


class TestCrossBackendDeterminism:
    def test_thread_and_process_match_serial(self):
        _p, serial = _run("serial")
        _p, process = _run("process", workers=3)
        assert serial["total_executions"] == 80
        assert process == serial

    def test_identical_with_dedup_loss_and_guidance(self):
        knobs = dict(dedup=True, trace_loss_rate=0.2, guidance=True,
                     rounds=3, seed=4)
        _p, serial = _run("serial", **knobs)
        _p, process = _run("process", workers=2, **knobs)
        assert process == serial

    def test_identical_on_concurrency_scenario(self):
        # The report alone is not enough: analyzer state must match
        # too, since a replay memo that loses interleaving-specific
        # events shifts race counts without moving any report field.
        for scenario in (deadlock_scenario, race_scenario):
            knobs = dict(scenario=scenario, enable_proofs=False,
                         rounds=3, seed=3)
            serial_platform, serial = _run("serial", **knobs)
            process_platform, process = _run("process", workers=4,
                                             **knobs)
            assert process == serial
            # The loop still does its job under the parallel backend.
            assert serial["total_failures"] >= 0
            serial_hive = serial_platform.hive
            process_hive = process_platform.hive
            assert serial_hive.races.executions_analyzed > 0
            assert process_hive.races.reports() == \
                serial_hive.races.reports()
            assert process_hive.deadlocks.diagnoses() == \
                serial_hive.deadlocks.diagnoses()
            assert process_hive.invariants.invariants() == \
                serial_hive.invariants.invariants()

    def test_snapshot_carries_schema_v3_execution_block(self):
        from repro.obs import Registry, set_registry
        previous = set_registry(Registry())
        try:
            platform, _report = _run("process", workers=2)
            doc = platform.snapshot()
        finally:
            set_registry(previous)
        assert doc["schema_version"] == 3
        assert doc["execution"]["backend"] == "process"
        assert doc["execution"]["workers"] == 2
        # The session epoch is plan-driven, hence backend-invariant and
        # safe to snapshot (additive key; schema version unchanged).
        assert doc["execution"]["epoch"] == platform.backend.epoch
        assert "exec.worker_busy" in doc["obs"]["timers"]
        assert doc["obs"]["counters"]["exec.rounds"] == 4
        assert doc["obs"]["counters"]["pod.executions"] == 80


class TestBackendResolution:
    def test_explicit_names_pass_through(self):
        for name in ("serial", "process"):
            assert resolve_backend_name(name) == name

    def test_auto_consults_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend_name("auto") == "serial"
        monkeypatch.setenv("REPRO_BACKEND", "process")
        assert resolve_backend_name("auto") == "process"
        assert resolve_backend_name("serial") == "serial"  # explicit wins

    def test_unknown_backend_rejected(self):
        for name in ("quantum", "thread"):
            with pytest.raises(ConfigError):
                resolve_backend_name(name)
        with pytest.raises(ConfigError):
            PlatformConfig(backend="quantum").validate()

    def test_worker_resolution(self, monkeypatch):
        assert resolve_workers(0, "serial", 100) == 1
        assert resolve_workers(64, "process", 8) == 8   # capped at pods
        assert resolve_workers(0, "process", 100) == (os.cpu_count() or 1)
        with pytest.raises(ConfigError):
            PlatformConfig(workers=-1).validate()

    def test_auto_workers_is_one_per_core(self, monkeypatch):
        # 0 = auto: one worker per core, still capped at the pod count,
        # for every parallel backend (the run/chaos/serve CLIs all
        # funnel through this resolver).
        monkeypatch.setattr("repro.exec.backends.os.cpu_count",
                            lambda: 6)
        assert resolve_workers(0, "process", 100) == 6
        assert resolve_workers(0, "process", 4) == 4    # pod cap wins
        monkeypatch.setattr("repro.exec.backends.os.cpu_count",
                            lambda: None)
        assert resolve_workers(0, "process", 100) == 1  # unknown -> 1


# -- the session protocol ------------------------------------------------------

def _session_pods(program, count=4):
    from repro.pod.pod import Pod
    return [Pod(f"pod{i}", program, seed=i + 1) for i in range(count)]


def _session_plan(program, n_runs=4, n_pods=4):
    runs = [PlannedRun(i, i % n_pods, {"n": i, "mode": 2})
            for i in range(n_runs)]
    return RoundPlan(round_index=0, hive_version=program.version,
                     runs=runs)


def _population_plan(program, population, n_runs, n_pods=4):
    runs = [PlannedRun(i, i % n_pods, population.sample_execution()[1])
            for i in range(n_runs)]
    return RoundPlan(round_index=0, hive_version=program.version,
                     runs=runs)


class TestSessionProtocol:
    """publish() epochs, context-manager lifecycle, and worker respawn
    applying every published payload."""

    def test_publish_stamps_monotonic_epochs(self):
        demo = make_crash_demo()
        v2 = dataclasses.replace(demo.program, version=2)
        with make_backend("serial", _session_pods(demo.program),
                          demo.program) as backend:
            assert backend.epoch == 0
            # An empty delta is a no-op: no epoch burned, no broadcast.
            assert backend.publish(SyncDelta()) == 0
            assert backend.publish(
                SyncDelta(hive_program=demo.program)) == 1
            # Orthogonal fields combine under ONE epoch: deploy + staged
            # rollout is a single state change, not two.
            assert backend.publish(
                SyncDelta(hive_program=v2, rollout=(v2, (0, 1)))) == 2
            assert backend.epoch == 2

    def test_context_manager_closes_workers(self):
        demo = make_crash_demo()
        pods = _session_pods(demo.program)
        with make_backend("process", pods, demo.program,
                          workers=2) as backend:
            results = backend.run_round(_session_plan(demo.program))
            assert sum(len(r.records) for r in results) == 4
            assert backend._procs
        assert backend._procs == [] and backend._pipes == []
        backend.close()  # idempotent after __exit__

    def test_workers_start_when_the_session_opens(self):
        # Opening the context boots the workers, so they start while
        # the coordinator plans its first round; the round reuses them.
        demo = make_crash_demo()
        with make_backend("process", _session_pods(demo.program),
                          demo.program, workers=2) as backend:
            assert len(backend._procs) == 2
            assert all(proc.is_alive() for proc in backend._procs)
            booted = list(backend._procs)
            backend.run_round(_session_plan(demo.program))
            assert backend._procs == booted

    def test_worker_respawn_replays_session_epoch(self):
        # The tentpole guarantee: a worker killed outright (a REAL
        # crash, not an injected one) is respawned at the CURRENT
        # epoch — the replacement replays every published deploy,
        # rollout, and cache fact before serving its retry wave.
        demo = make_crash_demo()
        v2 = dataclasses.replace(demo.program, version=2)
        fact = ((("x", "<", 7),), ("sat", (("x", 3),)))

        def publish(backend):
            return backend.publish(SyncDelta(hive_program=v2,
                                             rollout=(v2, (0, 2)),
                                             cache_entries=[fact]))
        with make_backend("process", _session_pods(demo.program),
                          demo.program, workers=1,
                          solver_cache="collective") as backend:
            baseline = backend.run_round(_session_plan(demo.program))
            recycled = backend.probe()["cache_entries"]
            publish(backend)
            state = backend.probe()
            assert state["epoch"] == 1 == backend.epoch
            assert state["hive_version"] == 2
            assert state["pod_versions"] == {0: 2, 1: 1, 2: 2, 3: 1}
            assert state["cache_entries"] == recycled + 1
            backend._procs[0].kill()
            backend._procs[0].join()
            retried = backend.run_round(_session_plan(demo.program))
            assert [len(r.records) for r in retried] == \
                [len(r.records) for r in baseline]
            respawned = backend.probe()
        assert respawned["epoch"] == 1
        assert respawned["hive_version"] == 2
        assert respawned["pod_versions"] == {0: 2, 1: 1, 2: 2, 3: 1}
        # The shard also banks facts from the runs it recycles, so the
        # published fact is isolated by a worker that never died: one
        # that took the same publish live and ran the same round holds
        # exactly the respawned worker's state, cache included.
        with make_backend("process", _session_pods(demo.program),
                          demo.program, workers=1,
                          solver_cache="collective") as live:
            publish(live)
            live.run_round(_session_plan(demo.program))
            assert live.probe() == respawned
            live.publish(SyncDelta(cache_entries=[fact]))
            assert live.probe()["cache_entries"] \
                == respawned["cache_entries"]

    def test_publish_after_worker_death_reaches_the_respawn(self):
        # A worker killed between rounds misses the publish broadcast,
        # not the delta: publish must not raise on the dead pipe, the
        # next round respawns the worker, and the replacement applies
        # every published payload up to the current epoch.
        demo = make_crash_demo()
        v2 = dataclasses.replace(demo.program, version=2)
        with make_backend("process", _session_pods(demo.program),
                          demo.program, workers=2) as backend:
            backend.run_round(_session_plan(demo.program))
            backend._procs[1].kill()
            backend._procs[1].join()
            assert backend.publish(SyncDelta(hive_program=v2)) == 1
            results = backend.run_round(_session_plan(demo.program))
            assert sum(len(r.records) for r in results) == 4
            for shard_id in (0, 1):
                state = backend.probe(shard_id)
                assert state["epoch"] == 1 == backend.epoch
                assert state["hive_version"] == 2

    def test_worker_registry_follows_the_coordinator(self):
        # Workers ship counter deltas that a disabled coordinator
        # registry drops: a worker spawned under a disabled registry
        # records none, like pods built after obs.disable() serially.
        # Deltas ride with every window message; the round ends with
        # its last window.
        from collections import Counter

        from repro.obs import Registry, set_registry
        demo = make_crash_demo()
        windows = partition_windows(_session_plan(demo.program).runs, 1)[0]
        deltas = {}
        for enabled in (True, False):
            previous = set_registry(Registry(enabled=enabled))
            try:
                with make_backend("process", _session_pods(demo.program),
                                  demo.program, workers=1) as backend:
                    backend._start()
                    pipe = backend._pipes[0]
                    pipe.send(("round", 0, pack_runs(
                        [run for window in windows for run in window]),
                        None, [len(window) for window in windows]))
                    counts = Counter()
                    for _window in windows:
                        kind, _packed, window_deltas = pipe.recv()
                        assert kind == "window"
                        counts.update(window_deltas)
                    assert not pipe.poll(0.2)
            finally:
                set_registry(previous)
            deltas[enabled] = dict(counts)
        assert deltas[True]["pod.executions"] == 4
        assert deltas[False] == {}

    def test_round_at_wrong_epoch_is_rejected(self):
        # Protocol guard: a worker refuses to execute a round stamped
        # with an epoch it has not reached — running it would produce
        # evidence against stale state.
        demo = make_crash_demo()
        with make_backend("process", _session_pods(demo.program),
                          demo.program, workers=1) as backend:
            backend._start()
            pipe = backend._pipes[0]
            pipe.send(("round", 99, pack_runs([]), None))
            reply = pipe.recv()
            assert reply[0] == "error"
            assert "epoch" in reply[1]


class TestSessionWire:
    """The packed plan/result forms the process backend ships."""

    def test_pack_runs_interns_repeated_inputs(self):
        runs = [PlannedRun(i, i % 3, {"n": i % 2, "mode": 2})
                for i in range(12)]
        packed = pack_runs(runs)
        inputs_table, rows, directives = packed
        # Two distinct input dicts over twelve runs: the table holds
        # each once, the rows are slot references.
        assert len(inputs_table) == 2
        assert len(rows) == 12
        assert directives == {}
        assert unpack_runs(packed) == runs

    def test_pack_result_round_trip(self):
        # Concurrency programs reach one path under many interleavings
        # whose traces differ: every entry must unpack to the payload
        # it carried.
        crash = make_crash_demo().program
        rounds = [(crash, _session_plan(crash, n_runs=6))]
        for factory in (race_scenario, deadlock_scenario):
            scenario = factory(seed=3)
            rounds.append((scenario.program, _population_plan(
                scenario.program, scenario.population, n_runs=24)))
        walked = 0
        for program, plan in rounds:
            with SerialBackend(_session_pods(program), program,
                               solver_cache=True) as backend:
                result = backend.run_round(plan)[0]
            clone = ResultUnpacker().unpack(ResultPacker().pack(result))
            assert clone.shard_id == result.shard_id
            assert clone.records == result.records
            assert clone.busy_seconds == result.busy_seconds
            assert clone.cache_delta == result.cache_delta
            assert clone.recycle_walks == result.recycle_walks
            walked += len(result.recycle_walks)
            assert len(clone.batches) == len(result.batches)
            for original, copy in zip(result.batches, clone.batches):
                assert copy.program_version == original.program_version
                assert [e.payload for e in copy.entries] == \
                    [e.payload for e in original.entries]
        assert walked > 0


# -- round-scoped recycling ----------------------------------------------------

def _hive_state(hive):
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
    }


def _bare_hive(program):
    return Hive(program, validate_fixes=False, enable_proofs=False)


class TestRoundRecycling:
    """One round encodes each distinct trace once on the shard and
    replays each distinct replay source once in the hive, and the hive
    ends where a trace-by-trace reference without a memo ends."""

    def _check(self, program, n_runs=24):
        # Three users over four pods: inputs repeat. Pods 0 and 1 run a
        # newer version than the hive, so their traces are stale and
        # never replayed.
        population = UserPopulation(program, 3, volatility=0.0, seed=5)
        plan = _population_plan(program, population, n_runs)
        shard = Shard(0, dict(enumerate(_session_pods(program))), program)
        shard.apply_update(dataclasses.replace(
            program, version=program.version + 1), (0, 1))
        hive = _bare_hive(program)
        sink = window_sink(hive)

        traces = {}
        execute = Pod.execute

        def recording_execute(pod, inputs, directive=None):
            run = execute(pod, inputs, directive=directive)
            traces[len(traces)] = run.trace
            return run

        encodes = []
        replays = []
        encode = encode_trace
        replay = Interpreter.replay
        results = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Pod, "execute", recording_execute)
            patch.setattr("repro.exec.shard.encode_trace",
                          lambda trace: encodes.append(trace)
                          or encode(trace))
            patch.setattr(Interpreter, "replay",
                          lambda self, source: replays.append(source)
                          or replay(self, source))
            for window in shard.run_windows(
                    partition_windows(plan.runs, 1)[0]):
                results.append(window)
                sink([window])

        entries = [entry for result in results for batch in result.batches
                   for entry in batch.entries]
        assert [entry.global_index for entry in entries] == \
            list(range(n_runs))
        for entry in entries:
            assert entry.payload == encode_trace(traces[entry.global_index])
        assert len(encodes) == len(set(traces.values()))
        sources = {(trace.branch_bits, trace.syscall_returns,
                    trace.schedule_rle) for trace in traces.values()
                   if trace.replayable
                   and trace.program_version == program.version}
        assert len(replays) == len(sources)
        reference = _bare_hive(program)
        for index in range(n_runs):
            reference.ingest_trace(traces[index])
        assert _hive_state(hive) == _hive_state(reference)
        return traces

    def test_demo_programs(self):
        for demo in (make_crash_demo, make_race_demo, make_deadlock_demo):
            traces = self._check(demo().program)
            assert {trace.program_version
                    for trace in traces.values()} == {1, 2}
            if demo is make_crash_demo:
                # Single-threaded runs of repeated inputs repeat
                # traces, so the crash demo must actually recycle.
                assert len(set(traces.values())) < len(traces)

    @settings(max_examples=8, deadline=None)
    @given(config=st.builds(CorpusConfig, seed=st.integers(0, 50),
                            n_inputs=st.integers(2, 4),
                            input_domain=st.integers(3, 8),
                            n_segments=st.integers(2, 5)),
           kinds=st.sampled_from([(), (BugKind.CRASH,), (BugKind.ASSERT,),
                                  (BugKind.SHORT_READ,),
                                  (BugKind.DEADLOCK,), (BugKind.RACE,)]))
    def test_generated_programs(self, config, kinds):
        if len(kinds) > config.n_segments:
            return
        self._check(generate_program("recycle", config, kinds).program)


# -- shard-merge algebra -------------------------------------------------------

def _site(name):
    return (0, "main", name)


def _assert_same_tree(a, b):
    """Same paths, outcome counts, per-decision visit counts and size."""
    assert a.canonical_paths() == b.canonical_paths()
    assert a.observed_decisions() == b.observed_decisions()
    assert (a.node_count, a.path_count) == (b.node_count, b.path_count)


def _tree(*paths, version=1):
    tree = ExecutionTree("prog", version)
    for decisions, outcome in paths:
        tree.insert_path(decisions, outcome)
    return tree


class TestTreeMerge:
    P1 = ((_site("a"), True),)
    P2 = ((_site("a"), False), (_site("b"), True))
    P3 = ((_site("a"), False), (_site("b"), False))

    def test_merge_is_associative_and_commutative(self):
        def observations():
            return [
                _tree((self.P1, Outcome.OK), (self.P2, Outcome.CRASH)),
                _tree((self.P2, Outcome.CRASH), (self.P3, Outcome.OK)),
                _tree((self.P1, Outcome.OK)),
            ]

        a, b, c = observations()
        left = _tree()
        left.merge(a); left.merge(b); left.merge(c)

        a, b, c = observations()
        bc = _tree()
        bc.merge(b); bc.merge(c)
        right = _tree()
        right.merge(a); right.merge(bc)

        a, b, c = observations()
        reversed_order = _tree()
        reversed_order.merge(c); reversed_order.merge(b)
        reversed_order.merge(a)

        assert left.canonical_paths() == right.canonical_paths()
        assert left.canonical_paths() == reversed_order.canonical_paths()
        assert left.outcome_totals() == right.outcome_totals()

    def test_duplicate_paths_union_not_duplicate(self):
        # Two shards observed the same path: the merged tree must hold
        # ONE node chain with accumulated counts, and the path counts
        # once toward coverage.
        a = _tree((self.P1, Outcome.OK), (self.P1, Outcome.OK))
        b = _tree((self.P1, Outcome.OK))
        merged = _tree()
        merged.merge(a)
        merged.merge(b)
        assert merged.path_count == 1
        assert merged.node_count == 2          # root + one decision node
        assert merged.outcome_totals() == {Outcome.OK: 3}

    def test_merge_equivalent_to_direct_insertion(self):
        direct = _tree((self.P1, Outcome.OK), (self.P2, Outcome.CRASH),
                       (self.P3, Outcome.OK), (self.P2, Outcome.CRASH))
        sharded = _tree()
        sharded.merge(_tree((self.P1, Outcome.OK), (self.P2, Outcome.CRASH)))
        sharded.merge(_tree((self.P3, Outcome.OK), (self.P2, Outcome.CRASH)))
        assert sharded.canonical_paths() == direct.canonical_paths()
        assert sharded.node_count == direct.node_count
        assert sharded.path_count == direct.path_count

    def test_delta_rows_equal_shard_tree_merge(self):
        # Counted inserts (path, outcome, count) — how dedup heartbeats
        # bump a known path — must reproduce merging a tree built by
        # one insert per execution: the tree is order-canonical, so the
        # two spellings are the same algebra.
        rows = [(self.P1, Outcome.OK, 3), (self.P2, Outcome.CRASH, 2),
                (self.P3, Outcome.OK, 1)]

        shard_view = _tree()   # what a worker observed this round
        for decisions, outcome, count in rows:
            for _ in range(count):
                shard_view.insert_path(decisions, outcome)

        via_merge = _tree()
        via_merge.merge(shard_view)

        via_delta = _tree()
        for decisions, outcome, count in rows:
            via_delta.insert_path(decisions, outcome, count=count)

        _assert_same_tree(via_delta, via_merge)
        assert via_delta.outcome_totals() == via_merge.outcome_totals()

    def test_version_skew_rejected(self):
        current = _tree()
        stale = _tree((self.P1, Outcome.OK), version=7)
        with pytest.raises(TreeError):
            current.merge(stale)
        other = ExecutionTree("elsewhere", 1)
        with pytest.raises(TreeError):
            current.merge(other)


# -- the TraceSink surface -----------------------------------------------------

class TestIngestSurface:
    def test_hive_satisfies_tracesink(self):
        demo = make_crash_demo()
        assert isinstance(Hive(demo.program), TraceSink)

    def test_deprecated_ingest_alias_is_gone(self):
        # `Hive.ingest` completed its deprecation cycle (warned with a
        # removal version, then deleted); the protocol spelling is the
        # only one left.
        demo = make_crash_demo()
        hive = Hive(demo.program)
        assert not hasattr(hive, "ingest")
        hive.ingest_trace(_trace(demo.program, {"n": 1, "mode": 2}))
        assert hive.stats.traces_ingested == 1

    def test_ingest_batch_matches_trace_by_trace(self):
        for demo in (make_crash_demo, make_race_demo, make_deadlock_demo):
            self._check_ingest_batch(demo().program)

    @staticmethod
    def _check_ingest_batch(program):
        from repro.tracing.dedup import trace_digest
        domains = sorted(program.inputs.items())
        distinct = []
        for seed in range(6):
            # Random interleavings on the concurrency demos: one path
            # under several schedules, with their own lock and global
            # events.
            scheduler = (RandomScheduler(seed=seed)
                         if len(program.threads) > 1 else None)
            distinct.append(trace_from_result(Interpreter(program).run(
                {name: lo + seed % (hi - lo + 1)
                 for name, (lo, hi) in domains}, scheduler=scheduler)))
        # The second batch repeats payloads (decoded once, ingested as
        # one shared trace) and ends with a heartbeat, whose lookup
        # needs the shared trace's digest to equal a fresh one's. The
        # third ships distinct payloads that share a replay source
        # (one run, reported by several pods): replayed once per memo,
        # folded once per entry.
        repeated = [distinct[i % 3] for i in range(12)]
        shared = [distinct[i % 2].with_pod(f"pod{i}") for i in range(6)]
        assert len({encode_trace(trace) for trace in shared}) == 6
        beat = Heartbeat(program_name=program.name,
                         program_version=program.version,
                         digest=trace_digest(distinct[1]), count=2)
        for traces, heartbeats in ((distinct, []), (repeated, [beat]),
                                   (shared, [beat])):
            one_by_one = _bare_hive(program)
            for trace in traces:
                one_by_one.ingest_trace(trace)
            for heartbeat in heartbeats:
                one_by_one.ingest_heartbeat(heartbeat)

            batched = _bare_hive(program)
            entries = [BatchEntry(global_index=i, payload=encode_trace(t))
                       for i, t in enumerate(traces)]
            entries += [BatchEntry(global_index=len(traces) + i,
                                   heartbeat=heartbeat)
                        for i, heartbeat in enumerate(heartbeats)]
            batch = TraceBatch(shard_id=0, program_name=program.name,
                               program_version=program.version,
                               entries=entries)
            replays = []
            replay = Interpreter.replay
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(Interpreter, "replay",
                              lambda self, source: replays.append(source)
                              or replay(self, source))
                consumed = batched.ingest_batch([batch], {})
            assert consumed == len(traces) + len(heartbeats)
            assert _hive_state(batched) == _hive_state(one_by_one)
            assert batched.stats.unknown_heartbeats == 0
            assert len(replays) == len({
                (trace.branch_bits, trace.syscall_returns,
                 trace.schedule_rle) for trace in traces})
            # Without a memo every trace replays, to the same state.
            unmemoized = _bare_hive(program)
            assert unmemoized.ingest_batch([batch]) == consumed
            assert _hive_state(unmemoized) == _hive_state(one_by_one)

    def test_serial_backend_runs_a_plan(self):
        # The protocol in miniature: plan two runs on one pod, execute
        # through SerialBackend, feed the hive.
        from repro.exec.plan import RoundPlan
        from repro.pod.pod import Pod
        demo = make_crash_demo()
        pod = Pod("pod0", demo.program, seed=1)
        backend = SerialBackend([pod], demo.program)
        hive = Hive(demo.program)
        plan = RoundPlan(round_index=0, hive_version=demo.program.version,
                         runs=[
                             PlannedRun(0, 0, {"n": 1, "mode": 2}),
                             PlannedRun(1, 0, {"n": 7, "mode": 2}),
                         ])
        results = backend.run_round(plan)
        assert len(results) == 1
        assert len(results[0].records) == 2
        hive.ingest_batch(results[0].batches)
        assert hive.stats.traces_ingested == 2
        backend.close()
