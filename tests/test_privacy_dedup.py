"""Tests for the privacy/efficiency extensions: partial replay of
truncated traces, pod-side truncation capture, and trace dedup."""

import random

import pytest

from repro import obs
from repro.hive.hive import Hive
from repro.obs import Registry
from repro.progmodel.corpus import make_crash_demo
from repro.progmodel.interpreter import (
    Interpreter, Outcome, ReplaySource, TraceExhausted,
)
from repro.tracing.capture import FullCapture, PrivacyTruncatedCapture
from repro.tracing.dedup import Heartbeat, PodDeduplicator, trace_digest
from repro.tracing.encode import encode_trace
from repro.tracing.trace import trace_from_result


class TestPartialReplay:
    def test_replay_prefix_of_truncated_trace(self):
        demo = make_crash_demo()
        result = Interpreter(demo.program).run({"n": 7, "mode": 2})
        full_path = list(result.path_decisions)
        source = ReplaySource(branch_bits=result.branch_bits[:1],
                              syscall_returns=[],
                              schedule_picks=result.schedule_picks)
        prefix = Interpreter(demo.program).replay_prefix(source)
        assert list(prefix) == full_path[:1]

    def test_replay_prefix_of_full_trace_is_full_path(self):
        demo = make_crash_demo()
        result = Interpreter(demo.program).run({"n": 3, "mode": 2})
        source = ReplaySource(branch_bits=result.branch_bits,
                              syscall_returns=result.syscall_values,
                              schedule_picks=result.schedule_picks)
        prefix = Interpreter(demo.program).replay_prefix(source)
        assert list(prefix) == list(result.path_decisions)

    def test_full_replay_still_strict(self):
        demo = make_crash_demo()
        result = Interpreter(demo.program).run({"n": 7, "mode": 2})
        source = ReplaySource(branch_bits=result.branch_bits[:1],
                              syscall_returns=[],
                              schedule_picks=result.schedule_picks)
        with pytest.raises(TraceExhausted):
            Interpreter(demo.program).replay(source)


class TestPrivacyTruncatedCapture:
    def test_caps_bits(self):
        demo = make_crash_demo()
        result = Interpreter(demo.program).run({"n": 7, "mode": 2})
        trace = PrivacyTruncatedCapture(max_bits=1).capture(result)
        assert len(trace.branch_bits) == 1
        assert not trace.replayable

    def test_short_runs_stay_replayable(self):
        demo = make_crash_demo()
        result = Interpreter(demo.program).run({"n": 1, "mode": 0})
        trace = PrivacyTruncatedCapture(max_bits=50).capture(result)
        assert trace.replayable

    def test_hive_merges_truncated_prefixes(self):
        demo = make_crash_demo()
        hive = Hive(demo.program, enable_proofs=False)
        capture = PrivacyTruncatedCapture(max_bits=1)
        rng = random.Random(0)
        for _ in range(50):
            inputs = {"n": rng.randint(0, 9), "mode": rng.randint(0, 3)}
            result = Interpreter(demo.program).run(inputs)
            hive.ingest_trace(capture.capture(result))
        # Prefix evidence landed in the tree (depth-1 decisions).
        assert hive.tree.insert_count == 50
        assert hive.tree.max_depth() == 1
        assert hive.stats.replay_failures == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            PrivacyTruncatedCapture(max_bits=-1)

    def test_accounts_once_under_its_own_policy(self):
        demo = make_crash_demo()
        registry = Registry()
        previous = obs.set_registry(registry)
        try:
            capture = PrivacyTruncatedCapture(max_bits=1)
            shipped, full = [], []
            for n in range(5, 10):
                result = Interpreter(demo.program).run({"n": n, "mode": 2})
                shipped.append(capture.capture(result).events_recorded)
                full.append(trace_from_result(result).events_recorded)
        finally:
            obs.set_registry(previous)
        assert all(a < b for a, b in zip(shipped, full))
        snapshot = registry.snapshot()
        names = set(snapshot["counters"]) | set(snapshot["histograms"])
        assert not [name for name in names
                    if name.startswith("capture.full.")]
        assert snapshot["counters"]["capture.privacy_truncated.traces"] == 5
        events = registry.histogram("capture.privacy_truncated.events")
        assert events.count == 5
        assert events.total == sum(shipped)


class TestDedup:
    def _trace(self, n, mode, pod="p"):
        demo = make_crash_demo()
        result = Interpreter(demo.program).run({"n": n, "mode": mode})
        return trace_from_result(result, pod_id=pod)

    def test_digest_ignores_pod_identity(self):
        a = self._trace(1, 1, pod="alice")
        b = self._trace(1, 1, pod="bob")
        assert trace_digest(a) == trace_digest(b)

    def test_digest_differs_across_paths(self):
        assert trace_digest(self._trace(1, 1)) != \
            trace_digest(self._trace(2, 2))

    def test_first_occurrence_ships_full(self):
        dedup = PodDeduplicator()
        trace, heartbeat = dedup.submit(self._trace(1, 1))
        assert trace is not None and heartbeat is None

    def test_repeat_ships_heartbeat(self):
        dedup = PodDeduplicator()
        dedup.submit(self._trace(1, 1))
        trace, heartbeat = dedup.submit(self._trace(1, 1))
        assert trace is None
        assert isinstance(heartbeat, Heartbeat)
        assert dedup.dedup_ratio == 0.5

    def test_failures_always_ship_full(self):
        dedup = PodDeduplicator()
        dedup.submit(self._trace(7, 2))
        trace, heartbeat = dedup.submit(self._trace(7, 2))
        assert trace is not None and heartbeat is None

    def test_bandwidth_accounting_exact(self):
        dedup = PodDeduplicator()
        full_size = len(encode_trace(self._trace(1, 1)))
        for _ in range(100):
            dedup.submit(self._trace(1, 1))
        # One full trace, then 99 heartbeats.
        assert dedup.bytes_shipped == full_size + 99 * Heartbeat.WIRE_SIZE
        assert dedup.traces_shipped == 1
        assert dedup.heartbeats_shipped == 99

    def test_memory_bound_evicts(self):
        dedup = PodDeduplicator(memory=1)
        dedup.submit(self._trace(1, 1))
        dedup.submit(self._trace(2, 2))   # evicts the first digest
        trace, _hb = dedup.submit(self._trace(1, 1))
        assert trace is not None  # re-learned after eviction

    def test_reset_forgets(self):
        dedup = PodDeduplicator()
        dedup.submit(self._trace(1, 1))
        dedup.reset()
        trace, _hb = dedup.submit(self._trace(1, 1))
        assert trace is not None

    def test_memory_validation(self):
        with pytest.raises(ValueError):
            PodDeduplicator(memory=0)


class TestHiveHeartbeats:
    def test_heartbeat_bumps_known_path(self):
        demo = make_crash_demo()
        hive = Hive(demo.program, enable_proofs=False)
        result = Interpreter(demo.program).run({"n": 1, "mode": 1})
        trace = trace_from_result(result, pod_id="p")
        dedup = PodDeduplicator()
        shipped, _hb = dedup.submit(trace)
        hive.ingest_trace(shipped)
        _none, heartbeat = dedup.submit(trace)
        hive.ingest_heartbeat(heartbeat)
        assert hive.stats.heartbeats_ingested == 1
        assert hive.stats.unknown_heartbeats == 0
        assert hive.tree.insert_count == 2
        assert hive.tree.path_count == 1  # same path, higher counts

    def test_unknown_heartbeat_counted(self):
        demo = make_crash_demo()
        hive = Hive(demo.program, enable_proofs=False)
        result = Interpreter(demo.program).run({"n": 1, "mode": 1})
        dedup = PodDeduplicator()
        dedup.submit(trace_from_result(result))  # full trace never shipped
        _none, heartbeat = dedup.submit(trace_from_result(result))
        hive.ingest_heartbeat(heartbeat)
        assert hive.stats.unknown_heartbeats == 1
        assert hive.tree.insert_count == 0


class TestDedupPlatform:
    def test_dedup_cuts_wire_bytes_same_outcome(self):
        from repro.platform import PlatformConfig, SoftBorgPlatform
        from repro.workloads.scenarios import crash_scenario

        def run(dedup):
            platform = SoftBorgPlatform(
                crash_scenario(n_users=40, volatility=0.1, seed=2),
                PlatformConfig(rounds=10, executions_per_round=40,
                               dedup=dedup, enable_proofs=False, seed=2))
            return platform, platform.run()

        naive_platform, naive = run(False)
        dedup_platform, deduped = run(True)
        assert deduped.wire_bytes < naive.wire_bytes
        # Same bugs found and fixed either way.
        assert bool(naive.fixes) == bool(deduped.fixes)
        assert (naive_platform.hive.tree.path_count
                == dedup_platform.hive.tree.path_count)

    def test_stale_heartbeats_reach_the_obs_counter(self):
        # A staged rollout keeps most pods on the pre-fix version, so
        # their repeats arrive as stale heartbeats: the hive.stale_traces
        # metric must count them exactly like HiveStats does.
        from repro import obs
        from repro.obs import Registry
        from repro.platform import PlatformConfig, SoftBorgPlatform
        from repro.workloads.scenarios import crash_scenario

        previous = obs.set_registry(Registry())
        try:
            platform = SoftBorgPlatform(
                crash_scenario(seed=7),
                PlatformConfig(n_pods=6, rounds=8, executions_per_round=40,
                               dedup=True, rollout_fraction=0.25, seed=7,
                               backend="serial"))
            platform.run()
            counters = platform.snapshot()["obs"]["counters"]
        finally:
            obs.set_registry(previous)
        assert platform.hive.stats.stale_traces > 0
        assert (counters["hive.stale_traces"]
                == platform.hive.stats.stale_traces)
