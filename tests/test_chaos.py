"""Chaos harness tests: profile catalogue, fault-plan purity, the
checksummed wire format, crash-tolerant rounds, and the lossy-workers
acceptance run (completes every round, invariants green, degradation
inside the documented envelope)."""

import json

import pytest

from repro import obs
from repro.chaos import (
    PROFILES, FaultPlan, FaultProfile, check_invariants,
    profile_names, resolve_profile,
)
from repro.errors import ConfigError, TraceError
from repro.exec.batch import BatchEntry, TraceBatch, decode_batch, encode_batch
from repro.obs import Registry
from repro.obs.trace import Tracer, set_tracer
from repro.platform import PlatformConfig, SoftBorgPlatform
from repro.progmodel.corpus import make_crash_demo
from repro.progmodel.interpreter import Interpreter
from repro.tracing.encode import encode_trace
from repro.tracing.trace import trace_from_result
from repro.workloads.scenarios import crash_scenario


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = obs.set_registry(Registry())
    yield
    obs.set_registry(previous)


def _platform(profile, rounds=4, executions=20, seed=5, **overrides):
    config = PlatformConfig(
        rounds=rounds, executions_per_round=executions, seed=seed,
        enable_proofs=False, chaos_profile=profile, **overrides)
    return SoftBorgPlatform(crash_scenario(seed=seed), config)


# -- profiles ------------------------------------------------------------------

class TestProfiles:
    def test_named_profiles_resolve(self):
        for name in profile_names():
            profile = resolve_profile(name)
            assert profile.name == name

    def test_resolve_returns_private_copy(self):
        first = resolve_profile("lossy-workers")
        first.worker_death_rate = 0.99
        assert resolve_profile("lossy-workers").worker_death_rate == \
            PROFILES["lossy-workers"].worker_death_rate

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError, match="unknown chaos profile"):
            resolve_profile("earthquake")

    def test_custom_profile_validated(self):
        with pytest.raises(ConfigError):
            resolve_profile(FaultProfile(frame_drop_rate=1.5))
        with pytest.raises(ConfigError):
            resolve_profile(FaultProfile(virtual_workers=0))

    def test_none_is_the_only_noop_named_profile(self):
        assert PROFILES["none"].is_noop()
        for name in profile_names():
            if name != "none":
                assert not PROFILES[name].is_noop(), name


# -- the fault plan ------------------------------------------------------------

def _schedule(plan, rounds=20, frames=6):
    """A comparable fingerprint of every fault decision."""
    return (
        tuple(plan.dead_virtual_shards(r) for r in range(rounds)),
        tuple(plan.frame_dropped(r, f)
              for r in range(rounds) for f in range(frames)),
        tuple(plan.frame_corrupted(r, f)
              for r in range(rounds) for f in range(frames)),
        tuple(tuple(plan.delivery_order(r, frames))
              for r in range(rounds)),
        tuple(plan.ingest_fails(r, 0, a)
              for r in range(rounds) for a in range(3)),
    )


class TestFaultPlan:
    def test_pure_function_of_seed(self):
        profile = resolve_profile("lossy-workers")
        one = FaultPlan(profile, seed=11)
        two = FaultPlan(profile, seed=11)
        assert _schedule(one) == _schedule(two)
        # Repeated queries never drift (no hidden mutable state).
        assert _schedule(one) == _schedule(one)

    def test_different_seeds_differ(self):
        profile = resolve_profile("lossy-workers")
        assert _schedule(FaultPlan(profile, seed=1)) != \
            _schedule(FaultPlan(profile, seed=2))

    def test_rate_extremes(self):
        calm = FaultPlan(resolve_profile("none"), seed=3)
        assert calm.dead_virtual_shards(0) == ()
        assert not calm.frame_dropped(0, 0)
        storm = FaultPlan(FaultProfile(
            virtual_workers=3, worker_death_rate=1.0,
            frame_drop_rate=1.0), seed=3)
        assert storm.dead_virtual_shards(7) == (0, 1, 2)
        assert storm.frame_dropped(7, 0)

    def test_backoff_is_capped_exponential(self):
        plan = FaultPlan(FaultProfile(backoff_base=0.05, backoff_cap=0.3),
                         seed=0)
        assert plan.backoff(1) == pytest.approx(0.05)
        assert plan.backoff(2) == pytest.approx(0.10)
        assert plan.backoff(3) == pytest.approx(0.20)
        assert plan.backoff(4) == pytest.approx(0.30)  # capped
        assert plan.backoff(10) == pytest.approx(0.30)

    def test_corrupt_bytes_mangles_deterministically(self):
        plan = FaultPlan(resolve_profile("lossy-workers"), seed=9)
        data = bytes(range(64))
        mangled = plan.corrupt_bytes(data, 2, 5)
        assert mangled != data
        assert mangled == plan.corrupt_bytes(data, 2, 5)

    def test_delivery_order_is_a_permutation(self):
        plan = FaultPlan(resolve_profile("lossy-workers"), seed=4)
        order = plan.delivery_order(1, 12)
        assert sorted(order) == list(range(12))
        tame = FaultPlan(resolve_profile("flaky-hive"), seed=4)
        assert tame.delivery_order(1, 12) == list(range(12))

    def test_clock_skew_bounds(self):
        plan = FaultPlan(FaultProfile(clock_skew_max=0.2), seed=6)
        for pod in range(20):
            assert 0.8 <= plan.clock_skew(pod) <= 1.2
        flat = FaultPlan(resolve_profile("none"), seed=6)
        assert flat.clock_skew(0) == 1.0


# -- the checksummed wire format -----------------------------------------------

class TestFrameChecksum:
    def _encoded(self):
        demo = make_crash_demo()
        trace = trace_from_result(
            Interpreter(demo.program).run({"n": 1, "mode": 2}))
        batch = TraceBatch(
            shard_id=0, program_name=demo.program.name,
            program_version=demo.program.version, sequence=0,
            entries=[BatchEntry(global_index=0,
                                payload=encode_trace(trace))])
        return encode_batch(batch)

    def test_round_trip_still_clean(self):
        data = self._encoded()
        assert len(decode_batch(data)) == 1

    def test_any_flipped_byte_is_detected(self):
        data = self._encoded()
        for position in range(len(data)):
            bad = bytearray(data)
            bad[position] ^= 0x41
            with pytest.raises(TraceError):
                decode_batch(bytes(bad))

    def test_truncation_is_detected(self):
        data = self._encoded()
        for cut in (1, len(data) // 2, len(data) - 1):
            with pytest.raises(TraceError):
                decode_batch(data[:cut])

    def test_too_short_for_checksum(self):
        with pytest.raises(TraceError, match="too short"):
            decode_batch(b"\x02\x00")


# -- crash-tolerant rounds (forced faults) -------------------------------------

class TestCrashTolerantRounds:
    def test_forced_worker_death_recovers_every_run(self):
        profile = FaultProfile(
            name="all-die", virtual_workers=3, worker_death_rate=1.0,
            retry_death_rate=0.0, max_retries=3)
        platform = _platform(profile, rounds=3, executions=12)
        platform.run()
        chaos = platform.chaos
        assert len(chaos.rounds) == 3
        for stats in chaos.rounds:
            assert stats.worker_deaths == 3
            assert stats.runs_recovered == 12
            assert stats.runs_lost == 0
            assert stats.verdict == "survived"
        # Recovery is complete: the hive saw every execution.
        assert platform.hive.stats.traces_ingested == 36

    def test_retry_waves_capped_then_degraded(self):
        profile = FaultProfile(
            name="hopeless", virtual_workers=2, worker_death_rate=1.0,
            retry_death_rate=1.0, max_retries=2)
        platform = _platform(profile, rounds=2, executions=10)
        platform.run()
        for stats in platform.chaos.rounds:
            assert stats.retry_waves == 2
            assert stats.runs_lost == 10
            assert stats.runs_recovered == 0
            assert stats.verdict == "degraded"
        assert platform.hive.stats.traces_ingested == 0

    def test_all_frames_corrupt_all_discarded(self):
        profile = FaultProfile(name="static", frame_corrupt_rate=1.0,
                               frame_traces=4)
        platform = _platform(profile, rounds=2, executions=12)
        platform.run()
        for stats in platform.chaos.rounds:
            assert stats.frames_total == 3
            assert stats.frames_corrupted == 3
            assert stats.frames_discarded == 3
            assert stats.entries_delivered == 0
            assert stats.invariants_ok
            assert stats.verdict == "degraded"
        assert platform.hive.stats.traces_ingested == 0
        assert not platform.invariant_violations

    def test_hopeless_ingest_abandons_frames(self):
        profile = FaultProfile(name="dead-hive", ingest_failure_rate=1.0,
                               ingest_max_retries=2, frame_traces=6)
        platform = _platform(profile, rounds=2, executions=12)
        platform.run()
        registry = obs.get_registry().snapshot()["counters"]
        for stats in platform.chaos.rounds:
            assert stats.frames_abandoned == stats.frames_total
            assert stats.entries_delivered == 0
        assert registry["retry.giveups"] == sum(
            s.frames_abandoned for s in platform.chaos.rounds)

    def test_flaky_ingest_retries_through(self):
        platform = _platform("flaky-hive", rounds=4, executions=20)
        platform.run()
        chaos = platform.chaos
        assert sum(s.ingest_retries for s in chaos.rounds) > 0
        assert sum(s.frames_abandoned for s in chaos.rounds) == 0
        # Retried ingest loses nothing: every execution reached the hive.
        assert platform.hive.stats.traces_ingested == 80


# -- one round path ------------------------------------------------------------

class TestOneRoundPath:
    def test_chaos_delivery_nests_in_the_round(self):
        # The chaos wire is the round sink's delivery, so its frames
        # and their ingest happen inside the round's execute step.
        tracer = Tracer(enabled=True)
        previous = set_tracer(tracer)
        try:
            _platform("lossy-workers").run()
        finally:
            set_tracer(previous)
        spans = tracer.log.spans
        by_id = {span.span_id: span for span in spans}

        def ancestors(span):
            names = []
            while span.parent_id in by_id:
                span = by_id[span.parent_id]
                names.append(span.name)
            return names
        assert "round.deliver" not in {span.name for span in spans}
        delivery = [span for span in spans
                    if span.name in ("wire.frame", "hive.ingest_frame")]
        assert {span.name for span in delivery} == {"wire.frame",
                                                    "hive.ingest_frame"}
        assert all("round.execute" in ancestors(span)
                   for span in delivery)


# -- one replay memo per delivered round ---------------------------------------

class TestDeliveryReplayMemo:
    """A round's frames share one replay memo: each distinct replay
    source replays once per round, however many frames (duplicates
    included) carry it, and the hive ends where frame-by-frame ingest
    without a memo leaves it."""

    def _run(self, profile, memo):
        from repro.chaos.coordinator import ChaosCoordinator
        from repro.hive.hive import Hive
        rounds, sources = [], []
        deliver = ChaosCoordinator.deliver
        replay_source = Hive._replay_source
        ingest_batch = Hive.ingest_batch

        def tracked_deliver(self, hive, results, round_index):
            rounds.append(round_index)
            return deliver(self, hive, results, round_index)

        def tracked_replay(self, trace):
            sources.append((rounds[-1], self.program.version,
                            trace.branch_bits, trace.syscall_returns,
                            trace.schedule_rle))
            return replay_source(self, trace)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ChaosCoordinator, "deliver", tracked_deliver)
            patch.setattr(Hive, "_replay_source", tracked_replay)
            if not memo:
                patch.setattr(Hive, "ingest_batch",
                              lambda self, batches, memo=None:
                              ingest_batch(self, batches))
            platform = _platform(profile, rounds=4, executions=30, seed=3)
            report = platform.run()
        hive = platform.hive
        state = {
            "report": report.as_dict(),
            "chaos": platform.chaos.summary(),
            "stats": hive.stats.as_dict(),
            "paths": hive.tree.canonical_paths(),
            "size": (hive.tree.node_count, hive.tree.path_count,
                     hive.tree.insert_count),
            "invariants": hive.invariants.invariants(),
            "buckets": repr(hive.bucketer.buckets()),
            "digest_paths": dict(hive._digest_paths),
        }
        return sources, state

    @pytest.mark.parametrize("profile", [
        "lossy-workers",
        FaultProfile(name="doubled", frame_duplicate_rate=1.0,
                     reorder=True),
    ], ids=["lossy-workers", "doubled"])
    def test_each_source_replays_once_per_round(self, profile):
        memo_sources, memo_state = self._run(profile, memo=True)
        sources, state = self._run(profile, memo=False)
        assert memo_state == state
        assert len(set(memo_sources)) == len(memo_sources)
        assert set(memo_sources) == set(sources)
        assert len(memo_sources) < len(sources)


# -- the default is a true no-op -----------------------------------------------

class TestNoopDefault:
    def test_default_config_builds_no_chaos_machinery(self):
        platform = _platform("none", rounds=2, executions=8)
        assert platform.chaos is None
        assert platform.invariants is None
        platform.run()
        doc = platform.snapshot()
        assert "chaos" not in doc
        assert "invariants" not in doc
        assert doc["schema_version"] == 3

    def test_check_invariants_without_chaos(self):
        platform = _platform("none", rounds=2, executions=8,
                             check_invariants=True)
        assert platform.chaos is None
        assert platform.invariants is not None
        platform.run()
        assert platform.invariant_violations == []
        assert platform.snapshot()["invariants"]["ok"] is True


# -- the acceptance run --------------------------------------------------------

class TestLossyWorkersAcceptance:
    ROUNDS = 6
    EXECUTIONS = 30
    SEED = 3

    def _run(self, profile):
        platform = _platform(profile, rounds=self.ROUNDS,
                             executions=self.EXECUTIONS, seed=self.SEED)
        report = platform.run()
        return platform, report

    def test_completes_all_rounds_with_invariants_green(self):
        platform, report = self._run("lossy-workers")
        chaos = platform.chaos
        assert len(report.rounds) == self.ROUNDS
        assert len(chaos.rounds) == self.ROUNDS
        for stats in chaos.rounds:
            assert stats.invariants_ok
            assert stats.verdict in ("survived", "degraded")
        assert platform.invariant_violations == []
        assert chaos.all_survived()
        doc = platform.snapshot()
        json.dumps(doc)  # JSON-clean with the chaos blocks attached
        assert doc["chaos"]["profile"] == "lossy-workers"
        assert doc["invariants"]["ok"] is True

    def test_degradation_within_documented_envelope(self):
        baseline, _ = self._run("none")
        chaotic, _ = self._run("lossy-workers")
        delivered = sum(s.entries_delivered
                        for s in chaotic.chaos.rounds)
        expected = baseline.hive.stats.traces_ingested
        assert expected == self.ROUNDS * self.EXECUTIONS
        # docs/CHAOS.md: lossy-workers must deliver >= 50% of the
        # fault-free evidence, and coverage must track it.
        assert delivered >= 0.5 * expected
        assert chaotic.hive.tree.path_count >= \
            0.5 * baseline.hive.tree.path_count
        assert check_invariants(chaotic.hive).ok

    def test_chaos_run_still_fixes_the_bug(self):
        platform, report = self._run("lossy-workers")
        assert report.fixes  # degraded evidence still exterminates


# -- real worker crashes (process backend) -------------------------------------

class TestProcessRespawn:
    def test_killed_worker_is_respawned_and_round_completes(self):
        platform = _platform("none", rounds=1, executions=10,
                             backend="process", workers=2)
        backend = platform.backend
        plan = platform._plan_round(0)
        try:
            backend._start()
            victim = backend._procs[0]
            victim.terminate()
            victim.join(timeout=10)
            results = backend.run_round(plan)
            assert sum(len(r.records) for r in results) == 10
            counters = obs.get_registry().snapshot()["counters"]
            assert counters.get("exec.worker_respawns", 0) >= 1
            assert counters.get("retry.attempts", 0) >= 1
        finally:
            backend.close()
