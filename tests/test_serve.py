"""Unit + end-to-end tests for the continuous-service hive (repro.serve)."""

import pytest

from repro.errors import ConfigError
from repro.serve import (
    Autoscaler, AutoscalerConfig, ControlPlane, IngestPump, PodPhase,
    Service, ServiceConfig, make_balancer,
)
from repro.serve.balance import (
    ConsistentHashBalancer, LeastBacklogBalancer, RoundRobinBalancer,
)
from repro.workloads.scenarios import crash_scenario


# -- control plane -------------------------------------------------------------

class TestControlPlane:
    def test_initial_fleet_warms_then_readies(self):
        plane = ControlPlane(max_pods=4, warmup_ticks=2, initial=2)
        assert plane.ready_indices() == []
        plane.reconcile(0)
        assert plane.ready_indices() == []          # still warming
        plane.reconcile(1)
        assert plane.ready_indices() == []
        assert plane.reconcile(2) == [0, 1]         # warm-up elapsed

    def test_scale_up_admits_lowest_free_indices(self):
        plane = ControlPlane(max_pods=6, warmup_ticks=0, initial=2)
        plane.reconcile(0)
        plane.set_desired(4, tick=1, reason="test")
        assert plane.reconcile(1) == [0, 1, 2, 3]

    def test_scale_down_terminates_highest_first(self):
        plane = ControlPlane(max_pods=6, warmup_ticks=0, initial=5)
        plane.reconcile(0)
        plane.set_desired(2, tick=1)
        assert plane.reconcile(1) == [0, 1]
        assert plane.pods[4].phase == PodPhase.TERMINATED
        assert plane.pods[0].phase == PodPhase.READY

    def test_kill_sends_pod_back_through_warmup(self):
        plane = ControlPlane(max_pods=3, warmup_ticks=2, initial=3)
        plane.reconcile(0)
        plane.reconcile(2)
        assert plane.ready_indices() == [0, 1, 2]
        plane.kill(1, tick=3)
        assert plane.pods[1].phase == PodPhase.WARMING
        assert plane.pods[1].restarts == 1
        assert plane.reconcile(3) == [0, 2]
        # Self-heals once warm-up elapses again.
        assert plane.reconcile(5) == [0, 1, 2]

    def test_heartbeats_and_fleet_doc(self):
        plane = ControlPlane(max_pods=2, warmup_ticks=0, initial=2)
        plane.reconcile(0)
        plane.heartbeat(0, tick=4, lag=3)
        plane.note_assignment(0, count=2)
        doc = plane.fleet_doc()
        assert doc["desired"] == 2 and doc["ready"] == 2
        assert doc["pods"][0]["heartbeat_tick"] == 4
        assert doc["pods"][0]["lag"] == 3
        assert doc["pods"][0]["runs_assigned"] == 2
        assert doc["transitions"] == len(plane.events)

    def test_desired_clamped_to_max(self):
        plane = ControlPlane(max_pods=3, warmup_ticks=0, initial=1)
        plane.set_desired(99, tick=0)
        assert plane.desired == 3


# -- autoscaler decision table -------------------------------------------------

class TestAutoscaler:
    def config(self, **overrides):
        base = dict(min_replicas=1, max_replicas=8, target_per_replica=4,
                    up_stable_ticks=1, down_stable_ticks=3,
                    cooldown_ticks=2, max_step=4)
        base.update(overrides)
        return AutoscalerConfig(**base)

    def test_scales_up_on_backlog_growth(self):
        scaler = Autoscaler("pods", self.config(), initial=1)
        decision = scaler.observe(0, load=12)       # wants ceil(12/4)=3
        assert decision.direction == "up"
        assert scaler.replicas == 3
        assert scaler.events[-1].to_replicas == 3

    def test_up_stability_window_delays_scale_up(self):
        scaler = Autoscaler("pods", self.config(up_stable_ticks=2),
                            initial=1)
        assert scaler.observe(0, load=12).direction == "hold"
        assert scaler.observe(1, load=12).direction == "up"

    def test_scale_down_requires_hysteresis(self):
        scaler = Autoscaler("pods", self.config(), initial=4)
        # Three consecutive low-load ticks required (down_stable_ticks).
        assert scaler.observe(0, load=2).direction == "hold"
        assert scaler.observe(1, load=2).direction == "hold"
        assert scaler.observe(2, load=2).direction == "down"
        assert scaler.replicas == 1

    def test_load_spike_resets_down_stability(self):
        scaler = Autoscaler("pods", self.config(), initial=4)
        scaler.observe(0, load=2)
        scaler.observe(1, load=2)
        scaler.observe(2, load=16)                  # spike: counter resets
        assert scaler.observe(3, load=2).direction == "hold"
        assert scaler.observe(4, load=2).direction == "hold"
        assert scaler.observe(5, load=2).direction == "down"

    def test_cooldown_blocks_scale_down_after_action(self):
        scaler = Autoscaler("pods", self.config(down_stable_ticks=1,
                                                cooldown_ticks=3),
                            initial=1)
        assert scaler.observe(0, load=20).direction == "up"
        # Hysteresis satisfied at tick 1, but tick-0 action cools down.
        assert scaler.observe(1, load=2).direction == "hold"
        assert scaler.observe(2, load=2).direction == "hold"
        assert scaler.observe(3, load=2).direction == "down"

    def test_cooldown_does_not_block_scale_up(self):
        scaler = Autoscaler("pods", self.config(cooldown_ticks=5),
                            initial=1)
        assert scaler.observe(0, load=8).direction == "up"
        assert scaler.observe(1, load=32).direction == "up"

    def test_min_max_clamps(self):
        scaler = Autoscaler("pods", self.config(max_replicas=4,
                                                max_step=8), initial=1)
        scaler.observe(0, load=1000)
        assert scaler.replicas == 4                 # max clamp
        for tick in range(1, 10):
            scaler.observe(tick, load=0)
        assert scaler.replicas == 1                 # min clamp

    def test_max_step_caps_single_action(self):
        scaler = Autoscaler("pods", self.config(max_step=2), initial=1)
        scaler.observe(0, load=1000)
        assert scaler.replicas == 3                 # 1 + max_step

    def test_summary_counts_directions(self):
        scaler = Autoscaler("pods", self.config(down_stable_ticks=1,
                                                cooldown_ticks=0),
                            initial=1)
        scaler.observe(0, load=20)
        scaler.observe(1, load=0)
        summary = scaler.summary()
        assert summary["scale_ups"] == 1
        assert summary["scale_downs"] == 1
        assert len(summary["events"]) == 2

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            AutoscalerConfig(min_replicas=0).validate()
        with pytest.raises(ConfigError):
            AutoscalerConfig(max_replicas=1, min_replicas=2).validate()
        with pytest.raises(ConfigError):
            Autoscaler("pods", AutoscalerConfig(min_replicas=2),
                       initial=1)


# -- balancers -----------------------------------------------------------------

class TestBalancers:
    def test_round_robin_rotates(self):
        balancer = RoundRobinBalancer()
        ready = [0, 2, 5]
        picks = [balancer.assign(k, ready, {}) for k in range(6)]
        assert picks == [0, 2, 5, 0, 2, 5]

    def test_least_backlog_prefers_idle_then_lowest_index(self):
        balancer = LeastBacklogBalancer()
        assert balancer.assign(0, [1, 2, 3], {1: 2, 2: 0, 3: 0}) == 2
        assert balancer.assign(1, [1, 2, 3], {}) == 1  # tie -> lowest

    def test_consistent_hash_is_sticky_under_churn(self):
        balancer = ConsistentHashBalancer()
        ready = [0, 1, 2, 3]
        before = {key: balancer.assign(key, ready, {})
                  for key in range(200)}
        # Pod 3 leaves: only its keys remap.
        after = {key: balancer.assign(key, [0, 1, 2], {})
                 for key in range(200)}
        moved = [key for key in before
                 if before[key] != after[key]]
        assert all(before[key] == 3 for key in moved)
        assert moved                                  # it owned something

    def test_consistent_hash_deterministic(self):
        a = ConsistentHashBalancer()
        b = ConsistentHashBalancer()
        ready = [0, 1, 4]
        assert ([a.assign(k, ready, {}) for k in range(64)]
                == [b.assign(k, ready, {}) for k in range(64)])

    def test_make_balancer_rejects_unknown(self):
        with pytest.raises(ConfigError):
            make_balancer("random-two-choices")


# -- ingest pump ---------------------------------------------------------------

class _ListSink:
    def __init__(self):
        self.batches = []

    def ingest_batch(self, batches):
        self.batches.extend(batches)
        return sum(len(batch.entries) for batch in batches)


class TestIngestPump:
    def make_entries(self, count, start=0):
        from repro.exec.batch import BatchEntry
        # Payload-free entries (heartbeat-less, empty payload) are
        # fine for queue mechanics; decode round-trips them.
        return [BatchEntry(global_index=start + index, payload=b"")
                for index in range(count)]

    def test_frame_entries_chunks_in_order(self):
        pump = IngestPump(capacity_frames=8, frame_max_entries=4)
        frames = pump.frame_entries(self.make_entries(10), "prog", 1)
        assert [len(frame.entries) for frame in frames] == [4, 4, 2]
        flat = [entry.global_index
                for frame in frames for entry in frame.entries]
        assert flat == list(range(10))

    def test_offer_rejects_when_full(self):
        pump = IngestPump(capacity_frames=2, frame_max_entries=2)
        frames = pump.frame_entries(self.make_entries(6), "prog", 1)
        assert pump.offer(frames[0], tick=0) is True
        assert pump.offer(frames[1], tick=0) is True
        assert pump.offer(frames[2], tick=0) is False   # backpressure
        assert pump.frames_rejected == 1
        assert pump.depth_entries == 4

    def test_drain_is_fifo_and_budgeted(self):
        pump = IngestPump(capacity_frames=8, frame_max_entries=2)
        for frame in pump.frame_entries(self.make_entries(8), "prog", 1):
            assert pump.offer(frame, tick=0)
        sink = _ListSink()
        # Budget 3 drains whole frames: 2 frames = 4 entries (may
        # overshoot by at most one frame).
        drained = pump.drain(sink, budget_entries=3)
        assert drained == 4
        order = [entry.global_index
                 for batch in sink.batches for entry in batch.entries]
        assert order == [0, 1, 2, 3]
        assert pump.drain(sink, budget_entries=100) == 4
        assert pump.depth_entries == 0

    def test_chaos_corrupted_frame_discarded_whole_at_decode(self):
        from repro.chaos.plan import FaultPlan
        from repro.chaos.profiles import FaultProfile

        profile = FaultProfile(name="all-corrupt", frame_corrupt_rate=1.0)
        plan = FaultPlan(profile, seed=1)
        pump = IngestPump(capacity_frames=8, frame_max_entries=4)
        frames = pump.frame_entries(self.make_entries(4), "prog", 1)
        assert pump.offer(frames[0], tick=0, fault_plan=plan) is True
        sink = _ListSink()
        assert pump.drain(sink, budget_entries=100) == 0
        assert pump.frames_discarded == 1
        assert sink.batches == []

    def test_chaos_dropped_frame_consumed_silently(self):
        from repro.chaos.plan import FaultPlan
        from repro.chaos.profiles import FaultProfile

        profile = FaultProfile(name="all-drop", frame_drop_rate=1.0)
        plan = FaultPlan(profile, seed=1)
        pump = IngestPump(capacity_frames=2, frame_max_entries=4)
        frames = pump.frame_entries(self.make_entries(4), "prog", 1)
        # Dropped on the wire: consumed (True) but never queued.
        assert pump.offer(frames[0], tick=0, fault_plan=plan) is True
        assert pump.depth_entries == 0
        assert pump.frames_discarded == 1

    def test_an_entry_that_does_not_decode_is_drained_and_counted(self):
        # The frame's CRC holds, so the pump hands it on whole; the hive
        # counts the bad entry as a failed replay instead of raising
        # mid-frame, and the drain accounts every entry it took.
        from repro.exec.batch import BatchEntry
        from repro.hive.hive import Hive
        from repro.progmodel.corpus import make_crash_demo
        from repro.progmodel.interpreter import Interpreter
        from repro.tracing.encode import encode_trace
        from repro.tracing.trace import trace_from_result

        program = make_crash_demo().program
        good = encode_trace(trace_from_result(
            Interpreter(program).run({"n": 1, "mode": 2})))
        pump = IngestPump(capacity_frames=8, frame_max_entries=4)
        frame, = pump.frame_entries(
            [BatchEntry(0, payload=good),
             BatchEntry(1, payload=b"\x07\xff\xff"),
             BatchEntry(2, payload=good)], program.name, program.version)
        assert pump.offer(frame, tick=0)
        hive = Hive(program, validate_fixes=False, enable_proofs=False)
        assert pump.drain(hive, budget_entries=100) == 3
        assert pump.entries_drained == 3
        assert pump.frames_discarded == 0
        assert hive.stats.traces_ingested == 3
        assert hive.stats.replay_failures == 1

    def test_lag_is_depth_over_drain_rate(self):
        pump = IngestPump(capacity_frames=8, frame_max_entries=5)
        for frame in pump.frame_entries(self.make_entries(10), "p", 1):
            pump.offer(frame, tick=0)
        assert pump.lag_ticks(drain_per_tick=5) == 2.0
        assert pump.lag_ticks(drain_per_tick=0) == 10.0


# -- populations ---------------------------------------------------------------

class TestZipfPopulation:
    def test_lazy_users_are_index_deterministic(self):
        from repro.workloads.population import ZipfPopulation

        scenario = crash_scenario(seed=1)
        a = ZipfPopulation(scenario.program, 1_000_000, seed=9)
        b = ZipfPopulation(scenario.program, 1_000_000, seed=9)
        # User identity is a pure function of (seed, index) — the
        # access order must not matter.
        user_late = a.user(734_188)
        for index in range(100):
            b.user(index)
        assert b.user(734_188).base_inputs == user_late.base_inputs
        assert user_late.user_id == "user0734188"

    def test_sampling_is_deterministic_and_zipf_skewed(self):
        from collections import Counter

        from repro.workloads.population import ZipfPopulation

        scenario = crash_scenario(seed=1)
        a = ZipfPopulation(scenario.program, 100_000, seed=3)
        b = ZipfPopulation(scenario.program, 100_000, seed=3)
        draws_a = [a.sample_user().user_id for _ in range(500)]
        draws_b = [b.sample_user().user_id for _ in range(500)]
        assert draws_a == draws_b
        counts = Counter(draws_a)
        # Zipf head: the single hottest user dominates any cold one.
        assert counts.most_common(1)[0][1] >= 25

    def test_memo_capped(self):
        from repro.workloads.population import ZipfPopulation

        scenario = crash_scenario(seed=1)
        population = ZipfPopulation(scenario.program, 10_000, seed=3,
                                    memo_cap=16)
        for index in range(200):
            population.user(index)
        assert len(population._memo) <= 16

    @pytest.mark.parametrize("memo_cap", [0, -1])
    def test_memo_cap_below_one_is_rejected(self, memo_cap):
        from repro.workloads.population import ZipfPopulation

        scenario = crash_scenario(seed=1)
        with pytest.raises(ConfigError):
            ZipfPopulation(scenario.program, 100, memo_cap=memo_cap)

    def test_a_one_user_memo_still_draws(self):
        from repro.workloads.population import ZipfPopulation

        scenario = crash_scenario(seed=1)
        population = ZipfPopulation(scenario.program, 100, seed=3,
                                    memo_cap=1)
        users = [population.sample_user() for _ in range(50)]
        assert len(population._memo) == 1
        assert len({user.user_id for user in users}) > 1

    def test_sample_execution_draws_inputs(self):
        from repro.workloads.population import ZipfPopulation

        scenario = crash_scenario(seed=1)
        population = ZipfPopulation(scenario.program, 1000, seed=3)
        user, inputs = population.sample_execution()
        assert set(inputs) == set(scenario.program.inputs)


# -- service config ------------------------------------------------------------

class TestServiceConfig:
    def test_defaults_validate(self):
        ServiceConfig().validate()

    @pytest.mark.parametrize("overrides", [
        dict(ticks=0),
        dict(users=-1),
        dict(burst_arrivals_per_tick=1, base_arrivals_per_tick=8),
        dict(min_pods=0),
        dict(max_pods=1, min_pods=2),
        dict(initial_pods=99),
        dict(balance="coin-flip"),
        dict(backend="quantum"),
        dict(chaos_profile="tsunami"),
        dict(solver_cache="global"),
        dict(max_ingest_lag_ticks=0),
    ])
    def test_bad_configs_rejected(self, overrides):
        with pytest.raises(ConfigError):
            ServiceConfig(**overrides).validate()

    def test_arrival_curve_has_burst_window(self):
        config = ServiceConfig(base_arrivals_per_tick=5,
                               burst_arrivals_per_tick=50,
                               burst_start_tick=10, burst_end_tick=20)
        assert config.arrivals_for(9) == 5
        assert config.arrivals_for(10) == 50
        assert config.arrivals_for(19) == 50
        assert config.arrivals_for(20) == 5


# -- end-to-end service --------------------------------------------------------

class TestServiceEndToEnd:
    def run_service(self, **overrides):
        config = dict(ticks=60, seed=3, backend="serial",
                      enable_proofs=False)
        config.update(overrides)
        service = Service(crash_scenario(seed=config["seed"]),
                          ServiceConfig(**config))
        report = service.run()
        return service, report

    def test_scales_up_and_down_with_bounded_lag(self):
        service, report = self.run_service()
        pods = service.pod_scaler.summary()
        assert pods["scale_ups"] >= 1
        assert pods["scale_downs"] >= 1
        assert report.max_ingest_lag_ticks <= \
            service.config.max_ingest_lag_ticks
        assert report.total_executions > 0
        snapshot = service.snapshot()
        assert snapshot["ingest_lag"]["ok"] is True
        assert len(snapshot["report"]["ticks"]) == 60

    def test_hive_fixes_the_bug_mid_service(self):
        service, report = self.run_service()
        assert report.fixes                      # repair window fired
        assert service.hive.program.version > 1

    def test_entry_conservation_without_chaos(self):
        service, report = self.run_service()
        pump = service.pump
        in_outbox = sum(len(frame.entries) for frame in service._outbox)
        # Every executed run's entry is enqueued, still queued, or
        # waiting in the outbox — never silently lost.
        assert report.total_executions == pump.entries_enqueued + in_outbox
        assert pump.entries_enqueued == (pump.entries_drained
                                         + pump.depth_entries)

    def test_tiny_pump_forces_backpressure_not_loss(self):
        service, report = self.run_service(
            pump_capacity_frames=2, frame_max_entries=4,
            drain_per_worker=6, max_ingest_lag_ticks=10.0)
        assert report.backpressure_ticks > 0
        assert service.pump.frames_rejected > 0
        pump = service.pump
        in_outbox = sum(len(frame.entries) for frame in service._outbox)
        assert report.total_executions == pump.entries_enqueued + in_outbox
        assert pump.entries_enqueued == (pump.entries_drained
                                         + pump.depth_entries)

    def test_chaos_profile_applies_to_service_loop(self):
        service, report = self.run_service(chaos_profile="lossy-workers",
                                           ticks=40)
        assert report.pod_kills > 0
        assert service.snapshot()["fleet"]["restarts"] == report.pod_kills
        # Lossy wire: some frames die, the service keeps serving.
        assert service.pump.frames_discarded > 0
        assert report.total_executions > 0

    def test_warmup_gates_first_ready_tick(self):
        service, report = self.run_service(ticks=10, warmup_ticks=3)
        ready_by_tick = [stats.ready_pods for stats in report.ticks]
        assert ready_by_tick[0] == 0
        assert ready_by_tick[2] == 0
        assert ready_by_tick[3] > 0

    def test_balancer_choice_changes_assignment_not_totals(self):
        _, report_rr = self.run_service(balance="round-robin", ticks=30)
        _, report_ch = self.run_service(balance="consistent-hash",
                                        ticks=30)
        # Same arrival curve, same admission capacity — the policy
        # moves runs between pods, not in or out of the service.
        assert (report_rr.total_admitted == report_ch.total_admitted)

    def test_service_spans_record_scaling(self):
        from repro.obs import reset
        from repro.obs.trace import Tracer, get_tracer, set_tracer

        reset()
        set_tracer(Tracer(enabled=True))
        try:
            self.run_service(ticks=60)
            names = {span.name for span in get_tracer().log.spans}
            assert "serve.scale_up" in names
            assert "serve.scale_down" in names
            assert "serve.tick" in names
        finally:
            set_tracer(Tracer(enabled=False))
            reset()


# -- serve schema v2: lag attribution and the health plane ---------------------

class TestServeSnapshotV2:
    def run_service(self, **overrides):
        config = dict(ticks=60, seed=3, backend="serial",
                      enable_proofs=False)
        config.update(overrides)
        service = Service(crash_scenario(seed=config["seed"]),
                          ServiceConfig(**config))
        service.run()
        return service

    def test_max_lag_tick_points_at_the_worst_tick(self):
        service = self.run_service()
        block = service.snapshot()["ingest_lag"]
        lags = {stats.tick: stats.ingest_lag_ticks
                for stats in service.report.ticks}
        assert block["max_ticks"] == max(lags.values())
        assert lags[block["max_tick"]] == block["max_ticks"]
        # First tick to reach the maximum (strict > while recording).
        assert block["max_tick"] == min(
            tick for tick, lag in lags.items()
            if lag == block["max_ticks"])

    def test_max_tick_stats_snapshot_that_ticks_row(self):
        service = self.run_service()
        block = service.snapshot()["ingest_lag"]
        stats = block["max_tick_stats"]
        assert stats is not None
        assert stats["tick"] == block["max_tick"]
        assert stats["ingest_lag_ticks"] == block["max_ticks"]

    def test_health_block_default_on_with_schema(self):
        service = self.run_service()
        doc = service.snapshot()
        assert doc["serve_schema_version"] == 2
        health = doc["health"]
        assert health["health_schema_version"] == 1
        assert health["ticks_observed"] == 60
        slo_names = [slo["name"] for slo in health["slos"]]
        assert slo_names == sorted(slo_names)
        assert "ingest-lag" in slo_names
        assert "pod-ready" in slo_names

    def test_no_health_leaves_block_none(self):
        service = self.run_service(health=False, ticks=10)
        assert service.health is None
        assert service.snapshot()["health"] is None

    def test_slo_override_reaches_the_plane(self):
        service = self.run_service(
            ticks=10, slo_overrides={"ingest-lag": 99.0})
        lag = next(slo for slo in service.health.slos
                   if slo.name == "ingest-lag")
        assert lag.objective == 99.0

    def test_unknown_slo_override_rejected(self):
        with pytest.raises(ConfigError, match="names no known SLO"):
            self.run_service(ticks=5,
                             slo_overrides={"no-such-slo": 1.0})

    def test_pump_counts_enqueued_frames(self):
        service = self.run_service(ticks=30)
        summary = service.pump.summary()
        assert summary["frames_enqueued"] > 0
        assert summary["frames_enqueued"] == service.pump.frames_enqueued
