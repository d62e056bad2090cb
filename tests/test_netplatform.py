"""Networked (event-driven) platform tests."""

import pytest

import repro.netplatform
from repro.errors import ConfigError
from repro.netplatform import NetworkedConfig, NetworkedPlatform
from repro.obs.trace import FixedClock, Tracer, set_tracer
from repro.progmodel.interpreter import Interpreter, Outcome
from repro.tracing.encode import decode_trace, encode_trace
from repro.workloads.scenarios import crash_scenario, race_scenario


def _run(loss=0.0, duration=300.0, seed=2, scenario=None,
         batch_max_traces=1):
    platform = NetworkedPlatform(
        scenario or crash_scenario(n_users=40, volatility=0.5, seed=seed),
        NetworkedConfig(n_pods=8, duration=duration, loss_rate=loss,
                        seed=seed, batch_max_traces=batch_max_traces))
    return platform, platform.run()


class TestNetworkedLoop:
    def test_loop_closes_on_clean_network(self):
        platform, report = _run()
        assert report.fixes
        assert report.fix_deployed_at is not None
        assert report.all_pods_current_at is not None
        assert report.all_pods_current_at >= report.fix_deployed_at
        # Fixed program is actually immune.
        bug = platform.scenario.bugs[0]
        result = Interpreter(platform.hive.program).run(
            bug.triggering_inputs(platform.hive.program.inputs))
        assert result.outcome is Outcome.OK

    def test_traces_travel_as_bytes(self):
        _platform, report = _run(duration=100.0)
        assert report.wire_bytes > 0
        assert report.traces_delivered > 0

    def test_reliable_delivery_under_loss(self):
        _platform, report = _run(loss=0.4)
        # Retransmission recovers nearly everything.
        assert report.traces_delivered >= report.executions * 0.9
        assert report.fixes

    def test_loss_delays_protection(self):
        _p1, clean = _run(loss=0.0)
        _p2, lossy = _run(loss=0.5)
        assert clean.all_pods_current_at is not None
        assert lossy.all_pods_current_at is not None
        assert clean.all_pods_current_at <= lossy.all_pods_current_at

    def test_no_failures_after_protection(self):
        _platform, report = _run(duration=400.0)
        assert report.all_pods_current_at is not None
        late_failures = [t for t in report.failure_times
                         if t > report.all_pods_current_at]
        assert late_failures == []

    def test_multithreaded_scenario(self):
        platform, report = _run(
            scenario=race_scenario(n_users=20, seed=4), seed=4,
            duration=400.0)
        assert report.failures > 0
        assert report.fixes
        assert "racy variable" in report.fixes[0]

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            NetworkedConfig(n_pods=0).validate()
        with pytest.raises(ConfigError):
            NetworkedConfig(mean_think_time=0).validate()
        with pytest.raises(ConfigError):
            NetworkedConfig(loss_rate=1.0).validate()
        with pytest.raises(ConfigError):
            NetworkedConfig(batch_max_traces=0).validate()
        with pytest.raises(ConfigError, match="max_steps must be positive"):
            NetworkedConfig(max_steps=0).validate()
        with pytest.raises(ConfigError):
            NetworkedConfig(duration=-1).validate()

    def test_larger_frames_deliver_everything_for_less(self):
        _p1, single = _run(duration=150.0)
        _p2, batched = _run(duration=150.0, batch_max_traces=4)
        # Same executions either way (frame size is transport-only) ...
        assert batched.executions == single.executions
        assert batched.traces_delivered == single.traces_delivered
        # ... the loop still closes (larger frames trade ingest
        # latency, not correctness) ...
        assert len(batched.fixes) == len(single.fixes)
        # ... but 4-entry frames amortize per-message overhead.
        assert batched.wire_bytes < single.wire_bytes

    def test_deterministic(self):
        _p1, a = _run(duration=150.0)
        _p2, b = _run(duration=150.0)
        assert a.executions == b.executions
        assert a.failures == b.failures
        assert a.fix_deployed_at == b.fix_deployed_at
        assert a.wire_bytes == b.wire_bytes


# -- the uplink frame ------------------------------------------------------------

def _e16_platform(loss, batch_max_traces):
    """E16's configuration at one loss level and frame size."""
    return NetworkedPlatform(
        crash_scenario(n_users=40, volatility=0.5, seed=2),
        NetworkedConfig(n_pods=10, duration=400.0, mean_think_time=5.0,
                        analysis_interval=20.0, loss_rate=loss, seed=2,
                        batch_max_traces=batch_max_traces))


def _e16(loss, batch_max_traces):
    platform = _e16_platform(loss, batch_max_traces)
    return platform, platform.run()


_FIX = "graceful bail-out at main:boom ({} failure reports)"

# What E16's loop does at loss 0.0 and 0.6 with one run per frame and
# with four. Framing is transport-only, so none of these may move when
# the uplink's encoding changes; ``wire_bytes`` is pinned at four runs
# per frame.
E16_PINS = {
    (0.0, 1): dict(failure_times=[19.17327308129051], delivered=796,
                   deployed=20.0, current=20.05, stale=0),
    (0.6, 1): dict(failure_times=[19.17327308129051, 21.207416960411805,
                                  29.09477560268352],
                   delivered=767, deployed=40.0, current=41.05, stale=1),
    (0.0, 4): dict(failure_times=[19.17327308129051], delivered=796,
                   deployed=20.0, current=20.05, stale=15,
                   wire_bytes=47167),
    (0.6, 4): dict(failure_times=[19.17327308129051, 21.207416960411805,
                                  29.09477560268352],
                   delivered=752, deployed=40.0, current=41.05, stale=15,
                   wire_bytes=47235),
}


class TestUplinkFrame:
    @pytest.mark.parametrize("loss,batch_max_traces", sorted(E16_PINS))
    def test_e16_loop_is_pinned(self, loss, batch_max_traces):
        pin = E16_PINS[loss, batch_max_traces]
        platform, report = _e16(loss, batch_max_traces)
        failures = len(pin["failure_times"])
        assert report.executions == 796
        assert report.failures == failures
        assert report.failure_times == pin["failure_times"]
        assert report.traces_delivered == pin["delivered"]
        assert report.fixes == [_FIX.format(failures)]
        assert report.fix_deployed_at == pin["deployed"]
        assert report.all_pods_current_at == pin["current"]
        assert platform.hive.stats.as_dict() == {
            "traces_ingested": pin["delivered"],
            "stale_traces": pin["stale"], "replay_failures": 0,
            "fixes_deployed": 1, "fixes_escalated": 0, "gaps_steered": 0,
            "heartbeats_ingested": 0, "unknown_heartbeats": 0,
        }
        assert len(list(platform.hive.tree.iter_terminal_paths())) == 3
        if "wire_bytes" in pin:
            assert report.wire_bytes == pin["wire_bytes"]

    def test_frames_carry_the_pod_program_version(self):
        # A frame is stamped with its pod's program at flush, so once
        # the fix reaches the pods, the frames say so.
        platform = _e16_platform(0.0, 1)
        frames = []
        ingest_batch = platform.hive.ingest_batch

        def record(batches, memo=None):
            frames.extend(batches)
            return ingest_batch(batches, memo)
        platform.hive.ingest_batch = record
        platform.run()
        versions = [(batch.program_version,
                     decode_trace(entry.payload).program_version)
                    for batch in frames for entry in batch.entries]
        assert len(versions) == 796
        assert any(header == 2 for header, _trace in versions)
        assert all(header == trace for header, trace in versions)

    def test_one_run_frames_pay_header_and_crc(self):
        # 796 one-entry frames, each paying the frame header and the
        # CRC footer on top of its trace.
        _platform, report = _e16(0.0, 1)
        assert report.wire_bytes == 83340

    @pytest.mark.parametrize("make_scenario", [crash_scenario,
                                               race_scenario])
    def test_corruption_never_becomes_evidence(self, make_scenario,
                                               monkeypatch):
        platform = NetworkedPlatform(
            make_scenario(seed=4),
            NetworkedConfig(n_pods=8, duration=400.0, seed=4,
                            chaos_profile="lossy-workers"))
        encoded = set()
        ingested = []

        def encode(trace):
            payload = encode_trace(trace)
            encoded.add(payload)
            return payload
        monkeypatch.setattr(repro.netplatform, "encode_trace", encode)
        ingest = platform.hive._ingest

        def record(trace, memo):
            ingested.append(encode_trace(trace))
            return ingest(trace, memo)
        monkeypatch.setattr(platform.hive, "_ingest", record)
        platform.run()

        # Every corrupted message the fault schedule put on the uplink
        # (a duplicate of one is a second delivery) reached the hive:
        # the network loses nothing here ...
        plan = platform.chaos_plan
        corrupted = 0
        for pod in platform.pods:
            assert pod.transport.gave_up == 0
            for message in range(pod._message_index):
                if (not plan.uplink_dropped(pod.index, message)
                        and plan.uplink_corrupted(pod.index, message)):
                    corrupted += 1 + plan.uplink_duplicated(pod.index,
                                                            message)
        assert corrupted > 0
        assert platform.chaos_events["frames_rejected"] == corrupted
        # ... and none became evidence: the hive ingested only traces
        # a pod encoded, and every one of them replays.
        assert ingested
        assert all(payload in encoded for payload in ingested)
        assert platform.hive.stats.replay_failures == 0

    # Frames that reached the hive's decoder intact under each profile
    # at seed 4 (8 pods, 400 s), and how many of them were a pod's
    # chaos-duplicated second send of a frame already folded.
    DUPLICATES = {"partitioned": (317, 36), "lossy-workers": (500, 22),
                  "wild": (387, 42)}

    @pytest.mark.parametrize("profile", sorted(DUPLICATES))
    @pytest.mark.parametrize("make_scenario", [crash_scenario,
                                               race_scenario])
    def test_a_duplicated_frame_folds_once(self, make_scenario, profile,
                                           monkeypatch):
        # A pod sends a chaos-duplicated frame as a second transport
        # message, which the transport's (src, sequence) dedup never
        # sees: the hive drops the repeat by (pod, frame sequence).
        platform = NetworkedPlatform(
            make_scenario(seed=4),
            NetworkedConfig(n_pods=8, duration=400.0, seed=4,
                            chaos_profile=profile))
        folded = []
        ingest_batch = platform.hive.ingest_batch

        def record(batches, memo=None):
            folded.extend((batch.shard_id, batch.sequence)
                          for batch in batches)
            return ingest_batch(batches, memo)
        monkeypatch.setattr(platform.hive, "ingest_batch", record)
        platform.run()
        ingested, deduplicated = self.DUPLICATES[profile]
        assert len(folded) == len(set(folded)) == ingested
        assert platform.hive.stats.traces_ingested == ingested
        assert platform.report.traces_delivered == ingested
        assert platform.chaos_events["frames_deduplicated"] == deduplicated
        assert (platform.chaos_events["uplink_duplicated"]
                >= deduplicated > 0)

    def test_delivery_spans_nest_the_hive_ingest(self):
        tracer = Tracer(enabled=True, clock=FixedClock(1.0),
                        trace_id="net-test")
        previous = set_tracer(tracer)
        try:
            _run(duration=60.0, batch_max_traces=2)
        finally:
            set_tracer(previous)
        spans = tracer.log.spans
        by_id = {span.span_id: span for span in spans}
        assert len(by_id) == len(spans)

        def parents(name):
            return {by_id[span.parent_id].name
                    for span in spans if span.name == name}

        # A frame's delivery parents under its pod's uplink span (a
        # program update's under the hive's analysis tick) ...
        assert parents("net.deliver") == {"net.uplink",
                                          "hive.analysis_tick"}
        ingests = [span for span in spans
                   if span.name == "hive.ingest_batch"]
        assert ingests
        for span in ingests:
            deliver = by_id[span.parent_id]
            assert deliver.name == "net.deliver"
            assert by_id[deliver.parent_id].name == "net.uplink"
        # ... and holds the frame's decode and the hive's ingest, which
        # decodes and folds each entry.
        assert parents("hive.ingest_trace") == {"hive.ingest_batch"}
        assert parents("wire.decode") == {"net.deliver",
                                          "hive.ingest_batch"}
