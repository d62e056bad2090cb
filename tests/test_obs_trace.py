"""repro.obs.trace: spans, context propagation, flight recorder,
exporters, and the v3 snapshot schema."""

import json
import pickle

import pytest

from repro import obs
from repro.obs import Registry
from repro.obs.export import (
    TRACE_FORMATS, canonical_spans, chrome_trace, export_trace,
    prometheus_text, spans_jsonl,
)
from repro.obs.trace import (
    NULL_RECORDER, NULL_SPAN, FixedClock, FlightRecorder, SpanContext,
    Tracer, derive_trace_id, disable_tracing, enable_tracing,
    get_tracer, set_tracer,
)


@pytest.fixture()
def tracer():
    """Install an enabled tracer with a pinned clock; restore after."""
    installed = Tracer(enabled=True, clock=FixedClock(1.0),
                       trace_id="test-trace")
    previous = set_tracer(installed)
    yield installed
    set_tracer(previous)


class TestTracerBasics:
    def test_span_records_tree(self, tracer):
        with tracer.span("round", key=0, round=0) as root:
            with tracer.span("round.plan", key=0):
                pass
        spans = tracer.log.spans
        assert [s.name for s in spans] == ["round.plan", "round"]
        plan, round_span = spans
        assert plan.parent_id == round_span.span_id
        assert round_span.parent_id is None
        assert round_span.attrs == {"round": 0}
        assert root.record is round_span

    def test_span_ids_are_content_derived(self):
        a = Tracer(enabled=True, clock=FixedClock(), trace_id="t")
        b = Tracer(enabled=True, clock=FixedClock(), trace_id="t")
        with a.span("round", key=3):
            pass
        with b.span("round", key=3):
            pass
        assert a.log.spans[0].span_id == b.log.spans[0].span_id
        with a.span("round", key=4):
            pass
        assert a.log.spans[1].span_id != a.log.spans[0].span_id

    def test_occurrence_counter_when_key_omitted(self, tracer):
        with tracer.span("hive.merge"):
            pass
        with tracer.span("hive.merge"):
            pass
        first, second = tracer.log.spans
        assert first.span_id != second.span_id
        assert (first.key, second.key) == ("0", "1")

    def test_set_and_event_land_on_the_record(self, tracer):
        with tracer.span("round", key=0) as span:
            span.set(runs=40)
            span.event("chaos.worker_death", shard=2)
        record = tracer.log.spans[0]
        assert record.attrs["runs"] == 40
        assert record.events == [{"ts": 1.0, "name": "chaos.worker_death",
                                  "attrs": {"shard": 2}}]

    def test_tracer_event_targets_active_span(self, tracer):
        with tracer.span("round", key=0):
            tracer.event("invariant.violation", invariant="conservation")
        record = tracer.log.spans[0]
        assert record.events[0]["name"] == "invariant.violation"
        assert record.events[0]["attrs"] == {"invariant": "conservation"}

    def test_current_context_tracks_the_stack(self, tracer):
        assert tracer.current_context() is None
        with tracer.span("round", key=0) as span:
            assert tracer.current_context() == span.context
        assert tracer.current_context() is None

    def test_trace_log_bounds_and_counts_drops(self):
        small = Tracer(enabled=True, clock=FixedClock(), max_spans=2)
        for index in range(4):
            with small.span("s", key=index):
                pass
        assert len(small.log) == 2
        assert small.log.dropped == 2

    def test_derive_trace_id_deterministic(self):
        assert derive_trace_id("crash_demo", 2) == \
            derive_trace_id("crash_demo", 2)
        assert derive_trace_id("crash_demo", 2) != \
            derive_trace_id("crash_demo", 3)


class TestDisabledFastPath:
    def test_disabled_tracer_hands_out_shared_nulls(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("x") is NULL_SPAN
        assert tracer.span_at(None, "x") is NULL_SPAN
        assert tracer.recorder(None) is NULL_RECORDER
        assert tracer.current_context() is None
        assert tracer.flight is None
        assert tracer.flight_dump("r") is None

    def test_null_handles_record_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("round", key=0) as span:
            span.set(a=1)
            span.event("e")
            tracer.event("e2")
        assert len(tracer.log) == 0
        assert NULL_RECORDER.take() == ()
        assert NULL_RECORDER.span("x") is NULL_SPAN

    def test_shard_result_spans_empty_when_disabled(self):
        # Lazy span shipping: with tracing off the shard allocates no
        # recorder state and ships an empty span tuple over the pipe.
        from repro.exec.plan import PlannedRun
        from repro.exec.shard import Shard
        from repro.pod.pod import Pod
        from repro.workloads.scenarios import crash_scenario
        demo = crash_scenario(seed=1)
        previous_tracer = set_tracer(Tracer(enabled=False))
        try:
            pods = {0: Pod(pod_id="p0", program=demo.program, seed=1)}
            shard = Shard(0, pods, demo.program)
            plan = [PlannedRun(0, 0, {name: lo for name, (lo, _hi)
                                      in demo.program.inputs.items()})]
            result, = shard.run_windows([plan])
            assert result.spans == ()
        finally:
            set_tracer(previous_tracer)

    def test_enable_disable_helpers_swap_default(self):
        before = get_tracer()
        try:
            enabled = enable_tracing(clock=FixedClock(), trace_id="t1")
            assert get_tracer() is enabled
            assert enabled.enabled
            disabled = disable_tracing()
            assert get_tracer() is disabled
            assert not disabled.enabled
        finally:
            set_tracer(before)


class TestContextPropagation:
    def test_span_at_parents_under_remote_context(self, tracer):
        remote = SpanContext("test-trace", "f" * 16)
        with tracer.span_at(remote, "hive.ingest_frame", key=0):
            with tracer.span("wire.decode", key=0):
                pass
        decode, ingest = tracer.log.spans
        assert ingest.parent_id == remote.span_id
        assert decode.parent_id == ingest.span_id

    def test_span_at_accepts_tuple_and_none(self, tracer):
        with tracer.span_at(("test-trace", "a" * 16), "n", key=0):
            pass
        assert tracer.log.spans[0].parent_id == "a" * 16
        with tracer.span_at(None, "n2", key=0):  # untraced sender
            pass
        assert tracer.log.spans[1].parent_id is None

    def test_shard_recorder_roots_at_parent_and_ships_spans(self, tracer):
        with tracer.span("round.execute", key=0) as execute:
            recorder = tracer.recorder(execute.context)
            with recorder.span("pod.run", key=7):
                with recorder.span("wire.encode", key=7):
                    pass
            shipped = recorder.take()
        tracer.adopt(shipped)
        by_name = {s.name: s for s in tracer.log.spans}
        assert by_name["pod.run"].parent_id == \
            by_name["round.execute"].span_id
        assert by_name["wire.encode"].parent_id == \
            by_name["pod.run"].span_id

    def test_span_records_pickle(self, tracer):
        with tracer.span("pod.run", key=1) as span:
            span.event("e", a=1)
        record = tracer.log.spans[0]
        clone = pickle.loads(pickle.dumps(record))
        assert clone.as_dict() == record.as_dict()

    def test_fixed_clock_pickles(self):
        clock = FixedClock(2.5)
        clone = pickle.loads(pickle.dumps(clock))
        assert clone() == 2.5
        enabled, spec_clock = Tracer(enabled=True, clock=clock).spec()
        assert enabled
        assert pickle.loads(pickle.dumps(spec_clock))() == 2.5


class TestFlightRecorder:
    def test_ring_keeps_last_n_oldest_first(self):
        flight = FlightRecorder(capacity=3)
        for index in range(5):
            flight.record({"seq": index})
        assert [e["seq"] for e in flight.events()] == [2, 3, 4]
        assert flight.total == 5
        assert flight.dropped == 2

    def test_dump_shape(self):
        flight = FlightRecorder(capacity=2)
        flight.record({"seq": 0})
        doc = flight.dump(reason="chaos round 3 failed")
        assert doc["reason"] == "chaos round 3 failed"
        assert doc["capacity"] == 2
        assert doc["events"] == [{"seq": 0}]
        json.dumps(doc)  # JSON-ready

    def test_tracer_wires_spans_and_events_into_flight(self, tracer):
        with tracer.span("round", key=0):
            tracer.event("chaos.worker_death")
        kinds = [e["kind"] for e in tracer.flight.events()]
        assert kinds == ["span_start", "event", "span_end"]

    def test_platform_dumps_flight_on_invariant_violation(self):
        from repro.platform import PlatformConfig, SoftBorgPlatform
        from repro.workloads.scenarios import crash_scenario

        previous_registry = obs.set_registry(Registry())
        previous_tracer = set_tracer(Tracer(enabled=True))
        try:
            platform = SoftBorgPlatform(
                crash_scenario(seed=2),
                PlatformConfig(rounds=2, executions_per_round=10, seed=2,
                               check_invariants=True))
            # Force a violation: more replay failures than ingests.
            platform.hive.stats.replay_failures += 10_000
            platform.run()
            assert platform.invariant_violations
            assert platform.flight_dumps
            dump = platform.flight_dumps[0]
            assert "invariant violation" in dump["reason"]
            assert dump["events"]
            doc = platform.snapshot()
            flight = doc["observability"]["flight_recorder"]
            assert flight["dumps"] == platform.flight_dumps
        finally:
            obs.set_registry(previous_registry)
            set_tracer(previous_tracer)


class TestExporters:
    def _sample_tracer(self):
        tracer = Tracer(enabled=True, clock=FixedClock(0.25),
                        trace_id="tid")
        with tracer.span("round", key=0) as root:
            root.event("marker", n=1)
            with tracer.span("round.execute", key=0):
                pass
        return tracer

    def test_canonical_spans_orders_depth_first(self):
        tracer = self._sample_tracer()
        ordered = canonical_spans(tracer.log)
        assert [s.name for s in ordered] == ["round", "round.execute"]

    def test_canonical_spans_treats_unknown_parents_as_roots(self, tracer):
        recorder = tracer.recorder(SpanContext("t", "b" * 16))
        with recorder.span("pod.run", key=0):
            pass
        ordered = canonical_spans(recorder.take())
        assert [s.name for s in ordered] == ["pod.run"]

    def test_chrome_trace_shape(self):
        tracer = self._sample_tracer()
        doc = chrome_trace(tracer.log)
        assert doc["otherData"] == {"trace_id": "tid", "spans": 2}
        phases = [e["ph"] for e in doc["traceEvents"]]
        assert phases == ["M", "X", "i", "X"]
        root = doc["traceEvents"][1]
        assert root["name"] == "round"
        assert root["ts"] == 250000.0  # 0.25 s in µs
        assert root["args"]["parent_id"] is None
        child = doc["traceEvents"][3]
        assert child["args"]["parent_id"] == root["args"]["span_id"]
        json.dumps(doc)

    def test_spans_jsonl_round_trips(self):
        tracer = self._sample_tracer()
        lines = spans_jsonl(tracer.log).strip().splitlines()
        docs = [json.loads(line) for line in lines]
        assert [d["name"] for d in docs] == ["round", "round.execute"]
        assert spans_jsonl([]) == ""

    def test_prometheus_text_exposition(self):
        registry = Registry()
        registry.counter("hive.traces_ingested").inc(7)
        registry.gauge("pool.size").set(3)
        hist = registry.histogram("round.latency")
        hist.observe(1.0)
        text = prometheus_text(registry)
        assert "# TYPE repro_hive_traces_ingested_total counter" in text
        assert "repro_hive_traces_ingested_total 7" in text
        assert "repro_pool_size 3" in text
        assert 'repro_round_latency{quantile="0.5"} 1' in text
        assert "repro_round_latency_count 1" in text

    def test_export_trace_dispatch(self):
        tracer = self._sample_tracer()
        assert json.loads(export_trace(tracer.log, "chrome"))
        assert export_trace(tracer.log, "jsonl").count("\n") == 2
        assert export_trace(tracer.log, "prom",
                            registry=Registry()) == ""
        with pytest.raises(ValueError):
            export_trace(tracer.log, "svg")
        assert set(TRACE_FORMATS) == {"chrome", "jsonl", "prom"}


class TestSnapshotSchemaV3:
    def _run(self, tracing):
        from repro.platform import PlatformConfig, SoftBorgPlatform
        from repro.workloads.scenarios import crash_scenario

        previous_registry = obs.set_registry(Registry())
        previous_tracer = set_tracer(Tracer(enabled=tracing))
        try:
            platform = SoftBorgPlatform(
                crash_scenario(seed=2),
                PlatformConfig(rounds=3, executions_per_round=10, seed=2))
            platform.run()
            return platform.snapshot()
        finally:
            obs.set_registry(previous_registry)
            set_tracer(previous_tracer)

    def test_v2_keys_survive_and_observability_added(self):
        doc = self._run(tracing=False)
        assert doc["schema_version"] == 3
        # Every v2 reader keeps working: top-level obs is unchanged and
        # mirrored inside the new observability block.
        for key in ("config", "report", "execution", "obs"):
            assert key in doc
        assert doc["observability"]["obs"] == doc["obs"]
        assert "tracing" not in doc["observability"]

    def test_tracing_block_present_when_enabled(self):
        doc = self._run(tracing=True)
        tracing = doc["observability"]["tracing"]
        assert tracing["enabled"] is True
        assert tracing["spans"] > 0
        assert tracing["spans_dropped"] == 0
        assert tracing["trace_id"] == derive_trace_id("crash_demo", 2)
        json.dumps(doc)
