"""The networked platform: Figure 1 over an actual (simulated) network.

Where :class:`~repro.platform.SoftBorgPlatform` runs the loop in
synchronous rounds (fast, deterministic, ideal for experiments), this
variant runs it *event-driven* on the discrete-event network: pods
execute on their own Poisson-ish clocks, ship encoded traces through
the retransmitting transport across lossy links, the hive ingests on
arrival and periodically analyzes/fixes, and fix announcements travel
back over the same unreliable links. Time-to-mitigation becomes a
*virtual-seconds* quantity that depends on network quality — the E16
experiment.

Wire discipline matters here: traces cross the network as *bytes*,
program updates as version-stamped fix payloads the pod applies
locally. The uplink has one message: a CRC-checked
:class:`~repro.exec.batch.TraceBatch` frame of up to
``batch_max_traces`` encoded runs (one per run by default). A frame
mangled in transit fails its CRC and is rejected whole, never
ingested; a good frame folds through :meth:`Hive.ingest_batch
<repro.hive.hive.Hive.ingest_batch>`, the entry point the round loop,
the chaos wire and serve's pump use, once: the hive drops a repeat of
a pod's frame sequence (a chaos-duplicated send).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.config import (
    BaseConfig, BaseReport, check_at_least_one, check_positive,
    check_unit_interval,
)
from repro.errors import TraceError
from repro.exec.batch import (
    BatchEntry, TraceBatch, decode_batch, encode_batch,
)
from repro.hive.hive import Hive
from repro.loop import check_solver_cache, solver_cache_doc
from repro.metrics.series import Series
from repro.net.network import Link, Network
from repro.net.simclock import SimClock
from repro.net.transport import ReliableTransport
from repro.obs import Instrumented
from repro.obs.trace import derive_trace_id, get_tracer
from repro.pod.pod import Pod
from repro.progmodel.interpreter import ExecutionLimits
from repro.rng import make_rng
from repro.progmodel.serialize import decode_program, encode_program
from repro.tracing.capture import FullCapture
from repro.tracing.encode import encode_trace
from repro.workloads.scenarios import Scenario

__all__ = ["NetworkedConfig", "NetworkedReport", "NetworkedPlatform"]

HIVE_ENDPOINT = "hive"

# Every logical send pays fixed framing on top of its payload (headers,
# checksums, ack bookkeeping). Batching exists to amortize this cost.
MESSAGE_OVERHEAD_BYTES = 40


@dataclass
class NetworkedConfig(BaseConfig):
    """Knobs of the event-driven deployment."""

    n_pods: int = 10
    duration: float = 400.0            # virtual seconds
    mean_think_time: float = 5.0       # seconds between a pod's runs
    analysis_interval: float = 20.0    # hive analyze/fix cadence
    latency: float = 0.05
    loss_rate: float = 0.0
    max_steps: int = 4000
    seed: int = 0
    batch_max_traces: int = 1          # runs per uplink frame
    chaos_profile: object = "none"     # profile name or FaultProfile
    solver_cache: str = "none"         # none | local | collective

    def validate(self) -> None:
        check_at_least_one(self.n_pods, "need at least one pod")
        check_positive(self.duration, "duration",
                       message="times must be positive")
        check_positive(self.mean_think_time, "mean_think_time",
                       message="times must be positive")
        check_positive(self.analysis_interval, "analysis_interval",
                       message="times must be positive")
        check_unit_interval(self.loss_rate, "loss_rate")
        check_positive(self.max_steps, "max_steps")
        check_at_least_one(self.batch_max_traces,
                           "batch_max_traces must be >= 1")
        check_solver_cache(self.solver_cache)
        self.resolved_chaos_profile()      # raises on unknown/bad

    def resolved_chaos_profile(self):
        """The validated :class:`~repro.chaos.FaultProfile` in force."""
        from repro.chaos import resolve_profile
        return resolve_profile(self.chaos_profile)


@dataclass
class NetworkedReport(BaseReport):
    executions: int = 0
    failures: int = 0
    traces_delivered: int = 0
    wire_bytes: int = 0
    fixes: List[str] = field(default_factory=list)
    fix_deployed_at: Optional[float] = None
    last_failure_at: Optional[float] = None
    all_pods_current_at: Optional[float] = None
    failure_times: List[float] = field(default_factory=list)
    density: Series = field(default_factory=lambda: Series("fails/1k"))

    @property
    def mitigation_latency(self) -> Optional[float]:
        """Virtual seconds from first failure to last failure."""
        if not self.failure_times or self.fix_deployed_at is None:
            return None
        return self.failure_times[-1] - self.failure_times[0]

    def as_dict(self) -> Dict[str, object]:
        return {
            "executions": self.executions,
            "failures": self.failures,
            "traces_delivered": self.traces_delivered,
            "wire_bytes": self.wire_bytes,
            "fixes": list(self.fixes),
            "fix_deployed_at": self.fix_deployed_at,
            "last_failure_at": self.last_failure_at,
            "all_pods_current_at": self.all_pods_current_at,
            "mitigation_latency": self.mitigation_latency,
        }


class _NetPod:
    """A pod wired to the network: runs, ships, applies updates.

    With chaos enabled, this is where three fault kinds land: the pod
    can crash mid-trace (the execution happened, its trace is lost,
    and the pod stays down for ``crash_downtime`` virtual seconds),
    its uplink can drop/duplicate/corrupt whole messages *before* the
    transport sees them (beyond what :class:`~repro.net.network.Link`
    models), and its clock can run fast or slow by a constant per-pod
    skew factor applied to think time.
    """

    def __init__(self, platform: "NetworkedPlatform", index: int):
        self.platform = platform
        self.index = index
        self.pod = Pod(
            pod_id=f"netpod{index:03d}",
            program=platform.scenario.program,
            capture=FullCapture(),
            limits=ExecutionLimits(max_steps=platform.config.max_steps),
            fault_rate=platform.scenario.fault_rate,
            seed=platform.config.seed + index,
        )
        self._rng = make_rng(platform.config.seed, "netpod", index)
        self._tracer = platform._tracer
        self.transport = ReliableTransport(
            platform.network, self.pod.pod_id,
            receiver=self._on_message)
        # Shipped runs waiting for the next uplink frame; a frame goes
        # out when it holds batch_max_traces of them.
        self._frame: List[BatchEntry] = []
        self._exec_index = 0       # chaos coordinate: pod-crash draws
        # Frames sent so far: a frame's sequence number, and the chaos
        # coordinate of its uplink draws.
        self._message_index = 0
        # Clock skew is a constant per-pod factor, fixed at build time.
        plan = platform.chaos_plan
        self._skew = plan.clock_skew(index) if plan is not None else 1.0
        self._schedule_next_run()

    def _schedule_next_run(self) -> None:
        clock = self.platform.clock
        if clock.now >= self.platform.config.duration:
            return
        delay = self._rng.expovariate(
            1.0 / self.platform.config.mean_think_time)
        clock.schedule(delay * self._skew, self._run_once)

    def _run_once(self) -> None:
        platform = self.platform
        if platform.clock.now >= platform.config.duration:
            return
        with self._tracer.span("pod.run",
                               key=(self.index, self._exec_index),
                               pod=self.index) as span:
            _user, inputs = platform.scenario.population.sample_execution()
            run = self.pod.execute(inputs)
            span.set(outcome=run.result.outcome.value)
            platform.report.executions += 1
            if run.result.outcome.is_failure:
                platform.report.failures += 1
                platform.report.failure_times.append(platform.clock.now)
                platform.report.last_failure_at = platform.clock.now
            exec_index = self._exec_index
            self._exec_index += 1
            plan = platform.chaos_plan
            if plan is not None and plan.pod_crashes(self.index,
                                                    exec_index):
                # Crash mid-trace: the user saw the execution, the
                # platform never gets its trace, and the pod stays down
                # before resuming its schedule.
                platform.count_chaos("pod_crashes")
                span.event("chaos.pod_crash", pod=self.index)
                platform.clock.schedule(plan.profile.crash_downtime,
                                        self._schedule_next_run)
                return
            with self._tracer.span("wire.encode",
                                   key=(self.index, exec_index)):
                payload = encode_trace(run.trace)
            self._frame.append(BatchEntry(global_index=exec_index,
                                          payload=payload))
            if len(self._frame) >= platform.config.batch_max_traces:
                self.flush()
        self._schedule_next_run()

    def flush(self) -> None:
        """Ship the buffered runs as one frame; the platform also calls
        it at the end of the simulation for a partly filled frame."""
        if not self._frame:
            return
        message_index = self._message_index
        self._message_index += 1
        program = self.pod.program
        frame = encode_batch(TraceBatch(
            shard_id=self.index, program_name=program.name,
            program_version=program.version, sequence=message_index,
            entries=self._frame))
        self._frame = []
        self._uplink(message_index, frame)

    def _uplink(self, message_index: int, frame: bytes) -> None:
        """Ship one frame to the hive through the chaos uplink.

        The uplink span is the *send-side* anchor: the transport
        captures its context into the message, so the hive's delivery
        span (and everything ingested under it) parents here.
        """
        platform = self.platform
        with self._tracer.span("net.uplink",
                               key=(self.index, message_index),
                               bytes=len(frame)) as span:
            size = MESSAGE_OVERHEAD_BYTES + len(frame)
            platform.report.wire_bytes += size
            plan = platform.chaos_plan
            if plan is not None:
                if plan.uplink_dropped(self.index, message_index):
                    # Black-holed before the transport ever saw it — no
                    # retransmission machinery can save this one.
                    platform.count_chaos("uplink_dropped")
                    span.event("chaos.uplink_dropped", pod=self.index)
                    return
                if plan.uplink_corrupted(self.index, message_index):
                    platform.count_chaos("uplink_corrupted")
                    span.event("chaos.uplink_corrupted", pod=self.index)
                    frame = plan.corrupt_bytes(frame, self.index,
                                               message_index)
                if plan.uplink_duplicated(self.index, message_index):
                    platform.count_chaos("uplink_duplicated")
                    span.event("chaos.uplink_duplicated", pod=self.index)
                    platform.report.wire_bytes += size
                    self.transport.send(HIVE_ENDPOINT, frame)
            self.transport.send(HIVE_ENDPOINT, frame)

    def _on_message(self, src: str, message: object) -> None:
        kind, body = message
        if kind == "update":
            version, payload = body
            if version > self.pod.version:
                # Updates cross the wire as encoded program bytes.
                self.pod.apply_update(decode_program(payload))
                self.platform.on_pod_updated()


class NetworkedPlatform(Instrumented):
    """Event-driven pods + hive on one simulated network."""

    obs_namespace = "netplatform"

    def __init__(self, scenario: Scenario,
                 config: Optional[NetworkedConfig] = None):
        self.config = config or NetworkedConfig()
        self.config.validate()
        self.scenario = scenario
        # Resolved once; the trace id is a pure function of the
        # (program, seed) pair, like the synchronous platform's.
        self._tracer = get_tracer()
        if self._tracer.enabled:
            self._tracer.set_trace_id(derive_trace_id(
                "net", scenario.program.name, self.config.seed))
        self._decode_seq = 0
        self._tick_seq = 0
        self._obs_traces_delivered = self.obs_counter("traces_delivered")
        self._obs_analysis_ticks = self.obs_counter("analysis_ticks")
        self._obs_rejected = self.obs_counter("frames_rejected")
        # Chaos: a stateless seeded fault oracle shared by every pod
        # (None when the profile is a no-op — the default).
        profile = self.config.resolved_chaos_profile()
        self.chaos_plan = None
        self.chaos_events: Dict[str, int] = {}
        if not profile.is_noop():
            from repro.chaos import FaultPlan
            self.chaos_plan = FaultPlan(profile, seed=self.config.seed)
            self.chaos_events = {
                "pod_crashes": 0, "uplink_dropped": 0,
                "uplink_duplicated": 0, "uplink_corrupted": 0,
                "frames_rejected": 0, "frames_deduplicated": 0,
            }
        # Every (pod index, frame sequence) the hive folded: a pod sends
        # a chaos-duplicated frame as a second transport message, which
        # the transport's own (src, sequence) dedup never sees.
        self._frames_folded: Set[Tuple[int, int]] = set()
        self.clock = SimClock()
        self.network = Network(
            self.clock,
            default_link=Link(latency=self.config.latency,
                              loss_rate=self.config.loss_rate),
            rng=make_rng(self.config.seed, "netplatform"))
        self.report = NetworkedReport()
        # Event-driven pods never solve locally, so the hive's cache is
        # the only one: "collective" and "local" coincide here (both
        # mean one hive-side ConstraintCache shared across analysis
        # ticks and fix validations).
        self.solver_cache = None
        if self.config.solver_cache != "none":
            from repro.symbolic.cache import ConstraintCache
            self.solver_cache = ConstraintCache()
        self.hive = Hive(
            scenario.program,
            limits=ExecutionLimits(max_steps=self.config.max_steps),
            enable_proofs=False,
            solver_cache=self.solver_cache,
        )
        self._hive_transport = ReliableTransport(
            self.network, HIVE_ENDPOINT, receiver=self._hive_receive)
        self.pods = [_NetPod(self, index)
                     for index in range(self.config.n_pods)]
        self.clock.schedule(self.config.analysis_interval,
                            self._analysis_tick)

    # -- driving --------------------------------------------------------------

    def run(self) -> NetworkedReport:
        self.clock.run_until(self.config.duration)
        # Ship partly filled frames before the drain, then drain
        # in-flight retransmissions/acks for a clean shutdown.
        for pod in self.pods:
            pod.flush()
        self.clock.run_to_completion(max_events=2_000_000)
        if self.report.executions:
            self.report.density.record(
                self.clock.now,
                1000.0 * self.report.failures / self.report.executions)
        return self.report

    # -- hive side -------------------------------------------------------------

    def _hive_receive(self, src: str, frame: bytes) -> None:
        # The transport already opened the delivery span (parented to
        # the sender's uplink span via the wire context); the frame's
        # decode span and the hive's ingest spans nest under it.
        decode_seq = self._decode_seq
        self._decode_seq += 1
        try:
            # Zero-copy: only per-entry payloads materialize out of the
            # received frame buffer.
            with self._tracer.span("wire.decode", key=decode_seq,
                                   bytes=len(frame)):
                batch = decode_batch(memoryview(frame))
        except TraceError:
            # Mangled on the (chaos) wire: the CRC32 footer fails, and
            # the frame is rejected whole, counted, never ingested.
            self.count_chaos("frames_rejected")
            self._obs_rejected.inc()
            self._tracer.event("net.frame_rejected", src=src)
            return
        key = (batch.shard_id, batch.sequence)
        if key in self._frames_folded:
            # A repeat of a frame the hive already folded (its sender
            # pod's index and the frame's sequence, which survive pod
            # crashes): dropped, never folded twice.
            self.count_chaos("frames_deduplicated")
            self._tracer.event("net.frame_deduplicated", src=src)
            return
        self._frames_folded.add(key)
        delivered = self.hive.ingest_batch([batch])
        self.report.traces_delivered += delivered
        self._obs_traces_delivered.inc(delivered)

    def count_chaos(self, event: str) -> None:
        """Account one injected-fault occurrence (no-op sans chaos)."""
        if self.chaos_events:
            self.chaos_events[event] = self.chaos_events.get(event, 0) + 1

    def snapshot(self) -> Dict[str, object]:
        """Unified platform state: config, report, hive stats, metrics."""
        obs_snapshot = self.obs.snapshot()
        observability: Dict[str, object] = {"obs": obs_snapshot}
        if self._tracer.enabled:
            observability["tracing"] = self._tracer.summary()
        doc = {
            "config": self.config.as_dict(),
            "report": self.report.as_dict(),
            "hive": self.hive.stats.as_dict(),
            # v2 readers keep the top-level "obs" key; the
            # "observability" block is the v3 superset.
            "obs": obs_snapshot,
            "observability": observability,
        }
        if self.chaos_plan is not None:
            doc["chaos"] = {
                "profile": self.chaos_plan.profile.name,
                **self.chaos_events,
            }
        if self.solver_cache is not None:
            doc["solver_cache"] = solver_cache_doc(
                self.config.solver_cache, self.solver_cache, self.hive)
        return doc

    def _analysis_tick(self) -> None:
        self._obs_analysis_ticks.inc()
        tick = self._tick_seq
        self._tick_seq += 1
        with self._tracer.span("hive.analysis_tick", key=tick, tick=tick):
            self._analysis_tick_inner()

    def _analysis_tick_inner(self) -> None:
        updated = self.hive.maybe_fix()
        if updated is not None:
            fix = self.hive.deployed_fixes[-1]
            self.report.fixes.append(fix.description)
            if self.report.fix_deployed_at is None:
                self.report.fix_deployed_at = self.clock.now
        # (Re-)announce the current version every tick: a pod that lost
        # every retransmission of an earlier announcement would
        # otherwise stay vulnerable forever. Pods ignore stale or
        # duplicate versions, so re-announcement is idempotent.
        current = self.hive.program
        if current.version > self.scenario.program.version:
            payload = encode_program(current)
            for pod in self.pods:
                if pod.pod.version < current.version:
                    self.report.wire_bytes += (
                        MESSAGE_OVERHEAD_BYTES + len(payload))
                    self._hive_transport.send(
                        pod.pod.pod_id,
                        ("update", (current.version, payload)))
        if self.clock.now < self.config.duration:
            self.clock.schedule(self.config.analysis_interval,
                                self._analysis_tick)

    def on_pod_updated(self) -> None:
        target = self.hive.program.version
        if all(p.pod.version == target for p in self.pods):
            if self.report.all_pods_current_at is None:
                self.report.all_pods_current_at = self.clock.now
