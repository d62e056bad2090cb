"""``repro serve``: the hive as a continuously running service.

Everything else in the repo is round-driven batch: plan a round, run
it, ingest it, repeat. :class:`Service` replaces that with a long-lived
control loop driven by a **virtual clock** — one integer tick at a
time, so the whole service history is a pure function of (config,
seed) on every backend:

1. **arrivals** — the user population emits executions at a
   tick-indexed rate (a base load with a configurable burst window, so
   the autoscaler has something to react to);
2. **reconcile** — the :class:`~repro.serve.control.ControlPlane`
   converges the pod fleet toward the autoscaler's desired count
   (warm-ups, terminations, chaos-kill restarts);
3. **admit + balance** — queued arrivals are admitted up to the ready
   fleet's capacity and assigned to pods by the configured
   :mod:`~repro.serve.balance` policy; admission pauses while the
   ingest pump is pushing back;
4. **execute** — the admitted micro-plan runs on the ordinary
   :mod:`repro.exec` backend through :mod:`repro.loop`'s execute step
   (serial/process — results are bit-identical);
5. **stream** — the tick's entries are framed onto the wire and
   offered to the bounded :class:`~repro.serve.pump.IngestPump`;
   the hive drains as many entries as its ingest workers afford;
6. **scale** — two :class:`~repro.serve.autoscaler.Autoscaler`\\ s
   observe the tick (pod fleet vs. admission backlog, ingest workers
   vs. pump depth) and emit scale events, recorded as
   ``serve.scale_up`` / ``serve.scale_down`` spans;
7. **fix** — every ``fix_interval_ticks`` the hive gets a repair
   window; a deployed fix rolls out to the whole fleet immediately and
   in-flight stale frames are counted, not crashed on;
8. **health** — when the :mod:`~repro.obs.health` plane is on (the
   serve default), the tick's SLI samples and correlation evidence
   (chaos kills, scale events, fleet transitions, tick span) feed the
   deterministic alert engine; incidents land in the snapshot's
   ``health`` block and gate the exit code.

Chaos profiles apply to the service loop: worker-death rates kill
ready pods (back through warm-up), frame drop/corrupt rates fault the
pump's wire. All of it keyed by backend-invariant coordinates
(tick, pod index, frame index), so chaos runs stay deterministic too.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Deque, Dict, List, Optional, Set

from repro.config import BaseReport, check_at_least_one, check_positive
from repro.errors import ConfigError
from repro.exec.backends import SyncDelta
from repro.exec.batch import BatchEntry
from repro.exec.plan import PlannedRun, RoundPlan
from repro.loop import ClosedLoop, LoopConfig
from repro.obs.health import TickEvidence
from repro.serve.autoscaler import Autoscaler, AutoscalerConfig
from repro.serve.balance import make_balancer
from repro.serve.control import ControlPlane
from repro.serve.pump import IngestPump
from repro.serve.slos import default_serve_slos
from repro.tracing.capture import FullCapture
from repro.workloads.scenarios import Scenario

__all__ = ["ServiceConfig", "TickStats", "ServiceReport", "Service",
           "SERVE_SCHEMA_VERSION"]

#: Version of the ``repro serve --json`` snapshot payload.
#: v2: additive ``health`` block (the health plane), ``max_tick`` /
#: ``max_tick_stats`` inside ``ingest_lag``, pump ``frames_enqueued``.
SERVE_SCHEMA_VERSION = 2


@dataclass
class ServiceConfig(LoopConfig):
    """Knobs of one service run (see docs/SERVICE.md)."""

    # -- virtual clock / load ------------------------------------------------
    ticks: int = 90
    #: Population size; 0 = use the scenario's own population. Large
    #: values get a lazily-materialized Zipf population: users cost
    #: memory only while active, and the Zipf draw keeps one float per
    #: block of 16 users (0.5 MB for a million).
    users: int = 0
    volatility: float = 0.3
    base_arrivals_per_tick: int = 8
    burst_arrivals_per_tick: int = 40
    burst_start_tick: int = 20
    burst_end_tick: int = 45

    # -- pod fleet -----------------------------------------------------------
    min_pods: int = 2
    max_pods: int = 12
    initial_pods: int = 2
    warmup_ticks: int = 2
    runs_per_pod_per_tick: int = 4
    pod_down_stable_ticks: int = 4
    pod_cooldown_ticks: int = 3
    balance: str = "round-robin"     # round-robin|least-backlog|consistent-hash

    # -- ingest plane --------------------------------------------------------
    frame_max_entries: int = 16
    pump_capacity_frames: int = 64
    drain_per_worker: int = 24
    min_ingest_workers: int = 1
    max_ingest_workers: int = 4
    ingest_down_stable_ticks: int = 4
    ingest_cooldown_ticks: int = 3
    #: The service-level objective CI asserts: ingest backlog must stay
    #: under this many ticks of drain capacity.
    max_ingest_lag_ticks: float = 3.0

    # -- hive (the shared knobs live on repro.loop.LoopConfig) --------------
    fix_interval_ticks: int = 10
    enable_proofs: bool = False

    # -- health plane --------------------------------------------------------
    #: Serve runs default to a live health plane (SLOs, alerts,
    #: incidents); bare batch runs default off.
    health: bool = True

    def validate(self) -> None:
        check_positive(self.ticks, "ticks")
        if self.users < 0:
            raise ConfigError("users must be >= 0 (0 = scenario default)")
        check_at_least_one(self.base_arrivals_per_tick,
                           "need at least one arrival per tick")
        if self.burst_arrivals_per_tick < self.base_arrivals_per_tick:
            raise ConfigError(
                "burst_arrivals_per_tick must be >= base rate")
        if not 0 <= self.burst_start_tick <= self.burst_end_tick:
            raise ConfigError(
                "burst window must satisfy 0 <= start <= end")
        check_at_least_one(self.min_pods, "need at least one pod")
        if self.max_pods < self.min_pods:
            raise ConfigError("max_pods must be >= min_pods")
        if not self.min_pods <= self.initial_pods <= self.max_pods:
            raise ConfigError(
                "initial_pods must be in [min_pods, max_pods]")
        check_positive(self.runs_per_pod_per_tick, "runs_per_pod_per_tick")
        check_positive(self.frame_max_entries, "frame_max_entries")
        check_positive(self.pump_capacity_frames, "pump_capacity_frames")
        check_positive(self.drain_per_worker, "drain_per_worker")
        check_at_least_one(self.min_ingest_workers,
                           "need at least one ingest worker")
        if self.max_ingest_workers < self.min_ingest_workers:
            raise ConfigError(
                "max_ingest_workers must be >= min_ingest_workers")
        check_positive(self.max_ingest_lag_ticks, "max_ingest_lag_ticks")
        check_positive(self.fix_interval_ticks, "fix_interval_ticks")
        from repro.serve.balance import BALANCE_POLICIES
        if self.balance not in BALANCE_POLICIES:
            raise ConfigError(
                f"balance must be one of"
                f" {', '.join(sorted(BALANCE_POLICIES))}")
        super().validate()

    def arrivals_for(self, tick: int) -> int:
        """The deterministic load curve: base rate with a burst window."""
        if self.burst_start_tick <= tick < self.burst_end_tick:
            return self.burst_arrivals_per_tick
        return self.base_arrivals_per_tick


@dataclass
class TickStats(BaseReport):
    """One tick of service history (all integer/virtual quantities)."""

    tick: int
    arrivals: int
    admitted: int
    executed: int
    failures: int
    backlog: int                 # admission queue depth after the tick
    pump_depth: int              # pump entries after the drain
    ready_pods: int
    desired_pods: int
    ingest_workers: int
    ingest_lag_ticks: float
    backpressure: bool = False
    pod_kills: int = 0


@dataclass
class ServiceReport(BaseReport):
    """Cumulative service totals (deterministic under a fixed seed)."""

    ticks: List[TickStats] = field(default_factory=list)
    fixes: List[str] = field(default_factory=list)
    total_arrivals: int = 0
    total_admitted: int = 0
    total_executions: int = 0
    total_failures: int = 0
    backpressure_ticks: int = 0
    pod_kills: int = 0
    max_ingest_lag_ticks: float = 0.0
    #: Tick index at which the maximum first occurred (-1 = no ticks).
    max_ingest_lag_tick: int = -1
    max_backlog: int = 0

    def failure_rate(self) -> float:
        if self.total_executions == 0:
            return 0.0
        return self.total_failures / self.total_executions

    def as_dict(self) -> Dict[str, object]:
        return {
            "ticks": [stats.as_dict() for stats in self.ticks],
            "fixes": list(self.fixes),
            "total_arrivals": self.total_arrivals,
            "total_admitted": self.total_admitted,
            "total_executions": self.total_executions,
            "total_failures": self.total_failures,
            "failure_rate": self.failure_rate(),
            "backpressure_ticks": self.backpressure_ticks,
            "pod_kills": self.pod_kills,
            "max_ingest_lag_ticks": self.max_ingest_lag_ticks,
            "max_ingest_lag_tick": self.max_ingest_lag_tick,
            "max_backlog": self.max_backlog,
        }


class Service(ClosedLoop):
    """One program's hive, run as a continuously ingesting service."""

    obs_namespace = "serve"

    def __init__(self, scenario: Scenario,
                 config: Optional[ServiceConfig] = None):
        config = config or ServiceConfig()
        super().__init__(
            scenario, config,
            trace_labels=("serve", scenario.program.name, config.seed),
            n_pods=config.max_pods, capture=FullCapture(),
            slos=lambda: default_serve_slos(config))
        self._obs_tick = self.obs_timer("tick")
        self._obs_arrivals = self.obs_counter("arrivals")
        self._obs_admitted = self.obs_counter("admitted")
        self._obs_executed = self.obs_counter("executed")
        self._obs_failures = self.obs_counter("failures")
        self._obs_backlog = self.obs_gauge("admission_backlog")
        self._obs_backpressure = self.obs_counter("backpressure_ticks")
        self._obs_kills = self.obs_counter("pod_kills")

        if config.users > 0:
            from repro.workloads.population import ZipfPopulation
            self.population = ZipfPopulation(
                scenario.program, config.users,
                volatility=config.volatility, seed=config.seed)
        else:
            self.population = scenario.population

        self.control = ControlPlane(config.max_pods,
                                    warmup_ticks=config.warmup_ticks,
                                    initial=config.initial_pods)
        self.pod_scaler = Autoscaler(
            "pods",
            AutoscalerConfig(
                min_replicas=config.min_pods,
                max_replicas=config.max_pods,
                target_per_replica=config.runs_per_pod_per_tick,
                down_stable_ticks=config.pod_down_stable_ticks,
                cooldown_ticks=config.pod_cooldown_ticks),
            initial=config.initial_pods)
        self.ingest_scaler = Autoscaler(
            "ingest-workers",
            AutoscalerConfig(
                min_replicas=config.min_ingest_workers,
                max_replicas=config.max_ingest_workers,
                target_per_replica=config.drain_per_worker,
                down_stable_ticks=config.ingest_down_stable_ticks,
                cooldown_ticks=config.ingest_cooldown_ticks),
            initial=config.min_ingest_workers)
        self.balancer = make_balancer(config.balance)
        self.pump = IngestPump(
            capacity_frames=config.pump_capacity_frames,
            frame_max_entries=config.frame_max_entries)

        self.report = ServiceReport()
        self._admission: Deque[Dict[str, int]] = deque()
        self._outbox: Deque = deque()   # frames awaiting pump space
        self._global_index = 0
        self._chaos_profile_name = config.resolved_chaos_profile().name
        #: Seeded bugs some failing run matched (health evidence).
        self._bugs_seen: Set[str] = set()

    # -- properties ------------------------------------------------------------

    @property
    def ingest_workers(self) -> int:
        return self.ingest_scaler.replicas

    def _drain_budget(self) -> int:
        return self.ingest_workers * self.config.drain_per_worker

    # -- main loop -------------------------------------------------------------

    def run(self) -> ServiceReport:
        with self.backend:    # worker pools never leak on error paths
            for tick in range(self.config.ticks):
                with self._obs_tick.time(), \
                        self._tracer.span("serve.tick", key=tick,
                                          tick=tick) as span:
                    self._tick(tick,
                               span.record.span_id if span.record else "")
        return self.report

    def _tick(self, tick: int, span_id: str = "") -> None:
        config = self.config
        marks = self._health_marks() if self.health is not None else None

        # 1. Arrivals: the population emits this tick's executions.
        arrivals = config.arrivals_for(tick)
        for _ in range(arrivals):
            _user, inputs = self.population.sample_execution()
            self._admission.append(inputs)
        self._obs_arrivals.inc(arrivals)
        self.report.total_arrivals += arrivals

        # 2. Reconcile the fleet, then let chaos kill into it.
        self.control.reconcile(tick)
        killed = self._chaos_kills(tick)
        kills = len(killed)
        ready = self.control.ready_indices()

        # 3. Admit + balance. Backpressure (a non-empty outbox) pauses
        # admission entirely: the fleet must not outrun the hive.
        backpressure = bool(self._outbox)
        admitted_runs: List[PlannedRun] = []
        if ready and not backpressure:
            capacity = len(ready) * config.runs_per_pod_per_tick
            loads: Dict[int, int] = {}
            while self._admission and len(admitted_runs) < capacity:
                inputs = self._admission.popleft()
                pod_index = self.balancer.assign(
                    self._global_index, ready, loads)
                loads[pod_index] = loads.get(pod_index, 0) + 1
                self.control.note_assignment(pod_index)
                admitted_runs.append(PlannedRun(
                    global_index=self._global_index,
                    pod_index=pod_index,
                    inputs=inputs))
                self._global_index += 1
            for pod_index in ready:
                self.control.heartbeat(pod_index, tick,
                                       lag=loads.get(pod_index, 0))
        elif backpressure:
            self.report.backpressure_ticks += 1
            self._obs_backpressure.inc()
        admitted = len(admitted_runs)
        self._obs_admitted.inc(admitted)
        self.report.total_admitted += admitted

        # 4. Execute the micro-plan on the ordinary backend.
        executed = 0
        failures = 0
        entries: List[BatchEntry] = []
        if admitted_runs:
            results = self._execute(
                RoundPlan(round_index=tick,
                          hive_version=self.hive.program.version,
                          runs=admitted_runs),
                "serve.execute")
            # The records feed counts and a set, so they need no
            # order; the pump frames the entries in global order.
            records = [record for result in results
                       for record in result.records]
            entries = sorted((entry for result in results
                              for batch in result.batches
                              for entry in batch.entries),
                             key=attrgetter("global_index"))
            executed = len(records)
            for record in records:
                failures += int(record.failed)
                if self.health is not None and record.has_failure:
                    bug = self._seeded_bug(record)
                    if bug is not None:
                        self._bugs_seen.add(bug.message)
        self._obs_executed.inc(executed)
        self._obs_failures.inc(failures)
        self.report.total_executions += executed
        self.report.total_failures += failures

        # 5. Stream: frame the tick's entries, push through the pump,
        # drain the hive's share.
        if entries:
            self._outbox.extend(self.pump.frame_entries(
                entries, self.hive.program.name,
                self.hive.program.version))
        while self._outbox:
            if not self.pump.offer(self._outbox[0], tick,
                                   fault_plan=self.fault_plan):
                break                      # queue full: retry next tick
            self._outbox.popleft()
        with self._tracer.span("serve.drain", key=tick):
            self.pump.drain(self.hive, self._drain_budget())

        # 6. Scale: pods against admission demand, ingest workers
        # against pump depth.
        demand = len(self._admission) + admitted
        self._obs_backlog.set(len(self._admission))
        pod_decision = self.pod_scaler.observe(tick, demand)
        if pod_decision.changed:
            self._record_scale(pod_decision, "pods", demand)
            self.control.set_desired(pod_decision.desired, tick,
                                     reason=pod_decision.reason)
        ingest_decision = self.ingest_scaler.observe(
            tick, self.pump.depth_entries)
        if ingest_decision.changed:
            self._record_scale(ingest_decision, "ingest-workers",
                               self.pump.depth_entries)

        # 7. Repair window.
        if (config.fixing and tick > 0
                and tick % config.fix_interval_ticks == 0):
            self._maybe_fix(tick)

        lag = self.pump.lag_ticks(self._drain_budget())
        # Strict > keeps the FIRST tick that achieved the maximum, so
        # incidents and the snapshot point at the offending tick stably.
        if (self.report.max_ingest_lag_tick < 0
                or lag > self.report.max_ingest_lag_ticks):
            self.report.max_ingest_lag_ticks = lag
            self.report.max_ingest_lag_tick = tick
        self.report.max_backlog = max(self.report.max_backlog,
                                      len(self._admission))
        stats = TickStats(
            tick=tick,
            arrivals=arrivals,
            admitted=admitted,
            executed=executed,
            failures=failures,
            backlog=len(self._admission),
            pump_depth=self.pump.depth_entries,
            ready_pods=len(self.control.ready_indices()),
            desired_pods=self.control.desired,
            ingest_workers=self.ingest_workers,
            ingest_lag_ticks=lag,
            backpressure=backpressure,
            pod_kills=kills,
        )
        self.report.ticks.append(stats)
        if self.health is not None:
            self._observe_health(tick, stats, span_id, marks, killed)

    # -- helpers ---------------------------------------------------------------

    def _chaos_kills(self, tick: int) -> List[int]:
        """Worker-death chaos, mapped onto backend-invariant virtual
        shards exactly like the round platform's chaos layer. Returns
        the killed pod indices (health evidence wants names, not counts)."""
        if self.fault_plan is None:
            return []
        dead = set(self.fault_plan.dead_virtual_shards(tick))
        if not dead:
            return []
        killed: List[int] = []
        virtual = self.fault_plan.profile.virtual_workers
        for pod_index in self.control.ready_indices():
            if pod_index % virtual in dead:
                self.control.kill(pod_index, tick)
                self._tracer.event("chaos.pod_kill", tick=tick,
                                   pod=pod_index)
                killed.append(pod_index)
        if killed:
            self._obs_kills.inc(len(killed))
            self.report.pod_kills += len(killed)
        return killed

    # -- health plane ----------------------------------------------------------

    def _health_marks(self) -> tuple:
        """Counter positions at tick start, so evidence and per-tick
        ratios cover exactly this tick's events (cheap attribute reads)."""
        if self.solver_cache is not None:
            cache_hits = self.solver_cache.stats.hits
            cache_misses = self.solver_cache.stats.misses
        else:
            cache_hits = cache_misses = 0
        return (len(self.control.events),
                len(self.pod_scaler.events),
                len(self.ingest_scaler.events),
                self.pump.frames_discarded,
                self.pump.frames_enqueued,
                cache_hits,
                cache_misses)

    def _observe_health(self, tick: int, stats: TickStats, span_id: str,
                        marks: tuple, killed: List[int]) -> None:
        """Feed the tick's SLI samples and correlation evidence."""
        (fleet_mark, pod_scale_mark, ingest_scale_mark,
         lost_mark, offered_mark, hits_mark, misses_mark) = marks
        frames_lost = self.pump.frames_discarded - lost_mark
        frames_offered = frames_lost + (
            self.pump.frames_enqueued - offered_mark)
        demand = stats.backlog + stats.admitted
        sample = {
            "ingest_lag_ticks": stats.ingest_lag_ticks,
            "admission_reject_ratio": (stats.backlog / demand
                                       if demand else 0.0),
            "pump_backpressure": 1.0 if stats.backpressure else 0.0,
            "pump_drop_ratio": (frames_lost / frames_offered
                                if frames_offered else 0.0),
            "pod_ready_ratio": (stats.ready_pods
                                / max(1, stats.desired_pods)),
        }
        sample.update(self._detection_sample(self._bugs_seen))
        if self.solver_cache is not None:
            # Per-tick delta, not the cumulative rate: the SLO window
            # should react to this tick's lookups. Lookup-free ticks emit
            # no sample rather than a misleading 0.0.
            tick_hits = self.solver_cache.stats.hits - hits_mark
            tick_lookups = tick_hits + (
                self.solver_cache.stats.misses - misses_mark)
            if tick_lookups:
                sample["solver_hit_rate"] = tick_hits / tick_lookups

        chaos = [{"kind": "pod_kill", "fault": "worker-death",
                  "profile": self._chaos_profile_name,
                  "tick": tick, "pod": pod_index}
                 for pod_index in killed]
        if frames_lost:
            chaos.append({"kind": "frames_lost",
                          "fault": "frame-drop/corrupt",
                          "profile": self._chaos_profile_name,
                          "tick": tick, "frames": frames_lost})
        scaling = [event.as_dict()
                   for event in self.pod_scaler.events[pod_scale_mark:]]
        scaling += [event.as_dict() for event in
                    self.ingest_scaler.events[ingest_scale_mark:]]
        fleet = [event.as_dict()
                 for event in self.control.events[fleet_mark:]]
        self.health.observe(tick, sample, TickEvidence(
            tick=tick, chaos=chaos, scaling=scaling, fleet=fleet,
            span_id=span_id, stats=stats.as_dict()))

    def _record_scale(self, decision, pool: str, load: int) -> None:
        name = ("serve.scale_up" if decision.direction == "up"
                else "serve.scale_down")
        with self._tracer.span(name, key=(pool, decision.tick),
                               pool=pool, tick=decision.tick,
                               from_replicas=decision.current,
                               to_replicas=decision.desired,
                               load=load):
            pass

    def _maybe_fix(self, tick: int) -> None:
        with self._tracer.span("serve.fix", key=tick) as span:
            updated = self.hive.maybe_fix()
            if updated is None:
                return
            fix = self.hive.deployed_fixes[-1]
            self.report.fixes.append(fix.description)
            span.set(deployed=fix.description)
            # Continuous rollout: the whole fleet updates at once —
            # one publish (one epoch) carries both the hive deploy and
            # the full-fleet rollout; frames already queued in the pump
            # go stale and the hive counts them instead of replaying.
            self.backend.publish(SyncDelta(
                hive_program=updated,
                rollout=(updated, tuple(range(self.config.max_pods)))))

    # -- export ----------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The deterministic service snapshot (``repro serve --json``).

        Every field is a pure function of (config, seed, tick budget):
        no wall-clock, no pid, no ordering artifacts — two runs at the
        same seed produce byte-identical JSON on every backend.
        """
        lag_bound = self.config.max_ingest_lag_ticks
        max_lag_tick = self.report.max_ingest_lag_tick
        max_lag_stats = next(
            (stats.as_dict() for stats in self.report.ticks
             if stats.tick == max_lag_tick), None)
        return {
            "serve_schema_version": SERVE_SCHEMA_VERSION,
            "config": self.config.as_dict(),
            "execution": {
                "backend_workers": self.backend.workers,
                "population_users": self.population.n_users,
            },
            "report": self.report.as_dict(),
            "fleet": self.control.fleet_doc(),
            "fleet_events": [event.as_dict()
                             for event in self.control.events],
            "autoscalers": {
                "pods": self.pod_scaler.summary(),
                "ingest_workers": self.ingest_scaler.summary(),
            },
            "pump": self.pump.summary(),
            "hive": self.hive.stats.as_dict(),
            "ingest_lag": {
                "max_ticks": self.report.max_ingest_lag_ticks,
                "max_tick": max_lag_tick,
                "max_tick_stats": max_lag_stats,
                "bound_ticks": lag_bound,
                "ok": self.report.max_ingest_lag_ticks <= lag_bound,
            },
            "health": (self.health.report()
                       if self.health is not None else None),
        }
