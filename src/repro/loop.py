"""The closed loop of Fig. 1, shared by ``run`` and ``serve``.

``SoftBorgPlatform`` (rounds) and ``Service`` (virtual-clock ticks)
drive one feedback cycle: pods run, the hive ingests their
by-products, fixes flow back. :class:`LoopConfig` declares the knobs
both carry; :class:`ClosedLoop` builds the substrate (pods, constraint
cache, hive, backend, fault plan, health plane) and owns the one
execute step (cache redistribute, run, cache merge), ground-truth
attribution and the per-family detection SLIs. Each driver keeps its
plan source, delivery, span names and publish pattern. ``run`` hands
every round to a sink: through :func:`window_sink` the hive ingests
each window while the shards run the next, and on a chaos platform the
chaos coordinator runs the round in the backend's place and hands the
sink its surviving results at once, for the chaos wire. ``serve``
passes no sink and delivers over its pump.

``NetworkedPlatform`` stays event-driven (no backend, no rounds) and
shares only :func:`check_solver_cache` and :func:`solver_cache_doc`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import BaseConfig, check_positive
from repro.errors import ConfigError
from repro.exec.backends import (
    SyncDelta, WindowSink, make_backend, resolve_backend_name,
)
from repro.exec.batch import RunRecord, ShardResult
from repro.exec.plan import RoundPlan
from repro.hive.hive import Hive
from repro.obs import Instrumented
from repro.obs.trace import derive_trace_id, get_tracer
from repro.pod.pod import Pod
from repro.progmodel.interpreter import ExecutionLimits
from repro.tracing.dedup import Heartbeat
from repro.workloads.scenarios import Scenario

__all__ = ["LoopConfig", "ClosedLoop", "window_sink", "check_solver_cache",
           "solver_cache_doc"]


def window_sink(hive: Hive,
                ) -> Callable[[List[ShardResult]], Tuple[int, int]]:
    """A sink that ingests each window of one round into ``hive``, its
    entries in global order, with one decode and replay memo for the
    whole round, so each window's distinct replays fold once each,
    with their counts (:meth:`Hive.ingest_batch`). Each call returns
    the window's wire bytes and shipped entries, a heartbeat counted
    as :attr:`Heartbeat.WIRE_SIZE`. Build one per round."""
    memo: Dict = {}

    def ingest(results: List[ShardResult]) -> Tuple[int, int]:
        batches = [batch for result in results for batch in result.batches]
        hive.ingest_batch(batches, memo)
        sizes = [Heartbeat.WIRE_SIZE if entry.is_heartbeat
                 else len(entry.payload)
                 for batch in batches for entry in batch.entries]
        return sum(sizes), len(sizes)
    return ingest


def check_solver_cache(mode: str) -> None:
    """Reject an unknown ``solver_cache`` mode (every config's rule)."""
    if mode not in ("none", "local", "collective"):
        raise ConfigError(
            "solver_cache must be one of none, local, collective")


def solver_cache_doc(mode: str, cache, hive: Hive) -> Dict[str, object]:
    """The snapshot's ``solver_cache`` block: mode, entry count, tier
    hit accounting, and the hive engines' solver totals."""
    return {
        "mode": mode,
        "entries": len(cache),
        "stats": cache.stats.as_dict(),
        "solver": hive.solver_stats().as_dict(),
    }


@dataclass
class LoopConfig(BaseConfig):
    """The knobs every closed-loop driver carries. A driver redeclares
    a field to change its default (serve: health on, proofs off)."""

    seed: int = 0
    backend: str = "auto"            # serial | process | auto
    workers: int = 0                 # 0 = auto (one worker per core)
    chaos_profile: object = "none"   # profile name or FaultProfile
    solver_cache: str = "none"       # none | local | collective
    dedup: bool = False              # pod-side heartbeats for repeats
    max_steps: int = 4000
    fixing: bool = True
    validate_fixes: bool = True
    min_failure_reports: int = 1
    enable_proofs: bool = True
    #: The health plane (repro.obs.health): SLOs, alerts, incidents,
    #: and an additive ``health`` snapshot block. Costs nothing when off.
    health: bool = False
    #: ``{slo_name: objective}`` (``--slo NAME=TARGET`` on the CLI).
    slo_overrides: Dict[str, float] = field(default_factory=dict)

    def validate(self) -> None:
        check_positive(self.max_steps, "max_steps")
        resolve_backend_name(self.backend)   # raises on unknown names
        if self.workers < 0:
            raise ConfigError("workers must be >= 0 (0 = auto)")
        check_solver_cache(self.solver_cache)
        self.resolved_chaos_profile()        # raises on unknown/bad

    def resolved_chaos_profile(self):
        """The validated :class:`~repro.chaos.FaultProfile` in force."""
        from repro.chaos import resolve_profile
        return resolve_profile(self.chaos_profile)

    def resolved_backend(self) -> str:
        """The concrete backend this config selects (env-aware)."""
        return resolve_backend_name(self.backend)


class ClosedLoop(Instrumented):
    """Substrate and execute step of one program's closed loop."""

    def __init__(self, scenario: Scenario, config: LoopConfig, *,
                 trace_labels: Sequence[object], n_pods: int, capture,
                 slos: Callable[[], list]):
        config.validate()
        self.config = config
        self.scenario = scenario
        # Resolved once, like the metric handles. The trace id is a
        # pure function of the driver's labels (program, seed) so
        # exports reproduce.
        self._tracer = get_tracer()
        if self._tracer.enabled:
            self._tracer.set_trace_id(derive_trace_id(*trace_labels))
        limits = ExecutionLimits(max_steps=config.max_steps)
        self.pods = [
            Pod(pod_id=f"pod{i:04d}", program=scenario.program,
                capture=capture, limits=limits,
                fault_rate=scenario.fault_rate,
                seed=config.seed + i)
            for i in range(n_pods)
        ]
        # Collective constraint recycling: the hive-side cache serves
        # every hive solver ("local" mode stops there); "collective"
        # additionally equips shards with private caches whose deltas
        # merge back here and redistribute before the next execution.
        self.solver_cache = None
        if config.solver_cache != "none":
            from repro.symbolic.cache import ConstraintCache
            self.solver_cache = ConstraintCache()
        self.hive = Hive(
            scenario.program, limits=limits,
            validate_fixes=config.validate_fixes,
            min_failure_reports=config.min_failure_reports,
            enable_proofs=config.enable_proofs,
            solver_cache=self.solver_cache)
        # Per-pod dedup state lives inside the backend's shards: each
        # pod's trace stream is observed by exactly one shard, in
        # order, so heartbeat semantics are backend-invariant.
        self.backend = make_backend(
            config.resolved_backend(), self.pods, scenario.program,
            capture=capture, limits=limits,
            fault_rate=scenario.fault_rate,
            dedup=config.dedup,
            workers=config.workers,
            solver_cache=config.solver_cache)
        # What runs a plan: the backend, or a stand-in with its
        # ``run_round(plan, sink)`` (the platform's chaos coordinator).
        self.executor = self.backend
        # Chaos: the stateless seeded fault oracle (None for the
        # default no-op profile — one ``is None`` per use site).
        profile = config.resolved_chaos_profile()
        self.fault_plan = None
        if not profile.is_noop():
            from repro.chaos.plan import FaultPlan
            self.fault_plan = FaultPlan(profile, seed=config.seed)
        # The health plane: None when off — every per-iteration hook is
        # one ``is None`` check and no obs registry metric or series is
        # ever allocated (BENCH_e22 pins this).
        self.health = None
        if config.health:
            from repro.obs.health import HealthConfig, HealthPlane
            from repro.registry.model import family_of
            self._bug_family = {bug.message: family_of(bug.kind)
                                for bug in scenario.bugs}
            self._family_bugs = Counter(self._bug_family.values())
            self.health = HealthPlane(
                slos(), HealthConfig(slo_overrides=dict(config.slo_overrides)),
                flight=self._tracer.flight)

    # -- the execute step -----------------------------------------------------

    def _execute(self, plan: RoundPlan, span: str,
                 sink: Optional[WindowSink] = None) -> List[ShardResult]:
        """Run ``plan`` on the executor under a span named ``span``,
        handing ``sink`` (when given) the results as they arrive: each
        window while the shards run the next, or a chaos round's all at
        once. The collective cache redistributes to every shard before
        and merges the shards' deltas back after. Returns the shard
        results."""
        key = plan.round_index
        collective = self.config.solver_cache == "collective"
        if collective:
            delta = self.solver_cache.export_delta()
            if delta:
                with self._tracer.span("cache.redistribute", key=key,
                                       entries=len(delta)):
                    self.backend.publish(SyncDelta(cache_entries=delta))
        with self._tracer.span(span, key=key, runs=len(plan.runs)):
            results = self.executor.run_round(plan, sink)
        cache_deltas = [result.cache_delta for result in results
                        if result.cache_delta]
        if collective and cache_deltas:
            with self._tracer.span("cache.merge", key=key):
                self.hive.adopt_cache_deltas(cache_deltas)
        return results

    # -- ground truth (metrics only: the hive never sees it) ------------------

    def _seeded_bug(self, record: RunRecord):
        """The first seeded bug whose signature matches a failing run,
        or None."""
        for bug in self.scenario.bugs:
            if bug.matches_result(record.outcome, record.failure_message,
                                  record.failure_block):
                return bug
        return None

    def _detection_sample(self, seen: Iterable[str]) -> Dict[str, float]:
        """Per-family detection SLIs over the bug messages in ``seen``
        (health on only): ``detect.<family>`` is the share of the
        family's seeded bugs seen, ``family_detection_rate`` the worst
        family's share (1.0 when nothing is seeded)."""
        if not self._family_bugs:
            return {"family_detection_rate": 1.0}
        found = Counter(self._bug_family[message] for message in seen
                        if message in self._bug_family)
        rates = {family: found[family] / total
                 for family, total in self._family_bugs.items()}
        sample = {"family_detection_rate": min(rates.values())}
        for family in sorted(rates):
            sample[f"detect.{family}"] = rates[family]
        return sample
