"""SoftBorg: the closed loop of Figure 1.

``SoftBorgPlatform`` wires a user population, a fleet of pods, and one
hive into the paper's feedback cycle, executed in deterministic rounds:

1. the coordinator *plans* the round — every random draw (user
   sampling, pod choice, steering assignment, trace loss) happens
   here, serialized, so the plan is backend-independent
   (``repro.exec.plan``);
2. an :class:`~repro.exec.backends.ExecutorBackend` executes the plan
   (``--backend {serial,process}``) through the execute step
   :mod:`repro.loop` shares with ``repro serve``, and ships batched
   traces back; coordinator-side state changes (cache
   redistributions, fix deploys, staged rollouts) reach the shards as
   epoch-stamped ``publish()`` deltas;
3. the hive replays and ingests the batch entries in global execution
   order, one window of the round at a time while the shards run the
   next (under chaos, the whole round at once over the chaos wire);
   the coordinator folds each window's run records as it arrives and,
   after the first, draws the next round's runs; at round end the hive
   analyzes and — when the evidence warrants — synthesizes, validates,
   and deploys a fix;
4. the fixed program rolls out to a staged fraction of pods per round;
5. metrics record the user-visible failure rate, proof progress, and
   ground-truth bug status.

Reports are bit-identical across backends for a fixed seed (see
``docs/PARALLEL.md`` for the construction). Every experiment about the
closed loop (bug density E3, guidance E4, deadlock immunity E5,
baselines E12) is a configuration of this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.config import (
    BaseReport, check_at_least_one, check_positive, check_unit_interval,
)
from repro.exec.backends import SyncDelta, resolve_workers
from repro.exec.batch import RunRecord, ShardResult
from repro.exec.plan import PlannedRun, RoundPlan
from repro.loop import ClosedLoop, LoopConfig, solver_cache_doc, window_sink
from repro.metrics.bugdensity import BugDensityTracker
from repro.metrics.series import Series
from repro.proofs.proof import Proof
from repro.rng import make_rng
from repro.tracing.capture import CapturePolicy, FullCapture
from repro.workloads.scenarios import Scenario

__all__ = ["PlatformConfig", "RoundStats", "PlatformReport",
           "SoftBorgPlatform", "SNAPSHOT_SCHEMA_VERSION"]

#: Version of the unified snapshot payload (``repro run --json``).
#: v1 was the unversioned PR-1 shape (config/report/hive/obs); v2 adds
#: this marker plus the ``execution`` block (backend, workers, batch
#: knobs); v3 adds the ``observability`` block (obs snapshot, tracing
#: summary, flight-recorder dumps) while keeping every v2 key — v2
#: readers keep working unchanged. Documented in docs/API.md and
#: docs/OBSERVABILITY.md.
SNAPSHOT_SCHEMA_VERSION = 3


def _default_platform_slos():
    """The round-aligned SLO set for batch runs (``health=True``).

    Deliberately small: rounds are coarse (tens, not thousands), so
    the catalogue watches the three things a regression always moves —
    user-visible failure burn, invariant firings, and worst-family
    detection (observational at objective 0; raise via
    ``slo_overrides`` to gate on it).
    """
    from repro.obs.health import AlertRule, SloSpec
    return [
        SloSpec(
            name="failure-burn",
            sli="round_failure_ratio",
            objective=0.70,
            description="at most 30% of user-visible executions may"
                        " fail; sustained 2x burn means fixing has"
                        " stopped keeping up",
            rules=(AlertRule(kind="burn_rate", window_ticks=6,
                             short_window_ticks=2, threshold=2.0),),
        ),
        SloSpec(
            name="invariants",
            sli="invariant_violations",
            objective=0.0,
            direction="upper",
            description="no invariant may fire (any violation in the"
                        " window pages)",
            rules=(AlertRule(kind="threshold", window_ticks=1),),
        ),
        SloSpec(
            name="family-detection",
            sli="family_detection_rate",
            objective=0.0,
            direction="lower",
            description="worst-family bug detection rate; 0 = watch"
                        " only, override to gate",
            rules=(AlertRule(kind="threshold", window_ticks=6),),
        ),
    ]


@dataclass
class PlatformConfig(LoopConfig):
    """Knobs of one platform run (ablations flip these); the shared
    closed-loop knobs live on :class:`~repro.loop.LoopConfig`."""

    n_pods: int = 20
    rounds: int = 30
    executions_per_round: int = 40
    capture: Optional[CapturePolicy] = None    # default FullCapture
    guidance: bool = False
    guided_per_round: int = 4
    rollout_fraction: float = 1.0              # pods updated per round
    trace_loss_rate: float = 0.0
    check_invariants: bool = False   # run the invariant catalogue/round

    def validate(self) -> None:
        check_at_least_one(self.n_pods, "need at least one pod")
        check_positive(self.rounds, "rounds")
        check_positive(self.executions_per_round, "executions_per_round")
        check_positive(self.guided_per_round, "guided_per_round")
        check_unit_interval(self.rollout_fraction, "rollout_fraction",
                            include_zero=False, include_one=True)
        check_unit_interval(self.trace_loss_rate, "trace_loss_rate")
        super().validate()

    def resolved_workers(self) -> int:
        """The worker count the resolved backend will actually use."""
        return resolve_workers(self.workers, self.resolved_backend(),
                               self.n_pods)


@dataclass
class RoundStats(BaseReport):
    round_index: int
    executions: int
    failures: int
    guided_executions: int
    hive_version: int
    pods_current: int
    fixes_deployed_total: int
    windowed_density: float
    proof_status: Optional[str] = None
    proof_coverage: float = 0.0


@dataclass
class PlatformReport(BaseReport):
    """Everything a platform run produced."""

    rounds: List[RoundStats] = field(default_factory=list)
    density: BugDensityTracker = field(default_factory=BugDensityTracker)
    version_series: Series = field(
        default_factory=lambda: Series("hive-version"))
    proofs: List[Tuple[int, Proof]] = field(default_factory=list)
    fixes: List[str] = field(default_factory=list)
    traces_lost: int = 0
    total_executions: int = 0
    total_failures: int = 0
    guided_failures: int = 0
    wire_bytes: int = 0

    def failure_rate(self) -> float:
        if self.total_executions == 0:
            return 0.0
        return self.total_failures / self.total_executions

    def as_dict(self) -> Dict[str, object]:
        final_proof = self.proofs[-1][1] if self.proofs else None
        return {
            "rounds": [stats.as_dict() for stats in self.rounds],
            "fixes": list(self.fixes),
            "total_executions": self.total_executions,
            "total_failures": self.total_failures,
            "guided_failures": self.guided_failures,
            "failure_rate": self.failure_rate(),
            "traces_lost": self.traces_lost,
            "wire_bytes": self.wire_bytes,
            "density": {
                "windowed": self.density.windowed_density(),
                "lifetime": self.density.lifetime_density(),
                "bugs_seen": sorted(self.density.bugs_seen),
                "bugs_fixed": sorted(self.density.bugs_fixed),
                "open_bugs": sorted(self.density.open_bugs),
            },
            "final_proof": final_proof.describe() if final_proof else None,
        }

    def executions_until_density_below(self, threshold: float,
                                       ) -> Optional[float]:
        """First cumulative-execution count with windowed failures/1k
        below ``threshold`` *after* at least one failure was seen."""
        seen_failure = False
        for x, y in self.density.density_series.points:
            if y > 0:
                seen_failure = True
            elif seen_failure and y <= threshold:
                return x
        return None


class SoftBorgPlatform(ClosedLoop):
    """One program, its users, its pods, and its hive."""

    obs_namespace = "platform"

    def __init__(self, scenario: Scenario,
                 config: Optional[PlatformConfig] = None):
        config = config or PlatformConfig()
        super().__init__(scenario, config,
                         trace_labels=(scenario.program.name, config.seed),
                         n_pods=config.n_pods,
                         capture=config.capture or FullCapture(),
                         slos=_default_platform_slos)
        self.flight_dumps: List[Dict[str, object]] = []
        self._obs_round = self.obs_timer("round")
        self._obs_executions = self.obs_counter("executions")
        self._obs_failures = self.obs_counter("failures")
        self._obs_guided = self.obs_counter("guided_executions")
        self._obs_traces_shipped = self.obs_counter("traces_shipped")
        self._obs_traces_lost = self.obs_counter("traces_lost")
        self._obs_wire_bytes = self.obs_counter("wire_bytes")
        self._obs_fixes = self.obs_counter("fixes_deployed")
        self._rng = make_rng(config.seed, "platform", scenario.program.name)
        # The next round's runs, drawn while this round's shards run.
        self._drawn: Optional[List[PlannedRun]] = None
        self.report = PlatformReport()
        # Chaos + invariants: both default off and cost one ``is None``
        # per round when disabled (mirroring repro.obs's no-op mode).
        # A chaos run always checks invariants — the verdicts depend on
        # them — and ``check_invariants`` enables the catalogue alone.
        self.chaos = None
        self.invariants = None
        self.invariant_violations: List[Tuple[int, object]] = []
        if self.fault_plan is not None:
            from repro.chaos import ChaosCoordinator
            # Chaos rounds run on the coordinator, which runs them on
            # the backend under the plan's faults.
            self.executor = self.chaos = ChaosCoordinator(self.fault_plan,
                                                          self.backend)
        if self.chaos is not None or config.check_invariants:
            from repro.chaos import Invariants
            self.invariants = Invariants()

    # -- main loop ------------------------------------------------------------

    def run(self) -> PlatformReport:
        # The backend is a context manager: worker pools cannot leak
        # on an error path, and close() is idempotent if callers also
        # close explicitly.
        with self.backend:
            for round_index in range(self.config.rounds):
                with self._obs_round.time(), \
                        self._tracer.span("round", key=round_index,
                                          round=round_index):
                    self._run_round(round_index)
        return self.report

    def snapshot(self) -> Dict[str, object]:
        """Unified platform state: config, report, hive stats, metrics.

        Schema v3: every v2 key is unchanged (``schema_version``, the
        ``execution`` block, the top-level ``obs`` snapshot — v2
        readers keep working), plus an ``observability`` block holding
        the obs snapshot alongside the tracing summary and any
        flight-recorder dumps when tracing is on. The ``chaos`` and
        ``invariants`` blocks appear only when those layers are
        enabled, so fault-free snapshots are otherwise unchanged.
        """
        obs_snapshot = self.obs.snapshot()
        observability: Dict[str, object] = {"obs": obs_snapshot}
        if self._tracer.enabled:
            observability["tracing"] = self._tracer.summary()
            observability["flight_recorder"] = {
                "dumps": [dict(dump) for dump in self.flight_dumps],
            }
        doc = {
            "schema_version": SNAPSHOT_SCHEMA_VERSION,
            "config": self.config.as_dict(),
            "execution": {
                "backend": self.backend.name,
                "workers": self.backend.workers,
                # Final session epoch: how many state deltas the
                # coordinator published. A pure function of the plan,
                # so backend-invariant (additive key, still schema v3).
                "epoch": self.backend.epoch,
            },
            "report": self.report.as_dict(),
            "hive": self.hive.stats.as_dict(),
            "obs": obs_snapshot,
            "observability": observability,
        }
        if self.solver_cache is not None:
            # Additive block (still schema v3).
            doc["solver_cache"] = solver_cache_doc(
                self.config.solver_cache, self.solver_cache, self.hive)
        # Additive block (still schema v3): the scenario's seeded bugs
        # grouped into registry families, with seen/fixed taken from the
        # density ledger and defect-localization ranks from the final
        # collective tree. The full per-bug scorecard lives behind
        # ``repro registry score`` (docs/REGISTRY.md); this is the
        # platform-side summary in the same family vocabulary.
        doc["scorecard"] = self._scorecard_block()
        # Additive block (still schema v3): present only when the
        # health plane is on, so default snapshots are byte-unchanged.
        if self.health is not None:
            doc["health"] = self.health.report()
        if self.chaos is not None:
            doc["chaos"] = self.chaos.summary()
        if self.invariants is not None:
            doc["invariants"] = {
                "ok": not self.invariant_violations,
                "violations": [
                    {"round": round_index, **result.as_dict()}
                    for round_index, result in self.invariant_violations
                ],
            }
        return doc

    def _scorecard_block(self) -> Dict[str, object]:
        from repro.analysis.localize import localize_from_tree, rank_of_block
        from repro.metrics.scorecard import SCORECARD_SCHEMA_VERSION
        from repro.registry.model import family_of
        density = self.report.density
        scores = localize_from_tree(self.hive.tree)
        families: Dict[str, Dict[str, object]] = {}
        for spec in self.scenario.bugs:
            family = family_of(spec.kind)
            row = families.setdefault(family, {
                "bugs": 0, "seen": 0, "fixed": 0,
                "localization_ranks": []})
            row["bugs"] += 1
            row["seen"] += 1 if spec.message in density.bugs_seen else 0
            row["fixed"] += 1 if spec.message in density.bugs_fixed else 0
            rank = rank_of_block(scores, *spec.defect_site)
            if rank is not None:
                row["localization_ranks"].append(rank)
        return {"schema_version": SCORECARD_SCHEMA_VERSION,
                "families": families}

    def _draw_runs(self) -> List[PlannedRun]:
        """Draw one round's runs: per execution, exactly the historical
        serial loop's draws — population sample, pod choice, loss draw
        — so the platform RNG stream (and therefore every report) is
        the serial loop's.

        Nothing else draws from these two generators, so a streamed
        round draws the next round's runs while its shards run (see
        :meth:`_round_sink`). That is exact: a fix deployed at the end
        of the round changes the hive version and the steering
        directives, which :meth:`_plan_round` attaches when the next
        round starts, never the draws (the population keeps the
        original program's input domains).
        """
        config = self.config
        sample = self.scenario.population.sample_execution
        choose = self._rng.choice
        loss = config.trace_loss_rate
        pod_indices = range(len(self.pods))
        runs = []
        for execution in range(config.executions_per_round):
            _user, inputs = sample()
            pod_index = choose(pod_indices)
            ship = not (loss and self._rng.random() < loss)
            # Positional fields, as in unpack_runs: (global_index,
            # pod_index, inputs, directive, ship).
            runs.append(PlannedRun(execution, pod_index, inputs, None,
                                   ship))
        return runs

    def _plan_round(self, round_index: int) -> RoundPlan:
        """Serialize the round's randomness into a backend-free plan:
        the runs drawn during the round before when there are any (else
        drawn now), each early run given a steering directive, popped
        in the historical order, and the hive version."""
        runs, self._drawn = self._drawn, None
        if runs is None:
            runs = self._draw_runs()
        if self.config.guidance:
            directives = self.hive.plan_steering(
                self.config.guided_per_round)
            for run in runs:
                if not directives:
                    break
                run.directive = directives.pop()
        return RoundPlan(round_index=round_index,
                         hive_version=self.hive.program.version,
                         runs=runs)

    def _run_round(self, round_index: int) -> None:
        with self._tracer.span("round.plan", key=round_index):
            plan = self._plan_round(round_index)
        sink, tally = self._round_sink(round_index)
        self._execute(plan, "round.execute", sink)
        self._fold_round(round_index, plan, *tally)

    def _round_sink(self, round_index: int):
        """The round's sink and its ``[failures, guided]`` tally. The
        sink delivers what arrives — each window into the hive, or
        under chaos the whole round over the chaos wire — accounts the
        wire bytes the delivery returns and folds the records; once
        the first results are in, it draws the next round's runs while
        the shards run the rest (the last round draws nothing ahead)."""
        if self.chaos is None:
            deliver = window_sink(self.hive)
        else:
            deliver = partial(self.chaos.deliver, self.hive,
                              round_index=round_index)
        tally = [0, 0]
        draw_ahead = round_index + 1 < self.config.rounds

        def sink(results: List[ShardResult]) -> None:
            nonlocal draw_ahead
            self._account_wire(*deliver(results))
            # Window w holds plan positions [w*size, (w+1)*size), so
            # its records continue the global order.
            records = [record for result in results
                       for record in result.records]
            if len(results) > 1:
                records.sort(key=attrgetter("global_index"))
            failures, guided = self._fold_records(records)
            tally[0] += failures
            tally[1] += guided
            if draw_ahead:
                draw_ahead = False
                self._drawn = self._draw_runs()
        return sink, tally

    def _fold_records(self, records: List[RunRecord]) -> Tuple[int, int]:
        """Fold run records, in global order, into the executions
        counter, guided accounting and the density ledger; returns the
        user-visible failures and the guided runs among them."""
        failures = 0
        guided = 0
        for record in records:
            self._obs_executions.inc()
            if record.guided:
                # Steered runs are SoftBorg-initiated test executions
                # on spare cycles: their failures feed the hive (that
                # is the point of steering) but are not *user-visible*
                # failures, so they stay out of the density metric.
                guided += 1
                self._obs_guided.inc()
                self.report.guided_failures += int(record.failed)
            else:
                failures += int(record.failed)
                self._obs_failures.inc(int(record.failed))
                self.report.density.record_execution(
                    record.failed, self._attribute(record))
        return failures, guided

    def _fold_round(self, round_index: int, plan: RoundPlan,
                    failures: int, guided: int) -> None:
        """Everything after the round's delivery and record folds: lost
        traces, proofs, fixing, rollout, per-round stats, invariants,
        health. Pure coordinator-side state — no backend traffic except
        the fix/rollout publishes."""
        config = self.config
        lost = sum(1 for run in plan.runs if not run.ship)
        if lost:
            self.report.traces_lost += lost
            self._obs_traces_lost.inc(lost)

        # Snapshot the proof on this round's evidence *before* any fix
        # rewrites the program — a deployed fix invalidates the proof,
        # and the ledger should show the refutation that motivated it.
        proof = self.hive.current_proof() if config.enable_proofs else None
        if proof is not None:
            self.report.proofs.append((round_index, proof))

        if config.fixing:
            with self._tracer.span("round.fix", key=round_index) as span:
                updated = self.hive.maybe_fix()
                if updated is not None:
                    fix = self.hive.deployed_fixes[-1]
                    self._obs_fixes.inc()
                    self.report.fixes.append(fix.description)
                    self.report.density.record_fix(fix.target_bug_message)
                    self._audit_ground_truth(updated)
                    span.set(deployed=fix.description)
                    # Shards replay against the hive's new version from
                    # the next round on.
                    self.backend.publish(SyncDelta(hive_program=updated))

        self._roll_out()
        current = sum(1 for pod in self.pods
                      if pod.version == self.hive.program.version)
        stats = RoundStats(
            round_index=round_index,
            executions=config.executions_per_round,
            failures=failures,
            guided_executions=guided,
            hive_version=self.hive.program.version,
            pods_current=current,
            fixes_deployed_total=self.hive.stats.fixes_deployed,
            windowed_density=self.report.density.windowed_density(),
            proof_status=proof.status.value if proof else None,
            proof_coverage=proof.coverage if proof else 0.0,
        )
        self.report.rounds.append(stats)
        self.report.version_series.record(round_index,
                                          self.hive.program.version)
        self.report.total_executions += config.executions_per_round
        self.report.total_failures += failures

        invariant_result = None
        chaos_verdict = None
        if self.invariants is not None:
            invariant_result = self.invariants.check(self.hive,
                                                     self.report)
            if not invariant_result.ok:
                self.invariant_violations.append(
                    (round_index, invariant_result))
                self._tracer.event(
                    "invariant.violation", round=round_index,
                    invariants=[violation.name for violation
                                in invariant_result.violations])
            if self.chaos is not None:
                chaos_stats = self.chaos.finish_round(invariant_result.ok)
                chaos_verdict = chaos_stats.verdict
                if chaos_verdict == "failed":
                    # Black box: a failed chaos round (an invariant
                    # fired under faults) dumps the flight recorder
                    # into the snapshot.
                    self._record_flight_dump(
                        f"chaos round {round_index} failed")
            if not invariant_result.ok and chaos_verdict != "failed":
                self._record_flight_dump(
                    f"invariant violation at round {round_index}")
        if self.health is not None:
            self._observe_round_health(round_index, stats, failures,
                                       guided, invariant_result,
                                       chaos_verdict)

    # -- plumbing --------------------------------------------------------------

    def _observe_round_health(self, round_index: int, stats,
                              failures: int, guided: int,
                              invariant_result, chaos_verdict) -> None:
        """Feed one round's SLI samples and evidence (health on only)."""
        from repro.obs.health import TickEvidence
        user_executions = stats.executions - guided
        sample = {
            "round_failure_ratio": (failures / user_executions
                                    if user_executions else 0.0),
            "windowed_density": stats.windowed_density,
            "invariant_violations": (
                0.0 if invariant_result is None or invariant_result.ok
                else float(len(invariant_result.violations))),
        }
        sample.update(self._detection_sample(
            self.report.density.bugs_seen))
        chaos_events: List[Dict[str, object]] = []
        if chaos_verdict is not None:
            chaos_events.append({
                "kind": "chaos_round", "round": round_index,
                "profile": self.config.resolved_chaos_profile().name,
                "verdict": chaos_verdict})
        invariant_events: List[Dict[str, object]] = []
        if invariant_result is not None and not invariant_result.ok:
            invariant_events = [
                {"round": round_index, "name": violation.name}
                for violation in invariant_result.violations]
        self.health.observe(round_index, sample, TickEvidence(
            tick=round_index, chaos=chaos_events,
            invariants=invariant_events, stats=stats.as_dict()))

    def _attribute(self, record: RunRecord) -> Optional[str]:
        """Ground-truth attribution of a failing run (metrics only).

        The density ledger also counts failures no seeded bug explains,
        under their own failure message."""
        if not record.has_failure:
            return None
        bug = self._seeded_bug(record)
        return bug.message if bug is not None else record.failure_message

    def _record_flight_dump(self, reason: str) -> None:
        dump = self._tracer.flight_dump(reason)
        if dump is not None:
            self.flight_dumps.append(dump)

    def _account_wire(self, size: int, messages: int) -> None:
        """Account ``messages`` shipped entries (or chaos-wire frame
        transmissions) of ``size`` bytes in all."""
        self.report.wire_bytes += size
        self._obs_traces_shipped.inc(messages)
        self._obs_wire_bytes.inc(size)

    def _audit_ground_truth(self, fixed_program) -> None:
        """After a fix deploys, check which seeded bugs it actually
        exterminated (pure metrics: the hive never sees this).

        Concurrency and fault bugs are probed under a battery of
        schedules/faults; a bug counts as fixed when its signature
        never reappears.
        """
        from repro.progmodel.interpreter import (
            Environment, ExecutionLimits, FaultPlan,
        )
        from repro.sched.scheduler import RandomScheduler, RoundRobinScheduler

        limits = ExecutionLimits(max_steps=self.config.max_steps)
        for bug in self.scenario.bugs:
            if bug.message in self.report.density.bugs_fixed:
                continue
            if bug.message not in self.report.density.bugs_seen:
                continue
            inputs = bug.triggering_inputs(fixed_program.inputs)
            reproduced = False
            trials: List[Tuple] = []
            trials.append((RoundRobinScheduler(), FaultPlan()))
            for seed in range(12):
                trials.append((RandomScheduler(
                    rng=make_rng(self.config.seed, "audit", seed)),
                    FaultPlan()))
            if bug.needs_fault:
                for occurrence in range(3):
                    trials.append((RoundRobinScheduler(),
                                   FaultPlan(forced={occurrence: 0})))
            from repro.progmodel.interpreter import Interpreter
            for scheduler, fault_plan in trials:
                result = Interpreter(fixed_program, limits=limits).run(
                    inputs,
                    environment=Environment(fault_plan=fault_plan),
                    scheduler=scheduler)
                if (result.failure is not None
                        and bug.matches_result(result.outcome,
                                               result.failure.message,
                                               result.failure.block)):
                    reproduced = True
                    break
            if not reproduced:
                self.report.density.record_fix(bug.message)

    def _roll_out(self) -> None:
        """Stage the current hive version onto outdated pods.

        Coordinator pods always update (the report reads versions off
        them); the backend forwards the update to whichever shard owns
        each pod (a no-op for backends sharing the coordinator's pod
        objects — ``apply_update`` is version-guarded).
        """
        target = self.hive.program
        outdated = [index for index, pod in enumerate(self.pods)
                    if pod.version < target.version]
        if not outdated:
            return
        count = max(1, int(len(self.pods) * self.config.rollout_fraction))
        chosen = outdated[:count]
        for index in chosen:
            self.pods[index].apply_update(target)
        self.backend.publish(SyncDelta(rollout=(target, tuple(chosen))))
