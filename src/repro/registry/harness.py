"""Running registered bugs standalone and as hive workloads.

Two execution modes per bug, both deterministic at a fixed seed:

1. **Standalone** — every triggering test runs straight through the
   interpreter (:meth:`TriggeringTest.run`); this measures the
   *triggering-test reproduction rate*.
2. **Hive workload** — the same tests become
   :class:`~repro.guidance.steering.SteeringDirective` replay runs mixed
   with seeded background executions, streamed through an executor
   backend (serial/process) into a per-bug
   :class:`~repro.hive.hive.Hive` one window at a time
   (:func:`repro.loop.window_sink`); this measures *detection* (did any
   shipped run manifest the bug?) and *localization* (Ochiai rank of the
   true defect site in the merged tree).

Schedules the directive wire format cannot express (priority, plain
round-robin) are first recorded standalone with a pick-recording proxy
and replayed as fixed pick sequences — the interpreter is deterministic,
so the recording is exact.

Because the plan, the pod RNG streams, and the tree merge are all
backend-invariant, :func:`run_registry` yields byte-identical results
under every backend at a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.localize import localize_from_tree, rank_of_block
from repro.chaos.invariants import Invariants
from repro.exec.backends import make_backend
from repro.exec.plan import PlannedRun, RoundPlan
from repro.fixes.repairlab import RepairLab
from repro.fixes.validation import FixValidator, make_validation_suite
from repro.guidance.steering import SteeringDirective
from repro.hive.hive import Hive
from repro.loop import window_sink
from repro.pod.pod import Pod
from repro.progmodel.interpreter import ExecutionLimits, FaultPlan
from repro.registry.model import BugRegistry, RegisteredBug, TriggeringTest
from repro.rng import make_rng
from repro.tracing.capture import FullCapture

__all__ = ["RegistryRunConfig", "BugRunResult", "run_registry", "run_bug"]


@dataclass
class RegistryRunConfig:
    """Knobs for one registry evaluation pass."""

    seed: int = 0
    backend: str = "serial"
    workers: int = 0
    family: str = "all"
    #: Unguided background executions shipped alongside the directives.
    background_runs: int = 24
    pods: int = 2
    max_steps: int = 4000
    #: Push the known patch through RepairLab (the expensive part).
    validate_patches: bool = True


@dataclass
class BugRunResult:
    """Everything the scorecard needs about one registered bug."""

    ref: str
    family: str
    trigger_tests: int = 0
    trigger_reproduced: int = 0
    regression_tests: int = 0
    regression_passed: int = 0
    detected: bool = False
    runs_shipped: int = 0
    failures_observed: int = 0
    localization_rank: Optional[int] = None
    #: None when patch validation was skipped.
    patch_regressions: Optional[int] = None
    patch_trigger_pass: Optional[bool] = None
    repair_valid: Optional[bool] = None
    invariants_ok: bool = True

    @property
    def reproduction_rate(self) -> float:
        if not self.trigger_tests:
            return 0.0
        return self.trigger_reproduced / self.trigger_tests


class _RecordingScheduler:
    """Proxy that records the pick sequence an inner scheduler makes."""

    def __init__(self, inner):
        self._inner = inner
        self.picks: List[int] = []

    def pick(self, step: int, runnable: List[int]) -> int:
        tid = self._inner.pick(step, runnable)
        self.picks.append(tid)
        return tid


def _record_picks(bug: RegisteredBug,
                  test: TriggeringTest) -> Tuple[int, ...]:
    """The exact pick sequence this test takes, for wire replay."""
    recorder = _RecordingScheduler(test.build_scheduler())
    from repro.progmodel.interpreter import (
        Environment, ExecutionLimits, Interpreter,
    )
    environment = Environment(fault_plan=FaultPlan(dict(test.fault_plan))
                              if test.fault_plan else None)
    Interpreter(bug.program,
                limits=ExecutionLimits(max_steps=test.max_steps)).run(
        dict(test.inputs), environment=environment, scheduler=recorder)
    return tuple(recorder.picks)


def _directive_for(bug: RegisteredBug,
                   test: TriggeringTest) -> SteeringDirective:
    """A replay directive that re-drives this test through a pod."""
    picks = test.schedule_picks or _record_picks(bug, test)
    return SteeringDirective(
        kind="replay_schedule",
        inputs=dict(test.inputs),
        fault_plan=(FaultPlan(dict(test.fault_plan))
                    if test.fault_plan else None),
        schedule_picks=tuple(picks),
        reason=f"registry {test.test_id}")


def _bug_workload(bug: RegisteredBug, config: RegistryRunConfig,
                  limits: ExecutionLimits) -> Tuple[List[Pod], RoundPlan]:
    """The bug's hive workload: its pods, and one round of every test
    as a replay directive followed by the seeded background runs."""
    pods = [Pod(f"reg-{bug.ref.replace('/', '-')}-p{i}", bug.program,
                capture=FullCapture(), limits=limits, fault_rate=0.0,
                seed=config.seed + i)
            for i in range(max(1, config.pods))]
    runs: List[PlannedRun] = []
    for test in bug.tests:
        runs.append(PlannedRun(
            global_index=len(runs), pod_index=len(runs) % len(pods),
            inputs=dict(test.inputs), directive=_directive_for(bug, test)))
    rng = make_rng(config.seed, "registry", bug.ref)
    domains = sorted(bug.program.inputs.items())
    for _ in range(config.background_runs):
        vector = {name: rng.randint(lo, hi) for name, (lo, hi) in domains}
        runs.append(PlannedRun(
            global_index=len(runs), pod_index=len(runs) % len(pods),
            inputs=vector))
    return pods, RoundPlan(round_index=0, hive_version=bug.program.version,
                           runs=runs)


def run_bug(bug: RegisteredBug, config: RegistryRunConfig,
            invariants: Optional[Invariants] = None) -> BugRunResult:
    """Evaluate one registered bug standalone and as a hive workload."""
    out = BugRunResult(ref=bug.ref, family=bug.family)
    limits = ExecutionLimits(max_steps=config.max_steps)

    # 1. Standalone reproduction through the interpreter.
    for test in bug.tests:
        if test.is_trigger:
            out.trigger_tests += 1
            if test.reproduces(bug.program):
                out.trigger_reproduced += 1
        else:
            out.regression_tests += 1
            if test.passes(bug.program):
                out.regression_passed += 1

    # 2. Hive workload: directives + seeded background runs, each
    # window ingested as it arrives.
    pods, plan = _bug_workload(bug, config, limits)
    hive = Hive(bug.program, limits=limits, validate_fixes=False,
                enable_proofs=False)
    with make_backend(config.backend, pods, bug.program,
                      capture=FullCapture(), limits=limits,
                      workers=config.workers) as backend:
        shard_results = backend.run_round(plan, window_sink(hive))

    spec = bug.spec
    records = [record for shard in shard_results for record in shard.records]
    out.runs_shipped = len(records)
    out.failures_observed = sum(1 for r in records if r.has_failure)
    out.detected = any(
        spec.matches_result(r.outcome, r.failure_message, r.failure_block)
        for r in records)

    # 3. Localization against the merged collective tree.
    out.localization_rank = rank_of_block(
        localize_from_tree(hive.tree), *spec.defect_site)
    out.invariants_ok = (invariants or Invariants()).check(hive).ok

    # 4. Repair validity: the known patch through RepairLab.
    if config.validate_patches and bug.patch is not None:
        # Lost-wakeup patches are validated on round-robin cases only:
        # random schedules legitimately reorder the signal handshake, so
        # cross-run global comparisons there reject correct patches.
        seeds = 0 if bug.family == "wakeup" else 4
        suite = make_validation_suite(bug.program, schedule_seeds=seeds,
                                      with_faults=spec.needs_fault)
        lab = RepairLab(FixValidator(bug.program, limits=limits,
                                     suite=suite))
        ranked = lab.evaluate([bug.patch])
        out.patch_regressions = ranked[0].report.regressions
        patched = bug.patched_program()
        out.patch_trigger_pass = all(t.passes(patched) for t in bug.tests)
        out.repair_valid = (out.patch_regressions == 0
                            and out.patch_trigger_pass)
    return out


def run_registry(registry: BugRegistry,
                 config: Optional[RegistryRunConfig] = None,
                 ) -> List[BugRunResult]:
    """Evaluate every bug in ``config.family`` (deterministic order).

    Each bug gets a fresh :class:`Invariants` instance — the catalogue
    tracks counter monotonicity across checks, which only makes sense
    within one hive's lifetime.
    """
    config = config or RegistryRunConfig()
    return [run_bug(bug, config) for bug in registry.bugs(config.family)]
