"""Pod implementation."""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.guidance.steering import SteeringDirective
from repro.obs import Instrumented
from repro.progmodel.interpreter import (
    Environment, ExecutionLimits, ExecutionResult, Interpreter, Outcome,
    slotted_dataclass,
)
from repro.progmodel.ir import Program
from repro.rng import make_rng
from repro.sched.scheduler import PCTScheduler, RandomScheduler
from repro.tracing.capture import CapturePolicy, FullCapture
from repro.tracing.outcome import UserFeedback, infer_feedback
from repro.tracing.trace import Trace

__all__ = ["Pod", "PodRun"]


@slotted_dataclass
class PodRun:
    """Everything one pod execution produced. ``inputs`` are the inputs
    it ran on: a directive's, clamped to the domains, when it had some."""

    result: ExecutionResult
    trace: Trace
    feedback: UserFeedback
    guided: bool
    program_version: int
    inputs: Dict[str, int]


class Pod(Instrumented):
    """One installed instance of the program, plus its recorder."""

    obs_namespace = "pod"

    def __init__(self, pod_id: str, program: Program,
                 capture: Optional[CapturePolicy] = None,
                 limits: Optional[ExecutionLimits] = None,
                 fault_rate: float = 0.0,
                 seed: int = 0):
        self.pod_id = pod_id
        self.program = program
        self.capture = capture or FullCapture()
        self.limits = limits or ExecutionLimits()
        self.fault_rate = fault_rate
        self.seed = seed
        self._rng = make_rng(seed, "pod", pod_id)
        self.runs = 0
        self.failures_experienced = 0
        self.updates_applied = 0
        # Pod metrics aggregate across the whole fleet of pods: one
        # shared handle per name, resolved once per pod.
        self._obs_execute = self.obs_timer("execute")
        self._obs_executions = self.obs_counter("executions")
        self._obs_failures = self.obs_counter("failures")
        self._obs_steps = self.obs_histogram("steps", unit="steps")
        self._obs_events = self.obs_histogram("events_recorded",
                                              unit="events")
        self._obs_updates = self.obs_counter("updates_applied")

    @property
    def version(self) -> int:
        return self.program.version

    def apply_update(self, program: Program) -> None:
        """Install a fixed program version shipped by the hive."""
        if program.version > self.program.version:
            self.program = program
            self.updates_applied += 1
            self._obs_updates.inc()

    def execute(self, inputs: Dict[str, int],
                directive: Optional[SteeringDirective] = None) -> PodRun:
        """Run the program once: naturally, or under a directive."""
        guided = directive is not None
        if guided and directive.inputs is not None:
            inputs = self._clamp_inputs(directive.inputs)

        fault_plan = None
        if guided and directive.fault_plan is not None:
            fault_plan = directive.fault_plan
        # The pod draws a seed for each generator a run may need, in a
        # fixed order, but builds a generator only where a draw can
        # happen: seeding one costs more than a short run.
        environment = Environment(
            seed=self._rng.getrandbits(64),
            fault_rate=0.0 if fault_plan else self.fault_rate,
            fault_plan=fault_plan,
        )

        if guided and directive.schedule_picks is not None:
            # Re-drive the program down a previously observed dangerous
            # interleaving (best effort: the pick sequence is followed
            # while it stays runnable, then falls back to round-robin).
            from repro.sched.scheduler import FixedScheduler
            scheduler = FixedScheduler(list(directive.schedule_picks))
        elif guided and directive.pct_seed is not None:
            # PCT's change points must land within the actual execution
            # length; a few passes over the program is a good horizon.
            horizon = min(self.limits.max_steps,
                          8 * self.program.instruction_count())
            scheduler = PCTScheduler(
                n_threads=len(self.program.threads), depth=3,
                max_steps=horizon, seed=directive.pct_seed)
        else:
            seed = self._rng.getrandbits(64)
            # A one-thread program has exactly one schedule.
            scheduler = (RandomScheduler(seed=seed)
                         if len(self.program.threads) > 1 else None)

        with self._obs_execute.time():
            result = Interpreter(self.program, limits=self.limits).run(
                inputs, environment=environment, scheduler=scheduler)
            trace = self.capture.capture(result, pod_id=self.pod_id,
                                         guided=guided)
        seed = self._rng.getrandbits(64)
        feedback = infer_feedback(
            result, max_steps=self.limits.max_steps,
            rng=random.Random(seed) if result.outcome is Outcome.HANG else None)
        self.runs += 1
        self._obs_executions.inc()
        self._obs_steps.observe(result.steps)
        self._obs_events.observe(trace.events_recorded)
        if result.outcome.is_failure:
            self.failures_experienced += 1
            self._obs_failures.inc()
        # Positional fields (result, trace, feedback, guided,
        # program_version, inputs): one per run.
        return PodRun(result, trace, feedback, guided, self.program.version,
                      inputs)

    # -- helpers ----------------------------------------------------------------

    def _clamp_inputs(self, inputs: Dict[str, int]) -> Dict[str, int]:
        """Directives may come from an engine run against an older
        version; clamp to the current version's declared domains and
        fill any missing inputs with domain minima."""
        clamped = {}
        for name, (lo, hi) in self.program.inputs.items():
            value = inputs.get(name, lo)
            clamped[name] = min(hi, max(lo, value))
        return clamped
