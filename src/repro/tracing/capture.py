"""Capture policies: what a pod records, at what cost.

The paper discusses a spectrum (Sec. 3.1): record every branch, record
only input-dependent ("program-external") branches — which suffices
because the rest is deterministic — or sample sparsely in the CBI
style. Error-reporting systems like WER sit at the far end: nothing is
recorded unless the run fails, and then only a failure dump.

Each policy turns an :class:`ExecutionResult` into a :class:`Trace`
whose ``events_recorded`` reflects the pod-side logging cost, so the
cost/information trade-off is measurable (experiment E8).
"""

from __future__ import annotations

import dataclasses
import random
from typing import Optional

from repro.progmodel.interpreter import BranchEvent, ExecutionResult
from repro.tracing.sampling import sample_observations
from repro.tracing.trace import Trace, trace_from_result

__all__ = [
    "CapturePolicy", "FullCapture", "AllBranchCapture", "SampledCapture",
    "FailureDumpCapture",
]


class CapturePolicy:
    """Interface: turn one execution's events into a wire trace."""

    name = "abstract"
    _obs_handles = None

    def capture(self, result: ExecutionResult, pod_id: str = "",
                guided: bool = False) -> Trace:
        raise NotImplementedError

    def account(self, trace: Trace) -> Trace:
        """Fold one captured trace into the per-policy obs metrics.

        Handles resolve lazily on first use (policies predate the
        registry decision in some flows) and are cached per instance,
        so the steady-state cost is one counter add + one observe —
        or two no-ops when the registry is disabled.
        """
        handles = self._obs_handles
        if handles is None:
            from repro.obs import get_registry
            registry = get_registry()
            handles = self._obs_handles = (
                registry.counter(f"capture.{self.name}.traces"),
                registry.histogram(f"capture.{self.name}.events",
                                   unit="events"),
            )
        handles[0].inc()
        handles[1].observe(trace.events_recorded)
        return trace


class FullCapture(CapturePolicy):
    """Record one bit per input-dependent branch (the paper's default).

    Deterministic branches cost nothing: the hive reconstructs them by
    replay. This is the only *replayable* policy family.
    """

    name = "full"

    def __init__(self, include_schedule: bool = True):
        self._include_schedule = include_schedule

    def capture(self, result: ExecutionResult, pod_id: str = "",
                guided: bool = False) -> Trace:
        return self.account(trace_from_result(
            result, pod_id=pod_id,
            include_schedule=self._include_schedule, guided=guided))


class AllBranchCapture(CapturePolicy):
    """Record every branch, deterministic ones included.

    Produces the same replayable trace as :class:`FullCapture` but
    pays for every branch — the straw-man the paper's "only
    external-dependent branches" optimization is measured against.
    """

    name = "all_branches"

    def capture(self, result: ExecutionResult, pod_id: str = "",
                guided: bool = False) -> Trace:
        trace = trace_from_result(result, pod_id=pod_id, guided=guided)
        all_branches = sum(
            1 for e in result.events if isinstance(e, BranchEvent))
        extra = all_branches - len(trace.branch_bits)
        return self.account(dataclasses.replace(
            trace, events_recorded=trace.events_recorded + extra))


class SampledCapture(CapturePolicy):
    """CBI-style sparse sampling at 1/rate; not replayable.

    The trace carries explicit (site, direction) observations; outcome
    and failure dump are always included (failures are rare, so their
    cost is negligible amortized).
    """

    name = "sampled"

    def __init__(self, rate: int, rng: Optional[random.Random] = None,
                 seed: int = 0):
        if rate < 1:
            raise ValueError("sampling rate must be >= 1")
        self.rate = rate
        self._rng = rng if rng is not None else random.Random(seed)

    def capture(self, result: ExecutionResult, pod_id: str = "",
                guided: bool = False) -> Trace:
        observations = tuple(
            sample_observations(result, self.rate, self._rng))
        failure_message = result.failure.message if result.failure else None
        failure_site = None
        if result.failure is not None:
            failure_site = (result.failure.thread, result.failure.function,
                            result.failure.block)
        return self.account(Trace(
            program_name=result.program_name,
            program_version=result.program_version,
            outcome=result.outcome,
            observations=observations,
            replayable=False,
            steps=result.steps,
            events_recorded=len(observations),
            failure_message=failure_message,
            failure_site=failure_site,
            pod_id=pod_id,
            guided=guided,
        ))


class PrivacyTruncatedCapture(CapturePolicy):
    """Pod-side privacy: ship at most ``max_bits`` branch bits.

    The retained prefix bounds how precisely any single trace pins
    down the user's behaviour; the hive merges it as a path prefix
    (partial evidence) instead of a complete path.
    """

    name = "privacy_truncated"

    def __init__(self, max_bits: int, include_schedule: bool = True):
        if max_bits < 0:
            raise ValueError("max_bits must be >= 0")
        self.max_bits = max_bits
        self._include_schedule = include_schedule

    def capture(self, result: ExecutionResult, pod_id: str = "",
                guided: bool = False) -> Trace:
        from repro.tracing.privacy import truncate_trace
        trace = trace_from_result(
            result, pod_id=pod_id,
            include_schedule=self._include_schedule, guided=guided)
        return self.account(truncate_trace(trace, self.max_bits))


class FailureDumpCapture(CapturePolicy):
    """WER-style: report only failures, and only the dump (site +
    message). Successful runs cost (and contribute) nothing."""

    name = "failure_dump"

    def capture(self, result: ExecutionResult, pod_id: str = "",
                guided: bool = False) -> Trace:
        failure_message = result.failure.message if result.failure else None
        failure_site = None
        if result.failure is not None:
            failure_site = (result.failure.thread, result.failure.function,
                            result.failure.block)
        return self.account(Trace(
            program_name=result.program_name,
            program_version=result.program_version,
            outcome=result.outcome,
            replayable=False,
            steps=result.steps,
            events_recorded=2 if result.outcome.is_failure else 0,
            failure_message=failure_message,
            failure_site=failure_site,
            pod_id=pod_id,
            guided=guided,
        ))
