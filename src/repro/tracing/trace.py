"""The wire-format execution trace.

A :class:`Trace` is what a pod ships to the hive: the bit-vector of
input-dependent branch directions, syscall return values, the thread
schedule (run-length encoded), and the outcome label — exactly the
by-product set of paper Sec. 3.1. Everything else about the execution
(deterministic branches, lock events, visited blocks) is *reconstructed*
by hive-side replay, which is the paper's central cost-saving claim.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, repeat, starmap
from typing import Optional, Tuple

from repro.progmodel.interpreter import ExecutionResult, Outcome, ReplaySource

__all__ = ["Observation", "Trace"]

Site = Tuple[int, str, str]  # (thread, function, block)


@dataclass(frozen=True)
class Observation:
    """One sampled predicate observation: a branch site and the
    direction taken at one (sampled) dynamic occurrence."""

    site: Site
    taken: bool


@dataclass(frozen=True, init=False)
class Trace:
    """One execution's by-products, as shipped over the wire.

    ``replayable`` distinguishes full captures (bit-vectors that the
    hive can replay into complete paths) from sparse captures
    (``observations`` only — a *family* of paths, per Sec. 3.1).
    ``events_recorded`` is the capture-cost proxy used by the
    overhead experiments: the number of items the pod had to log.

    Every pod run builds one, so the constructor is written by hand:
    the generated one of a frozen dataclass makes one
    ``object.__setattr__`` call per field. It takes the same
    parameters, in field order, with the same defaults
    (``tests/test_records.py`` holds it to the generated one).
    """

    program_name: str
    program_version: int
    outcome: Outcome
    branch_bits: Tuple[bool, ...] = ()
    syscall_returns: Tuple[int, ...] = ()
    schedule_rle: Tuple[Tuple[int, int], ...] = ()
    observations: Tuple[Observation, ...] = ()
    replayable: bool = True
    steps: int = 0
    events_recorded: int = 0
    failure_message: Optional[str] = None
    failure_site: Optional[Site] = None
    pod_id: str = ""
    guided: bool = False

    def __init__(self, program_name: str, program_version: int,
                 outcome: Outcome,
                 branch_bits: Tuple[bool, ...] = (),
                 syscall_returns: Tuple[int, ...] = (),
                 schedule_rle: Tuple[Tuple[int, int], ...] = (),
                 observations: Tuple[Observation, ...] = (),
                 replayable: bool = True,
                 steps: int = 0,
                 events_recorded: int = 0,
                 failure_message: Optional[str] = None,
                 failure_site: Optional[Site] = None,
                 pod_id: str = "",
                 guided: bool = False) -> None:
        # Frozen: fill the instance dict directly, one store per field.
        fields = self.__dict__
        fields["program_name"] = program_name
        fields["program_version"] = program_version
        fields["outcome"] = outcome
        fields["branch_bits"] = branch_bits
        fields["syscall_returns"] = syscall_returns
        fields["schedule_rle"] = schedule_rle
        fields["observations"] = observations
        fields["replayable"] = replayable
        fields["steps"] = steps
        fields["events_recorded"] = events_recorded
        fields["failure_message"] = failure_message
        fields["failure_site"] = failure_site
        fields["pod_id"] = pod_id
        fields["guided"] = guided

    @property
    def is_failure(self) -> bool:
        return self.outcome.is_failure

    def schedule_picks(self) -> Tuple[int, ...]:
        picks = []
        for thread, length in self.schedule_rle:
            picks.extend([thread] * length)
        return tuple(picks)

    def replay_source(self) -> ReplaySource:
        """The recorded nondeterminism, ready to replay. The schedule
        expands one pick per step, so a trace claiming more picks than
        a replay can take costs no more than the replay; the expansion
        runs in C (``starmap`` of ``repeat`` over the run lengths)."""
        return ReplaySource(
            branch_bits=self.branch_bits,
            syscall_returns=self.syscall_returns,
            schedule_picks=chain.from_iterable(
                starmap(repeat, self.schedule_rle)))

    def with_pod(self, pod_id: str) -> "Trace":
        return replace(self, pod_id=pod_id)

    def cost(self) -> int:
        """Pod-side recording cost (items logged)."""
        return self.events_recorded


def schedule_rle(picks) -> Tuple[Tuple[int, int], ...]:
    """Run-length encode a pick sequence. Every pod capture walks one
    pick per step here, so the loop keeps the current run in locals."""
    encoded = []
    thread, length = None, 0
    for pick in picks:
        if pick == thread:
            length += 1
        else:
            if length:
                encoded.append((thread, length))
            thread, length = pick, 1
    if length:
        encoded.append((thread, length))
    return tuple(encoded)


def trace_from_result(result: ExecutionResult,
                      pod_id: str = "",
                      include_schedule: bool = True,
                      guided: bool = False) -> Trace:
    """Build the canonical full-capture trace from an execution. It
    reads the result's one-pass split (``_by_products``) directly: the
    public projections each copy their list."""
    split = result._by_products()
    bits = tuple(split[0])
    syscalls = tuple(split[5])
    rle = schedule_rle(split[6]) if include_schedule else ()
    failure = result.failure
    if failure is None:
        failure_message = failure_site = None
    else:
        failure_message = failure.message
        failure_site = (failure.thread, failure.function, failure.block)
    return Trace(result.program_name, result.program_version,
                 result.outcome, bits, syscalls, rle, (), True,
                 result.steps, len(bits) + len(syscalls) + len(rle),
                 failure_message, failure_site, pod_id, guided)
