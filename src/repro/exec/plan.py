"""Round planning: the coordinator's serialized slice of a round.

Determinism across execution backends hinges on one rule: **every
coordinator-side random draw happens at planning time, in the exact
order the serial loop historically made them**. Planning walks the
round's executions once, sampling the user population, choosing a pod,
popping a steering directive, and (when configured) drawing trace loss
— producing a :class:`RoundPlan` that any backend can execute in any
physical order while each pod still sees its own runs in sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.guidance.steering import SteeringDirective
from repro.progmodel.interpreter import slotted_dataclass

__all__ = ["PlannedRun", "RoundPlan", "WINDOWS", "partition_runs",
           "partition_windows"]

#: Windows per streamed round. A round whose results a sink ingests as
#: they arrive runs in this many consecutive slices of the plan,
#: ``ceil(len(runs) / WINDOWS)`` runs each by position (the last ones
#: may be short or empty), so the hive ingests window w while the
#: shards run w+1. A count rather than a size: every window costs each
#: worker one pipe send, so the per-round overhead stays fixed however
#: large the round grows (docs/PERFORMANCE.md).
WINDOWS = 8


@slotted_dataclass
class PlannedRun:
    """One execution, fully determined before any pod runs."""

    global_index: int                 # position within the round
    pod_index: int                    # which pod executes it
    inputs: Dict[str, int]
    directive: Optional[SteeringDirective] = None
    ship: bool = True                 # False = trace lost on the wire

    @property
    def guided(self) -> bool:
        return self.directive is not None


@dataclass
class RoundPlan:
    """Everything one round will execute, in global order."""

    round_index: int
    hive_version: int                 # version shards replay against
    runs: List[PlannedRun] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.runs)


def partition_runs(runs: Sequence[PlannedRun],
                   n_shards: int) -> List[List[PlannedRun]]:
    """Split a plan into per-shard run lists.

    Pods map to shards round-robin (``pod_index % n_shards``) so every
    pod belongs to exactly one shard — its runs stay sequential and its
    RNG stream is identical under every backend — and consecutive pod
    ids spread across workers for balance.
    """
    if n_shards <= 1:
        return [list(runs)]
    shards: List[List[PlannedRun]] = [[] for _ in range(n_shards)]
    for run in runs:
        shards[run.pod_index % n_shards].append(run)
    return shards


def partition_windows(runs: Sequence[PlannedRun], n_shards: int,
                      windows: int = WINDOWS,
                      ) -> List[List[List[PlannedRun]]]:
    """Split a plan into per-shard windows, ``[shard][window] -> runs``.

    Window ``w`` holds plan positions ``[w * size, (w + 1) * size)``
    with ``size = ceil(len(runs) / windows)``, partitioned across
    shards like :func:`partition_runs`. Every shard gets all
    ``windows`` windows, empty ones included, so window ``w`` is
    complete once each shard has reported it.
    """
    size = max(1, -(-len(runs) // windows))
    cuts = [partition_runs(runs[start:start + size], n_shards)
            for start in range(0, windows * size, size)]
    return [list(shard) for shard in zip(*cuts)]
