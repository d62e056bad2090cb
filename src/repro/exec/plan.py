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

__all__ = ["PlannedRun", "RoundPlan", "partition_runs"]


@dataclass
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
