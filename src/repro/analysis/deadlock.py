"""Deadlock detection from lock-order by-products.

The hive replays traces into full executions, extracts lock events, and
maintains a lock-order graph: an edge A -> B means some thread acquired
B while holding A. A cycle in this graph is a deadlock *pattern* (the
condition the deadlock-immunity fix neutralises); an actual DEADLOCK
trace additionally pins down the participating acquisition sites.
This is the analysis behind the paper's deadlock example (Sec. 3) and
its reference [16] (Jula et al., "Deadlock Immunity").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.progmodel.interpreter import ExecutionResult, LockEvent, Outcome

__all__ = ["LockOrderGraph", "DeadlockAnalyzer", "DeadlockDiagnosis"]

AcquisitionSite = Tuple[str, str]  # (function, block)


@dataclass
class DeadlockDiagnosis:
    """A deadlock pattern: the lock cycle and where it is acquired."""

    cycle: Tuple[str, ...]                     # locks, in cycle order
    sites: Dict[str, List[AcquisitionSite]]    # lock -> acquiring sites
    observed_deadlocks: int = 0                # traces that actually hung

    @property
    def locks(self) -> Tuple[str, ...]:
        return tuple(sorted(set(self.cycle)))


class LockOrderGraph:
    """Directed graph over lock names with acquisition-site labels."""

    def __init__(self):
        self._edges: Dict[str, Set[str]] = {}
        self._edge_sites: Dict[Tuple[str, str], Set[AcquisitionSite]] = {}
        self._acquire_sites: Dict[str, Set[AcquisitionSite]] = {}

    def add_execution(self, lock_events: Sequence[LockEvent]) -> None:
        """Fold one execution's lock events into the graph.

        "request" events count like acquisitions for ordering purposes:
        a thread blocked requesting B while holding A has established
        the A->B order even though it never got B.
        """
        held: Dict[int, List[str]] = {}
        for event in lock_events:
            stack = held.setdefault(event.thread, [])
            if event.op in ("acquire", "request"):
                site = (event.function, event.block)
                self._acquire_sites.setdefault(event.lock_name, set()).add(site)
                for lower in stack:
                    if lower != event.lock_name:
                        self._edges.setdefault(lower, set()).add(event.lock_name)
                        self._edge_sites.setdefault(
                            (lower, event.lock_name), set()).add(site)
                if event.op == "acquire":
                    stack.append(event.lock_name)
            elif event.op == "release":
                if event.lock_name in stack:
                    stack.remove(event.lock_name)

    def edges(self) -> List[Tuple[str, str]]:
        return sorted((a, b) for a, targets in self._edges.items()
                      for b in targets)

    def cycles(self) -> List[Tuple[str, ...]]:
        """All elementary cycles, canonicalised (smallest lock first).

        Lock graphs are tiny (programs hold few locks), so a simple
        DFS enumeration is ample.
        """
        found: Set[Tuple[str, ...]] = set()
        nodes = sorted(self._edges)

        def dfs(start: str, node: str, path: List[str]) -> None:
            for nxt in sorted(self._edges.get(node, ())):
                if nxt == start and len(path) > 1:
                    found.add(_canonical(tuple(path)))
                elif nxt not in path and nxt > start:
                    # Only extend with nodes > start: each cycle is then
                    # discovered exactly once, rooted at its minimum.
                    dfs(start, nxt, path + [nxt])

        for node in nodes:
            dfs(node, node, [node])
        return sorted(found)

    def sites_for(self, lock: str) -> List[AcquisitionSite]:
        return sorted(self._acquire_sites.get(lock, ()))


def _canonical(cycle: Tuple[str, ...]) -> Tuple[str, ...]:
    pivot = cycle.index(min(cycle))
    return cycle[pivot:] + cycle[:pivot]


class DeadlockAnalyzer:
    """Accumulates executions; reports deadlock patterns."""

    def __init__(self):
        self.graph = LockOrderGraph()
        self._deadlock_count = 0

    def add_execution(self, result: ExecutionResult,
                      count: int = 1) -> None:
        """Fold ``count`` executions that share ``result``'s
        by-products: the lock graph's edge and site sets are
        idempotent and the deadlock count is linear, so this equals
        ``count`` calls."""
        self.graph.add_execution(result.lock_events)
        if result.outcome is Outcome.DEADLOCK:
            self._deadlock_count += count

    def diagnoses(self) -> List[DeadlockDiagnosis]:
        reports = []
        for cycle in self.graph.cycles():
            sites = {lock: self.graph.sites_for(lock) for lock in cycle}
            reports.append(DeadlockDiagnosis(
                cycle=cycle, sites=sites,
                observed_deadlocks=self._deadlock_count))
        return reports

    @property
    def observed_deadlocks(self) -> int:
        return self._deadlock_count
