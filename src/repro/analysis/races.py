"""Data-race detection via the lockset algorithm (Eraser-style).

The paper's trace by-products include lock acquisitions and shared
state; interleavings "weave different executions out of otherwise
identical thread-level execution paths" and hide concurrency bugs.
This detector reconstructs shared-variable accesses from replayed
executions and maintains, per shared variable, the *candidate lockset*
— the intersection of lock sets held across all accesses. A variable
whose candidate set goes empty while being written by multiple threads
is racy: no single lock consistently protects it.

A race is a *pattern*, like a lock-order cycle: it can be diagnosed
from executions that exhibited no failure, and it is fixed by
synthesizing consistent locking
(:class:`repro.fixes.lockify.LockifyFix`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.progmodel.interpreter import ExecutionResult, GlobalEvent

__all__ = ["RaceReport", "RaceAnalyzer"]

AccessSite = Tuple[str, str]  # (function, block)


@dataclass
class RaceReport:
    """One racy shared variable and the evidence."""

    variable: str
    writer_threads: Tuple[int, ...]
    access_sites: Tuple[AccessSite, ...]
    unprotected_accesses: int

    @property
    def is_write_write(self) -> bool:
        return len(self.writer_threads) >= 2


class _VariableState:
    __slots__ = ("candidate", "threads", "writers", "sites", "accesses",
                 "virgin")

    def __init__(self):
        self.candidate: Optional[Set[str]] = None  # None = not yet accessed
        self.threads: Set[int] = set()
        self.writers: Set[int] = set()
        self.sites: Set[AccessSite] = set()
        self.accesses = 0
        self.virgin = True


class RaceAnalyzer:
    """Accumulates executions; reports lockset violations.

    Accesses before a second thread has touched the variable are
    exempt (the Eraser initialization-phase refinement): most shared
    data is initialized single-threaded without locks, and flagging
    that would drown the signal.
    """

    def __init__(self, ignore_prefix: str = "__"):
        # Synthesized infrastructure globals (recovery flags, gates)
        # are not user data; skip them.
        self._ignore_prefix = ignore_prefix
        self._variables: Dict[str, _VariableState] = defaultdict(
            _VariableState)
        self.executions_analyzed = 0

    def add_execution(self, result: ExecutionResult) -> None:
        self.executions_analyzed += 1
        shared_seen: Dict[str, Set[int]] = defaultdict(set)
        for event in result.global_events:
            if event.name.startswith(self._ignore_prefix):
                continue
            state = self._variables[event.name]
            state.accesses += 1
            state.threads.add(event.thread)
            state.sites.add((event.function, event.block))
            if event.op == "write":
                state.writers.add(event.thread)
            seen = shared_seen[event.name]
            seen.add(event.thread)
            # Initialization phase: only refine the lockset once the
            # variable is demonstrably shared within this execution.
            if len(seen) < 2 and state.virgin:
                continue
            state.virgin = False
            if state.candidate is None:
                state.candidate = set(event.held_locks)
            else:
                state.candidate.intersection_update(event.held_locks)

    def reports(self) -> List[RaceReport]:
        """Racy variables, most-written first."""
        found = []
        for name, state in sorted(self._variables.items()):
            if len(state.threads) < 2 or not state.writers:
                continue
            if state.candidate is None or state.candidate:
                continue  # some lock consistently protects it
            found.append(RaceReport(
                variable=name,
                writer_threads=tuple(sorted(state.writers)),
                access_sites=tuple(sorted(state.sites)),
                unprotected_accesses=state.accesses,
            ))
        found.sort(key=lambda r: (-len(r.writer_threads),
                                  -r.unprotected_accesses, r.variable))
        return found
