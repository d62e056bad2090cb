"""Bug-density accounting (the paper's headline metric).

The paper's hypothesis: "the more a program is used, the more reliable
it should become [...] orders-of-magnitude reduction in the bug density
of popular software." We track the user-visible failure rate (failures
per 1000 executions) over cumulative usage, plus the ground-truth view:
how many distinct seeded bugs have manifested, been diagnosed, and been
neutralised by deployed fixes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional, Set

from repro.metrics.series import Series

__all__ = ["BugDensityTracker"]


@dataclass
class BugDensityTracker:
    """Streams per-execution outcomes; yields density series.

    The sliding window keeps its flags in a deque and its failure count
    running, so recording one execution costs O(1) however wide the
    window is."""

    window: int = 200
    executions: int = 0
    failures: int = 0
    _window_flags: Deque[bool] = field(default_factory=deque)
    _window_failures: int = 0
    density_series: Series = field(
        default_factory=lambda: Series("failures-per-1k"))
    bugs_seen: Set[str] = field(default_factory=set)
    bugs_fixed: Set[str] = field(default_factory=set)

    def record_execution(self, failed: bool,
                         bug_message: Optional[str] = None) -> None:
        self.executions += 1
        self.failures += int(failed)
        flags = self._window_flags
        flags.append(failed)
        self._window_failures += failed
        if len(flags) > self.window:
            self._window_failures -= flags.popleft()
        if failed and bug_message:
            self.bugs_seen.add(bug_message)
        self.density_series.record(self.executions,
                                   self.windowed_density())

    def record_fix(self, bug_message: Optional[str]) -> None:
        if bug_message:
            self.bugs_fixed.add(bug_message)

    def windowed_density(self) -> float:
        """Failures per 1000 executions over the sliding window."""
        if not self._window_flags:
            return 0.0
        return 1000.0 * self._window_failures / len(self._window_flags)

    def lifetime_density(self) -> float:
        if self.executions == 0:
            return 0.0
        return 1000.0 * self.failures / self.executions

    @property
    def open_bugs(self) -> Set[str]:
        return self.bugs_seen - self.bugs_fixed
