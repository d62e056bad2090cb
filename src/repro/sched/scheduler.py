"""Scheduler implementations.

All schedulers expose one method::

    pick(step: int, runnable: List[int]) -> int

``runnable`` is always non-empty and sorted by thread id; the returned
id must be a member. It is the interpreter's own list, handed over
without a copy, so a scheduler must not change it. Schedulers are
deliberately ignorant of program state — interleaving-dependent
behaviour (deadlocks) emerges from the program, not from scheduler
cleverness.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.errors import ScheduleError

__all__ = [
    "RoundRobinScheduler", "RandomScheduler", "FixedScheduler", "PCTScheduler",
    "PriorityScheduler",
]


class RoundRobinScheduler:
    """Cycles through runnable threads — the maximally fair baseline.

    Alternating at instruction granularity is also, conveniently, quite
    good at driving AB/BA lock patterns into actual deadlock.
    """

    def pick(self, step: int, runnable: List[int]) -> int:
        return runnable[step % len(runnable)]


class RandomScheduler:
    """Uniform random choice at every step (seeded).

    A pick draws what ``rng.choice(runnable)`` would, in one Python
    call: ``Random.choice`` takes ``Random._randbelow``, which draws
    ``k = n.bit_length()`` bits and redraws while the draw is ``>= n``.
    So the picks and the generator's state after them are the ones
    ``choice`` gives (the test suite checks this on every supported
    Python).
    """

    def __init__(self, rng: Optional[random.Random] = None, seed: int = 0):
        self._rng = rng if rng is not None else random.Random(seed)
        self._getrandbits = self._rng.getrandbits

    def pick(self, step: int, runnable: List[int]) -> int:
        n = len(runnable)
        k = n.bit_length()
        r = self._getrandbits(k)
        while r >= n:
            r = self._getrandbits(k)
        return runnable[r]


class FixedScheduler:
    """Follows a fixed pick sequence; falls back to round-robin when the
    sequence is exhausted or names a non-runnable thread.

    Used to re-drive a pod down a previously observed interleaving
    (execution guidance toward known-dangerous schedules).
    """

    def __init__(self, picks: Sequence[int], strict: bool = False):
        self._picks = list(picks)
        self._strict = strict
        self._index = 0

    def pick(self, step: int, runnable: List[int]) -> int:
        while self._index < len(self._picks):
            candidate = self._picks[self._index]
            self._index += 1
            if candidate in runnable:
                return candidate
            if self._strict:
                raise ScheduleError(
                    f"fixed schedule pick {candidate} not runnable")
        return runnable[step % len(runnable)]


class PriorityScheduler:
    """Strict fixed-priority scheduling with optional arrival times.

    The highest-priority runnable thread always runs (ties break toward
    the lowest thread id). A thread with an arrival step later than the
    current step is ineligible until then — this models work arriving at
    a busy system and is what exposes priority-inversion bugs: a
    low-priority thread takes a lock early, the high-priority thread
    arrives and blocks on it, and a middle-priority spinner starves the
    holder forever. When every runnable thread is still before its
    arrival, the rule is waived (someone must run).
    """

    def __init__(self, priorities: Optional[dict] = None,
                 arrivals: Optional[dict] = None):
        self._priority = dict(priorities or {})
        self._arrival = dict(arrivals or {})

    def pick(self, step: int, runnable: List[int]) -> int:
        eligible = [tid for tid in runnable
                    if self._arrival.get(tid, 0) <= step]
        if not eligible:
            eligible = runnable
        return max(eligible,
                   key=lambda tid: (self._priority.get(tid, 0), -tid))


class PCTScheduler:
    """Probabilistic Concurrency Testing (simplified Burckhardt et al.).

    Each thread gets a random priority; the highest-priority runnable
    thread always runs, except at ``depth - 1`` randomly chosen step
    indices ("change points") where the running thread's priority is
    demoted below all others. PCT finds depth-d concurrency bugs with
    provable probability; SoftBorg's guidance layer uses it to steer
    pods toward rare interleavings (paper Sec. 3.3).
    """

    def __init__(self, n_threads: int, depth: int = 2,
                 max_steps: int = 10_000,
                 rng: Optional[random.Random] = None, seed: int = 0):
        if n_threads < 1:
            raise ScheduleError("PCT needs at least one thread")
        if depth < 1:
            raise ScheduleError("PCT depth must be >= 1")
        self._rng = rng if rng is not None else random.Random(seed)
        priorities = list(range(depth, depth + n_threads))
        self._rng.shuffle(priorities)
        self._priority = {tid: priorities[tid] for tid in range(n_threads)}
        self._change_points = set(
            self._rng.randrange(max_steps) for _ in range(depth - 1))
        self._next_low = 0

    def pick(self, step: int, runnable: List[int]) -> int:
        best = max(runnable, key=lambda tid: self._priority.get(tid, 0))
        if step in self._change_points:
            self._next_low -= 1
            self._priority[best] = self._next_low
            best = max(runnable, key=lambda tid: self._priority.get(tid, 0))
        return best
