"""Outcome labels and end-user feedback inference.

The paper (Sec. 3.1): "The outcome of an execution is either determined
by the pod explicitly (e.g., for crashes or deadlocks), or can reflect
feedback provided by the end-user directly (e.g., via forceful program
termination) or indirectly (e.g., an erratically jerked mouse suggests
a program is being unusually slow)."

The pod observes crashes/asserts/deadlocks directly from the runtime;
hangs are inferred from user behaviour. :func:`infer_feedback` models
a user who force-kills a program that exhausts its step budget.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import Optional

from repro.progmodel.interpreter import ExecutionResult, Outcome

__all__ = ["Outcome", "UserFeedback", "infer_feedback"]


class UserFeedback(Enum):
    """Signals a pod can read off the end-user, beyond the runtime."""

    NONE = "none"                  # nothing notable
    FORCED_KILL = "forced_kill"    # user terminated the program
    SLUGGISH = "sluggish"          # erratic interaction: program too slow


def infer_feedback(result: ExecutionResult,
                   rng: Optional[random.Random] = None,
                   kill_probability: float = 0.9,
                   sluggish_threshold_fraction: float = 0.8,
                   max_steps: Optional[int] = None) -> UserFeedback:
    """Infer user feedback for one execution.

    A HANG outcome means the step budget ran out — the modelled user
    force-kills such a program with ``kill_probability`` (some users
    just wait forever). An OK run that consumed more than
    ``sluggish_threshold_fraction`` of the budget registers as
    SLUGGISH: the user noticed slowness but the program finished.
    """
    if result.outcome is Outcome.HANG:
        rng = rng if rng is not None else random.Random(0)
        if rng.random() < kill_probability:
            return UserFeedback.FORCED_KILL
        return UserFeedback.SLUGGISH
    if (result.outcome is Outcome.OK and max_steps is not None
            and result.steps >= sluggish_threshold_fraction * max_steps):
        return UserFeedback.SLUGGISH
    return UserFeedback.NONE
