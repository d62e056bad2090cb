"""Users and populations."""

from __future__ import annotations

import random
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.progmodel.ir import Program
from repro.rng import make_rng, running_sums, weighted_index

__all__ = ["User", "UserPopulation", "ZipfPopulation"]

InputVector = Dict[str, int]


@dataclass
class User:
    """One end-user: habitual inputs plus occasional exploration.

    ``base_inputs`` models the user's routine (same document, same
    settings); each run perturbs every coordinate independently with
    probability ``volatility`` to a fresh uniform value. Low volatility
    makes the population heavily skewed toward a few paths — the regime
    where collective aggregation matters most.
    """

    user_id: str
    base_inputs: InputVector
    volatility: float = 0.2

    def draw(self, program: Program, rng: random.Random) -> InputVector:
        inputs = {}
        for name, (lo, hi) in program.inputs.items():
            base = self.base_inputs.get(name, lo)
            if rng.random() < self.volatility:
                inputs[name] = rng.randint(lo, hi)
            else:
                inputs[name] = base
        return inputs


class UserPopulation:
    """A Zipf-skewed population of users of one program."""

    def __init__(self, program: Program, n_users: int,
                 volatility: float = 0.2, zipf_s: float = 1.1,
                 seed: int = 0):
        if n_users < 1:
            raise ConfigError("population needs at least one user")
        if not 0.0 <= volatility <= 1.0:
            raise ConfigError("volatility must be in [0, 1]")
        self.program = program
        self.n_users = n_users
        self._rng = make_rng(seed, "population", program.name)
        self.users: List[User] = []
        for index in range(n_users):
            base = {name: self._rng.randint(lo, hi)
                    for name, (lo, hi) in program.inputs.items()}
            self.users.append(User(
                user_id=f"user{index:05d}",
                base_inputs=base,
                volatility=volatility,
            ))
        # Zipf activity weights: user k runs the program ~ 1/(k+1)^s,
        # kept as running sums, so a draw is one bisection.
        self._running = running_sums(
            [1.0 / (k + 1) ** zipf_s for k in range(n_users)])

    def sample_user(self) -> User:
        return self.users[weighted_index(self._rng, self._running)]

    def sample_execution(self) -> Tuple[User, InputVector]:
        """One natural execution: an (active user, input vector) draw."""
        user = self.sample_user()
        return user, user.draw(self.program, self._rng)

    def executions(self, count: int) -> List[Tuple[User, InputVector]]:
        return [self.sample_execution() for _ in range(count)]


if sys.version_info >= (3, 10):
    def _bisect_normalized(cumulative: List[float], point: float,
                           total: float) -> int:
        """``bisect_left`` over ``value / total`` for each value of
        ``cumulative``, dividing only the values it probes."""
        return bisect_left(cumulative, point, key=total.__rtruediv__)
else:  # pragma: no cover - 3.9 has no ``key`` for bisect
    def _bisect_normalized(cumulative: List[float], point: float,
                           total: float) -> int:
        lo, hi = 0, len(cumulative)
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] / total < point:
                lo = mid + 1
            else:
                hi = mid
        return lo


class ZipfPopulation:
    """A Zipf-skewed population that never materializes its users.

    :class:`UserPopulation` builds every :class:`User` up front —
    perfect for fifty, hopeless for the million-user fleets service
    mode simulates. This variant derives each user on demand:

    * a user's habitual inputs are a pure function of
      ``make_rng(seed, "user", index)``, so user #734188 is identical
      whether it is the first or the billionth one touched;
    * Zipf sampling inverts the cumulative weight table with
      ``bisect`` — O(log n) per draw over a float table built once
      (the only O(n) cost, one float per user); the table keeps the
      running sums, and each probe divides by the total, exactly as a
      normalized copy would hold it;
    * constructed users are memoized up to ``memo_cap`` entries (the
      hot head of a Zipf distribution is tiny; the cold tail is cheap
      to rebuild), so memory tracks *active* users, not population.

    Sampling statistics match the eager class in shape, not in exact
    stream: the two classes draw from their RNGs in different orders,
    so they are separate, individually deterministic populations.
    """

    def __init__(self, program: Program, n_users: int,
                 volatility: float = 0.2, zipf_s: float = 1.1,
                 seed: int = 0, memo_cap: int = 4096):
        if n_users < 1:
            raise ConfigError("population needs at least one user")
        if not 0.0 <= volatility <= 1.0:
            raise ConfigError("volatility must be in [0, 1]")
        self.program = program
        self.n_users = n_users
        self.volatility = volatility
        self.seed = seed
        self.memo_cap = memo_cap
        self._rng = make_rng(seed, "population", program.name)
        # Cumulative Zipf weights; a draw normalizes the ones it probes.
        cumulative: List[float] = []
        total = 0.0
        for k in range(n_users):
            total += 1.0 / (k + 1) ** zipf_s
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total
        self._memo: Dict[int, User] = {}

    def user(self, index: int) -> User:
        """User #``index``, derived (or recalled) on demand."""
        cached = self._memo.get(index)
        if cached is not None:
            return cached
        rng = make_rng(self.seed, "user", index)
        base = {name: rng.randint(lo, hi)
                for name, (lo, hi) in self.program.inputs.items()}
        user = User(user_id=f"user{index:07d}", base_inputs=base,
                    volatility=self.volatility)
        if len(self._memo) >= self.memo_cap:
            # Evict the oldest insertion (dicts preserve order): the
            # Zipf head re-enters immediately, the tail stays cold.
            self._memo.pop(next(iter(self._memo)))
        self._memo[index] = user
        return user

    def sample_user(self) -> User:
        point = self._rng.random()
        return self.user(_bisect_normalized(self._cumulative, point,
                                            self._total))

    def sample_execution(self) -> Tuple[User, InputVector]:
        """One natural execution: an (active user, input vector) draw."""
        user = self.sample_user()
        return user, user.draw(self.program, self._rng)

    def executions(self, count: int) -> List[Tuple[User, InputVector]]:
        return [self.sample_execution() for _ in range(count)]
