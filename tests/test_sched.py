"""Scheduler and schedule-encoding tests."""

import random

import pytest

from repro.errors import ScheduleError
from repro.sched.schedule import Schedule
from repro.sched.scheduler import (
    FixedScheduler, PCTScheduler, RandomScheduler, RoundRobinScheduler,
)


class TestSchedule:
    def test_rle_roundtrip(self):
        schedule = Schedule.from_picks([0, 0, 1, 1, 1, 0, 2])
        assert Schedule.from_signature(schedule.signature()) == schedule

    def test_context_switches(self):
        assert Schedule.from_picks([0, 0, 1, 0]).context_switches() == 2
        assert Schedule.from_picks([0, 0, 0]).context_switches() == 0
        assert Schedule.from_picks([]).context_switches() == 0

    def test_signature_compresses(self):
        schedule = Schedule.from_picks([0] * 100 + [1] * 100)
        assert schedule.signature() == ((0, 100), (1, 100))


class TestSchedulers:
    def test_round_robin_cycles(self):
        sched = RoundRobinScheduler()
        picks = [sched.pick(step, [0, 1, 2]) for step in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_random_is_seeded(self):
        a = [RandomScheduler(seed=5).pick(i, [0, 1, 2]) for i in range(20)]
        b = [RandomScheduler(seed=5).pick(i, [0, 1, 2]) for i in range(20)]
        assert a == b

    def test_random_picks_are_members(self):
        sched = RandomScheduler(seed=1)
        for step in range(50):
            assert sched.pick(step, [3, 5]) in (3, 5)

    @pytest.mark.parametrize("size", range(1, 10))
    def test_random_draws_the_stream_choice_draws(self, size):
        """``pick`` draws from ``getrandbits`` directly; it must pick
        what ``Random.choice`` picks and leave the generator in the
        same state, on every supported Python."""
        runnable = list(range(10, 10 + size))
        for seed in range(300):
            rng, reference = random.Random(seed), random.Random(seed)
            sched = RandomScheduler(rng=rng)
            picks = [sched.pick(step, runnable) for step in range(200)]
            assert picks == [reference.choice(runnable) for _ in range(200)]
            assert rng.getstate() == reference.getstate()

    def test_fixed_follows_sequence(self):
        sched = FixedScheduler([1, 0, 1])
        assert [sched.pick(i, [0, 1]) for i in range(3)] == [1, 0, 1]

    def test_fixed_falls_back_to_round_robin(self):
        sched = FixedScheduler([1])
        assert sched.pick(0, [0, 1]) == 1
        assert sched.pick(1, [0, 1]) == 1  # rr over index 1
        assert sched.pick(2, [0, 1]) == 0

    def test_fixed_skips_nonrunnable(self):
        sched = FixedScheduler([2, 0])
        assert sched.pick(0, [0, 1]) == 0  # 2 skipped

    def test_fixed_strict_raises(self):
        sched = FixedScheduler([2], strict=True)
        with pytest.raises(ScheduleError):
            sched.pick(0, [0, 1])

    def test_pct_always_picks_runnable(self):
        sched = PCTScheduler(n_threads=3, depth=3, seed=9)
        for step in range(200):
            assert sched.pick(step, [0, 2]) in (0, 2)

    def test_pct_depth_one_is_strict_priority(self):
        sched = PCTScheduler(n_threads=2, depth=1, seed=0)
        picks = {sched.pick(step, [0, 1]) for step in range(50)}
        assert len(picks) == 1  # no change points -> one thread dominates

    def test_pct_validates_args(self):
        with pytest.raises(ScheduleError):
            PCTScheduler(n_threads=0)
        with pytest.raises(ScheduleError):
            PCTScheduler(n_threads=2, depth=0)

    def test_pct_different_seeds_differ(self):
        orders = set()
        for seed in range(10):
            sched = PCTScheduler(n_threads=4, depth=2, seed=seed)
            orders.add(tuple(sched.pick(i, [0, 1, 2, 3]) for i in range(5)))
        assert len(orders) > 1
