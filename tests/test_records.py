"""Per-execution records and the draws and folds between rounds, each
held to the code it replaced.

* :class:`~repro.tracing.trace.Trace` has a hand-written constructor;
  it must match the one ``dataclass(frozen=True)`` generates.
* ``trace_from_result`` reads the result's one-pass split; it must
  build the trace the public projections built.
* ``UserPopulation`` draws by bisecting running sums; it must draw the
  user, and consume the stream, of the linear ``choice_weighted`` scan.
* ``BugDensityTracker`` keeps a deque and a running failure count; it
  must give the float the summed list gave.
* ``ZipfPopulation`` keeps no normalized copy of its table; its search
  must land where a search of the copy did.
* Float sums that feed a draw or a snapshot add left to right on every
  Python: the 60-weight Zipf vector below sums to 3.949708309160758
  that way, and to 3.9497083091607577 with the compensated ``sum()``
  of CPython 3.12+.
"""

from __future__ import annotations

import dataclasses
import inspect
import random
import sys
from bisect import bisect_left
from collections import Counter
from dataclasses import MISSING, fields, make_dataclass, replace

import pytest

from repro.exec.batch import BatchEntry, RunRecord
from repro.exec.plan import PlannedRun
from repro.floats import left_sum
from repro.metrics.bugdensity import BugDensityTracker
from repro.pod.pod import PodRun
from repro.progmodel.corpus import (
    make_crash_demo, make_deadlock_demo, make_race_demo,
)
from repro.progmodel.interpreter import (
    Environment, ExecutionResult, FailureInfo, Interpreter, Outcome,
)
from repro.rng import (
    choice_weighted, make_rng, running_sums, weighted_index,
)
from repro.sched.scheduler import RandomScheduler
from repro.tracing.encode import decode_trace, encode_trace
from repro.tracing.trace import Observation, Trace, schedule_rle, \
    trace_from_result
from repro.workloads.population import (
    UserPopulation, ZipfPopulation, _bisect_normalized,
)


# -- the trace's constructor --------------------------------------------------

def _generated(cls):
    """``cls``'s fields under the constructor ``dataclass(frozen=True)``
    generates: the reference the hand-written one must match."""
    spec = []
    for f in fields(cls):
        if f.default is MISSING:
            spec.append((f.name, f.type))
        else:
            spec.append((f.name, f.type, dataclasses.field(default=f.default)))
    return make_dataclass(cls.__name__, spec, frozen=True)


def _constructor_mismatches(cls):
    """How ``cls``'s constructor differs from the generated one:
    parameter names, order, kinds and defaults."""
    def shape(target):
        return [(p.name, p.kind, p.default)
                for p in inspect.signature(target).parameters.values()]
    ours, theirs = shape(cls), shape(_generated(cls))
    return [] if ours == theirs else [ours, theirs]


def _random_trace_args(rng: random.Random) -> tuple:
    failure = rng.random() < 0.5
    return (
        rng.choice(["crash", "race", "prog"]),
        rng.randrange(5),
        rng.choice(list(Outcome)),
        tuple(rng.random() < 0.5 for _ in range(rng.randrange(6))),
        tuple(rng.randrange(-3, 9) for _ in range(rng.randrange(4))),
        tuple((rng.randrange(3), rng.randrange(1, 9))
              for _ in range(rng.randrange(4))),
        tuple(Observation((rng.randrange(2), "main", "b"), rng.random() < 0.5)
              for _ in range(rng.randrange(3))),
        rng.random() < 0.8,
        rng.randrange(100),
        rng.randrange(20),
        "boom" if failure else None,
        (0, "main", "boom") if failure else None,
        rng.choice(["", "pod3"]),
        rng.random() < 0.3,
    )


class TestTraceConstructor:
    def test_signature_matches_the_generated_one(self):
        assert _constructor_mismatches(Trace) == []

    def test_a_field_missing_from_the_constructor_is_caught(self):
        @dataclasses.dataclass(frozen=True, init=False)
        class Extended(Trace):
            extra: int = 0
        assert _constructor_mismatches(Extended) != []

    def test_defaults_match(self):
        reference = _generated(Trace)
        ours = Trace("p", 1, Outcome.OK)
        theirs = reference("p", 1, Outcome.OK)
        assert [getattr(ours, f.name) for f in fields(Trace)] == \
            [getattr(theirs, f.name) for f in fields(Trace)]

    def test_fields_eq_hash_repr_and_replace_match(self):
        reference = _generated(Trace)
        rng = random.Random(24)
        names = [f.name for f in fields(Trace)]
        for _ in range(200):
            args = _random_trace_args(rng)
            ours, theirs = Trace(*args), reference(*args)
            by_keyword = Trace(**dict(zip(names, args)))
            assert [getattr(ours, n) for n in names] == list(args)
            assert [getattr(theirs, n) for n in names] == list(args)
            assert ours == by_keyword and hash(ours) == hash(by_keyword)
            assert hash(ours) == hash(theirs)
            assert repr(ours) == repr(theirs)
            changed = replace(ours, pod_id="elsewhere", steps=7)
            expected = replace(theirs, pod_id="elsewhere", steps=7)
            assert type(changed) is Trace
            assert [getattr(changed, n) for n in names] == \
                [getattr(expected, n) for n in names]
            # Every field takes part in ==, as in the generated class.
            other = _random_trace_args(rng)
            for index in range(len(names)):
                mixed = args[:index] + other[index:index + 1] \
                    + args[index + 1:]
                assert (Trace(*mixed) == ours) == \
                    (reference(*mixed) == theirs)

    def test_frozen_and_memos_stay_outside_the_fields(self):
        trace = Trace("p", 1, Outcome.CRASH, (True,), (), ((0, 2),),
                      steps=2, events_recorded=2, pod_id="pod1")
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.steps = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            del trace.pod_id
        twin = Trace("p", 1, Outcome.CRASH, (True,), (), ((0, 2),),
                     steps=2, events_recorded=2, pod_id="pod1")
        payload = encode_trace(trace)           # sets the prefix memo
        assert "_enc_prefix" in vars(trace)
        assert trace == twin and hash(trace) == hash(twin)
        assert repr(trace) == repr(twin)
        decoded = decode_trace(payload)
        assert decoded == trace and encode_trace(decoded) == payload


# -- capture ------------------------------------------------------------------

def _reference_trace_from_result(result: ExecutionResult, pod_id: str,
                                 include_schedule: bool,
                                 guided: bool) -> Trace:
    """The capture before it read the split directly: the public
    projections, and the generated constructor."""
    bits = tuple(result.branch_bits)
    syscalls = tuple(result.syscall_values)
    rle = schedule_rle(result.schedule_picks) if include_schedule else ()
    failure_message = result.failure.message if result.failure else None
    failure_site = None
    if result.failure is not None:
        failure_site = (result.failure.thread, result.failure.function,
                        result.failure.block)
    return _generated(Trace)(
        program_name=result.program_name,
        program_version=result.program_version,
        outcome=result.outcome,
        branch_bits=bits,
        syscall_returns=syscalls,
        schedule_rle=rle,
        replayable=True,
        steps=result.steps,
        events_recorded=len(bits) + len(syscalls) + len(rle),
        failure_message=failure_message,
        failure_site=failure_site,
        pod_id=pod_id,
        guided=guided,
    )


class TestCapture:
    def test_trace_from_result_matches_the_projections(self):
        names = [f.name for f in fields(Trace)]
        outcomes = Counter()
        for make in (make_crash_demo, make_race_demo, make_deadlock_demo):
            program = make().program
            rng = make_rng(24, "capture", program.name)
            for index in range(40):
                inputs = {name: rng.randint(lo, hi)
                          for name, (lo, hi) in program.inputs.items()}
                result = Interpreter(program).run(
                    inputs, environment=Environment(seed=index),
                    scheduler=RandomScheduler(seed=index))
                outcomes[result.outcome] += 1
                for include_schedule in (True, False):
                    ours = trace_from_result(result, "pod7",
                                             include_schedule, index % 2)
                    theirs = _reference_trace_from_result(
                        result, "pod7", include_schedule, index % 2)
                    assert [getattr(ours, n) for n in names] == \
                        [getattr(theirs, n) for n in names]
        assert len(outcomes) >= 2           # failures and passes both seen

    def test_empty_failure_message_is_kept(self):
        result = ExecutionResult(
            "p", 1, Outcome.CRASH, [], 0,
            FailureInfo(Outcome.CRASH, "", 0, "main", "b"))
        trace = trace_from_result(result)
        assert trace.failure_message == ""
        assert trace.failure_site == (0, "main", "b")


# -- records ------------------------------------------------------------------

class TestSlottedRecords:
    @pytest.mark.skipif(sys.version_info < (3, 10),
                        reason="slots=True needs Python 3.10")
    def test_per_run_records_have_no_instance_dict(self):
        for record in (RunRecord(1, False, True, Outcome.CRASH),
                       BatchEntry(1, b"x"),
                       PlannedRun(1, 0, {"x": 1}),
                       PodRun(None, None, None, False, 1, {})):
            assert not hasattr(record, "__dict__"), type(record)

    def test_positional_and_keyword_forms_agree(self):
        assert RunRecord(3, True, True, Outcome.CRASH, True, "m", "b") == \
            RunRecord(global_index=3, guided=True, failed=True,
                      outcome=Outcome.CRASH, has_failure=True,
                      failure_message="m", failure_block="b")
        assert BatchEntry(2, b"p") == BatchEntry(global_index=2,
                                                 payload=b"p")
        assert not BatchEntry(2, b"p").is_heartbeat
        assert PlannedRun(1, 2, {}, None, False) == PlannedRun(
            global_index=1, pod_index=2, inputs={}, ship=False)
        assert not PlannedRun(1, 2, {}).guided


# -- weighted draws -----------------------------------------------------------

def _reference_choice_index(rng: random.Random, weights) -> int:
    """``choice_weighted`` before it bisected: a total, then a linear
    scan. The total adds left to right, as ``sum()`` did before 3.12."""
    total = 0.0
    for weight in weights:
        total += weight
    if total <= 0.0:
        raise ValueError("weights must sum to a positive value")
    point = rng.random() * total
    acc = 0.0
    for index, weight in enumerate(weights):
        acc += weight
        if point < acc:
            return index
    return len(weights) - 1


class _FixedRandom:
    """An RNG stand-in whose ``random()`` returns preset values."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


def _random_weights(rng: random.Random):
    n = rng.randint(1, 80)
    style = rng.randrange(3)
    if style == 0:
        return [rng.random() for _ in range(n)]
    if style == 1:                      # zeros and repeats
        return [rng.choice([0.0, 0.5, 1.0, 1e-9]) for _ in range(n)]
    return [1.0 / (k + 1) ** rng.uniform(0.5, 2.0) for k in range(n)]


class TestWeightedDraws:
    def test_bisection_draws_the_scan_stream(self):
        meta = random.Random(2407)
        for seed in range(150):
            weights = _random_weights(meta)
            if left_sum(weights) <= 0.0:
                continue
            running = running_sums(weights)
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(100):
                assert weighted_index(ours, running) == \
                    _reference_choice_index(theirs, weights)
            assert ours.getstate() == theirs.getstate()

    def test_boundary_points_and_a_point_past_the_total(self):
        weights = [0.0, 0.25, 0.0, 0.5, 0.25, 0.0]
        running = running_sums(weights)
        total = running[-1]
        points = [value / total for value in running]
        points += [0.0, 0.999999999999, 1.0 - 2 ** -53, 1.0, 1.5]
        for point in points:
            assert weighted_index(_FixedRandom([point]), running) == \
                _reference_choice_index(_FixedRandom([point]), weights)
        assert weighted_index(_FixedRandom([1.5]), running) == \
            len(weights) - 1

    def test_choice_weighted_picks_the_same_items(self):
        items = list("abcdefg")
        meta = random.Random(11)
        for seed in range(40):
            weights = [meta.random() for _ in items]
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(50):
                assert choice_weighted(ours, items, weights) == \
                    items[_reference_choice_index(theirs, weights)]
        with pytest.raises(ValueError):
            running_sums([])
        with pytest.raises(ValueError):
            running_sums([0.0, 0.0])

    @pytest.mark.parametrize("zipf_s", [0.8, 1.1, 1.6])
    def test_population_draws_the_scan_stream(self, zipf_s):
        program = make_crash_demo().program
        for seed in range(5):
            population = UserPopulation(program, 60, volatility=0.5,
                                        zipf_s=zipf_s, seed=seed)
            weights = [1.0 / (k + 1) ** zipf_s for k in range(60)]
            mirror = random.Random()
            mirror.setstate(population._rng.getstate())
            for _ in range(300):
                user = population.sample_user()
                expected = population.users[
                    _reference_choice_index(mirror, weights)]
                assert user is expected
            assert population._rng.getstate() == mirror.getstate()


# -- the density window -------------------------------------------------------

class _ReferenceDensity:
    """The window before the deque: a list, ``pop(0)`` and ``sum()``."""

    def __init__(self, window: int):
        self.window = window
        self.flags = []

    def record(self, failed) -> float:
        self.flags.append(failed)
        if len(self.flags) > self.window:
            self.flags.pop(0)
        if not self.flags:
            return 0.0
        return 1000.0 * sum(self.flags) / len(self.flags)


class TestDensityWindow:
    @pytest.mark.parametrize("window", [0, 1, 3, 7, 200])
    def test_matches_the_summed_window(self, window):
        rng = random.Random(window)
        tracker = BugDensityTracker(window=window)
        reference = _ReferenceDensity(window)
        for step in range(1500):
            rate = 0.02 if step < 700 else 0.4
            failed = rng.random() < rate
            tracker.record_execution(failed, "bug" if failed else None)
            expected = reference.record(failed)
            assert tracker.windowed_density() == expected
            assert tracker.density_series.points[-1] == (step + 1.0,
                                                         expected)
        assert list(tracker._window_flags) == reference.flags


# -- the Zipf table -----------------------------------------------------------

class TestZipfTable:
    def _table(self, n_users: int, zipf_s: float):
        cumulative, total = [], 0.0
        for k in range(n_users):
            total += 1.0 / (k + 1) ** zipf_s
            cumulative.append(total)
        return cumulative, total

    @pytest.mark.parametrize("n_users,zipf_s", [(1, 1.1), (7, 0.9),
                                                 (5000, 1.1)])
    def test_search_matches_the_normalized_copy(self, n_users, zipf_s):
        cumulative, total = self._table(n_users, zipf_s)
        normalized = [value / total for value in cumulative]
        rng = random.Random(n_users)
        points = [rng.random() for _ in range(20_000)]
        points += normalized + [0.0]
        for value in normalized:
            points.append(value - 2 ** -53)
        for point in points:
            assert _bisect_normalized(cumulative, point, total) == \
                bisect_left(normalized, point)

    def test_population_keeps_one_table(self):
        program = make_crash_demo().program
        population = ZipfPopulation(program, 3000, seed=5)
        cumulative, total = self._table(3000, 1.1)
        assert population._cumulative == cumulative
        assert population._total == total
        normalized = [value / total for value in cumulative]
        mirror = random.Random()
        mirror.setstate(population._rng.getstate())
        for _ in range(500):
            user = population.sample_user()
            index = bisect_left(normalized, mirror.random())
            assert user.user_id == f"user{index:07d}"
            mirror.setstate(population._rng.getstate())


# -- left-to-right float sums ------------------------------------------------

#: The fleet population's Zipf weights (60 users, s = 1.1).
ZIPF_60 = [1.0 / (k + 1) ** 1.1 for k in range(60)]
#: Their sum, added left to right (every Python before 3.12 sums so).
LEFT_TOTAL = 3.949708309160758


class _Probe(float):
    """A ``random()`` value that records what it is scaled by."""

    def __new__(cls, value, seen):
        probe = super().__new__(cls, value)
        probe.seen = seen
        return probe

    def __mul__(self, other):
        self.seen.append(other)
        return float(self) * other


class _ProbeRandom:
    def __init__(self):
        self.seen = []

    def random(self):
        return _Probe(0.5, self.seen)


class TestLeftToRightSums:
    def test_the_reference_total(self):
        total = 0.0
        for weight in ZIPF_60:
            total += weight
        assert total == LEFT_TOTAL
        assert left_sum(ZIPF_60) == LEFT_TOTAL
        assert left_sum([]) == 0
        assert running_sums(ZIPF_60)[-1] == LEFT_TOTAL

    def test_draws_scale_by_the_left_total(self):
        probe = _ProbeRandom()
        weighted_index(probe, running_sums(ZIPF_60))
        choice_weighted(probe, list(range(60)), ZIPF_60)
        population = UserPopulation(make_crash_demo().program, 60, seed=1)
        population._rng = probe
        population.sample_user()
        assert probe.seen == [LEFT_TOTAL] * 3

    def test_cooperative_subtree_draw(self, monkeypatch):
        import repro.hive.cooperative as cooperative
        explorer = cooperative.CooperativeExploration(
            make_crash_demo().program,
            cooperative.CooperativeConfig(allocation="markowitz"))
        for index in range(60):
            task = explorer._new_task(((("site", index), True),), "explore")
            explorer._pending.append(task.task_id)
        monkeypatch.setattr(cooperative, "markowitz_weights",
                            lambda stats: list(ZIPF_60))
        probe = _ProbeRandom()
        explorer._rng = probe
        assert explorer._pick_pending() is not None
        assert probe.seen == [LEFT_TOTAL]

    def test_markowitz_weights_divide_by_the_left_total(self):
        from repro.hive.allocation import SubtreeStats, markowitz_weights
        stats = [SubtreeStats(key=index, samples=2, _mean=weight, _m2=1.0)
                 for index, weight in enumerate(ZIPF_60)]
        assert markowitz_weights(stats, exploration_floor=0.0) == \
            [1.0 * weight / LEFT_TOTAL for weight in ZIPF_60]

    def test_chaos_summary_backoff(self):
        from repro.chaos.coordinator import ChaosCoordinator, ChaosRoundStats
        from repro.chaos.plan import FaultPlan
        from repro.chaos.profiles import resolve_profile
        coordinator = ChaosCoordinator(
            FaultPlan(resolve_profile("lossy-workers"), seed=0), None)
        coordinator.rounds = [
            ChaosRoundStats(round_index=index, backoff_seconds=weight)
            for index, weight in enumerate(ZIPF_60)]
        assert coordinator.summary()["backoff_seconds"] == LEFT_TOTAL
