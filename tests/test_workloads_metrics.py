"""Workload population and metrics tests."""

import math

import pytest

from repro.errors import ConfigError
from repro.metrics.bugdensity import BugDensityTracker
from repro.metrics.report import format_float, render_table
from repro.metrics.series import Series, bounded_mean
from repro.progmodel.corpus import make_crash_demo
from repro.workloads.population import UserPopulation
from repro.workloads.scenarios import (
    crash_scenario, deadlock_scenario, mixed_corpus_scenario,
)


class TestPopulation:
    def test_population_is_deterministic(self):
        demo = make_crash_demo()
        a = UserPopulation(demo.program, 10, seed=4)
        b = UserPopulation(demo.program, 10, seed=4)
        assert [u.base_inputs for u in a.users] == \
            [u.base_inputs for u in b.users]
        assert [x[1] for x in a.executions(20)] == \
            [x[1] for x in b.executions(20)]

    def test_inputs_in_domain(self):
        demo = make_crash_demo()
        population = UserPopulation(demo.program, 20, volatility=0.9,
                                    seed=1)
        for _user, inputs in population.executions(100):
            for name, (lo, hi) in demo.program.inputs.items():
                assert lo <= inputs[name] <= hi

    def test_zipf_skew(self):
        demo = make_crash_demo()
        population = UserPopulation(demo.program, 50, seed=2)
        from collections import Counter
        counts = Counter(user.user_id
                         for user, _ in population.executions(2000))
        top = counts.most_common(1)[0][1]
        # The most active user dominates any mid-pack user.
        mid = counts.get("user00025", 0)
        assert top > 5 * max(1, mid)

    def test_low_volatility_repeats_base_inputs(self):
        demo = make_crash_demo()
        population = UserPopulation(demo.program, 5, volatility=0.0,
                                    seed=3)
        user = population.users[0]
        draws = {tuple(sorted(user.draw(demo.program,
                                        population._rng).items()))
                 for _ in range(10)}
        assert len(draws) == 1

    def test_validation(self):
        demo = make_crash_demo()
        with pytest.raises(ConfigError):
            UserPopulation(demo.program, 0)
        with pytest.raises(ConfigError):
            UserPopulation(demo.program, 5, volatility=2.0)


class TestScenarios:
    def test_canned_scenarios_build(self):
        for scenario in (crash_scenario(), deadlock_scenario()):
            assert scenario.bugs
            assert scenario.population.users

    def test_mixed_corpus(self):
        scenarios = mixed_corpus_scenario(n_programs=3, n_users=10)
        assert len(scenarios) == 3
        assert len({s.program.name for s in scenarios}) == 3


class TestSeries:
    def test_record_and_queries(self):
        series = Series("s")
        for x, y in ((0, 5.0), (1, 3.0), (2, 0.0)):
            series.record(x, y)
        assert len(series) == 3
        assert series.mean_y() == pytest.approx(8 / 3)
        assert series.max_y() == 5.0
        assert series.last() == (2.0, 0.0)
        assert series.first_x_where(lambda y: y == 0.0) == 2.0
        assert series.window_mean(2) == pytest.approx(1.5)

    def test_empty_series(self):
        series = Series("s")
        assert series.mean_y() == 0.0
        assert series.last() is None
        assert series.first_x_where(lambda y: True) is None

    def test_sums_add_left_to_right(self):
        """Every mean and sum adds left to right, so it is the same on
        every Python; the compensated ``sum()`` of 3.12+ differs on
        these values."""
        tenths = Series("s")
        for x in range(10):
            tenths.record(x, 0.1)
        assert tenths.mean_y() == 0.09999999999999999
        assert tenths.window_sum(10) == 0.9999999999999999
        assert tenths.rollup(10.0) == [{
            "start": 0.0, "end": 10.0, "count": 10.0,
            "sum": 0.9999999999999999, "mean": 0.09999999999999999,
            "min": 0.1, "max": 0.1}]
        # The clamp keeps a constant window's mean exact...
        assert tenths.window_mean(10) == 0.1
        # ...and a varied one's is the left-to-right mean.
        tenths.record(10, 0.2)
        assert tenths.window_mean(11) == 0.10909090909090909
        assert bounded_mean([0.1, 0.2, 0.3] * 3) == 0.20000000000000004
        assert math.fsum([0.1, 0.2, 0.3] * 3) / 9 == 0.2


class TestBugDensity:
    def test_windowed_density(self):
        tracker = BugDensityTracker(window=10)
        for _ in range(5):
            tracker.record_execution(False)
        tracker.record_execution(True, "bug:crash:x")
        assert tracker.windowed_density() == pytest.approx(1000 / 6)
        assert tracker.bugs_seen == {"bug:crash:x"}
        assert tracker.open_bugs == {"bug:crash:x"}

    def test_fix_closes_bug(self):
        tracker = BugDensityTracker()
        tracker.record_execution(True, "bug:crash:x")
        tracker.record_fix("bug:crash:x")
        assert tracker.open_bugs == set()

    def test_window_slides(self):
        tracker = BugDensityTracker(window=4)
        tracker.record_execution(True, "b")
        for _ in range(4):
            tracker.record_execution(False)
        assert tracker.windowed_density() == 0.0
        assert tracker.lifetime_density() == pytest.approx(200.0)


class TestReport:
    def test_render_table_aligns(self):
        table = render_table(["name", "value"],
                             [["alpha", 1.5], ["b", 22.25]],
                             title="T")
        lines = table.splitlines()
        # Layout: title, header, separator, then one line per row.
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", "+"}
        assert "alpha" in lines[3] and "1.50" in lines[3]
        assert "22.25" in lines[4]

    def test_format_float(self):
        assert format_float(1.234) == "1.23"
        assert format_float(12345.0) == "1.23e+04"
        assert format_float(0.0001) == "1.00e-04"
        assert format_float(float("nan")) == "n/a"
