"""Algebraic invariants of the health plane, checked by hypothesis.

Three properties the alerting math stands on:

* **rollup partitions** — every retained series point lands in exactly
  one tumbling bucket (nothing dropped, nothing double-counted);
* **burn-rate scale-invariance** — ``burn(values, k * budget) ==
  burn(values, budget) / k``, so rescaling an objective rescales every
  rule threshold consistently;
* **no flapping on constant input** — a constant SLI makes at most one
  alert transition, whatever the rule; alerting is monotone in the
  evidence, never oscillating on a steady signal.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics.series import Series
from repro.obs.health import (
    ALERT_FIRING, AlertRule, HealthPlane, SloSpec, burn_rate,
)

finite_values = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)
ratios = st.floats(min_value=0.0, max_value=1.0)


class TestRollupPartition:
    @given(
        ys=st.lists(finite_values, min_size=1, max_size=60),
        bucket_width=st.one_of(
            st.integers(1, 20).map(float),
            st.floats(min_value=0.25, max_value=20.0,
                      allow_nan=False, allow_infinity=False)),
        max_points=st.one_of(st.none(), st.integers(1, 40)),
    )
    @settings(max_examples=200)
    def test_every_point_in_exactly_one_bucket(self, ys, bucket_width,
                                               max_points):
        series = Series("s", max_points=max_points)
        for tick, y in enumerate(ys):
            series.record(tick, y)
        rows = series.rollup(bucket_width)
        # Nothing dropped, nothing double-counted.
        assert sum(int(row["count"]) for row in rows) == len(series)
        # And each retained point's x belongs to exactly one emitted
        # bucket interval [start, end).
        for x, _y in series.points:
            homes = [row for row in rows
                     if row["start"] <= x < row["end"]]
            assert len(homes) == 1

    @given(ys=st.lists(finite_values, min_size=1, max_size=40))
    @settings(max_examples=100)
    def test_buckets_ascend_and_conserve_sum(self, ys):
        series = Series("s")
        for tick, y in enumerate(ys):
            series.record(tick, y)
        rows = series.rollup(4.0)
        starts = [row["start"] for row in rows]
        assert starts == sorted(starts)
        assert sum(row["sum"] for row in rows) == pytest.approx(
            sum(series.ys()), rel=1e-9, abs=1e-9)


class TestBurnRateScaleInvariance:
    @given(
        values=st.lists(ratios, min_size=1, max_size=32),
        budget=st.floats(min_value=1e-6, max_value=1.0),
        k=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=200)
    def test_scaling_budget_divides_burn(self, values, budget, k):
        base = burn_rate(values, budget)
        scaled = burn_rate(values, k * budget)
        assert scaled == pytest.approx(base / k, rel=1e-9, abs=1e-12)

    @given(values=st.lists(ratios, min_size=1, max_size=32),
           budget=st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=100)
    def test_burn_nonnegative_and_finite_for_positive_budget(
            self, values, budget):
        burn = burn_rate(values, budget)
        assert burn >= 0.0
        assert math.isfinite(burn)


constant_rules = st.builds(
    AlertRule,
    kind=st.sampled_from(["threshold", "burn_rate"]),
    window_ticks=st.integers(1, 12),
    threshold=st.floats(min_value=0.1, max_value=10.0),
    min_samples=st.integers(1, 6),
).filter(lambda rule: rule.min_samples <= 64)


class TestNoFlappingOnConstantInput:
    @given(
        rule=constant_rules,
        short=st.integers(0, 12),
        objective=st.floats(min_value=0.05, max_value=0.95),
        value=ratios,
        direction=st.sampled_from(["upper", "lower"]),
        ticks=st.integers(2, 64),
    )
    @settings(max_examples=200)
    # A float sum of four 0.05s lands one ulp past 0.05: an unclamped
    # window mean fired at tick 2 and cleared at tick 3.
    @example(rule=AlertRule(kind="threshold", window_ticks=4), short=0,
             objective=0.05, value=0.05, direction="upper", ticks=4)
    def test_constant_series_transitions_at_most_once(
            self, rule, short, objective, value, direction, ticks):
        rule = AlertRule(kind=rule.kind,
                         window_ticks=rule.window_ticks,
                         threshold=rule.threshold,
                         short_window_ticks=min(short,
                                                rule.window_ticks),
                         min_samples=rule.min_samples)
        slo = SloSpec(name="s", sli="v", objective=objective,
                      direction=direction, rules=(rule,))
        plane = HealthPlane([slo])
        for tick in range(ticks):
            plane.observe(tick, {"v": value})
        state = plane.states[0]
        # Monotone: a steady signal either never fires or fires once
        # and stays firing — no ok -> firing -> ok oscillation.
        assert len(state.transitions) <= 1
        assert state.fires <= 1
        if state.transitions:
            assert state.transitions[0]["to"] == ALERT_FIRING
            assert state.state == ALERT_FIRING

    @given(objective=st.floats(min_value=0.0, max_value=1.0,
                               exclude_min=True, exclude_max=True),
           direction=st.sampled_from(["upper", "lower"]),
           ticks=st.integers(2, 40))
    @settings(max_examples=100)
    def test_constant_at_objective_never_fires_threshold(
            self, objective, direction, ticks):
        # Strict comparison: exactly-at-bound is healthy, so pinning
        # the SLI to the objective can never fire (either direction).
        # The windowed mean of n copies is the objective exactly, for
        # any float: the mean is clamped into the window's range.
        slo = SloSpec(name="s", sli="v", objective=objective,
                      direction=direction,
                      rules=(AlertRule(window_ticks=4),))
        plane = HealthPlane([slo])
        for tick in range(ticks):
            plane.observe(tick, {"v": objective})
        assert plane.states[0].fires == 0
