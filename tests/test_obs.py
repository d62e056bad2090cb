"""repro.obs: registry metrics, no-op mode, snapshot determinism."""

import json

import pytest

from repro import obs
from repro.errors import ConfigError
from repro.obs import Instrumented, Registry
from repro.obs.registry import (
    _NULL_COUNTER, _NULL_GAUGE, _NULL_HISTOGRAM, _NULL_TIMER,
)
from repro.platform import PlatformConfig, SoftBorgPlatform
from repro.workloads.scenarios import crash_scenario


@pytest.fixture()
def fresh_registry():
    """Install an isolated registry; restore the previous one after."""
    registry = Registry()
    previous = obs.set_registry(registry)
    yield registry
    obs.set_registry(previous)


class TestMetrics:
    def test_counter(self, fresh_registry):
        counter = fresh_registry.counter("x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        # Get-or-create: same handle for the same name.
        assert fresh_registry.counter("x") is counter

    def test_gauge(self, fresh_registry):
        gauge = fresh_registry.gauge("level")
        gauge.set(3.0)
        gauge.inc()
        gauge.dec(0.5)
        assert gauge.value == 3.5

    def test_histogram_aggregates_and_percentiles(self, fresh_registry):
        hist = fresh_registry.histogram("h", unit="steps")
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.count == 100
        assert hist.total == 5050.0
        assert hist.min == 1.0
        assert hist.max == 100.0
        assert hist.mean == 50.5
        assert hist.percentile(50) == pytest.approx(50.0, abs=1.0)
        assert hist.percentile(95) == pytest.approx(95.0, abs=1.0)
        entry = hist.as_dict()
        assert entry["unit"] == "steps"
        assert entry["count"] == 100

    def test_histogram_window_is_bounded(self, fresh_registry):
        hist = fresh_registry.histogram("w", window=8)
        for value in range(100):
            hist.observe(float(value))
        # Exact streaming aggregates, bounded percentile window.
        assert hist.count == 100
        assert hist.min == 0.0 and hist.max == 99.0
        assert len(hist._values) == 8
        assert hist.percentile(50) >= 90.0  # recent values only

    def test_histogram_as_dict_reports_window_after_wrap(
            self, fresh_registry):
        hist = fresh_registry.histogram("w2", window=8)
        for value in range(20):  # 20 > window: the ring has wrapped
            hist.observe(float(value))
        entry = hist.as_dict()
        assert entry["window"] == 8
        assert entry["window_count"] == 8    # full ring, not total count
        assert entry["count"] == 20          # lifetime count is exact
        # Before the wrap, window_count tracks the observations so far.
        young = fresh_registry.histogram("w3", window=8)
        young.observe(1.0)
        assert young.as_dict()["window_count"] == 1
        assert young.as_dict()["window"] == 8

    def test_span_with_injected_clock(self):
        ticks = iter([10.0, 10.25, 11.0, 11.5])
        registry = Registry(clock=lambda: next(ticks))
        timer = registry.timer("t")
        with timer.time():
            pass
        with timer.time():
            pass
        entry = timer.as_dict()
        assert entry["count"] == 2
        assert entry["sum"] == pytest.approx(0.75)
        assert entry["max"] == pytest.approx(0.5)

    def test_instrumented_mixin_namespaces(self, fresh_registry):
        class Widget(Instrumented):
            obs_namespace = "widget"

        widget = Widget()
        widget.obs_counter("spins").inc()
        assert fresh_registry.counter("widget.spins").value == 1
        assert widget.obs_name("spins") == "widget.spins"


class TestNoopMode:
    def test_disabled_registry_hands_out_shared_nulls(self):
        registry = Registry(enabled=False)
        assert registry.counter("a") is _NULL_COUNTER
        assert registry.gauge("b") is _NULL_GAUGE
        assert registry.histogram("c") is _NULL_HISTOGRAM
        assert registry.timer("d") is _NULL_TIMER

    def test_null_handles_record_nothing(self):
        registry = Registry(enabled=False)
        counter = registry.counter("a")
        counter.inc(100)
        hist = registry.histogram("h")
        hist.observe(5.0)
        with registry.timer("t").time():
            pass
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["histograms"] == {}
        assert snapshot["timers"] == {}

    def test_disable_enable_toggles_handle_creation(self, fresh_registry):
        obs.disable()
        try:
            assert obs.get_registry().counter("x") is _NULL_COUNTER
        finally:
            obs.enable()
        live = obs.get_registry().counter("x")
        assert live is not _NULL_COUNTER

    def test_platform_runs_clean_with_obs_disabled(self):
        registry = Registry(enabled=False)
        previous = obs.set_registry(registry)
        try:
            platform = SoftBorgPlatform(
                crash_scenario(seed=2),
                PlatformConfig(rounds=2, executions_per_round=10, seed=2))
            report = platform.run()
            assert report.total_executions == 20
            snap = platform.snapshot()
            assert snap["obs"]["counters"] == {}
        finally:
            obs.set_registry(previous)


class TestSnapshot:
    def _run_once(self) -> dict:
        registry = Registry()
        previous = obs.set_registry(registry)
        try:
            platform = SoftBorgPlatform(
                crash_scenario(seed=2),
                PlatformConfig(rounds=4, executions_per_round=20, seed=2))
            platform.run()
            return registry.snapshot()
        finally:
            obs.set_registry(previous)

    def test_snapshot_deterministic_under_fixed_seed(self):
        first = self._run_once()
        second = self._run_once()
        # Counters and value-histograms reproduce exactly; wall-clock
        # timers vary, so only their counts must agree.
        assert first["counters"] == second["counters"]
        assert first["gauges"] == second["gauges"]
        assert first["histograms"] == second["histograms"]
        assert ({k: v["count"] for k, v in first["timers"].items()}
                == {k: v["count"] for k, v in second["timers"].items()})

    def test_snapshot_covers_the_hot_path(self):
        snapshot = self._run_once()
        counters = snapshot["counters"]
        assert counters["hive.traces_ingested"] == 80
        assert counters["platform.executions"] == 80
        assert counters["pod.executions"] == 80
        for phase in ("replay", "analysis", "repair"):
            assert f"hive.phase.{phase}" in snapshot["timers"]
        assert snapshot["timers"]["platform.round"]["count"] == 4
        assert "p95" in snapshot["timers"]["platform.round"]

    def test_snapshot_is_json_and_name_sorted(self, fresh_registry):
        fresh_registry.counter("b").inc()
        fresh_registry.counter("a").inc()
        decoded = json.loads(fresh_registry.as_json())
        assert list(decoded["counters"]) == ["a", "b"]
        rendered = fresh_registry.render()
        assert "a" in rendered and "b" in rendered

    def test_platform_report_snapshot_includes_obs(self, fresh_registry):
        platform = SoftBorgPlatform(
            crash_scenario(seed=2),
            PlatformConfig(rounds=2, executions_per_round=10, seed=2))
        report = platform.run()
        doc = report.snapshot()
        assert doc["report"]["total_executions"] == 20
        assert doc["obs"]["counters"]["platform.executions"] == 20


class TestConfigSurface:
    def test_config_as_dict_round_trips_json(self):
        config = PlatformConfig(rounds=3, seed=7)
        entry = json.loads(json.dumps(config.as_dict()))
        assert entry["rounds"] == 3
        assert entry["seed"] == 7

    def test_nonpositive_round_knobs_rejected(self):
        with pytest.raises(ConfigError, match="rounds must be positive"):
            PlatformConfig(rounds=0).validate()
        with pytest.raises(ConfigError,
                           match="executions_per_round must be positive"):
            PlatformConfig(executions_per_round=-1).validate()
        with pytest.raises(ConfigError,
                           match="guided_per_round must be positive"):
            PlatformConfig(guided_per_round=0).validate()
        with pytest.raises(ConfigError, match="max_steps must be positive"):
            PlatformConfig(max_steps=0).validate()

    def test_historical_messages_preserved(self):
        from repro.netplatform import NetworkedConfig
        with pytest.raises(ConfigError, match="need at least one pod"):
            PlatformConfig(n_pods=0).validate()
        with pytest.raises(ConfigError,
                           match=r"rollout_fraction must be in \(0, 1\]"):
            PlatformConfig(rollout_fraction=0.0).validate()
        with pytest.raises(ConfigError,
                           match=r"trace_loss_rate must be in \[0, 1\)"):
            PlatformConfig(trace_loss_rate=1.0).validate()
        with pytest.raises(ConfigError, match="times must be positive"):
            NetworkedConfig(mean_think_time=0.0).validate()
        with pytest.raises(ConfigError,
                           match=r"loss_rate must be in \[0, 1\)"):
            NetworkedConfig(loss_rate=1.0).validate()

    def test_fleet_adopts_the_shared_surface(self, fresh_registry):
        from repro.fleet import Fleet
        fleet = Fleet([crash_scenario(seed=2)],
                      PlatformConfig(rounds=2, executions_per_round=10,
                                     enable_proofs=False, seed=5))
        assert fleet.seed == 5
        fleet.validate()
        report = fleet.run()
        doc = fleet.snapshot()
        assert doc["config"]["seed"] == 5
        assert doc["report"]["total_executions"] == 20
        assert doc["obs"]["counters"]["fleet.programs_run"] == 1
        assert report.as_dict()["programs"][0]["program_name"]

    def test_uniform_as_dict_on_stats(self):
        from repro.hive.hive import HiveStats
        from repro.platform import RoundStats
        stats = HiveStats(traces_ingested=3)
        assert stats.as_dict()["traces_ingested"] == 3
        round_stats = RoundStats(
            round_index=0, executions=10, failures=1,
            guided_executions=0, hive_version=1, pods_current=5,
            fixes_deployed_total=0, windowed_density=100.0)
        entry = round_stats.as_dict()
        assert entry["failures"] == 1
        assert entry["windowed_density"] == 100.0
