"""Networked (event-driven) platform tests."""

import pytest

from repro.errors import ConfigError
from repro.netplatform import NetworkedConfig, NetworkedPlatform
from repro.progmodel.interpreter import Interpreter, Outcome
from repro.workloads.scenarios import crash_scenario, race_scenario


def _run(loss=0.0, duration=300.0, seed=2, scenario=None,
         batch_max_traces=1):
    platform = NetworkedPlatform(
        scenario or crash_scenario(n_users=40, volatility=0.5, seed=seed),
        NetworkedConfig(n_pods=8, duration=duration, loss_rate=loss,
                        seed=seed, batch_max_traces=batch_max_traces))
    return platform, platform.run()


class TestNetworkedLoop:
    def test_loop_closes_on_clean_network(self):
        platform, report = _run()
        assert report.fixes
        assert report.fix_deployed_at is not None
        assert report.all_pods_current_at is not None
        assert report.all_pods_current_at >= report.fix_deployed_at
        # Fixed program is actually immune.
        bug = platform.scenario.bugs[0]
        result = Interpreter(platform.hive.program).run(
            bug.triggering_inputs(platform.hive.program.inputs))
        assert result.outcome is Outcome.OK

    def test_traces_travel_as_bytes(self):
        _platform, report = _run(duration=100.0)
        assert report.wire_bytes > 0
        assert report.traces_delivered > 0

    def test_reliable_delivery_under_loss(self):
        _platform, report = _run(loss=0.4)
        # Retransmission recovers nearly everything.
        assert report.traces_delivered >= report.executions * 0.9
        assert report.fixes

    def test_loss_delays_protection(self):
        _p1, clean = _run(loss=0.0)
        _p2, lossy = _run(loss=0.5)
        assert clean.all_pods_current_at is not None
        assert lossy.all_pods_current_at is not None
        assert clean.all_pods_current_at <= lossy.all_pods_current_at

    def test_no_failures_after_protection(self):
        _platform, report = _run(duration=400.0)
        assert report.all_pods_current_at is not None
        late_failures = [t for t in report.failure_times
                         if t > report.all_pods_current_at]
        assert late_failures == []

    def test_multithreaded_scenario(self):
        platform, report = _run(
            scenario=race_scenario(n_users=20, seed=4), seed=4,
            duration=400.0)
        assert report.failures > 0
        assert report.fixes
        assert "racy variable" in report.fixes[0]

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            NetworkedConfig(n_pods=0).validate()
        with pytest.raises(ConfigError):
            NetworkedConfig(mean_think_time=0).validate()
        with pytest.raises(ConfigError):
            NetworkedConfig(loss_rate=1.0).validate()
        with pytest.raises(ConfigError):
            NetworkedConfig(batch_max_traces=0).validate()
        with pytest.raises(ConfigError, match="max_steps must be positive"):
            NetworkedConfig(max_steps=0).validate()
        with pytest.raises(ConfigError):
            NetworkedConfig(duration=-1).validate()

    def test_batched_uplink_delivers_everything_for_less(self):
        _p1, legacy = _run(duration=150.0)
        _p2, batched = _run(duration=150.0, batch_max_traces=4)
        # Same executions either way (batching is transport-only) ...
        assert batched.executions == legacy.executions
        assert batched.traces_delivered == legacy.traces_delivered
        # ... the loop still closes (batching trades ingest latency,
        # not correctness) ...
        assert len(batched.fixes) == len(legacy.fixes)
        # ... but batch framing amortizes per-message overhead.
        assert batched.wire_bytes < legacy.wire_bytes

    def test_deterministic(self):
        _p1, a = _run(duration=150.0)
        _p2, b = _run(duration=150.0)
        assert a.executions == b.executions
        assert a.failures == b.failures
        assert a.fix_deployed_at == b.fix_deployed_at
        assert a.wire_bytes == b.wire_bytes
