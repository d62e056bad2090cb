"""repro.loop: the substrate and execute step shared by ``run`` and
``serve``."""

import pytest

from repro import obs
from repro.chaos import FaultProfile
from repro.errors import ConfigError
from repro.loop import ClosedLoop, LoopConfig
from repro.obs import Registry
from repro.obs.trace import Tracer, set_tracer
from repro.platform import PlatformConfig, SoftBorgPlatform
from repro.serve.service import Service, ServiceConfig
from repro.workloads.scenarios import crash_scenario


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = obs.set_registry(Registry())
    yield
    obs.set_registry(previous)


class TestLoopConfig:
    @pytest.mark.parametrize("knob, value", [
        ("max_steps", 0),
        ("workers", -1),
        ("solver_cache", "bogus"),
        ("backend", "bogus"),
        ("chaos_profile", "bogus"),
    ])
    def test_drivers_reject_bad_shared_knobs_alike(self, knob, value):
        messages = []
        for config_class in (PlatformConfig, ServiceConfig):
            with pytest.raises(ConfigError) as error:
                config_class(**{knob: value}).validate()
            messages.append(str(error.value))
        assert messages[0] == messages[1]

    def test_both_drivers_carry_every_shared_knob(self):
        shared = set(LoopConfig().as_dict())
        assert len(shared) == 13
        assert shared <= set(PlatformConfig().as_dict())
        assert shared <= set(ServiceConfig().as_dict())

    def test_serve_keeps_its_own_defaults(self):
        assert (PlatformConfig().health, PlatformConfig().enable_proofs) \
            == (False, True)
        assert (ServiceConfig().health, ServiceConfig().enable_proofs) \
            == (True, False)


def _platform(**overrides):
    return SoftBorgPlatform(
        crash_scenario(seed=2),
        PlatformConfig(n_pods=8, rounds=4, executions_per_round=30, seed=2,
                       backend="serial", **overrides))


def _service(**overrides):
    return Service(
        crash_scenario(seed=11),
        ServiceConfig(ticks=30, users=2000, seed=11, backend="serial",
                      **overrides))


class TestExecuteStep:
    @pytest.mark.parametrize("build, parent", [
        (_platform, "round"),
        (_service, "serve.tick"),
    ])
    def test_collective_cache_spans_under_each_iteration(self, build,
                                                         parent):
        tracer = Tracer(enabled=True)
        previous = set_tracer(tracer)
        try:
            # Proofs off: the hive's own solves would pre-empt the
            # facts the shards recycle, leaving nothing to merge back.
            driver = build(solver_cache="collective", enable_proofs=False)
            assert isinstance(driver, ClosedLoop)
            driver.run()
        finally:
            set_tracer(previous)
        by_id = {span.span_id: span for span in tracer.log.spans}
        for name in ("cache.redistribute", "cache.merge"):
            spans = [span for span in tracer.log.spans if span.name == name]
            assert spans, name
            assert {by_id[span.parent_id].name for span in spans} \
                == {parent}

    def test_chaos_returns_the_cache_delta_of_every_wave(self):
        # Every wave dies before reporting: no record or entry survives,
        # but each dispatch's cache export still comes back.
        hopeless = FaultProfile(
            name="hopeless", virtual_workers=2, worker_death_rate=1.0,
            retry_death_rate=1.0, max_retries=2)
        platform = _platform(solver_cache="collective",
                             chaos_profile=hopeless)
        assert platform.executor is platform.chaos
        delivered = []
        with platform.backend:
            results = platform.chaos.run_round(platform._plan_round(0),
                                               delivered.append)
        assert delivered == [results]
        assert all(not result.records and not result.batches
                   for result in results)
        deltas = [result.cache_delta for result in results]
        assert len(deltas) == 1 + hopeless.max_retries
        assert any(deltas)


class TestDetectionSlis:
    @pytest.mark.parametrize("build", [_platform, _service])
    def test_both_drivers_attribute_the_seeded_crash(self, build):
        driver = build(health=True)
        driver.run()
        series = driver.health.series
        assert [name for name in series if name.startswith("detect.")]
        assert series["family_detection_rate"].points[-1][1] == 1.0
