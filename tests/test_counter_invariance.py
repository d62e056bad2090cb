"""Counter metrics are backend-invariant (docs/PARALLEL.md).

A run that deploys and rolls out a fix, and a serve run that does the
same, must count every obs counter alike on the serial backend and on
two worker processes. The one physical exception is ``exec.batches``:
it counts the batches the coordinator receives, one per shard per
non-empty window, so it scales with the number of shards.
"""

import pytest

from repro import obs
from repro.obs import Registry
from repro.platform import PlatformConfig, SoftBorgPlatform
from repro.serve import Service, ServiceConfig
from repro.workloads.scenarios import (
    crash_scenario, deadlock_scenario, race_scenario, shortread_scenario,
)

SCENARIOS = {
    "crash": crash_scenario,
    "deadlock": deadlock_scenario,
    "shortread": shortread_scenario,
    "race": race_scenario,
}

#: Counters that legitimately depend on the number of shards.
PHYSICAL = {"exec.batches"}


def _counters(build):
    """The counters that building and running ``build()``'s loop add
    to a fresh registry, less PHYSICAL. Components resolve their
    metric handles when built, so the build runs under it too."""
    previous = obs.set_registry(Registry())
    try:
        build().run()
        counters = obs.get_registry().counters()
    finally:
        obs.set_registry(previous)
    return {name: value for name, value in counters.items()
            if name not in PHYSICAL}


def _platform_counters(backend, workers, scenario="crash", seed=2,
                       **overrides):
    # Proofs for the one-thread programs, as ``repro run`` does.
    config = dict(rounds=6, seed=seed, backend=backend, workers=workers,
                  enable_proofs=scenario in ("crash", "shortread"))
    config.update(overrides)
    return _counters(lambda: SoftBorgPlatform(
        SCENARIOS[scenario](seed=seed), PlatformConfig(**config)))


def _serve_counters(backend, workers):
    return _counters(lambda: Service(
        crash_scenario(seed=5),
        ServiceConfig(ticks=40, seed=5, users=5000, backend=backend,
                      workers=workers)))


class TestCounterInvariance:
    def test_fix_rollout_counts_once_per_pod_on_every_backend(self):
        serial = _platform_counters("serial", 0)
        # The run must deploy a fix and roll it out, or it shows nothing.
        assert serial["platform.fixes_deployed"] >= 1
        assert serial["pod.updates_applied"] >= 1
        assert _platform_counters("process", 2) == serial

    def test_serve_fix_counts_once_per_pod_on_every_backend(self):
        serial = _serve_counters("serial", 0)
        assert serial["pod.updates_applied"] >= 1
        assert _serve_counters("process", 2) == serial


@pytest.mark.slow
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("overrides", [
    {},
    {"guidance": True, "solver_cache": "collective"},
    {"chaos_profile": "lossy-workers"},
], ids=["plain", "guided-collective", "chaos"])
def test_counters_backend_invariant_grid(scenario, overrides):
    serial = _platform_counters("serial", 0, scenario, seed=3, rounds=5,
                                **overrides)
    process = _platform_counters("process", 2, scenario, seed=3, rounds=5,
                                 **overrides)
    assert process == serial
