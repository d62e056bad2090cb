"""Cross-backend byte-identity of the health plane.

The acceptance bar from the health-plane PR: at a fixed seed the
``health`` snapshot block — SLI summaries, alert states and ids,
incident timelines and their evidence — is byte-identical across the
serial and process backends, with and without chaos. A chaos
incident must also name the injected fault in its evidence.
"""

import json

import pytest

from repro.serve import Service, ServiceConfig
from repro.workloads.scenarios import crash_scenario

pytestmark = pytest.mark.slow

CHAOS_GRID = ("none", "lossy-workers")


def run_service(backend, chaos, **overrides):
    config = dict(ticks=40, seed=11, users=2000, enable_proofs=False,
                  chaos_profile=chaos)
    config.update(overrides)
    service = Service(crash_scenario(seed=config["seed"]),
                      ServiceConfig(backend=backend, **config))
    service.run()
    return service


def health_bytes(backend, chaos, **overrides):
    doc = run_service(backend, chaos, **overrides).snapshot()
    return json.dumps(doc["health"], sort_keys=True).encode()


class TestHealthDeterminism:
    @pytest.mark.parametrize("chaos", CHAOS_GRID)
    def test_serial_thread_process_health_identical(self, chaos):
        serial = health_bytes("serial", chaos)
        process = health_bytes("process", chaos, workers=2)
        assert serial == process

    def test_same_seed_reproduces(self):
        assert (health_bytes("serial", "lossy-workers")
                == health_bytes("serial", "lossy-workers"))

    def test_slo_override_is_backend_invariant(self):
        serial = health_bytes("serial", "none",
                              slo_overrides={"ingest-lag": 1.0})
        process = health_bytes("process", "none", workers=3,
                               slo_overrides={"ingest-lag": 1.0})
        assert serial == process

    def test_chaos_incident_names_injected_fault(self):
        service = run_service("serial", "lossy-workers")
        health = service.snapshot()["health"]
        assert health["incidents"], "chaos run opened no incident"
        kill_evidence = [
            event
            for incident in health["incidents"]
            for event in incident["evidence"]["chaos"]
            if event["kind"] == "pod_kill"
        ]
        assert kill_evidence, "no incident captured a pod kill"
        assert kill_evidence[0]["fault"] == "worker-death"
        assert kill_evidence[0]["profile"] == "lossy-workers"

    def test_incidents_open_and_close_under_chaos(self):
        service = run_service("serial", "lossy-workers")
        incidents = service.snapshot()["health"]["incidents"]
        closed = [i for i in incidents if not i["open"]]
        assert closed, "no incident resolved"
        for incident in closed:
            assert incident["resolution"]["duration_ticks"] >= 1
