"""Cross-backend determinism of the continuous service.

The acceptance bar for ``repro serve``: the JSON snapshot — fleet
history, scaling trajectory, pump counters, hive stats, per-tick
rows — is a pure function of (config, seed), so the serial and process
backends must produce byte-identical documents.
"""

import json

import pytest

from repro.serve import Service, ServiceConfig
from repro.workloads.scenarios import crash_scenario

pytestmark = pytest.mark.slow


def snapshot_bytes(backend, **overrides):
    config = dict(ticks=40, seed=11, users=2000, enable_proofs=False)
    config.update(overrides)
    service = Service(crash_scenario(seed=config["seed"]),
                      ServiceConfig(backend=backend, **config))
    service.run()
    doc = service.snapshot()
    # The substrate identity is the one legitimate difference; blank it
    # so the comparison covers everything that must not vary.
    doc["config"]["backend"] = "normalized"
    doc["config"]["workers"] = 0
    doc["execution"]["backend_workers"] = 0
    return json.dumps(doc, sort_keys=True).encode()


class TestServeDeterminism:
    def test_serial_thread_process_snapshots_identical(self):
        serial = snapshot_bytes("serial")
        process = snapshot_bytes("process", workers=2)
        assert serial == process

    def test_same_seed_same_backend_reproduces(self):
        assert snapshot_bytes("serial") == snapshot_bytes("serial")

    def test_different_seed_differs(self):
        assert snapshot_bytes("serial") != snapshot_bytes("serial",
                                                          seed=12)

    def test_chaos_run_is_backend_invariant(self):
        serial = snapshot_bytes("serial", chaos_profile="lossy-workers",
                                seed=7)
        process = snapshot_bytes("process", chaos_profile="lossy-workers",
                                 seed=7, workers=4)
        assert serial == process

    def test_collective_cache_run_is_backend_invariant(self):
        serial = snapshot_bytes("serial", solver_cache="collective")
        process = snapshot_bytes("process", solver_cache="collective",
                                 workers=3)
        assert serial == process
