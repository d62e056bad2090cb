"""Self-tests of the benchmark, at the workloads' small size.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, layers, workloads  # noqa: E402
from perfbench.layers import LayerMissing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _no_observability():
    from repro import obs
    obs.disable()
    obs.reset()
    yield
    obs.enable()


def _workload(name):
    return workloads.WORKLOADS[name]


def test_fleet_report_identical_on_serial_and_process():
    serial = harness.run_episode(_workload("fleet"), 3, small=True,
                                 backend="serial")
    process = harness.run_episode(_workload("fleet"), 3, small=True,
                                  backend="process")
    assert serial.errors == [] and process.errors == []
    assert serial.digest == process.digest


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_reproduces_report_and_another_seed_changes_inputs(name):
    workload = _workload(name)
    first = harness.run_episode(workload, 5, small=True, backend="serial")
    again = harness.run_episode(workload, 5, small=True, backend="serial")
    assert first.errors == []
    assert first.digest == again.digest
    assert (workloads.inputs_digest(workload.build(5, True, "serial"))
            != workloads.inputs_digest(workload.build(6, True, "serial")))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_benchmark_metric_is_reported_with_its_unit(name, tmp_path):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, lines = harness.run_benchmark(name, 2, 0, trace, tmp_path,
                                              small=True)
        assert result["correct"], lines
        assert result["attempted"] > 0 and result["failed"] == 0
        expected = {metric["name"]: metric["unit"] for metric in SPEC[key]}
        assert {name: metric["unit"]
                for name, metric in result["metrics"].items()} == expected
        for metric, unit in expected.items():
            assert f"{metric} = " in "\n".join(lines)
            if key == "end_to_end":
                assert result["metrics"][metric]["value"] > 0, metric
    assert (tmp_path / f"{name}-seed2.trace.json").is_file()


def test_layer_rows_plus_unattributed_equal_traced_wall(tmp_path):
    log = layers.SpanLog()
    traced = harness.run_episode(_workload("serve"), 4, small=True,
                                 log=log, keep=True)
    self_time, unattributed = layers.layer_budget(log, traced.wall_s)
    assert sum(self_time.values()) + unattributed == pytest.approx(
        traced.wall_s, abs=1e-9)
    assert 0 <= unattributed < traced.wall_s
    layers.write_chrome_trace(tmp_path / "t.json", log, traced.origin, "t")
    events = json.loads((tmp_path / "t.json").read_text())["traceEvents"]
    assert len(events) == len(log) + 1
    assert {event["cat"] for event in events[1:]} >= {"pod", "hive", "serve"}


def test_missing_entry_point_fails_loudly():
    with pytest.raises(LayerMissing):
        layers.resolve("repro.hive.hive:Hive.no_such_entry_point")
    with pytest.raises(LayerMissing):
        layers.resolve("repro.tracing.encode:no_such_function")


def test_silent_heavy_layer_fails_loudly(tmp_path):
    # Fleet never touches the serve layer: claiming it must raise, not
    # report serve.* as zeros.
    claimed = dataclasses.replace(_workload("fleet"), heavy=("serve",))
    log = layers.SpanLog()
    traced = harness.run_episode(claimed, 1, small=True, log=log, keep=True,
                                 backend="serial")
    with pytest.raises(LayerMissing, match="serve"):
        harness.per_layer(claimed, 1, traced, log, traced.wall_s, tmp_path)


def test_wrappers_are_removed_after_an_episode():
    from repro.hive.hive import Hive
    from repro.pod.pod import Pod
    before = (Hive.ingest_batch, Pod.execute)
    harness.run_episode(_workload("repair"), 1, small=True,
                        log=layers.SpanLog())
    assert (Hive.ingest_batch, Pod.execute) == before


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
