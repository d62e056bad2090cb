"""Chaos determinism grid: for every (seed, fault profile), the serial
and process backends must produce bit-identical reports, chaos
summaries, and hive state — and a fault-free plan must match the
serial no-chaos baseline (modulo wire framing)."""

import pytest

from repro import obs
from repro.chaos import FaultProfile
from repro.obs import Registry
from repro.platform import PlatformConfig, SoftBorgPlatform
from repro.workloads.scenarios import crash_scenario

pytestmark = pytest.mark.slow

BACKENDS = ("serial", "process")
PROFILES = ("lossy-workers", "flaky-hive")
SEEDS = (3, 11)

ROUNDS = 4
EXECUTIONS = 20


def _run(profile, seed, backend):
    previous = obs.set_registry(Registry())
    try:
        platform = SoftBorgPlatform(
            crash_scenario(seed=seed),
            PlatformConfig(
                rounds=ROUNDS, executions_per_round=EXECUTIONS,
                seed=seed, enable_proofs=False, backend=backend,
                workers=2, chaos_profile=profile))
        report = platform.run()
        fingerprint = {
            "report": report.as_dict(),
            "hive": platform.hive.stats.as_dict(),
            "paths": platform.hive.tree.canonical_paths(),
            "chaos": platform.chaos.summary()
            if platform.chaos is not None else None,
            "violations": len(platform.invariant_violations),
        }
        return platform, fingerprint
    finally:
        obs.set_registry(previous)


class TestCrossBackendBitIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("profile", PROFILES)
    def test_same_seed_same_faults_same_report(self, profile, seed):
        _baseline_platform, baseline = _run(profile, seed, "serial")
        for backend in BACKENDS[1:]:
            _platform, fingerprint = _run(profile, seed, backend)
            assert fingerprint == baseline, \
                f"{backend} diverged from serial under {profile}"

    def test_epoch_replay_composes_with_worker_death(self):
        # lossy-workers kills shards in rounds where fix deploys and
        # rollouts are also advancing the session epoch; the recovered
        # shards must replay to the published state, so every backend
        # still lands on the serial fingerprint — and the epoch itself
        # is plan-driven, hence backend-invariant.
        serial_p, baseline = _run("lossy-workers", 3, "serial")
        assert serial_p.backend.epoch > 0, \
            "workload published nothing; the replay path was not exercised"
        assert serial_p.chaos.summary()["worker_deaths"] > 0
        for backend in BACKENDS[1:]:
            platform, fingerprint = _run("lossy-workers", 3, backend)
            assert fingerprint == baseline
            assert platform.backend.epoch == serial_p.backend.epoch

    def test_repeat_run_is_identical(self):
        _p1, first = _run("lossy-workers", 3, "serial")
        _p2, second = _run("lossy-workers", 3, "serial")
        assert first == second

    def test_different_seeds_inject_different_faults(self):
        p1, _ = _run("lossy-workers", SEEDS[0], "serial")
        p2, _ = _run("lossy-workers", SEEDS[1], "serial")
        assert p1.chaos.summary()["rounds"] != \
            p2.chaos.summary()["rounds"]


class TestFaultFreeMatchesBaseline:
    def test_zero_rate_plan_matches_no_chaos_serial_run(self):
        # A non-noop profile whose round-platform fault rates are all
        # zero: the chaos wire path runs (re-framing, checksums, hive
        # replay) but injects nothing. Everything observable must match
        # the no-chaos baseline except wire accounting, which counts
        # per-frame batch headers instead of per-entry payloads.
        calm = FaultProfile(name="calm", clock_skew_max=0.1)
        _base_p, base = _run("none", 5, "serial")
        calm_p, faulted = _run(calm, 5, "serial")
        assert calm_p.chaos is not None
        base_report = dict(base["report"])
        calm_report = dict(faulted["report"])
        base_report.pop("wire_bytes")
        calm_report.pop("wire_bytes")
        assert calm_report == base_report
        assert faulted["hive"] == base["hive"]
        assert faulted["paths"] == base["paths"]
        for stats in calm_p.chaos.rounds:
            assert stats.verdict == "survived"
            assert stats.faults_injected == 0

    def test_none_profile_equals_default_config(self):
        _p1, explicit = _run("none", 7, "serial")
        previous = obs.set_registry(Registry())
        try:
            platform = SoftBorgPlatform(
                crash_scenario(seed=7),
                PlatformConfig(rounds=ROUNDS,
                               executions_per_round=EXECUTIONS,
                               seed=7, enable_proofs=False))
            report = platform.run()
        finally:
            obs.set_registry(previous)
        assert explicit["report"] == report.as_dict()
        assert explicit["chaos"] is None


class TestCrossBackendSpanDeterminism:
    """Content-derived span ids + canonical export order: the Chrome
    trace export must be byte-identical across backends at a fixed
    seed under a pinned clock."""

    def _chrome_export(self, backend, profile="none", seed=5):
        import json

        from repro.obs.export import chrome_trace
        from repro.obs.trace import FixedClock, Tracer, set_tracer

        previous_registry = obs.set_registry(Registry())
        previous_tracer = set_tracer(
            Tracer(enabled=True, clock=FixedClock(0.0)))
        try:
            platform = SoftBorgPlatform(
                crash_scenario(seed=seed),
                PlatformConfig(
                    rounds=ROUNDS, executions_per_round=EXECUTIONS,
                    seed=seed, enable_proofs=False, backend=backend,
                    workers=2, chaos_profile=profile))
            platform.run()
            tracer = obs.get_tracer()
            assert len(tracer.log) > 0
            return json.dumps(chrome_trace(tracer.log), sort_keys=True)
        finally:
            obs.set_registry(previous_registry)
            set_tracer(previous_tracer)

    def test_chrome_export_identical_across_backends(self):
        baseline = self._chrome_export("serial")
        for backend in BACKENDS[1:]:
            assert self._chrome_export(backend) == baseline, \
                f"{backend} span export diverged from serial"

    def test_chrome_export_identical_under_chaos(self):
        baseline = self._chrome_export("serial", profile="lossy-workers",
                                       seed=3)
        for backend in BACKENDS[1:]:
            exported = self._chrome_export(
                backend, profile="lossy-workers", seed=3)
            assert exported == baseline, \
                f"{backend} chaos span export diverged from serial"
