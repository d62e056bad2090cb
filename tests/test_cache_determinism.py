"""Cache determinism grid: with the collective constraint cache on,
the serial and process backends must converge to bit-identical
reports, hive state, cache contents, and solver accounting — including
under chaos fault profiles. Sharing is only legal because the merge
order is canonical; this grid is the proof."""

import pytest

from repro import obs
from repro.obs import Registry
from repro.platform import PlatformConfig, SoftBorgPlatform
from repro.workloads.scenarios import crash_scenario

pytestmark = pytest.mark.slow

BACKENDS = ("serial", "process")

ROUNDS = 4
EXECUTIONS = 20


def _run(backend, seed=3, mode="collective", profile="none"):
    previous = obs.set_registry(Registry())
    try:
        platform = SoftBorgPlatform(
            crash_scenario(seed=seed),
            PlatformConfig(
                rounds=ROUNDS, executions_per_round=EXECUTIONS,
                seed=seed, enable_proofs=False, backend=backend,
                workers=2, chaos_profile=profile, solver_cache=mode))
        report = platform.run()
        cache = platform.solver_cache
        fingerprint = {
            "report": report.as_dict(),
            "hive": platform.hive.stats.as_dict(),
            "paths": platform.hive.tree.canonical_paths(),
            "solver": platform.hive.solver_stats().as_dict(),
            "cache": cache.stats.as_dict() if cache else None,
            "entries": sorted((repr(key), repr(entry))
                              for key, entry in cache.entries())
            if cache else None,
            "chaos": platform.chaos.summary()
            if platform.chaos is not None else None,
        }
        return fingerprint
    finally:
        obs.set_registry(previous)


class TestCollectiveCacheBitIdentity:
    @pytest.mark.parametrize("mode", ("local", "collective"))
    def test_backends_agree_with_cache_enabled(self, mode):
        baseline = _run("serial", mode=mode)
        for backend in BACKENDS[1:]:
            assert _run(backend, mode=mode) == baseline, \
                f"{backend} diverged from serial with {mode} cache"

    @pytest.mark.parametrize("profile", ("lossy-workers", "flaky-hive"))
    def test_backends_agree_under_chaos(self, profile):
        baseline = _run("serial", profile=profile)
        for backend in BACKENDS[1:]:
            assert _run(backend, profile=profile) == baseline, \
                f"{backend} diverged from serial under {profile}" \
                f" with collective cache"

    def test_repeat_run_is_identical(self):
        assert _run("serial") == _run("serial")


class TestCacheNeverChangesVerdicts:
    """Recycling is an accelerator, not an oracle: everything the
    platform concludes (paths, bugs, fixes, report) must match the
    cache-off run — only the solver effort may differ."""

    @pytest.mark.parametrize("mode", ("local", "collective"))
    def test_conclusions_match_cache_off(self, mode):
        baseline = _run("serial", mode="none")
        cached = _run("serial", mode=mode)
        assert cached["report"] == baseline["report"]
        assert cached["hive"] == baseline["hive"]
        assert cached["paths"] == baseline["paths"]

    def test_collective_cache_actually_recycles(self):
        # Hits must happen even on this tiny scenario; the *savings*
        # claim (>= 30% fewer evaluations) lives in bench_e20, where
        # the corpus workload is large enough for probes to pay off.
        fingerprint = _run("serial", mode="collective")
        assert fingerprint["cache"]["hits"] > 0
        assert len(fingerprint["entries"]) > 0
