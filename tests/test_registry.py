"""The named bug registry: triggering tests, known patches, scorecards.

One test per bug family checks the registry contract end to end: every
triggering test fails on the buggy program exactly as declared, passes
under the known patch, and the whole scorecard is bit-identical across
serial/process backends at a fixed seed.
"""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.metrics.scorecard import (
    SCORECARD_SCHEMA_VERSION, build_scorecard,
)
from repro.registry import (
    FAMILIES, BugRegistry, RegistryRunConfig, build_registry,
    run_registry,
)

SEED = 0
BACKENDS = ("serial", "process")


@pytest.fixture(scope="module")
def registry() -> BugRegistry:
    return build_registry(seed=SEED)


@pytest.fixture(scope="module")
def serial_results(registry):
    """One full serial evaluation, patches validated (shared: this is
    the expensive fixture every scorecard assertion reads from)."""
    return run_registry(registry, RegistryRunConfig(
        seed=SEED, backend="serial", background_runs=8))


class TestPerFamilyContract:
    """Satellite: one test per new family (plus the legacy three)."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_triggering_tests_reproduce_and_patch_passes(self, registry,
                                                         family):
        bugs = registry.bugs(family)
        assert bugs, f"no registered bugs for family {family!r}"
        for bug in bugs:
            patched = bug.patched_program()
            assert bug.trigger_tests, f"{bug.ref} has no trigger test"
            for test in bug.trigger_tests:
                assert test.reproduces(bug.program), \
                    f"{bug.ref}:{test.test_id} does not reproduce"
                assert test.passes(patched), \
                    f"{bug.ref}:{test.test_id} still fails when patched"
            for test in bug.passing_tests:
                assert test.passes(bug.program), \
                    f"{bug.ref}:{test.test_id} fails on the buggy program"
                assert test.passes(patched), \
                    f"{bug.ref}:{test.test_id} regressed under the patch"

    @pytest.mark.parametrize("family", FAMILIES)
    def test_verify_is_all_green(self, registry, family):
        for bug in registry.bugs(family):
            verdicts = bug.verify()
            assert verdicts and all(verdicts.values()), \
                f"{bug.ref}: {[k for k, v in verdicts.items() if not v]}"

    def test_refs_are_stable_and_well_formed(self, registry):
        refs = registry.refs()
        assert refs == sorted(refs, key=refs.index)  # insertion order
        for bug in registry:
            family, _, tail = bug.ref.partition("/")
            assert family == bug.family
            code, _, number = tail.partition("-")
            assert code.isalpha() and number.isdigit()

    def test_every_family_has_demo_and_generated_entry(self, registry):
        assert registry.families() == list(FAMILIES)
        for family in FAMILIES:
            assert len(registry.bugs(family)) >= 2

    def test_modified_function_metadata_names_real_functions(self,
                                                            registry):
        for bug in registry:
            assert bug.modified_functions
            for name in bug.modified_functions:
                assert name in bug.program.functions


class TestScorecard:

    def test_every_family_scores_nonzero_detection(self, serial_results):
        card = build_scorecard(serial_results, seed=SEED,
                               backend="serial")
        assert set(card.families) == set(FAMILIES)
        for family, score in card.families.items():
            assert score.detection_rate > 0, family
            assert score.reproduction_rate == 1.0, family
            assert score.repair_validity == 1.0, family
            assert score.invariants_ok == score.bugs, family

    def test_scorecard_json_shape(self, serial_results):
        doc = build_scorecard(serial_results, seed=SEED,
                              backend="serial").as_dict()
        assert doc["schema_version"] == SCORECARD_SCHEMA_VERSION
        assert doc["seed"] == SEED
        for row in doc["families"].values():
            for key in ("bugs", "detected", "detection_rate",
                        "trigger_tests", "reproduction_rate",
                        "mean_localization_rank", "repairs_valid",
                        "repair_validity", "invariants_ok"):
                assert key in row
        refs = [bug["ref"] for bug in doc["bugs"]]
        assert len(refs) == len(set(refs))

    def test_scorecard_bit_identical_across_backends(self, registry):
        """Acceptance: the scorecard JSON is deterministic across
        serial/process at a fixed seed (patch validation is
        backend-free, so it is skipped here for speed)."""
        dumps = {}
        for backend in BACKENDS:
            results = run_registry(registry, RegistryRunConfig(
                seed=SEED, backend=backend, workers=2,
                background_runs=8, validate_patches=False))
            card = build_scorecard(results, seed=SEED, backend=backend)
            doc = card.as_dict()
            doc["backend"] = "-"  # the only field naming the backend
            dumps[backend] = json.dumps(doc, sort_keys=True)
        assert dumps["serial"] == dumps["process"]

    def test_localization_ranks_present_for_input_gated_families(
            self, serial_results):
        by_family = {}
        for result in serial_results:
            by_family.setdefault(result.family, []).append(result)
        for family in ("crash", "leak", "prov", "wakeup", "prio"):
            ranks = [r.localization_rank for r in by_family[family]]
            assert any(rank is not None for rank in ranks), family

    def test_provenance_defect_is_remote_from_crash_site(self, registry):
        for bug in registry.bugs("prov"):
            assert bug.spec.defect_distance >= 2
            assert bug.spec.defect_function != bug.spec.site_function


class TestRunConfigValidation:

    @pytest.mark.parametrize("overrides", [
        dict(pods=0), dict(pods=-3), dict(max_steps=0), dict(workers=-1),
        dict(backend="bogus"),
    ])
    def test_bad_config_is_rejected_before_any_pod(self, registry,
                                                   monkeypatch, overrides):
        import repro.registry.harness as harness
        built = []
        monkeypatch.setattr(harness, "Pod",
                            lambda *args, **kwargs: built.append(args))
        config = RegistryRunConfig(seed=SEED, background_runs=0,
                                   validate_patches=False, **overrides)
        with pytest.raises(ConfigError):
            run_registry(registry, config)
        assert built == []

    def test_a_negative_run_count_ships_no_background_runs(self, registry):
        from repro.registry import run_bug
        bug = registry.bugs("all")[0]
        result = run_bug(bug, RegistryRunConfig(
            seed=SEED, background_runs=-2, validate_patches=False))
        assert result.runs_shipped == len(bug.tests)


class TestRepairLabWiring:

    def test_known_patches_validate_through_repairlab(self, registry):
        from repro.fixes.repairlab import RepairLab
        from repro.fixes.validation import (
            FixValidator, make_validation_suite,
        )
        bug = registry.get("leak/RL-1")
        suite = make_validation_suite(bug.program, schedule_seeds=0)
        lab = RepairLab(FixValidator(bug.program, suite=suite))
        ranked = lab.evaluate([bug.patch])
        assert ranked[0].report.regressions == 0
        rows = lab.ledger()
        assert len(rows) == 1
        assert rows[0]["fix_id"] == bug.patch.fix_id
        assert rows[0]["regressions"] == 0
        json.dumps(rows)  # ledger rows must be JSON-safe


class TestPlatformSnapshotBlock:

    def test_snapshot_carries_additive_scorecard_block(self):
        from repro.platform import (
            SNAPSHOT_SCHEMA_VERSION, PlatformConfig, SoftBorgPlatform,
        )
        from repro.workloads.scenarios import crash_scenario
        platform = SoftBorgPlatform(
            crash_scenario(seed=3),
            PlatformConfig(rounds=3, executions_per_round=20, seed=3,
                           enable_proofs=False))
        platform.run()
        doc = platform.snapshot()
        assert doc["schema_version"] == SNAPSHOT_SCHEMA_VERSION
        block = doc["scorecard"]
        assert block["schema_version"] == SCORECARD_SCHEMA_VERSION
        assert "crash" in block["families"]
        row = block["families"]["crash"]
        assert row["bugs"] == 1
        assert row["seen"] in (0, 1)
        json.dumps(doc, sort_keys=True)


class TestRegistryCLI:

    def test_list(self, capsys):
        assert main(["registry", "list"]) == 0
        out = capsys.readouterr().out
        assert "leak/RL-1" in out and "prov/PV-1" in out

    def test_run_writes_scorecard_json(self, tmp_path, capsys):
        out_path = tmp_path / "scorecard.json"
        code = main(["registry", "run", "--family", "all", "--runs", "6",
                     "--no-validate", "--out", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["schema_version"] == SCORECARD_SCHEMA_VERSION
        assert set(doc["families"]) == set(FAMILIES)
        for row in doc["families"].values():
            assert row["detection_rate"] > 0
            assert row["reproduction_rate"] == 1.0

    def test_score_single_family_json(self, capsys):
        code = main(["registry", "score", "--family", "toctou",
                     "--runs", "4", "--no-validate", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["families"]) == ["toctou"]
