"""Fix synthesis and validation tests: recovery patches, deadlock
immunity, the validator, and the repair lab."""

import pytest

from repro.analysis.deadlock import DeadlockAnalyzer
from repro.errors import FixError
from repro.fixes.deadlock_immunity import GateLockFix, synthesize_immunity_fix
from repro.fixes.fix import Fix, RECOVERY_FLAG, clone_program
from repro.fixes.patches import SiteRecoveryFix, synthesize_recovery_fixes
from repro.fixes.repairlab import RepairLab
from repro.fixes.validation import (
    FixValidator, ValidationReport, changed_blocks, make_validation_suite,
)
from repro.progmodel.bugs import BugKind
from repro.progmodel.corpus import (
    CorpusConfig, generate_program, make_crash_demo, make_deadlock_demo,
    make_shortread_demo,
)
from repro.progmodel.interpreter import (
    Environment, ExecutionLimits, FaultPlan, Interpreter, Outcome,
)
from repro.rng import make_rng
from repro.sched.scheduler import RandomScheduler, RoundRobinScheduler
from repro.symbolic.cache import ConstraintCache
from repro.tracing.trace import trace_from_result


class TestCloneProgram:
    def test_clone_bumps_version_and_isolates(self):
        demo = make_crash_demo()
        cloned = clone_program(demo.program)
        assert cloned.version == demo.program.version + 1
        cloned.functions["main"].blocks["boom"].instructions.clear()
        assert demo.program.functions["main"].blocks["boom"].instructions


class TestSiteRecoveryFix:
    def test_crash_site_recovered(self):
        demo = make_crash_demo()
        fix = SiteRecoveryFix(fix_id="f1", function="main", block="boom")
        fixed = fix.apply(demo.program)
        result = Interpreter(fixed).run({"n": 7, "mode": 2})
        assert result.outcome is Outcome.OK

    def test_ok_paths_untouched(self):
        demo = make_crash_demo()
        fix = SiteRecoveryFix(fix_id="f1", function="main", block="boom")
        fixed = fix.apply(demo.program)
        for n in range(7):
            before = Interpreter(demo.program).run({"n": n, "mode": 2})
            after = Interpreter(fixed).run({"n": n, "mode": 2})
            assert before.outcome is Outcome.OK
            assert after.outcome is Outcome.OK
            assert before.return_values == after.return_values

    def test_hang_site_recovered(self):
        seeded = generate_program("h", CorpusConfig(seed=13),
                                  (BugKind.HANG,))
        bug = seeded.bugs[0]
        limits = ExecutionLimits(max_steps=2000)
        # Find inputs that actually hang.
        hang_inputs = None
        for filler in range(40):
            inputs = bug.triggering_inputs(seeded.program.inputs,
                                           make_rng(filler, "f"))
            if Interpreter(seeded.program, limits=limits).run(
                    inputs).outcome is Outcome.HANG:
                hang_inputs = inputs
                break
        assert hang_inputs is not None
        fix = SiteRecoveryFix(fix_id="fh", function=bug.site_function,
                              block=bug.site_block)
        fixed = fix.apply(seeded.program)
        result = Interpreter(fixed, limits=limits).run(hang_inputs)
        assert result.outcome is Outcome.OK

    def test_missing_target_rejected(self):
        demo = make_crash_demo()
        fix = SiteRecoveryFix(fix_id="f1", function="main", block="ghost")
        with pytest.raises(Exception):
            fix.apply(demo.program)

    def test_synthesize_from_traces(self):
        demo = make_crash_demo()
        traces = []
        for inputs in ({"n": 7, "mode": 2}, {"n": 7, "mode": 2},
                       {"n": 1, "mode": 1}):
            result = Interpreter(demo.program).run(inputs)
            traces.append(trace_from_result(result))
        fixes = synthesize_recovery_fixes(traces, demo.program.name)
        assert len(fixes) == 1
        assert fixes[0].block == "boom"
        assert fixes[0].target_bug_message == demo.bugs[0].message

    def test_deadlock_traces_not_recovery_targets(self):
        demo = make_deadlock_demo()
        result = Interpreter(demo.program).run(
            {"go": 1}, scheduler=RoundRobinScheduler())
        assert result.outcome is Outcome.DEADLOCK
        fixes = synthesize_recovery_fixes([trace_from_result(result)],
                                          demo.program.name)
        assert fixes == []


class TestGateLockFix:
    def _diagnose(self, demo):
        analyzer = DeadlockAnalyzer()
        result = Interpreter(demo.program).run(
            {"go": 1}, scheduler=RoundRobinScheduler())
        analyzer.add_execution(result)
        return analyzer.diagnoses()[0]

    def test_immunity_prevents_deadlock(self):
        demo = make_deadlock_demo()
        diagnosis = self._diagnose(demo)
        fix = synthesize_immunity_fix(diagnosis, demo.program.name)
        fixed = fix.apply(demo.program)
        # The schedule that reliably deadlocked the original...
        assert Interpreter(demo.program).run(
            {"go": 1}, scheduler=RoundRobinScheduler()
        ).outcome is Outcome.DEADLOCK
        # ... and any schedule on the fixed program: no deadlock.
        assert Interpreter(fixed).run(
            {"go": 1}, scheduler=RoundRobinScheduler()
        ).outcome is Outcome.OK
        for seed in range(30):
            result = Interpreter(fixed).run(
                {"go": 1}, scheduler=RandomScheduler(seed=seed))
            assert result.outcome is Outcome.OK

    def test_untriggered_runs_unaffected(self):
        demo = make_deadlock_demo()
        fix = synthesize_immunity_fix(self._diagnose(demo),
                                      demo.program.name)
        fixed = fix.apply(demo.program)
        assert Interpreter(fixed).run({"go": 0}).outcome is Outcome.OK

    def test_corpus_deadlock_program(self):
        seeded = generate_program("dl", CorpusConfig(seed=17),
                                  (BugKind.DEADLOCK,))
        bug = seeded.bugs[0]
        # Find a deadlocking (inputs, seed) pair.
        witness = None
        for seed in range(60):
            inputs = bug.triggering_inputs(seeded.program.inputs,
                                           make_rng(seed, "f"))
            result = Interpreter(seeded.program).run(
                inputs, scheduler=RandomScheduler(seed=seed))
            if result.outcome is Outcome.DEADLOCK:
                witness = (inputs, seed, result)
                break
        assert witness is not None
        inputs, seed, result = witness
        analyzer = DeadlockAnalyzer()
        analyzer.add_execution(result)
        fix = synthesize_immunity_fix(analyzer.diagnoses()[0], seeded.name)
        fixed = fix.apply(seeded.program)
        for s in range(40):
            outcome = Interpreter(fixed).run(
                inputs, scheduler=RandomScheduler(seed=s)).outcome
            assert outcome is not Outcome.DEADLOCK

    def test_empty_cycle_rejected(self):
        demo = make_deadlock_demo()
        with pytest.raises(FixError):
            GateLockFix(fix_id="g", cycle_locks=()).apply(demo.program)

    def test_unused_locks_rejected(self):
        demo = make_crash_demo()
        with pytest.raises(FixError):
            GateLockFix(fix_id="g", cycle_locks=("X", "Y")).apply(
                demo.program)


class TestValidation:
    def test_suite_covers_paths(self):
        demo = make_crash_demo()
        suite = make_validation_suite(demo.program)
        # crash_demo has exactly 3 feasible path classes.
        assert len(suite) == 3
        crashing = [case for case in suite
                    if case.inputs.get("n") == 7
                    and case.inputs.get("mode") == 2]
        assert crashing

    def test_good_fix_is_deployable(self):
        demo = make_crash_demo()
        validator = FixValidator(demo.program)
        fix = SiteRecoveryFix(fix_id="f1", function="main", block="boom")
        report = validator.validate(fix)
        assert report.deployable
        assert report.regressions == 0
        assert report.mitigated >= 1
        assert report.mitigation_rate == 1.0

    def test_bad_fix_rejected(self):
        """A fix that rewrites a *healthy* block must be caught."""
        demo = make_crash_demo()
        validator = FixValidator(demo.program)
        bad = SiteRecoveryFix(fix_id="bad", function="main", block="safe")
        report = validator.validate(bad)
        assert report.regressions > 0
        assert not report.deployable

    def test_deadlock_fix_validates_over_schedules(self):
        demo = make_deadlock_demo()
        validator = FixValidator(demo.program)
        analyzer = DeadlockAnalyzer()
        result = Interpreter(demo.program).run(
            {"go": 1}, scheduler=RoundRobinScheduler())
        analyzer.add_execution(result)
        fix = synthesize_immunity_fix(analyzer.diagnoses()[0],
                                      demo.program.name)
        report = validator.validate(fix)
        assert report.regressions == 0
        # Deadlocks happen under the random-schedule cases and are gone
        # after the fix.
        assert report.mitigated >= 1

    def test_shortread_fix_needs_fault_cases(self):
        demo = make_shortread_demo()
        fix = SiteRecoveryFix(fix_id="sr", function="main", block="boom")
        no_faults = FixValidator(demo.program).validate(fix)
        assert no_faults.mitigated == 0  # faults never injected
        with_faults = FixValidator(demo.program,
                                   with_faults=True).validate(fix)
        assert with_faults.mitigated >= 1
        assert with_faults.regressions == 0


class TestRepairLab:
    def test_selects_good_candidate(self):
        demo = make_crash_demo()
        lab = RepairLab(FixValidator(demo.program))
        good = SiteRecoveryFix(fix_id="good", function="main", block="boom")
        bad = SiteRecoveryFix(fix_id="bad", function="main", block="safe")
        chosen = lab.select([bad, good])
        assert chosen is not None
        assert chosen.fix.fix_id == "good"

    def test_escalates_when_all_bad(self):
        demo = make_crash_demo()
        lab = RepairLab(FixValidator(demo.program))
        bad = SiteRecoveryFix(fix_id="bad", function="main", block="safe")
        assert lab.select([bad]) is None


def _reference_report(program, suite, fix, limits=None):
    """The validation loop before recycling: run the original and the
    fixed program on every case, with no block recording."""
    limits = limits or ExecutionLimits()
    fixed = fix.apply(program)
    report = ValidationReport(fix_id=fix.fix_id)

    def run(subject, case):
        scheduler = (RoundRobinScheduler() if case.schedule_seed is None
                     else RandomScheduler(
                         rng=make_rng(case.schedule_seed, "validate")))
        forced = ({} if case.fault_read_occurrence is None
                  else {case.fault_read_occurrence: 0})
        return Interpreter(subject, limits=limits).run(
            case.inputs,
            environment=Environment(fault_plan=FaultPlan(forced=forced)),
            scheduler=scheduler)

    for case in suite:
        before, after = run(program, case), run(fixed, case)
        report.cases_run += 1
        if before.outcome is Outcome.OK:
            if (after.outcome is Outcome.OK
                    and after.return_values == before.return_values
                    and after.final_globals == before.final_globals):
                report.still_ok += 1
            else:
                report.regressions += 1
                if len(report.regression_examples) < 5:
                    report.regression_examples.append(case)
        elif after.outcome is Outcome.OK:
            report.mitigated += 1
        else:
            report.unmitigated += 1
    return report


class _CountingRuns:
    """Counts validation runs per program object."""

    def __init__(self, monkeypatch):
        self.runs = {}
        original = FixValidator._run

        def counted(validator, program, case):
            self.runs[id(program)] = self.runs.get(id(program), 0) + 1
            return original(validator, program, case)
        monkeypatch.setattr(FixValidator, "_run", counted)

    def of(self, program) -> int:
        return self.runs.get(id(program), 0)


class _RecoveryWithGlobal(SiteRecoveryFix):
    """A recovery patch that also declares a new global."""

    def transform(self, program):
        super().transform(program)
        program.globals["__patched"] = 0


def _demo_fixes():
    crash = make_crash_demo().program
    yield "crash-good", crash, SiteRecoveryFix(
        fix_id="good", function="main", block="boom"), {}
    yield "crash-bad", crash, SiteRecoveryFix(
        fix_id="bad", function="main", block="safe"), {}
    deadlock = make_deadlock_demo().program
    analyzer = DeadlockAnalyzer()
    analyzer.add_execution(Interpreter(deadlock).run(
        {"go": 1}, scheduler=RoundRobinScheduler()))
    yield "deadlock-immunity", deadlock, synthesize_immunity_fix(
        analyzer.diagnoses()[0], deadlock.name), {}
    shortread = make_shortread_demo().program
    patch = SiteRecoveryFix(fix_id="sr", function="main", block="boom")
    yield "shortread", shortread, patch, {}
    yield "shortread-faults", shortread, patch, {"with_faults": True}


class TestRecycledValidation:
    """Skipping unreachable cases and carrying results over give the
    reports a full side-by-side run gives."""

    def test_every_registry_patch_matches_the_reference(self):
        from repro.registry import build_registry
        from repro.registry.harness import RegistryRunConfig
        limits = ExecutionLimits(max_steps=RegistryRunConfig().max_steps)
        checked = 0
        for bug in build_registry().bugs():
            if bug.patch is None:
                continue
            # The harness's suite (repro.registry.harness.run_bug).
            suite = make_validation_suite(
                bug.program,
                schedule_seeds=0 if bug.family == "wakeup" else 4,
                with_faults=bug.spec.needs_fault)
            report = FixValidator(bug.program, limits=limits,
                                  suite=suite).validate(bug.patch)
            assert report == _reference_report(bug.program, suite,
                                               bug.patch, limits), bug.bug_id
            checked += 1
        assert checked >= 16

    @pytest.mark.parametrize("program,fix,options", [
        pytest.param(program, fix, options, id=name)
        for name, program, fix, options in _demo_fixes()])
    def test_demo_fixes_match_the_reference(self, program, fix, options):
        validator = FixValidator(program, **options)
        assert validator.validate(fix) == _reference_report(
            program, validator.suite, fix)

    def test_fix_outside_the_blocks_reruns_every_case(self, monkeypatch):
        program = make_crash_demo().program
        fix = _RecoveryWithGlobal(fix_id="g", function="main", block="boom")
        assert changed_blocks(program, fix.apply(program)) is None
        validator = FixValidator(program)
        counts = _CountingRuns(monkeypatch)
        report = validator.validate(fix)
        fixed, _table = validator.validated(fix)
        assert counts.of(fixed) == len(validator.suite)
        assert report == _reference_report(program, validator.suite, fix)

    def test_two_deploys_carry_the_table(self, monkeypatch):
        """The repair workload's program: the first fix re-runs under
        half its cases, and the second is validated from the first
        one's carried results exactly as a fresh full validation."""
        seeded = generate_program(
            "repair", CorpusConfig(seed=1, n_segments=8, input_domain=24),
            (BugKind.CRASH, BugKind.ASSERT))
        first, second = (
            SiteRecoveryFix(fix_id=f"fix{i}", function=bug.site_function,
                            block=bug.site_block)
            for i, bug in enumerate(seeded.bugs))
        program = seeded.program
        counts = _CountingRuns(monkeypatch)
        # One shared constraint cache, as in the hive: the suites'
        # explorations take 0.1 s instead of 6 s.
        cache = ConstraintCache()

        suite = make_validation_suite(program, with_faults=True, cache=cache)
        validator = FixValidator(program, suite=suite)
        report = validator.validate(first)
        assert report.mitigated > 0 and report.deployable
        assert report == _reference_report(program, suite, first)
        deployed, table = validator.validated(first)
        assert counts.of(deployed) < len(suite) / 2
        # Every carried result is what running the deployed program
        # gives, entered blocks included.
        for case in suite:
            assert table.get(case.key) == validator._run(deployed, case)

        suite = make_validation_suite(deployed, with_faults=True,
                                      cache=cache)
        carried = FixValidator(deployed, suite=suite)
        carried.table = table
        start = counts.of(deployed)
        report = carried.validate(second)
        carried_runs = counts.of(deployed) - start
        fresh = FixValidator(deployed, suite=suite)
        assert report == fresh.validate(second)
        fresh_runs = counts.of(deployed) - start - carried_runs
        assert report == _reference_report(deployed, suite, second)
        assert report.deployable
        assert carried_runs < fresh_runs


class TestChangedBlocks:
    def test_recovery_patch_changes_the_site_and_adds_the_stub(self):
        program = make_crash_demo().program
        fix = SiteRecoveryFix(fix_id="f1", function="main", block="boom")
        assert changed_blocks(program, fix.apply(program)) == {
            ("main", "boom"), ("main", "__recover_f1")}

    def test_identical_clone_changes_nothing(self):
        program = make_crash_demo().program
        assert changed_blocks(program, clone_program(program)) == set()

    def test_an_expression_change_is_seen(self):
        """IR ``==`` on expressions builds a node, so only the bytes can
        tell two conditions apart."""
        from repro.progmodel.ir import Const
        program = make_crash_demo().program
        edited = clone_program(program)
        block = next(block for block in edited.functions["main"].blocks.values()
                     if block.branch_site() is not None)
        block.terminator.cond = Const(1)
        assert changed_blocks(program, edited) == {("main", block.label)}

    @pytest.mark.parametrize("edit", ["threads", "inputs", "globals",
                                      "functions", "params", "entry"])
    def test_changes_outside_blocks_validate_every_case(self, edit):
        from repro.progmodel.ir import Function
        program = make_crash_demo().program
        edited = clone_program(program)
        main = edited.functions["main"]
        if edit == "threads":
            edited.threads = tuple(edited.threads) + ("main",)
        elif edit == "inputs":
            name = next(iter(edited.inputs))
            lo, hi = edited.inputs[name]
            edited.inputs[name] = (lo, hi + 1)
        elif edit == "globals":
            edited.globals["extra"] = 1
        elif edit == "functions":
            edited.functions["spare"] = Function("spare",
                                                 blocks=dict(main.blocks))
        elif edit == "params":
            main.params = ("p",)
        else:
            main.entry = next(label for label in main.blocks
                              if label != main.entry)
        assert changed_blocks(program, edited) is None
