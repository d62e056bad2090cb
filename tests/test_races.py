"""Race detection and lockify-fix tests (the RACE bug extension)."""

import pytest

from repro.analysis import races
from repro.analysis.races import RaceAnalyzer
from repro.errors import FixError
from repro.fixes.lockify import LockifyFix, synthesize_lockify_fix
from repro.fixes.validation import FixValidator
from repro.platform import PlatformConfig, SoftBorgPlatform
from repro.progmodel.bugs import BugKind
from repro.progmodel.builder import ProgramBuilder
from repro.progmodel.corpus import (
    CorpusConfig, generate_program, make_crash_demo, make_deadlock_demo,
    make_race_demo,
)
from repro.progmodel.interpreter import Interpreter, Outcome
from repro.progmodel.ir import Const, Var
from repro.sched.scheduler import RandomScheduler, RoundRobinScheduler
from repro.workloads.scenarios import race_scenario


def _bin(op, a, b):
    from repro.progmodel.ir import BinOp
    return BinOp(op, a, b)


class TestRaceDemo:
    def test_lost_update_fails_assertion(self):
        demo = make_race_demo()
        result = Interpreter(demo.program).run(
            {"k": 1}, scheduler=RoundRobinScheduler())
        assert result.outcome is Outcome.ASSERT
        assert result.failure.message == demo.bugs[0].message

    def test_serialized_schedules_pass(self):
        demo = make_race_demo()
        outcomes = set()
        for seed in range(40):
            outcomes.add(Interpreter(demo.program).run(
                {"k": 1}, scheduler=RandomScheduler(seed=seed)).outcome)
        assert Outcome.OK in outcomes          # some schedules are lucky
        assert Outcome.ASSERT in outcomes      # most are not

    def test_corpus_race_program(self):
        seeded = generate_program("rc", CorpusConfig(seed=3),
                                  (BugKind.RACE,))
        assert seeded.program.threads == ("main", "worker")
        bug = seeded.bugs[0]
        outcomes = set()
        for seed in range(40):
            inputs = {n: lo for n, (lo, _hi) in
                      seeded.program.inputs.items()}
            result = Interpreter(seeded.program).run(
                inputs, scheduler=RandomScheduler(seed=seed))
            outcomes.add(result.outcome)
            if result.outcome is Outcome.ASSERT:
                assert result.failure.message == bug.message
        assert Outcome.ASSERT in outcomes

    def test_race_plus_deadlock_rejected(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            generate_program("x", CorpusConfig(seed=0),
                             (BugKind.RACE, BugKind.DEADLOCK))


class TestRaceAnalyzer:
    def test_detects_unprotected_counter(self):
        demo = make_race_demo()
        analyzer = RaceAnalyzer()
        for seed in range(10):
            analyzer.add_execution(Interpreter(demo.program).run(
                {"k": 1}, scheduler=RandomScheduler(seed=seed)))
        reports = analyzer.reports()
        assert [r.variable for r in reports][0] == "g_cnt"
        assert reports[0].is_write_write
        assert set(reports[0].writer_threads) == {0, 1}

    def test_lock_protected_counter_not_flagged(self):
        b = ProgramBuilder("safe", threads=("main", "worker"),
                           global_vars={"c": 0, "done": 0})
        for fname in ("main", "worker"):
            func = b.function(fname)
            entry = func.block("entry")
            entry.lock("m")
            entry.load_global("t", "c")
            entry.assign("t", _bin("+", Var("t"), Const(1)))
            entry.store_global("c", Var("t"))
            entry.unlock("m")
            entry.halt()
        program = b.build()
        analyzer = RaceAnalyzer()
        for seed in range(10):
            analyzer.add_execution(Interpreter(program).run(
                {}, scheduler=RandomScheduler(seed=seed)))
        assert analyzer.reports() == []

    def test_single_threaded_globals_not_flagged(self):
        demo = make_crash_demo()
        b = ProgramBuilder("st", global_vars={"g": 0})
        main = b.function("main")
        main.block("entry").store_global("g", 1) \
            .load_global("x", "g").halt()
        analyzer = RaceAnalyzer()
        analyzer.add_execution(Interpreter(b.build()).run({}))
        assert analyzer.reports() == []

    def test_state_built_once_per_variable(self, monkeypatch):
        """A variable's state (four sets) is built the first time its
        name is seen, not on every access."""
        built = []

        class Counted(races._VariableState):
            __slots__ = ()

            def __init__(self):
                super().__init__()
                built.append(self)

        monkeypatch.setattr(races, "_VariableState", Counted)
        demo = make_race_demo()
        analyzer = RaceAnalyzer()
        names = set()
        for seed in range(10):
            result = Interpreter(demo.program).run(
                {"k": 3}, scheduler=RandomScheduler(seed=seed))
            names.update(event.name for event in result.global_events)
            analyzer.add_execution(result)
        assert sorted(names) == ["g_cnt", "g_wdone"]
        assert len(built) == len(names)

    def test_synthesized_globals_ignored(self):
        b = ProgramBuilder("syn", threads=("main", "worker"),
                           global_vars={"__recovered": 0})
        for fname in ("main", "worker"):
            func = b.function(fname)
            func.block("entry").store_global("__recovered", 1).halt()
        analyzer = RaceAnalyzer()
        analyzer.add_execution(Interpreter(b.build()).run({}))
        assert analyzer.reports() == []


class TestLockifyFix:
    def _diagnose(self, demo):
        analyzer = RaceAnalyzer()
        for seed in range(10):
            analyzer.add_execution(Interpreter(demo.program).run(
                {"k": 1}, scheduler=RandomScheduler(seed=seed)))
        return analyzer.reports()[0]

    def test_fix_eliminates_lost_updates(self):
        demo = make_race_demo()
        fix = synthesize_lockify_fix(self._diagnose(demo),
                                     demo.program.name)
        fixed = fix.apply(demo.program)
        for seed in range(60):
            result = Interpreter(fixed).run(
                {"k": 1}, scheduler=RandomScheduler(seed=seed))
            assert result.outcome is Outcome.OK, seed
        assert Interpreter(fixed).run(
            {"k": 1}, scheduler=RoundRobinScheduler()
        ).outcome is Outcome.OK

    def test_fix_validates(self):
        demo = make_race_demo()
        fix = synthesize_lockify_fix(self._diagnose(demo),
                                     demo.program.name)
        report = FixValidator(demo.program).validate(fix)
        assert report.deployable
        assert report.regressions == 0
        assert report.mitigated >= 1

    def test_missing_variable_rejected(self):
        demo = make_crash_demo()
        with pytest.raises(FixError):
            LockifyFix(fix_id="l", variable="ghost").apply(demo.program)

    def test_fix_detected_race_gone_after_fix(self):
        demo = make_race_demo()
        fix = synthesize_lockify_fix(self._diagnose(demo),
                                     demo.program.name)
        fixed = fix.apply(demo.program)
        analyzer = RaceAnalyzer()
        for seed in range(10):
            analyzer.add_execution(Interpreter(fixed).run(
                {"k": 1}, scheduler=RandomScheduler(seed=seed)))
        assert all(r.variable != "g_cnt" for r in analyzer.reports())


class TestRaceClosedLoop:
    def test_platform_exterminates_race(self):
        platform = SoftBorgPlatform(
            race_scenario(seed=5),
            PlatformConfig(rounds=12, executions_per_round=30,
                           enable_proofs=False, seed=5))
        report = platform.run()
        assert report.fixes
        assert "racy variable 'g_cnt'" in report.fixes[0]
        assert all(r.failures == 0 for r in report.rounds[-3:])

    def test_deadlock_scenario_not_disrupted_by_benign_flags(self):
        """g_enter/g_done are unlocked cross-thread flags; their
        lockify candidates must not beat the immunity fix (they
        mitigate nothing) nor be revalidated forever."""
        from repro.workloads.scenarios import deadlock_scenario
        platform = SoftBorgPlatform(
            deadlock_scenario(n_users=20, seed=3),
            PlatformConfig(rounds=10, executions_per_round=30,
                           enable_proofs=False, seed=3))
        report = platform.run()
        assert report.fixes
        assert "gate-lock" in report.fixes[0]
