"""Interpreter tests: concrete execution, outcomes, taint, and the
hive-side replay reconstruction that the execution tree depends on."""

import gc
import hashlib
import random

import pytest

from repro.errors import ExecutionError, ProgramModelError, TraceError
from repro.progmodel import corpus, interpreter
from repro.progmodel.bugs import BugKind
from repro.progmodel.builder import ProgramBuilder
from repro.progmodel.corpus import (
    CorpusConfig, generate_program, make_crash_demo, make_deadlock_demo,
    make_race_demo, make_shortread_demo,
)
from repro.progmodel.interpreter import (
    Environment, ExecutionLimits, FaultPlan, Interpreter, Outcome,
    ReplaySource,
)
from repro.progmodel.ir import (
    Block, Branch, Call, Function, Halt, Input, Instruction, Jump, Program,
    c, v,
)
from repro.registry.patches import ForceBranchFix
from repro.sched.scheduler import (
    FixedScheduler, PCTScheduler, RandomScheduler, RoundRobinScheduler,
)
from repro.tracing.privacy import truncate_trace
from repro.tracing.trace import trace_from_result


class TestBasicExecution:
    def test_ok_run(self):
        demo = make_crash_demo()
        result = Interpreter(demo.program).run({"n": 1, "mode": 0})
        assert result.outcome is Outcome.OK
        assert result.failure is None
        assert result.steps > 0

    def test_crash_on_trigger(self):
        demo = make_crash_demo()
        bug = demo.bugs[0]
        result = Interpreter(demo.program).run(bug.triggering_inputs(
            demo.program.inputs))
        assert result.outcome is Outcome.CRASH
        assert result.failure.message == bug.message
        assert result.failure.block == bug.site_block

    def test_input_validation(self):
        demo = make_crash_demo()
        with pytest.raises(ExecutionError):
            Interpreter(demo.program).run({"n": 1})  # missing mode
        with pytest.raises(ExecutionError):
            Interpreter(demo.program).run({"n": 99, "mode": 0})
        with pytest.raises(ExecutionError):
            Interpreter(demo.program).run({"n": 1, "mode": 0, "zz": 1})

    def test_branch_bits_are_tainted_only(self):
        demo = make_crash_demo()
        result = Interpreter(demo.program).run({"n": 7, "mode": 2})
        # Both branches in crash_demo test inputs -> both tainted.
        assert len(result.branch_bits) == 2
        assert all(e.tainted for e in result.tainted_branch_events)

    def test_division_by_zero_crashes(self):
        b = ProgramBuilder("div", inputs={"n": (0, 3)})
        main = b.function("main")
        main.block("entry").assign("x", c(10) // Input("n")).halt()
        program = b.build()
        result = Interpreter(program).run({"n": 0})
        assert result.outcome is Outcome.CRASH
        assert "division" in result.failure.message
        assert Interpreter(program).run({"n": 2}).outcome is Outcome.OK

    def test_uninitialised_local_reads_zero(self):
        b = ProgramBuilder("uninit")
        main = b.function("main")
        main.block("entry").check(v("never_set") == 0, "zero").halt()
        result = Interpreter(b.build()).run({})
        assert result.outcome is Outcome.OK

    def test_assert_failure(self):
        b = ProgramBuilder("a", inputs={"n": (0, 5)})
        main = b.function("main")
        main.block("entry").check(Input("n") < 5, "too big").halt()
        result = Interpreter(b.build()).run({"n": 5})
        assert result.outcome is Outcome.ASSERT
        assert result.failure.message == "too big"

    def test_hang_hits_step_budget(self):
        b = ProgramBuilder("h")
        main = b.function("main")
        main.block("entry").jump("entry")
        limits = ExecutionLimits(max_steps=50)
        result = Interpreter(b.build(), limits=limits).run({})
        assert result.outcome is Outcome.HANG
        assert result.steps == 50

    def test_function_call_and_return(self):
        b = ProgramBuilder("f", inputs={"n": (0, 9)})
        add3 = b.function("add3", params=("a",))
        add3.block("entry").ret(v("a") + 3)
        main = b.function("main")
        main.block("entry").call("r", "add3", Input("n")) \
            .check(v("r") == Input("n") + 3, "bad sum").halt()
        result = Interpreter(b.build()).run({"n": 4})
        assert result.outcome is Outcome.OK

    def test_recursion_depth_limit(self):
        b = ProgramBuilder("r")
        rec = b.function("rec", params=("a",))
        rec.block("entry").call("x", "rec", v("a")).ret(0)
        main = b.function("main")
        main.block("entry").call("x", "rec", 1).halt()
        result = Interpreter(b.build(),
                             limits=ExecutionLimits(max_call_depth=10)).run({})
        assert result.outcome is Outcome.CRASH
        assert "depth" in result.failure.message


class TestLocksAndThreads:
    def test_deadlock_demo_deadlocks_under_round_robin(self):
        demo = make_deadlock_demo()
        result = Interpreter(demo.program).run(
            {"go": 1}, scheduler=RoundRobinScheduler())
        assert result.outcome is Outcome.DEADLOCK

    def test_deadlock_demo_safe_when_not_triggered(self):
        demo = make_deadlock_demo()
        result = Interpreter(demo.program).run({"go": 0})
        assert result.outcome is Outcome.OK

    def test_deadlock_rate_depends_on_schedule(self):
        demo = make_deadlock_demo()
        outcomes = set()
        for seed in range(30):
            result = Interpreter(demo.program).run(
                {"go": 1}, scheduler=RandomScheduler(seed=seed))
            outcomes.add(result.outcome)
        # Some schedules deadlock, some complete.
        assert Outcome.DEADLOCK in outcomes
        assert Outcome.OK in outcomes

    def test_unlock_not_held_crashes(self):
        b = ProgramBuilder("u")
        main = b.function("main")
        main.block("entry").unlock("L").halt()
        result = Interpreter(b.build()).run({})
        assert result.outcome is Outcome.CRASH

    def test_lock_events_recorded(self):
        demo = make_deadlock_demo()
        result = Interpreter(demo.program).run(
            {"go": 1}, scheduler=RoundRobinScheduler())
        ops = [(e.op, e.lock_name) for e in result.lock_events]
        assert ("acquire", "A") in ops
        assert ("acquire", "B") in ops
        assert ("request", "B") in ops  # main blocked requesting B

    def test_self_deadlock_on_reacquire(self):
        b = ProgramBuilder("sd")
        main = b.function("main")
        main.block("entry").lock("L").lock("L").halt()
        result = Interpreter(b.build()).run({})
        assert result.outcome is Outcome.DEADLOCK


class TestSyscalls:
    def test_read_full_by_default(self):
        demo = make_shortread_demo()
        result = Interpreter(demo.program).run({"sz": 32})
        assert result.outcome is Outcome.OK

    def test_fault_plan_forces_short_read(self):
        demo = make_shortread_demo()
        # Occurrence 0 is open, occurrence 1 is the read.
        env = Environment(fault_plan=FaultPlan(forced={1: 5}))
        result = Interpreter(demo.program).run({"sz": 32}, environment=env)
        assert result.outcome is Outcome.CRASH
        assert "short_read" in result.failure.message

    def test_fault_rate_produces_failures_eventually(self):
        demo = make_shortread_demo()
        outcomes = set()
        for seed in range(40):
            import random
            env = Environment(rng=random.Random(seed), fault_rate=0.5)
            outcomes.add(
                Interpreter(demo.program).run({"sz": 32},
                                              environment=env).outcome)
        assert Outcome.CRASH in outcomes
        assert Outcome.OK in outcomes

    def test_syscall_branches_tainted_but_not_shipped(self):
        """A branch on a syscall return is part of the path identity
        (tainted) but costs no recorded bit: the hive reconstructs it
        from the shipped syscall return value."""
        b = ProgramBuilder("sc")
        main = b.function("main")
        main.block("entry").syscall("t", "time") \
            .branch(v("t") > 0, "a", "b")
        main.block("a").halt()
        main.block("b").halt()
        result = Interpreter(b.build()).run({})
        assert len(result.branch_bits) == 0
        assert len(result.path_decisions) == 1
        assert result.tainted_branch_events[0].tainted
        assert not result.tainted_branch_events[0].input_dependent


class TestReplay:
    """Replay is the hive's reconstruction path — it must reproduce the
    exact decision path and outcome from the by-products alone."""

    def _roundtrip(self, program, inputs, scheduler=None, environment=None,
                   limits=None):
        interp = Interpreter(program, limits=limits)
        live = interp.run(inputs, environment=environment,
                          scheduler=scheduler)
        source = ReplaySource(
            branch_bits=live.branch_bits,
            syscall_returns=live.syscall_values,
            schedule_picks=live.schedule_picks,
        )
        replayed = Interpreter(program, limits=limits).replay(source)
        return live, replayed

    def test_replay_reproduces_ok_path(self):
        demo = make_crash_demo()
        live, replayed = self._roundtrip(demo.program, {"n": 3, "mode": 2})
        assert replayed.outcome is live.outcome is Outcome.OK
        assert replayed.path_decisions == live.path_decisions

    def test_replay_reproduces_crash(self):
        demo = make_crash_demo()
        live, replayed = self._roundtrip(demo.program, {"n": 7, "mode": 2})
        assert replayed.outcome is Outcome.CRASH
        assert replayed.failure.message == live.failure.message
        assert replayed.path_decisions == live.path_decisions

    def test_replay_reproduces_deadlock(self):
        demo = make_deadlock_demo()
        live, replayed = self._roundtrip(
            demo.program, {"go": 1}, scheduler=RoundRobinScheduler())
        assert live.outcome is Outcome.DEADLOCK
        assert replayed.outcome is Outcome.DEADLOCK
        # Lock by-products are reconstructed, not shipped.
        assert ([(e.op, e.lock_name) for e in replayed.lock_events] ==
                [(e.op, e.lock_name) for e in live.lock_events])

    def test_replay_reproduces_shortread_crash(self):
        demo = make_shortread_demo()
        env = Environment(fault_plan=FaultPlan(forced={1: 5}))
        live, replayed = self._roundtrip(demo.program, {"sz": 32},
                                         environment=env)
        assert replayed.outcome is Outcome.CRASH

    def test_replay_detects_truncated_bits(self):
        demo = make_crash_demo()
        live = Interpreter(demo.program).run({"n": 7, "mode": 2})
        source = ReplaySource(branch_bits=live.branch_bits[:-1],
                              syscall_returns=[],
                              schedule_picks=live.schedule_picks)
        with pytest.raises(TraceError):
            Interpreter(demo.program).replay(source)

    @pytest.mark.parametrize("make,inputs", [
        (make_crash_demo, {"n": 7, "mode": 2}),
        (make_race_demo, {"k": 2}),
        (make_shortread_demo, {"sz": 32}),
    ], ids=["crash", "race", "shortread"])
    @pytest.mark.parametrize("stream,extra", [
        ("branch bits", [True, False]),
        ("syscall returns", [0]),
        ("schedule picks", [0] * 7),
    ], ids=["bits", "syscalls", "picks"])
    def test_replay_detects_overlong_streams(self, make, inputs, stream,
                                             extra):
        """Recorded nondeterminism the replay never consumed means the
        trace does not describe this execution."""
        program = make().program
        live = Interpreter(program).run(inputs,
                                        scheduler=RandomScheduler(seed=3))
        streams = {"branch bits": live.branch_bits,
                   "syscall returns": live.syscall_values,
                   "schedule picks": live.schedule_picks}
        streams[stream] = streams[stream] + extra
        source = ReplaySource(branch_bits=streams["branch bits"],
                              syscall_returns=streams["syscall returns"],
                              schedule_picks=streams["schedule picks"])
        with pytest.raises(TraceError, match=f"left recorded {stream}"):
            Interpreter(program).replay(source)

    def test_replay_never_sees_raw_inputs(self):
        """Deterministic branches are reconstructed concretely even
        though input values are unknown to the replayer."""
        b = ProgramBuilder("det", inputs={"n": (0, 9)})
        main = b.function("main")
        entry = main.block("entry")
        entry.assign("k", c(2) * c(3))
        entry.branch(v("k") == 6, "det_true", "det_false")  # deterministic
        main.block("det_true").branch(Input("n") > 4, "a", "b")  # tainted
        main.block("det_false").halt()
        main.block("a").halt()
        main.block("b").halt()
        program = b.build()
        live, replayed = self._roundtrip(program, {"n": 8})
        # Only one bit shipped (the tainted branch) ...
        assert len(live.branch_bits) == 1
        # ... but replay walked both branches.
        assert len(replayed.branch_events) == 2
        assert replayed.path_decisions == live.path_decisions


#: sha256 of every by-product of the runs in TestGoldenByProducts,
#: recorded with the tree-walking interpreter the lowered one replaced.
GOLDEN_BY_PRODUCTS = \
    "dcfafb2b19ecad5b178af608923f3a38888bd2dbb95d984353e7cf28dda2a799"
DEMOS = ("crash", "deadlock", "shortread", "race", "leak", "prio",
         "wakeup", "toctou", "provenance")


class TestGoldenByProducts:
    """Pins the interpreter's by-products to an independent reference:
    outcomes, failures, step counts, every event, return values and
    final globals, live and replayed, over every demo and four
    generated programs with faults and random schedules."""

    @staticmethod
    def _programs():
        for name in DEMOS:
            yield getattr(corpus, f"make_{name}_demo")().program
        for seed in range(4):
            yield generate_program(
                f"golden{seed}",
                CorpusConfig(seed=seed, n_segments=6, input_domain=16),
                bug_kinds=(BugKind.CRASH, BugKind.ASSERT)).program

    @staticmethod
    def _fingerprint(result):
        return repr((result.outcome, result.failure, result.steps,
                     result.events, sorted(result.return_values.items()),
                     sorted(result.final_globals.items()))).encode()

    def _digest(self, record: bool) -> str:
        digest = hashlib.sha256()
        for program in self._programs():
            for i in range(20):
                rng = random.Random(i)
                inputs = {name: rng.randint(lo, hi)
                          for name, (lo, hi) in sorted(program.inputs.items())}
                live = Interpreter(program).run(
                    inputs,
                    environment=Environment(rng=random.Random(i),
                                            fault_rate=0.2),
                    scheduler=RandomScheduler(rng=random.Random(i + 1000)),
                    entered=set() if record else None)
                replayed = Interpreter(program).replay(
                    trace_from_result(live).replay_source())
                digest.update(self._fingerprint(live))
                digest.update(self._fingerprint(replayed))
        return digest.hexdigest()

    def test_by_products_match_the_reference(self):
        assert self._digest(record=False) == GOLDEN_BY_PRODUCTS

    def test_recording_entered_blocks_changes_nothing(self):
        """Validation runs record the blocks they enter through a second
        copy of the lowered code; every by-product stays the same."""
        assert self._digest(record=True) == GOLDEN_BY_PRODUCTS


#: sha256 of every by-product of the runs in TestGoldenStepLoop,
#: recorded before schedule events were shared and random picks drawn
#: straight from ``getrandbits``.
GOLDEN_STEP_LOOP = \
    "0d814ee77c9fcc3b731ed3b442706b36ee9608c7d57facd3648131bd99bb01b1"


class TestGoldenStepLoop:
    """Pins the step-loop paths TestGoldenByProducts does not reach, on
    the same programs: PCT schedules, fixed picks that name blocked,
    finished or missing threads, round-robin with and without a
    scheduler (and its replay from a trace without a schedule), prefix
    replay of privacy-truncated traces, and HANGs at a small step
    budget, live and replayed."""

    @staticmethod
    def _runs(seen):
        fingerprint = TestGoldenByProducts._fingerprint
        for program in TestGoldenByProducts._programs():
            n_threads = len(program.threads)
            for i in range(8):
                rng = random.Random(i)
                inputs = {name: rng.randint(lo, hi)
                          for name, (lo, hi) in sorted(program.inputs.items())}
                picks = [rng.randrange(n_threads + 1) for _ in range(400)]
                schedulers = (
                    PCTScheduler(n_threads, depth=1 + i % 3, max_steps=300,
                                 seed=i),
                    FixedScheduler(picks),
                    RoundRobinScheduler(),
                    None,
                )
                for scheduler in schedulers:
                    live = Interpreter(program).run(
                        inputs, environment=Environment(
                            rng=random.Random(i), fault_rate=0.2),
                        scheduler=scheduler)
                    if isinstance(scheduler, FixedScheduler):
                        ran = live.schedule_picks
                        seen["skipped picks"] += ran != picks[:len(ran)]
                    trace = trace_from_result(live)
                    yield fingerprint(live)
                    yield fingerprint(
                        Interpreter(program).replay(trace.replay_source()))
                    if scheduler is None:
                        unscheduled = trace_from_result(
                            live, include_schedule=False)
                        yield fingerprint(Interpreter(program).replay(
                            unscheduled.replay_source()))
                    for keep in (0, len(trace.branch_bits) // 2):
                        truncated = truncate_trace(trace, keep)
                        seen["truncated"] += not truncated.replayable
                        yield repr(Interpreter(program).replay_prefix(
                            truncated.replay_source())).encode()
                limits = ExecutionLimits(max_steps=5 + 7 * i)
                hang = Interpreter(program, limits=limits).run(
                    inputs, environment=Environment(rng=random.Random(i)),
                    scheduler=RandomScheduler(seed=i))
                seen["hangs"] += hang.outcome is Outcome.HANG
                yield fingerprint(hang)
                yield fingerprint(Interpreter(program, limits=limits).replay(
                    trace_from_result(hang).replay_source()))

    def test_step_loop_matches_the_reference(self):
        digest = hashlib.sha256()
        seen = {"skipped picks": 0, "truncated": 0, "hangs": 0}
        for part in self._runs(seen):
            digest.update(part)
        # Each path the digest pins was taken.
        assert all(seen.values()), seen
        assert digest.hexdigest() == GOLDEN_STEP_LOOP


class TestEnteredBlocks:
    """``run(entered=)`` gains each block whose first op ran."""

    @staticmethod
    def _entered(program, inputs=None, limits=None):
        entered = set()
        result = Interpreter(program, limits=limits).run(
            inputs or {}, scheduler=RoundRobinScheduler(), entered=entered)
        return result, entered

    def test_thread_blocked_at_block_entry_entered_it(self):
        b = ProgramBuilder("locks", threads=("left", "right"))
        left = b.function("left")
        left.block("entry").lock("A").jump("take_b")
        left.block("take_b").lock("B").jump("done")
        left.block("done").unlock("B").unlock("A").halt()
        right = b.function("right")
        right.block("entry").lock("B").jump("take_a")
        right.block("take_a").lock("A").jump("done")
        right.block("done").unlock("A").unlock("B").halt()
        result, entered = self._entered(b.build())
        # Each thread's lock request at the head of its second block
        # ran and blocked: those blocks were entered, the next ones not.
        assert result.outcome is Outcome.DEADLOCK
        assert entered == {("left", "entry"), ("left", "take_b"),
                           ("right", "entry"), ("right", "take_a")}

    def test_hang_cut_off_inside_a_block(self):
        b = ProgramBuilder("spin", threads=("main",))
        main = b.function("main")
        main.block("entry").jump("loop")
        main.block("loop").assign("i", v("i") + 1) \
            .assign("j", v("j") + 1).jump("loop")
        main.block("exit").halt()
        result, entered = self._entered(
            b.build(), limits=ExecutionLimits(max_steps=5))
        # Steps: jump, i, j, jump, i -- the budget ends mid-block.
        assert result.outcome is Outcome.HANG
        assert entered == {("main", "entry"), ("main", "loop")}

    def test_block_reached_but_not_started_is_not_entered(self):
        b = ProgramBuilder("cut", threads=("main",))
        main = b.function("main")
        main.block("entry").assign("a", 1).jump("next")
        main.block("next").assign("b", 2).halt()
        result, entered = self._entered(
            b.build(), limits=ExecutionLimits(max_steps=2))
        assert result.outcome is Outcome.HANG
        assert result.failure.block == "next"
        assert entered == {("main", "entry")}

    def test_callee_and_branch_targets(self):
        demo = make_crash_demo()
        for inputs in ({"n": 1, "mode": 0}, {"n": 7, "mode": 2}):
            result, entered = self._entered(demo.program, inputs)
            branches = {(event.function, event.block)
                        for event in result.branch_events}
            assert branches <= entered
            assert all(label in demo.program.functions[fname].blocks
                       for fname, label in entered)
        _result, ok = self._entered(demo.program, {"n": 1, "mode": 0})
        _result, crash = self._entered(demo.program, {"n": 7, "mode": 2})
        assert ("main", "boom") in crash - ok


def _forked_program(bad_block: Block) -> Program:
    """An unvalidated program whose entry branch on input ``n`` reaches
    ``bad_block`` when n == 1 and a clean halt otherwise."""
    main = Function("main", blocks={
        "entry": Block("entry", [],
                       Branch(Input("n") == 1, bad_block.label, "good")),
        "good": Block("good", [], Halt()),
        bad_block.label: bad_block,
    })
    return Program("p", functions={"main": main}, inputs={"n": (0, 1)})


class TestLoweredCode:
    """Each program is lowered into closures once, on first entry to
    each block, and cached outside the program by identity."""

    def test_program_and_fixed_clone_keep_their_own_code(self):
        program = make_crash_demo().program
        fixed = ForceBranchFix("pin", function="main", block="m2",
                               taken=False).apply(program)
        trigger = {"n": 7, "mode": 2}
        for _ in range(3):
            assert Interpreter(program).run(trigger).outcome is Outcome.CRASH
            assert Interpreter(fixed).run(trigger).outcome is Outcome.OK

    def test_cache_entry_dies_with_its_program(self):
        program = make_crash_demo().program
        Interpreter(program).run({"n": 1, "mode": 0})
        key = id(program)
        assert interpreter._LOWERED[key].program() is program
        del program
        gc.collect()
        assert key not in interpreter._LOWERED

    @pytest.mark.parametrize("bad_block,error,message", [
        (Block("bad", [], Jump("nowhere")), ProgramModelError,
         "function 'main' has no block 'nowhere'"),
        (Block("bad", [Call(None, "ghost")], Halt()), ProgramModelError,
         "program 'p' has no function 'ghost'"),
        (Block("bad", [], None), ExecutionError,
         "block 'bad' has no terminator"),
        (Block("bad", [Instruction()], Halt()), ExecutionError,
         "unknown instruction"),
    ], ids=["missing-target", "missing-callee", "no-terminator",
            "unknown-instruction"])
    def test_bad_block_fails_only_when_entered(self, bad_block, error,
                                               message):
        program = _forked_program(bad_block)
        assert Interpreter(program).run({"n": 0}).outcome is Outcome.OK
        with pytest.raises(error) as raised:
            Interpreter(program).run({"n": 1})
        if message == "unknown instruction":
            message = f"unknown instruction {bad_block.instructions[0]!r}"
        assert str(raised.value) == message
