"""Hive tests: ingestion, fixing pipeline, proofs, steering, and the
cooperative exploration simulation."""

import dataclasses
import tracemalloc

import pytest

from repro.errors import HiveError
from repro.hive.allocation import SubtreeStats, markowitz_weights
from repro.hive.cooperative import (
    CooperativeConfig, explore_cooperatively,
)
from repro.hive.hive import Hive
from repro.pod.pod import Pod
from repro.progmodel.bugs import BugKind
from repro.progmodel.corpus import (
    CorpusConfig, generate_program, make_crash_demo, make_deadlock_demo,
    make_race_demo,
)
from repro.progmodel.interpreter import ExecutionLimits, Interpreter, Outcome
from repro.proofs.proof import ProofStatus
from repro.sched.scheduler import RandomScheduler, RoundRobinScheduler
from repro.symbolic.engine import SymbolicEngine
from repro.tracing.capture import FullCapture, SampledCapture
from repro.tracing.encode import decode_trace, encode_trace
from repro.tracing.trace import trace_from_result


def _trace(program, inputs, scheduler=None):
    result = Interpreter(program).run(inputs, scheduler=scheduler)
    return trace_from_result(result)


class TestHiveIngestion:
    def test_tree_grows(self):
        demo = make_crash_demo()
        hive = Hive(demo.program)
        for n in range(5):
            hive.ingest_trace(_trace(demo.program, {"n": n, "mode": 2}))
        assert hive.tree.insert_count == 5
        assert hive.stats.traces_ingested == 5

    def test_stale_traces_dropped(self):
        demo = make_crash_demo()
        hive = Hive(demo.program)
        import dataclasses
        stale = dataclasses.replace(
            _trace(demo.program, {"n": 1, "mode": 1}), program_version=99)
        hive.ingest_trace(stale)
        assert hive.stats.stale_traces == 1
        assert hive.tree.insert_count == 0

    def test_sampled_traces_feed_cbi(self):
        demo = make_crash_demo()
        hive = Hive(demo.program)
        capture = SampledCapture(rate=1)
        result = Interpreter(demo.program).run({"n": 7, "mode": 2})
        hive.ingest_trace(capture.capture(result))
        assert hive.cbi.runs == 1
        assert hive.tree.insert_count == 0  # not replayable

    @pytest.mark.parametrize("seed,outcome", [
        (2, Outcome.OK), (0, Outcome.ASSERT),
    ], ids=["ok", "assert"])
    def test_overlong_schedule_fails_replay_in_bounded_memory(self, seed,
                                                              outcome):
        """A payload may claim any schedule length. Replay takes one
        pick per step, so a claim of 50M picks costs one bounded replay
        and is rejected; nothing materializes it, not even the dangerous
        schedules a failing interleaving would join."""
        demo = make_race_demo()
        live = Interpreter(demo.program).run(
            {"k": 1}, scheduler=RandomScheduler(seed=seed))
        assert live.outcome is outcome
        payload = encode_trace(dataclasses.replace(
            trace_from_result(live),
            schedule_rle=((0, 25_000_000), (1, 25_000_000))))
        hive = Hive(demo.program)
        tracemalloc.start()
        try:
            hive.ingest_trace(decode_trace(payload))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hive.stats.replay_failures == 1
        assert peak < 10 * 2 ** 20


    def test_an_entry_that_does_not_decode_is_counted(self):
        # A frame's CRC vouches for the bytes in transit, not for the
        # sender: an entry that does not decode is an arrival whose
        # replay failed, and the rest of the frame still ingests.
        from repro.exec.batch import BatchEntry, TraceBatch
        demo = make_crash_demo()
        good = encode_trace(_trace(demo.program, {"n": 1, "mode": 2}))
        batch = TraceBatch(
            shard_id=0, program_name=demo.program.name,
            program_version=demo.program.version,
            entries=[BatchEntry(0, payload=good),
                     BatchEntry(1, payload=b"\x07\xff\xff"),
                     BatchEntry(2, payload=good)])
        hive = Hive(demo.program, validate_fixes=False, enable_proofs=False)
        assert hive.ingest_batch([batch]) == 3
        assert hive.stats.traces_ingested == 3
        assert hive.stats.replay_failures == 1
        assert hive.tree.path_count == 1


class TestHiveFixing:
    def test_crash_gets_fixed_and_version_bumps(self):
        demo = make_crash_demo()
        hive = Hive(demo.program)
        hive.ingest_trace(_trace(demo.program, {"n": 7, "mode": 2}))
        hive.ingest_trace(_trace(demo.program, {"n": 1, "mode": 1}))
        updated = hive.maybe_fix()
        assert updated is not None
        assert updated.version == demo.program.version + 1
        assert hive.stats.fixes_deployed == 1
        # The fixed program no longer crashes.
        result = Interpreter(updated).run({"n": 7, "mode": 2})
        assert result.outcome is Outcome.OK

    def test_no_failures_no_fix(self):
        demo = make_crash_demo()
        hive = Hive(demo.program)
        hive.ingest_trace(_trace(demo.program, {"n": 1, "mode": 1}))
        assert hive.maybe_fix() is None

    def test_deadlock_gets_immunity_fix(self):
        demo = make_deadlock_demo()
        hive = Hive(demo.program)
        hive.ingest_trace(_trace(demo.program, {"go": 1},
                           scheduler=RoundRobinScheduler()))
        updated = hive.maybe_fix()
        assert updated is not None
        assert Interpreter(updated).run(
            {"go": 1}, scheduler=RoundRobinScheduler()
        ).outcome is Outcome.OK

    def test_fix_not_retried_after_deploy(self):
        demo = make_crash_demo()
        hive = Hive(demo.program)
        hive.ingest_trace(_trace(demo.program, {"n": 7, "mode": 2}))
        assert hive.maybe_fix() is not None
        assert hive.maybe_fix() is None  # nothing new

    def test_unvalidated_mode(self):
        demo = make_crash_demo()
        hive = Hive(demo.program, validate_fixes=False)
        hive.ingest_trace(_trace(demo.program, {"n": 7, "mode": 2}))
        assert hive.maybe_fix() is not None

    def test_proof_invalidated_on_fix(self):
        demo = make_crash_demo()
        hive = Hive(demo.program)
        hive.ingest_trace(_trace(demo.program, {"n": 7, "mode": 2}))
        assert hive.current_proof().status is ProofStatus.REFUTED
        hive.maybe_fix()
        assert hive.prover.invalidated_proofs
        assert hive.current_proof().status is ProofStatus.PARTIAL


class TestHiveSteering:
    def test_directives_target_gaps(self):
        demo = make_crash_demo()
        hive = Hive(demo.program)
        # Only one path observed: everything else is a gap.
        hive.ingest_trace(_trace(demo.program, {"n": 1, "mode": 2}))
        directives = hive.plan_steering(max_directives=4)
        assert directives
        input_directives = [d for d in directives if d.kind == "input"]
        assert input_directives
        # Executing a directive must reach a previously unseen path.
        before = hive.tree.path_count
        pod = Pod("p0", demo.program)
        for directive in input_directives:
            run = pod.execute({"n": 0, "mode": 0}, directive=directive)
            hive.ingest_trace(run.trace)
        assert hive.tree.path_count > before


class TestMarkowitz:
    def test_uniform_without_evidence(self):
        stats = [SubtreeStats(key=i) for i in range(4)]
        assert markowitz_weights(stats) == [0.25] * 4

    def test_higher_return_gets_more_weight(self):
        a, b = SubtreeStats(key="a"), SubtreeStats(key="b")
        for _ in range(5):
            a.record(10.0)
            b.record(1.0)
        wa, wb = markowitz_weights([a, b])
        assert wa > wb
        assert wa + wb == pytest.approx(1.0)

    def test_riskier_subtree_discounted(self):
        steady, volatile = SubtreeStats(key="s"), SubtreeStats(key="v")
        for value in (5.0, 5.0, 5.0, 5.0):
            steady.record(value)
        for value in (0.0, 10.0, 0.0, 10.0):
            volatile.record(value)
        ws, wv = markowitz_weights([steady, volatile])
        assert ws > wv  # same mean, higher variance -> less capital

    def test_exploration_floor(self):
        a, b = SubtreeStats(key="a"), SubtreeStats(key="b")
        for _ in range(3):
            a.record(100.0)
            b.record(0.0)
        _wa, wb = markowitz_weights([a, b], exploration_floor=0.1)
        assert wb >= 0.1

    def test_validation(self):
        with pytest.raises(HiveError):
            markowitz_weights([])
        with pytest.raises(HiveError):
            markowitz_weights([SubtreeStats(key=1)], risk_aversion=0)
        with pytest.raises(HiveError):
            markowitz_weights([SubtreeStats(key=i) for i in range(3)],
                              exploration_floor=0.5)


class TestCooperativeExploration:
    def _program(self):
        return generate_program(
            "coop", CorpusConfig(seed=9, n_segments=6),
            (BugKind.CRASH,)).program

    def test_dynamic_finds_all_paths(self):
        program = self._program()
        expected = {p.decisions for p in SymbolicEngine(program).explore()}
        result = explore_cooperatively(
            program, CooperativeConfig(n_workers=4, mode="dynamic"))
        assert result.completed
        assert {p.decisions for p in result.paths} == expected

    def test_static_finds_all_paths(self):
        program = self._program()
        expected = {p.decisions for p in SymbolicEngine(program).explore()}
        result = explore_cooperatively(
            program, CooperativeConfig(n_workers=4, mode="static",
                                       split_depth=2))
        assert result.completed
        assert {p.decisions for p in result.paths} == expected

    def test_dynamic_survives_loss(self):
        program = self._program()
        expected = {p.decisions for p in SymbolicEngine(program).explore()}
        result = explore_cooperatively(
            program, CooperativeConfig(n_workers=4, mode="dynamic",
                                       loss_rate=0.2, task_timeout=2.0,
                                       seed=5))
        assert result.completed
        assert {p.decisions for p in result.paths} == expected
        assert result.tasks_reassigned > 0

    def test_dynamic_survives_churn_static_stalls(self):
        program = self._program()
        churn = ((0.5, 0), (0.5, 1))
        dynamic = explore_cooperatively(
            program, CooperativeConfig(n_workers=4, mode="dynamic",
                                       churn=churn, task_timeout=2.0,
                                       deadline=500.0))
        static = explore_cooperatively(
            program, CooperativeConfig(n_workers=4, mode="static",
                                       split_depth=2, churn=churn,
                                       task_timeout=2.0, deadline=500.0))
        assert dynamic.completed
        # Static loses the dead workers' subtrees (unless the dead
        # workers happened to finish before the churn event).
        assert dynamic.path_count >= static.path_count

    def test_more_workers_not_slower(self):
        program = self._program()
        slow = explore_cooperatively(
            program, CooperativeConfig(n_workers=1, mode="dynamic"))
        fast = explore_cooperatively(
            program, CooperativeConfig(n_workers=8, mode="dynamic"))
        assert slow.completed and fast.completed
        assert fast.virtual_time <= slow.virtual_time

    def test_markowitz_allocation_runs(self):
        program = self._program()
        result = explore_cooperatively(
            program, CooperativeConfig(n_workers=4, mode="dynamic",
                                       allocation="markowitz"))
        assert result.completed

    def test_config_validation(self):
        with pytest.raises(HiveError):
            CooperativeConfig(n_workers=0).validate()
        with pytest.raises(HiveError):
            CooperativeConfig(mode="magic").validate()
        with pytest.raises(HiveError):
            CooperativeConfig(allocation="magic").validate()


class TestHiveStatus:
    def test_status_snapshot(self):
        demo = make_crash_demo()
        hive = Hive(demo.program)
        for n in range(8):
            hive.ingest_trace(_trace(demo.program, {"n": n, "mode": 2}))
        status = hive.status()
        assert status["program"] == "crash_demo"
        assert status["version"] == 1
        assert status["traces_ingested"] == 8
        assert status["tree_paths"] >= 2
        assert status["failure_buckets"] == 1  # n==7 crashed
        assert "refuted" in status["proof"]
        assert isinstance(status["top_invariants"], list)

    def test_status_after_fix(self):
        demo = make_crash_demo()
        hive = Hive(demo.program)
        hive.ingest_trace(_trace(demo.program, {"n": 7, "mode": 2}))
        hive.maybe_fix()
        status = hive.status()
        assert status["version"] == 2
        assert status["fixes_deployed"] == 1
        assert status["tree_paths"] == 0  # knowledge restarted
