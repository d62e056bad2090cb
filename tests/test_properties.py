"""System-level property tests over randomly generated programs.

These are the load-bearing invariants of the reproduction:

* the interpreter is deterministic,
* the trace encode/replay pipeline reconstructs executions exactly,
* the symbolic oracle and concrete execution agree path-for-path,
* tree merging is insensitive to ordering and duplication.

Each property is checked by hypothesis across random corpus programs,
inputs, schedules, and environments.
"""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.progmodel.bugs import BugKind
from repro.progmodel.corpus import CorpusConfig, generate_program
from repro.progmodel.interpreter import (
    Environment, ExecutionLimits, Interpreter, Outcome, ReplaySource,
)
from repro.registry.build import build_registry
from repro.rng import make_rng
from repro.sched.scheduler import RandomScheduler
from repro.symbolic.engine import SymbolicEngine, SymbolicLimits
from repro.tracing.capture import FullCapture
from repro.tracing.encode import decode_trace, encode_trace
from repro.tree.exectree import ExecutionTree

LIMITS = ExecutionLimits(max_steps=6000)

#: The single-thread entries of ``build_registry(seed=0)``: the ones
#: the fault-free symbolic oracle models completely.
SINGLE_THREAD_REFS = ("crash/CR-1", "crash/CR-2", "leak/RL-1", "leak/RL-2",
                      "toctou/TT-1", "toctou/TT-2", "prov/PV-1", "prov/PV-2")


@functools.lru_cache(maxsize=1)
def _registry():
    return {bug.ref: bug for bug in build_registry(seed=0)}


program_configs = st.builds(
    CorpusConfig,
    seed=st.integers(0, 50),
    n_inputs=st.integers(2, 4),
    input_domain=st.integers(3, 8),
    n_segments=st.integers(2, 6),
)

bug_sets = st.sampled_from([
    (BugKind.CRASH,),
    (BugKind.ASSERT,),
    (BugKind.CRASH, BugKind.HANG),
    (BugKind.SHORT_READ,),
    (),
])


def _random_inputs(program, seed):
    rng = make_rng(seed, "prop-inputs")
    return {name: rng.randint(lo, hi)
            for name, (lo, hi) in program.inputs.items()}


def _run(program, inputs, env_seed=0, fault_rate=0.0, sched_seed=None):
    environment = Environment(rng=make_rng(env_seed, "env"),
                              fault_rate=fault_rate)
    scheduler = None
    if sched_seed is not None:
        scheduler = RandomScheduler(rng=make_rng(sched_seed, "sched"))
    return Interpreter(program, limits=LIMITS).run(
        inputs, environment=environment, scheduler=scheduler)


class TestInterpreterDeterminism:
    @settings(max_examples=25, deadline=None)
    @given(config=program_configs, kinds=bug_sets,
           input_seed=st.integers(0, 1000))
    def test_same_seeds_same_execution(self, config, kinds, input_seed):
        if kinds and len(kinds) > config.n_segments:
            return
        seeded = generate_program("prop", config, kinds)
        inputs = _random_inputs(seeded.program, input_seed)
        a = _run(seeded.program, inputs, env_seed=1, fault_rate=0.1)
        b = _run(seeded.program, inputs, env_seed=1, fault_rate=0.1)
        assert a.outcome is b.outcome
        assert a.branch_bits == b.branch_bits
        assert a.path_decisions == b.path_decisions
        assert a.steps == b.steps
        assert a.final_globals == b.final_globals


class TestReplayFidelity:
    @settings(max_examples=25, deadline=None)
    @given(config=program_configs, kinds=bug_sets,
           input_seed=st.integers(0, 1000),
           fault=st.sampled_from([0.0, 0.3]))
    def test_wire_roundtrip_reconstructs_execution(self, config, kinds,
                                                   input_seed, fault):
        if kinds and len(kinds) > config.n_segments:
            return
        seeded = generate_program("prop", config, kinds)
        inputs = _random_inputs(seeded.program, input_seed)
        live = _run(seeded.program, inputs, env_seed=2, fault_rate=fault)
        # Encode -> decode -> replay: the full pod-to-hive pipeline.
        trace = decode_trace(encode_trace(
            FullCapture().capture(live, pod_id="prop-pod")))
        replayed = Interpreter(seeded.program, limits=LIMITS).replay(
            ReplaySource(branch_bits=list(trace.branch_bits),
                         syscall_returns=list(trace.syscall_returns),
                         schedule_picks=list(trace.schedule_picks())))
        assert replayed.outcome is live.outcome
        assert replayed.path_decisions == live.path_decisions
        if live.failure is not None:
            assert replayed.failure.message == live.failure.message
        assert ([  # lock by-products reconstructed exactly
            (e.op, e.lock_name, e.thread) for e in replayed.lock_events
        ] == [(e.op, e.lock_name, e.thread) for e in live.lock_events])

    @settings(max_examples=10, deadline=None)
    @given(input_seed=st.integers(0, 200), sched_seed=st.integers(0, 50))
    def test_multithreaded_replay(self, input_seed, sched_seed):
        seeded = generate_program(
            "prop-mt", CorpusConfig(seed=17), (BugKind.DEADLOCK,))
        inputs = _random_inputs(seeded.program, input_seed)
        live = _run(seeded.program, inputs, sched_seed=sched_seed)
        replayed = Interpreter(seeded.program, limits=LIMITS).replay(
            ReplaySource(branch_bits=live.branch_bits,
                         syscall_returns=live.syscall_values,
                         schedule_picks=live.schedule_picks))
        assert replayed.outcome is live.outcome
        assert replayed.path_decisions == live.path_decisions


class TestOracleConcreteAgreement:
    @staticmethod
    def _project(decisions, oracle_sites):
        """Concrete paths additionally record syscall-return-driven
        decisions that the fault-free oracle resolves concretely;
        compare on the oracle's site alphabet (as the prover does)."""
        return tuple((site, taken) for site, taken in decisions
                     if site in oracle_sites)

    @settings(max_examples=12, deadline=None)
    @given(config=program_configs)
    def test_every_concrete_path_is_in_the_oracle(self, config):
        """Fault-free single-threaded executions always land on a
        feasible symbolic path with the same outcome."""
        seeded = generate_program("prop-oracle", config, (BugKind.CRASH,))
        program = seeded.program
        engine = SymbolicEngine(
            program, limits=SymbolicLimits(max_steps=LIMITS.max_steps))
        oracle = {p.decisions: p.outcome for p in engine.explore()}
        oracle_sites = {site for path in oracle for site, _t in path}
        rng = make_rng(config.seed, "oracle-inputs")
        for _ in range(15):
            inputs = {name: rng.randint(lo, hi)
                      for name, (lo, hi) in program.inputs.items()}
            result = Interpreter(program, limits=LIMITS).run(inputs)
            key = self._project(result.path_decisions, oracle_sites)
            assert key in oracle
            assert oracle[key] is result.outcome

    @settings(max_examples=12, deadline=None)
    @given(config=program_configs)
    def test_oracle_examples_replay_concretely(self, config):
        """Every symbolic path's example inputs drive a concrete run
        down exactly that path."""
        seeded = generate_program("prop-oracle", config, (BugKind.CRASH,))
        program = seeded.program
        engine = SymbolicEngine(
            program, limits=SymbolicLimits(max_steps=LIMITS.max_steps))
        paths = engine.explore()
        oracle_sites = {site for p in paths for site, _t in p.decisions}
        for path in paths:
            result = Interpreter(program, limits=LIMITS).run(
                path.example_inputs)
            assert self._project(result.path_decisions,
                                 oracle_sites) == path.decisions
            assert result.outcome is path.outcome

    def test_registry_single_thread_entries_are_all_covered(self):
        assert SINGLE_THREAD_REFS == tuple(
            ref for ref, bug in _registry().items()
            if len(bug.program.threads) == 1)

    @pytest.mark.parametrize("ref", SINGLE_THREAD_REFS)
    def test_registry_entry_agrees_with_its_oracle(self, ref):
        """Both directions on every single-thread registry entry:
        fifteen random fault-free vectors plus the entry's own test
        inputs land on an oracle path with the same outcome, and every
        path's example inputs replay down that path."""
        program = _registry()[ref].program
        paths = SymbolicEngine(
            program, limits=SymbolicLimits(max_steps=LIMITS.max_steps),
        ).explore()
        oracle = {path.decisions: path.outcome for path in paths}
        oracle_sites = {site for path in oracle for site, _t in path}
        rng = make_rng(0, "registry-oracle", ref)
        vectors = [{name: rng.randint(lo, hi)
                    for name, (lo, hi) in program.inputs.items()}
                   for _ in range(15)]
        vectors += [dict(test.inputs) for test in _registry()[ref].tests]
        for inputs in vectors:
            result = Interpreter(program, limits=LIMITS).run(inputs)
            key = self._project(result.path_decisions, oracle_sites)
            assert oracle.get(key) is result.outcome, inputs
        for path in paths:
            result = Interpreter(program, limits=LIMITS).run(
                path.example_inputs)
            assert self._project(result.path_decisions,
                                 oracle_sites) == path.decisions
            assert result.outcome is path.outcome


class TestTreeMergeProperties:
    @settings(max_examples=10, deadline=None)
    @given(config=program_configs, order_seed=st.integers(0, 100))
    def test_tree_is_order_and_duplication_insensitive(self, config,
                                                       order_seed):
        seeded = generate_program("prop-tree", config, (BugKind.CRASH,))
        program = seeded.program
        capture = FullCapture()
        rng = make_rng(config.seed, "tree-inputs")
        traces = []
        for _ in range(20):
            inputs = {name: rng.randint(lo, hi)
                      for name, (lo, hi) in program.inputs.items()}
            traces.append(capture.capture(
                Interpreter(program, limits=LIMITS).run(inputs)))
        forward = ExecutionTree(program.name, program.version)
        for trace in traces:
            forward.insert_trace(trace, program, limits=LIMITS)
        shuffled = list(traces) + traces[:5]  # duplicates too
        make_rng(order_seed, "shuffle").shuffle(shuffled)
        other = ExecutionTree(program.name, program.version)
        for trace in shuffled:
            other.insert_trace(trace, program, limits=LIMITS)
        assert forward.path_count == other.path_count
        assert forward.node_count == other.node_count
        assert (set(p for p, _o in forward.iter_terminal_paths())
                == set(p for p, _o in other.iter_terminal_paths()))
