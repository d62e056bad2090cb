"""Constraint-cache tests: canonical keys, slicing, the three reuse
tiers, the delta/merge sharing protocol, and witness recycling."""

import pytest

from repro.errors import SolverError, SymbolicError
from repro.progmodel.ir import Input
from repro.symbolic.cache import (
    ConstraintCache, canonical_slice_key, condition_slices,
    conjunct_slices,
)
from repro.symbolic.engine import SymbolicEngine
from repro.symbolic.pathcond import PathCondition
from repro.symbolic.solver import EnumerationSolver, SolverStats


def _cond(*constraints):
    condition = PathCondition()
    for expr, truth in constraints:
        condition = condition.extended(expr, truth)
    return condition


class TestCanonicalKeys:
    def test_alpha_equivalent_conditions_share_a_key(self):
        key_ab, order_ab = canonical_slice_key(
            [(Input("a") + Input("b") == 7, True)])
        key_xy, order_xy = canonical_slice_key(
            [(Input("x") + Input("y") == 7, True)])
        assert key_ab == key_xy
        assert order_ab == ("a", "b")
        assert order_xy == ("x", "y")

    def test_conjunct_order_is_canonicalized(self):
        one = canonical_slice_key([(Input("a") > 2, True),
                                   (Input("a") < 7, True)])
        two = canonical_slice_key([(Input("a") < 7, True),
                                   (Input("a") > 2, True)])
        assert one == two

    def test_truth_value_distinguishes(self):
        key_true, _ = canonical_slice_key([(Input("a") > 2, True)])
        key_false, _ = canonical_slice_key([(Input("a") > 2, False)])
        assert key_true != key_false

    def test_structure_distinguishes(self):
        key_sum, _ = canonical_slice_key(
            [(Input("a") + Input("b") == 7, True)])
        key_diff, _ = canonical_slice_key(
            [(Input("a") - Input("b") == 7, True)])
        assert key_sum != key_diff


class TestSlicing:
    def test_disjoint_symbols_split(self):
        pieces = condition_slices(_cond(
            (Input("a") > 2, True), (Input("b") < 5, True)))
        assert len(pieces) == 2
        assert [piece.symbols for piece in pieces] == [("a",), ("b",)]

    def test_shared_symbol_joins(self):
        pieces = condition_slices(_cond(
            (Input("a") > 2, True),
            (Input("b") < 5, True),
            (Input("a") + Input("b") == 7, True)))
        assert len(pieces) == 1
        assert set(pieces[0].symbols) == {"a", "b"}

    def test_constant_conjuncts_form_one_slice(self):
        from repro.progmodel.ir import BinOp, Const
        pieces = conjunct_slices([
            (BinOp("<", Const(1), Const(2)), True),
            (Input("a") > 2, True),
            (BinOp("==", Const(3), Const(3)), True)])
        constant = [p for p in pieces if not p.symbols]
        assert len(constant) == 1
        assert len(constant[0].conjuncts) == 2

    def test_slice_key_independent_of_partition(self):
        whole = condition_slices(_cond(
            (Input("a") > 2, True), (Input("x") + Input("y") == 7, True)))
        alone = condition_slices(_cond(
            (Input("p") + Input("q") == 7, True)))
        joint_keys = {piece.key for piece in whole}
        assert alone[0].key in joint_keys


class TestReuseTiers:
    DOMAINS = {"a": (0, 9), "b": (0, 9), "c": (0, 9)}

    def test_exact_hit_skips_search(self):
        cache = ConstraintCache()
        cold = EnumerationSolver(cache=cache)
        condition = _cond((Input("a") + Input("b") == 7, True))
        model = cold.solve(condition, self.DOMAINS)
        assert model is not None and condition.satisfied_by(model)
        cold_cost = cold.stats.evaluations

        warm = EnumerationSolver(cache=cache)
        again = warm.solve(condition, self.DOMAINS)
        assert again == model
        assert cache.stats.hits_exact >= 1
        assert warm.stats.evaluations < cold_cost

    def test_exact_hit_across_symbol_renaming(self):
        cache = ConstraintCache()
        EnumerationSolver(cache=cache).solve(
            _cond((Input("a") + Input("b") == 7, True)), self.DOMAINS)
        renamed = _cond((Input("x") + Input("y") == 7, True))
        model = EnumerationSolver(cache=cache).solve(
            renamed, {"x": (0, 9), "y": (0, 9)})
        assert model is not None and renamed.satisfied_by(model)
        assert cache.stats.hits_exact >= 1

    def test_stored_model_outside_domain_is_not_reused(self):
        cache = ConstraintCache()
        condition = _cond((Input("a") + Input("b") == 7, True))
        model = EnumerationSolver(cache=cache).solve(
            condition, self.DOMAINS)
        # Narrow the domains so the banked model no longer fits; the
        # solver must fall back to search and find a valid model.
        tight = {"a": (max(model["a"] + 1, 3), 9), "b": (0, 9)}
        fresh = EnumerationSolver(cache=cache).solve(condition, tight)
        assert fresh is not None
        assert tight["a"][0] <= fresh["a"] <= 9
        assert condition.satisfied_by(fresh)

    def test_rehydration_extends_cached_parent(self):
        cache = ConstraintCache()
        parent = _cond((Input("a") + Input("b") == 7, True))
        EnumerationSolver(cache=cache).solve(parent, self.DOMAINS)
        child = _cond((Input("a") + Input("b") == 7, True),
                      (Input("a") + Input("b") < 9, True))
        model = EnumerationSolver(cache=cache).solve(child, self.DOMAINS)
        assert model is not None and child.satisfied_by(model)
        assert cache.stats.hits_model >= 1

    def test_unsat_subsumption(self):
        cache = ConstraintCache()
        # Multi-symbol contradiction: intervals cannot prune it, so the
        # refutation is search-proven and banked.
        condition = _cond((Input("a") + Input("b") == 20, True))
        domains = {"a": (0, 5), "b": (0, 5)}
        first = EnumerationSolver(cache=cache)
        assert first.solve(condition, domains) is None
        assert first.stats.unsat_results == 1

        narrower = {"a": (1, 4), "b": (0, 3)}
        second = EnumerationSolver(cache=cache)
        assert second.solve(condition, narrower) is None
        assert cache.stats.hits_unsat == 1
        assert second.stats.evaluations <= len(condition.constraints) + 1

    def test_unsat_not_subsumed_by_wider_domains(self):
        cache = ConstraintCache()
        condition = _cond((Input("a") + Input("b") == 11, True))
        assert EnumerationSolver(cache=cache).solve(
            condition, {"a": (0, 5), "b": (0, 5)}) is None
        # Wider domains are NOT subsumed — and are in fact satisfiable.
        model = EnumerationSolver(cache=cache).solve(
            condition, {"a": (0, 9), "b": (0, 9)})
        assert model is not None and condition.satisfied_by(model)
        assert cache.stats.hits_unsat == 0

    def test_verdicts_match_uncached_solver(self):
        domains = {"a": (0, 9), "b": (0, 9), "c": (0, 9)}
        conditions = [
            _cond((Input("a") > 2, True)),
            _cond((Input("a") + Input("b") == 7, True)),
            _cond((Input("a") + Input("b") == 25, True)),
            _cond((Input("a") > 2, True), (Input("b") < 5, True),
                  (Input("c") % 3 == 1, True)),
            _cond((Input("a") == 5, True), (Input("a") == 6, True)),
            _cond((Input("a") * 2 == Input("b"), True),
                  (Input("b") > 7, True)),
        ]
        cache = ConstraintCache()
        for _round in range(2):       # second pass runs hot
            for condition in conditions:
                plain = EnumerationSolver().solve(condition, domains)
                cached = EnumerationSolver(cache=cache).solve(
                    condition, domains)
                assert (plain is None) == (cached is None)
                if cached is not None:
                    assert condition.satisfied_by(cached)

    def test_budget_still_enforced_with_cache(self):
        cache = ConstraintCache()
        solver = EnumerationSolver(max_evaluations=3, cache=cache)
        condition = _cond(
            (Input("a") + Input("b") + Input("c") == 700, True))
        with pytest.raises(SolverError):
            solver.solve(condition, {"a": (0, 499), "b": (0, 499),
                                     "c": (0, 499)})


class TestEviction:
    def test_fifo_eviction_is_bounded(self):
        cache = ConstraintCache(max_entries=2)
        solver = EnumerationSolver(cache=cache)
        for pivot in (3, 4, 5):
            solver.solve(_cond((Input("a") + Input("b") == pivot, True)),
                         {"a": (0, 9), "b": (0, 9)})
        assert len(cache) == 2
        assert cache.stats.evictions == 1


class TestSharingProtocol:
    def _solve_some(self, cache, pivots):
        solver = EnumerationSolver(cache=cache)
        for pivot in pivots:
            solver.solve(_cond((Input("a") + Input("b") == pivot, True)),
                         {"a": (0, 9), "b": (0, 9)})

    def test_export_then_merge_transfers_facts(self):
        source = ConstraintCache()
        self._solve_some(source, (7, 8))
        delta = source.export_delta()
        assert len(delta) == 2

        sink = ConstraintCache()
        assert sink.merge(delta) == 2
        assert sink.stats.merged == 2
        warm = EnumerationSolver(cache=sink)
        model = warm.solve(_cond((Input("a") + Input("b") == 7, True)),
                           {"a": (0, 9), "b": (0, 9)})
        assert model is not None
        assert sink.stats.hits_exact == 1

    def test_export_is_incremental(self):
        cache = ConstraintCache()
        self._solve_some(cache, (7,))
        assert len(cache.export_delta()) == 1
        assert cache.export_delta() == []       # nothing new
        self._solve_some(cache, (8,))
        assert len(cache.export_delta()) == 1

    def test_adopted_facts_are_never_echoed(self):
        source = ConstraintCache()
        self._solve_some(source, (7,))
        sink = ConstraintCache()
        sink.merge(source.export_delta())
        # The sink re-derives the same fact locally: still no echo.
        self._solve_some(sink, (7,))
        assert sink.export_delta() == []

    def test_reshare_relogs_for_redistribution(self):
        shard = ConstraintCache()
        self._solve_some(shard, (7,))
        hive = ConstraintCache()
        hive.merge(shard.export_delta(), reshare=True)
        redistributed = hive.export_delta()
        assert len(redistributed) == 1
        other = ConstraintCache()
        other.merge(redistributed)
        assert len(other) == 1

    def test_canonical_order_is_partition_invariant(self):
        # The same fact set discovered under two different shardings
        # must fold to the same canonical delta.
        a1, a2 = ConstraintCache(), ConstraintCache()
        self._solve_some(a1, (7, 8))
        self._solve_some(a2, (9,))
        b1, b2 = ConstraintCache(), ConstraintCache()
        self._solve_some(b1, (9, 7))
        self._solve_some(b2, (8,))
        fold = ConstraintCache.canonical_order
        assert (fold([a1.export_delta(), a2.export_delta()])
                == fold([b2.export_delta(), b1.export_delta()]))

    def test_canonical_order_keeps_first_entry_per_key(self):
        key, order = canonical_slice_key(
            [(Input("a") + Input("b") == 7, True)])
        one, two = ConstraintCache(), ConstraintCache()
        one.store_sat(key, order, {"a": 0, "b": 7})
        two.store_sat(key, order, {"a": 1, "b": 6})
        folded = ConstraintCache.canonical_order(
            [one.export_delta(), two.export_delta()])
        assert len(folded) == 1


class TestWitnessRecycling:
    def _crash_program(self):
        from repro.workloads.scenarios import crash_scenario
        return crash_scenario().program

    def test_recycle_then_solve_prefix_hits(self):
        program = self._crash_program()
        cache = ConstraintCache()
        explorer = SymbolicEngine(program)
        paths = explorer.explore()
        target = max(paths, key=lambda p: len(p.decisions))

        recycler = SymbolicEngine(program, cache=cache)
        banked = recycler.recycle_witness(target.decisions,
                                          target.example_inputs)
        assert banked
        assert len(cache) > 0
        before = cache.stats.hits

        guided = SymbolicEngine(program, cache=cache)
        inputs = guided.solve_prefix(target.decisions)
        assert inputs is not None
        assert cache.stats.hits > before

    def test_recycle_without_cache_is_noop(self):
        program = self._crash_program()
        engine = SymbolicEngine(program)
        paths = engine.explore()
        assert engine.recycle_witness(
            paths[0].decisions, paths[0].example_inputs) is False

    def test_recycle_rejects_disagreeing_inputs(self):
        program = self._crash_program()
        cache = ConstraintCache()
        engine = SymbolicEngine(program, cache=cache)
        paths = engine.explore()
        target = next(p for p in paths if p.decisions)
        # The path's own inputs take its first decision, so the walk
        # must stop there, on the flipped direction.
        (site, taken), *rest = target.decisions
        flipped = ((site, not taken), *rest)
        assert engine.recycle_witness(flipped,
                                      target.example_inputs) is False
        assert engine.divergence == "direction"
        assert engine.recycle_witness(target.decisions,
                                      target.example_inputs) is True
        assert engine.divergence is None
        # Whatever was banked must still be sound: replaying any cached
        # SAT model against its own slice is a tautology by
        # construction, so just confirm solve verdicts are unchanged.
        for path in paths:
            assert SymbolicEngine(program, cache=cache).solve_prefix(
                path.decisions) is not None

    def test_each_divergence_names_its_reason(self):
        from repro.progmodel.builder import ProgramBuilder
        b = ProgramBuilder("diverge")
        b.declare_input("n", 0, 9)
        main = b.function("main")
        main.block("entry").branch(Input("n") > 4, "big", "small")
        main.block("big").branch(Input("n") > 6, "done", "done")
        main.block("small").ret(0)
        main.block("done").ret(0)
        engine = SymbolicEngine(b.build(), cache=ConstraintCache())
        first, second = (0, "main", "entry"), (0, "main", "big")
        walks = (
            # n = 2 takes the other direction at the first fork.
            ("direction", ((first, True),), {"n": 2}),
            # The model forks at ``big``; the path never decided it.
            ("fork", ((first, True), ((0, "main", "gone"), True)),
             {"n": 7}),
            # ``small`` returns while the path still has a decision.
            ("ended", ((first, False), (second, True)), {"n": 2}),
            # The first fork's condition reads an unbound input.
            ("error", ((first, True),), {}),
        )
        for reason, decisions, inputs in walks:
            assert engine.recycle_witness(decisions, inputs) is False
            assert engine.divergence == reason
        assert engine.recycle_witness(((first, True), (second, True)),
                                      {"n": 7}) is True
        assert engine.divergence is None


@pytest.fixture
def registry():
    """A fresh process registry for the test, restored afterwards."""
    from repro import obs
    from repro.obs import Registry
    previous = obs.set_registry(Registry())
    try:
        yield obs.get_registry()
    finally:
        obs.set_registry(previous)


def _divergences(registry):
    """Recycle divergences counted so far, by reason."""
    prefix = "symbolic.recycle_diverged_"
    return {name[len(prefix):]: value
            for name, value in registry.counters().items()
            if name.startswith(prefix)}


def _reference_recycle(engine, decisions, inputs):
    """The per-path recycle walk the trie replaced: every walk starts
    again from the root and extends and slices each step itself."""
    from repro.symbolic.engine import _DONE, SymPath
    from repro.symbolic.expr import eval_concrete
    cache = engine.solver.cache
    state = engine._initial_state(engine.program.threads[0])
    script = list(decisions)
    while script:
        step = engine._advance_to_decision(state)
        if step == _DONE or isinstance(step, SymPath):
            break
        site, cond = step
        while script and script[0][0] != site:
            script.pop(0)
        if not script:
            return False
        _want_site, taken = script.pop(0)
        try:
            value = eval_concrete(cond, inputs)
        except (ZeroDivisionError, SymbolicError):
            return False
        if bool(value) != taken:
            return False
        extended = state.condition.extended(cond, taken)
        if extended is not state.condition:
            for piece in condition_slices(extended):
                if (piece.symbols
                        and any(expr is cond and t == taken
                                for expr, t in piece.conjuncts)
                        and all(name in inputs for name in piece.symbols)):
                    cache.store_sat(
                        piece.key, piece.order,
                        {name: inputs[name] for name in piece.symbols})
        state.condition = extended
        state.decisions.append((site, taken))
        engine._take_branch(state, taken)
    return not script


def _repair_platform(seed, backend="serial", workers=0):
    """The repo benchmark's repair workload (perfbench ``_repair``)."""
    from repro.platform import PlatformConfig, SoftBorgPlatform
    from repro.progmodel.bugs import BugKind
    from repro.progmodel.corpus import CorpusConfig, generate_program
    from repro.workloads.population import UserPopulation
    from repro.workloads.scenarios import Scenario
    seeded = generate_program(
        "repair", CorpusConfig(seed=1, n_segments=8, input_domain=24),
        (BugKind.CRASH, BugKind.ASSERT))
    return SoftBorgPlatform(
        Scenario(seeded=seeded,
                 population=UserPopulation(seeded.program, 40,
                                           volatility=0.4, seed=seed),
                 description="generated crash + assert program"),
        PlatformConfig(n_pods=8, rounds=12, executions_per_round=25,
                       guidance=True, enable_proofs=True,
                       solver_cache="collective", seed=seed,
                       backend=backend, workers=workers))


class TestRecycleDivergenceCounts:
    """Every counted divergence on a fault-free workload is a bug, and
    each distinct path counts once, however many shards walk it."""

    def test_first_walk_of_a_path_counts_once(self, registry):
        from repro.exec.backends import SerialBackend
        from repro.exec.batch import ShardResult
        from repro.exec.session import SyncDelta
        from repro.workloads.scenarios import crash_scenario
        program = crash_scenario().program
        backend = SerialBackend([], program)
        a, b = (("s", True),), (("s", False),)
        # Two shards walk path ``a``: the earlier run (index 3) banked,
        # so the later one's divergence is not counted.
        backend._count_divergences([
            ShardResult(0, recycle_walks=[(5, a, "direction"),
                                          (8, b, "fork")]),
            ShardResult(1, recycle_walks=[(3, a, None),
                                          (9, b, "fork")]),
        ])
        assert _divergences(registry) == {"fork": 1}
        # Walked again in a later round: counted already.
        backend._count_divergences([
            ShardResult(1, recycle_walks=[(0, b, "fork")])])
        assert _divergences(registry) == {"fork": 1}
        # A new hive program: shards walk every path afresh.
        backend.publish(SyncDelta(hive_program=program))
        backend._count_divergences([
            ShardResult(0, recycle_walks=[(0, b, "fork")])])
        assert _divergences(registry) == {"fork": 2}

    @pytest.mark.parametrize("seed", (1, 2))
    def test_repair_counts_none_on_any_backend(self, registry, seed):
        # The repair workload has no environment faults.
        for backend, workers in (("serial", 0), ("process", 2)):
            _repair_platform(seed, backend, workers).run()
            assert _divergences(registry) == {}
            assert registry.counters()["symbolic.cache.hits"] > 0

    def test_faulted_runs_count_alike_on_serial_and_two_workers(
            self, registry):
        # Short reads injected by the environment drive decisions the
        # fault-free model cannot force. Both workers walk some of the
        # same paths; each path still counts once.
        from repro.platform import PlatformConfig, SoftBorgPlatform
        from repro.workloads.scenarios import shortread_scenario
        counts = []
        for backend, workers in (("serial", 0), ("process", 2)):
            registry.reset()
            SoftBorgPlatform(shortread_scenario(seed=0), PlatformConfig(
                rounds=6, executions_per_round=200, guidance=True,
                seed=0, backend=backend, workers=workers,
                solver_cache="collective")).run()
            counts.append(_divergences(registry))
        assert counts[0] == counts[1] == {"direction": 2, "fork": 2}


class TestRecycleTrie:
    """The trie walk banks exactly what per-path walks banked."""

    @pytest.fixture(scope="class")
    def repair_stream(self):
        """Every recycle walk of the repair workload at seed 1, as
        (engine, decisions, inputs, returned), in call order."""
        calls = []
        original = SymbolicEngine.recycle_witness

        def recording(engine, decisions, inputs):
            banked = original(engine, decisions, inputs)
            calls.append((engine, tuple(decisions), dict(inputs), banked))
            return banked
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SymbolicEngine, "recycle_witness", recording)
            _repair_platform(seed=1).run()
        return calls

    def test_guided_walks_recycle_the_inputs_the_pod_ran(self,
                                                         repair_stream):
        # The workload has no environment faults, so every recorded
        # path is one the fault-free model can force.
        assert len(repair_stream) > 100
        assert all(banked for *_rest, banked in repair_stream)

    def test_trie_matches_per_path_walks(self, repair_stream):
        engines = {}
        for engine, decisions, inputs, _banked in repair_stream:
            engines.setdefault(id(engine), (engine, []))[1].append(
                (decisions, inputs))
        assert len(engines) >= 2          # one per shard and version
        for engine, walks in engines.values():
            trie = SymbolicEngine(engine.program, cache=ConstraintCache())
            reference = SymbolicEngine(engine.program,
                                       cache=ConstraintCache())
            for decisions, inputs in walks:
                assert (trie.recycle_witness(decisions, inputs)
                        == _reference_recycle(reference, decisions, inputs))
            mine, theirs = trie.solver.cache, reference.solver.cache
            assert mine.export_delta() == theirs.export_delta()
            assert list(mine.entries()) == list(theirs.entries())
            assert mine.stats.stores == theirs.stats.stores > 0

    def test_mismatching_walks_match_per_path_walks(self):
        """Diverging walks (flipped decisions, wrong inputs) stop where
        a per-path walk stops, after banking the same prefix."""
        from repro.workloads.scenarios import crash_scenario
        program = crash_scenario().program
        paths = [path for path in SymbolicEngine(program).explore()
                 if path.decisions]
        trie = SymbolicEngine(program, cache=ConstraintCache())
        reference = SymbolicEngine(program, cache=ConstraintCache())
        for path in paths + paths[::-1]:
            for decisions, inputs in (
                    (path.decisions, path.example_inputs),
                    (tuple((site, not taken)
                           for site, taken in path.decisions),
                     path.example_inputs),
                    (path.decisions[:-1], path.example_inputs),
                    (path.decisions + path.decisions, path.example_inputs)):
                assert (trie.recycle_witness(decisions, inputs)
                        == _reference_recycle(reference, decisions, inputs))
        assert (trie.solver.cache.export_delta()
                == reference.solver.cache.export_delta())
        assert trie.solver.cache.stats.stores \
            == reference.solver.cache.stats.stores


class TestShardRecycling:
    def test_input_directive_recycles_the_inputs_the_pod_ran(self,
                                                            monkeypatch):
        """A directive's inputs replace the planned ones in the run, so
        the walk over that run's path must check those inputs."""
        from repro.exec.plan import PlannedRun
        from repro.exec.shard import Shard
        from repro.guidance.steering import SteeringDirective
        from repro.pod.pod import Pod
        from repro.progmodel.corpus import make_crash_demo
        program = make_crash_demo().program
        walks = []
        original = SymbolicEngine.recycle_witness

        def recording(engine, decisions, inputs):
            banked = original(engine, decisions, inputs)
            walks.append((dict(inputs), banked))
            return banked
        monkeypatch.setattr(SymbolicEngine, "recycle_witness", recording)
        shard = Shard(0, {0: Pod("pod0", program)}, program,
                      solver_cache=ConstraintCache())
        steered = {"n": 7, "mode": 2}
        list(shard.run_windows([[PlannedRun(
            global_index=0, pod_index=0, inputs={"n": 1, "mode": 0},
            directive=SteeringDirective(kind="input", inputs=steered))]]))
        assert walks == [(steered, True)]
        assert shard.solver_cache.stats.stores > 0


    @pytest.mark.parametrize("name", ("repair", "race"))
    def test_walks_equal_a_replay_of_each_shipped_trace(self, monkeypatch,
                                                        name):
        """The shard walks each run's own path and replays nothing: the
        walks must be the ones a replay of each shipped trace would
        feed — same decisions, same inputs, same order — with stale,
        lost, heartbeat and repeated-path runs skipped alike."""
        import dataclasses

        from repro.exec.plan import PlannedRun
        from repro.exec.shard import Shard
        from repro.pod.pod import Pod
        from repro.progmodel.bugs import BugKind
        from repro.progmodel.corpus import (
            CorpusConfig, generate_program, make_race_demo,
        )
        from repro.progmodel.interpreter import Interpreter
        from repro.tracing.encode import decode_trace
        from repro.workloads.population import UserPopulation
        if name == "repair":
            program = generate_program(
                "repair", CorpusConfig(seed=1, n_segments=8,
                                       input_domain=24),
                (BugKind.CRASH, BugKind.ASSERT)).program
        else:
            program = make_race_demo().program
        population = UserPopulation(program, 40, volatility=0.4, seed=1)
        pods = {index: Pod(f"pod{index}", program, seed=index + 1)
                for index in range(6)}
        shard = Shard(0, pods, program, dedup=True,
                      solver_cache=ConstraintCache())
        # Pod 5 runs a newer version than the hive: its traces are stale.
        shard.apply_update(dataclasses.replace(
            program, version=program.version + 1), (5,))
        runs = [PlannedRun(index, index % 6,
                           population.sample_execution()[1],
                           ship=index % 7 != 3)
                for index in range(240)]

        ran = []
        execute = Pod.execute

        def recording_execute(pod, inputs, directive=None):
            run = execute(pod, inputs, directive=directive)
            ran.append(dict(run.inputs))
            return run
        walks = []
        recycle = SymbolicEngine.recycle_witness

        def recording(engine, decisions, inputs):
            walks.append((tuple(decisions), dict(inputs)))
            return recycle(engine, decisions, inputs)
        monkeypatch.setattr(Pod, "execute", recording_execute)
        monkeypatch.setattr(SymbolicEngine, "recycle_witness", recording)
        entries = [entry for result in shard.run_windows(
                       [runs[:80], runs[80:160], runs[160:]])
                   for batch in result.batches for entry in batch.entries]
        monkeypatch.undo()

        expected, seen = [], set()
        for entry in entries:
            if entry.is_heartbeat:
                continue
            trace = decode_trace(entry.payload)
            if (not trace.replayable
                    or trace.program_version != program.version):
                continue
            path = tuple(Interpreter(program).replay(
                trace.replay_source()).path_decisions)
            if path and path not in seen:
                seen.add(path)
                expected.append((path, ran[entry.global_index]))
        assert walks == expected
        assert len(entries) < len(runs)
        # The race demo branches on no input, so its runs' paths are
        # empty and nothing is walked; the repair program walks many.
        assert (len(walks) > 1) == (name == "repair")


class TestStatsContract:
    def test_solver_stats_as_dict(self):
        stats = SolverStats()
        doc = stats.as_dict()
        assert set(doc) == {"calls", "hint_hits", "evaluations",
                            "unsat_results", "interval_prunes"}

    def test_solver_stats_add(self):
        total = SolverStats().add(SolverStats(calls=2, evaluations=10))
        total.add(SolverStats(calls=1, evaluations=5, unsat_results=1))
        assert total.calls == 3
        assert total.evaluations == 15
        assert total.unsat_results == 1

    def test_cache_stats_as_dict(self):
        cache = ConstraintCache()
        solver = EnumerationSolver(cache=cache)
        condition = _cond((Input("a") + Input("b") == 7, True))
        solver.solve(condition, {"a": (0, 9), "b": (0, 9)})
        solver.solve(condition, {"a": (0, 9), "b": (0, 9)})
        doc = cache.stats.as_dict()
        assert doc["hits"] == doc["hits_exact"] + doc["hits_model"] \
            + doc["hits_unsat"]
        assert doc["hits"] >= 1 and doc["misses"] >= 1
        assert 0.0 < doc["hit_rate"] < 1.0

    def test_portfolio_report_as_dict(self):
        from repro.cli import _portfolio_report
        doc = _portfolio_report(1, budget=200_000).as_dict()
        assert doc["instances"] == 3
        assert doc["portfolio_size"] == 3
        assert set(doc["single_times"]) == set(doc["speedups"])
        assert all(speedup > 0 for speedup in doc["speedups"].values())
        assert "portfolio" in next(iter(doc["per_family"].values()))
