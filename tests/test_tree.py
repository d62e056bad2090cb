"""Execution tree tests: merge semantics, LCA stats, gaps, coverage."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError, TreeError
from repro.progmodel.corpus import make_crash_demo, make_deadlock_demo
from repro.progmodel.interpreter import Interpreter, Outcome
from repro.sched.scheduler import RoundRobinScheduler
from repro.tracing.capture import FullCapture, SampledCapture
from repro.tree.coverage import branch_coverage, coverage_report
from repro.tree.exectree import ExecutionTree, path_from_trace
from repro.tree.frontier import enumerate_gaps


def _site(name):
    return (0, "main", name)


class TestInsertPath:
    def test_single_path(self):
        tree = ExecutionTree("p")
        stats = tree.insert_path([(_site("a"), True), (_site("b"), False)],
                                 Outcome.OK)
        assert stats.nodes_created == 2
        assert stats.lca_depth == 0
        assert stats.was_new_path
        assert tree.path_count == 1
        assert tree.node_count == 3

    def test_shared_prefix_detected(self):
        tree = ExecutionTree("p")
        tree.insert_path([(_site("a"), True), (_site("b"), False)],
                         Outcome.OK)
        stats = tree.insert_path(
            [(_site("a"), True), (_site("b"), True)], Outcome.OK)
        assert stats.lca_depth == 1
        assert stats.nodes_created == 1
        assert tree.path_count == 2

    def test_duplicate_path_creates_nothing(self):
        tree = ExecutionTree("p")
        path = [(_site("a"), True)]
        tree.insert_path(path, Outcome.OK)
        stats = tree.insert_path(path, Outcome.OK)
        assert stats.nodes_created == 0
        assert not stats.was_new_path
        assert tree.path_count == 1
        assert tree.insert_count == 2

    def test_outcome_accumulates_at_leaf(self):
        tree = ExecutionTree("p")
        path = [(_site("a"), True)]
        tree.insert_path(path, Outcome.OK)
        tree.insert_path(path, Outcome.CRASH)
        totals = tree.outcome_totals()
        assert totals[Outcome.OK] == 1
        assert totals[Outcome.CRASH] == 1

    def test_empty_path(self):
        tree = ExecutionTree("p")
        tree.insert_path([], Outcome.OK)
        assert tree.path_count == 1
        assert tree.node_count == 1

    def test_failure_paths(self):
        tree = ExecutionTree("p")
        tree.insert_path([(_site("a"), True)], Outcome.CRASH)
        tree.insert_path([(_site("a"), False)], Outcome.OK)
        failures = tree.failure_paths()
        assert len(failures) == 1
        path, outcome, count = failures[0]
        assert outcome is Outcome.CRASH
        assert count == 1


class TestTraceInsertion:
    def test_insert_trace_from_execution(self):
        demo = make_crash_demo()
        tree = ExecutionTree(demo.program.name)
        for n in range(10):
            result = Interpreter(demo.program).run({"n": n, "mode": 2})
            trace = FullCapture().capture(result)
            tree.insert_trace(trace, demo.program)
        # n==7 crashes; the tree must know.
        assert tree.outcome_totals()[Outcome.CRASH] == 1
        assert tree.outcome_totals()[Outcome.OK] == 9

    def test_insert_rejects_sampled_traces(self):
        demo = make_crash_demo()
        result = Interpreter(demo.program).run({"n": 1, "mode": 1})
        trace = SampledCapture(rate=2).capture(result)
        tree = ExecutionTree(demo.program.name)
        with pytest.raises(TraceError):
            tree.insert_trace(trace, demo.program)

    def test_insert_rejects_wrong_program(self):
        demo = make_crash_demo()
        other = make_deadlock_demo()
        result = Interpreter(demo.program).run({"n": 1, "mode": 1})
        trace = FullCapture().capture(result)
        tree = ExecutionTree(other.program.name)
        with pytest.raises(TraceError):
            tree.insert_trace(trace, other.program)

    def test_multithreaded_paths_diverge_by_schedule(self):
        demo = make_deadlock_demo()
        tree = ExecutionTree(demo.program.name)
        result_dl = Interpreter(demo.program).run(
            {"go": 1}, scheduler=RoundRobinScheduler())
        assert result_dl.outcome is Outcome.DEADLOCK
        tree.insert_trace(FullCapture().capture(result_dl), demo.program)
        result_ok = Interpreter(demo.program).run({"go": 0})
        tree.insert_trace(FullCapture().capture(result_ok), demo.program)
        totals = tree.outcome_totals()
        assert totals[Outcome.DEADLOCK] == 1
        assert totals[Outcome.OK] == 1


class TestMergeTree:
    def test_merge_unions_paths(self):
        a = ExecutionTree("p")
        b = ExecutionTree("p")
        a.insert_path([(_site("a"), True)], Outcome.OK)
        b.insert_path([(_site("a"), False)], Outcome.CRASH)
        b.insert_path([(_site("a"), True)], Outcome.OK)
        copied = a.merge(b)
        assert copied == 2
        assert a.path_count == 2
        assert a.outcome_totals()[Outcome.OK] == 2

    def test_merge_rejects_other_program(self):
        a = ExecutionTree("p")
        b = ExecutionTree("q")
        with pytest.raises(TreeError):
            a.merge(b)


class TestAdversarialMerge:
    """Merge algebra under the shapes sharded ingest and chaos
    redelivery actually produce: empty shards, duplicate-only shards,
    interleaved insertion orders, and arbitrary merge orders."""

    PATHS = [
        ([(_site("a"), True), (_site("b"), True)], Outcome.OK),
        ([(_site("a"), True), (_site("b"), False)], Outcome.CRASH),
        ([(_site("a"), False)], Outcome.OK),
        ([(_site("a"), True), (_site("b"), True), (_site("c"), False)],
         Outcome.ASSERT),
    ]

    def _tree(self, paths):
        tree = ExecutionTree("p")
        for decisions, outcome in paths:
            tree.insert_path(decisions, outcome)
        return tree

    def test_empty_shard_tree_is_identity(self):
        full = self._tree(self.PATHS)
        before = full.canonical_paths()
        nodes, inserts = full.node_count, full.insert_count
        assert full.merge(ExecutionTree("p")) == 0
        assert full.canonical_paths() == before
        assert (full.node_count, full.insert_count) == (nodes, inserts)
        # Merging *into* an empty tree reproduces the source exactly.
        empty = ExecutionTree("p")
        empty.merge(full)
        assert empty.canonical_paths() == before

    def test_duplicate_only_shard_accumulates_counts_not_structure(self):
        full = self._tree(self.PATHS)
        duplicate = self._tree(self.PATHS)
        paths, nodes = full.path_count, full.node_count
        copied = full.merge(duplicate)
        assert copied == len(self.PATHS)
        assert full.path_count == paths          # no phantom paths
        assert full.node_count == nodes          # no duplicate siblings
        assert full.insert_count == 2 * len(self.PATHS)

    def test_interleaved_insertion_orders_converge(self):
        forward = self._tree(self.PATHS)
        backward = self._tree(list(reversed(self.PATHS)))
        shuffled_paths = list(self.PATHS)
        random.Random(5).shuffle(shuffled_paths)
        shuffled = self._tree(shuffled_paths)
        assert forward.canonical_paths() == backward.canonical_paths()
        assert forward.canonical_paths() == shuffled.canonical_paths()

    def test_merge_is_commutative(self):
        left = self._tree(self.PATHS[:2])
        right = self._tree(self.PATHS[2:])
        ab = self._tree(self.PATHS[:2])
        ab.merge(self._tree(self.PATHS[2:]))
        ba = self._tree(self.PATHS[2:])
        ba.merge(self._tree(self.PATHS[:2]))
        assert ab.canonical_paths() == ba.canonical_paths()
        assert ab.node_count == ba.node_count
        assert ab.insert_count == ba.insert_count
        # Originals unharmed by being merge sources.
        assert left.path_count == 2
        assert right.path_count == 2

    def test_merge_is_associative(self):
        shards = [self._tree(self.PATHS[:1]),
                  self._tree(self.PATHS[1:3]),
                  self._tree(self.PATHS[3:])]

        def combine(order):
            total = ExecutionTree("p")
            for index in order:
                total.merge(shards[index])
            return total

        reference = combine([0, 1, 2]).canonical_paths()
        for order in ([2, 1, 0], [1, 0, 2], [2, 0, 1]):
            assert combine(order).canonical_paths() == reference

    def test_merge_repeated_until_fixpoint(self):
        # Chaos redelivers frames; merging the same shard tree N times
        # must scale counts linearly and structure not at all.
        total = ExecutionTree("p")
        shard = self._tree(self.PATHS)
        for _ in range(5):
            total.merge(shard)
        assert total.canonical_paths() != ()
        assert total.path_count == shard.path_count
        assert total.node_count == shard.node_count
        assert total.insert_count == 5 * shard.insert_count
        # Counted inserts land exactly where per-execution inserts do.
        per_execution = self._tree(self.PATHS * 5)
        assert total.canonical_paths() == per_execution.canonical_paths()
        assert (total.observed_decisions()
                == per_execution.observed_decisions())

    def test_zero_count_outcome_adds_nothing(self):
        # A count-0 heartbeat leaves a zero outcome entry on its path;
        # merging must not count that path twice.
        shard = ExecutionTree("p")
        decisions, _outcome = self.PATHS[0]
        shard.insert_path(decisions, Outcome.OK, count=0)
        shard.insert_path(decisions, Outcome.CRASH)
        total = ExecutionTree("p")
        assert total.merge(shard) == 1
        assert total.path_count == 1
        assert total.canonical_paths() == self._tree(
            [(decisions, Outcome.CRASH)]).canonical_paths()


class TestGapsAndCoverage:
    def test_gap_found_for_one_sided_site(self):
        tree = ExecutionTree("p")
        tree.insert_path([(_site("a"), True), (_site("b"), True)],
                         Outcome.OK)
        gaps = enumerate_gaps(tree)
        sites = {(g.site, g.missing_direction) for g in gaps}
        assert (_site("a"), False) in sites
        assert (_site("b"), False) in sites

    def test_no_gap_when_both_sides_seen(self):
        tree = ExecutionTree("p")
        tree.insert_path([(_site("a"), True)], Outcome.OK)
        tree.insert_path([(_site("a"), False)], Outcome.OK)
        assert enumerate_gaps(tree) == []

    def test_gaps_sorted_by_weight(self):
        tree = ExecutionTree("p")
        for _ in range(5):
            tree.insert_path([(_site("a"), True), (_site("b"), True)],
                             Outcome.OK)
        tree.insert_path([(_site("a"), False)], Outcome.OK)
        gaps = enumerate_gaps(tree)
        assert gaps[0].weight >= gaps[-1].weight

    def test_max_gaps_truncates(self):
        tree = ExecutionTree("p")
        tree.insert_path([(_site("a"), True), (_site("b"), True)],
                         Outcome.OK)
        assert len(enumerate_gaps(tree, max_gaps=1)) == 1

    def test_coverage_report(self):
        tree = ExecutionTree("p")
        tree.insert_path([(_site("a"), True)], Outcome.OK)
        tree.insert_path([(_site("a"), False)], Outcome.OK)
        tree.insert_path([(_site("a"), True), (_site("b"), True)],
                         Outcome.OK)
        report = coverage_report(tree)
        assert report.sites_seen == 2
        assert report.both_sides_sites == 1
        assert report.directions_seen == 3
        assert 0.0 < report.direction_fraction <= 1.0

    def test_branch_coverage_mapping(self):
        tree = ExecutionTree("p")
        tree.insert_path([(_site("a"), True)], Outcome.OK)
        cov = branch_coverage(tree)
        assert cov[_site("a")] == {True}


class TestTreeGrowthProperty:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(st.tuples(st.integers(0, 3), st.booleans()),
                             max_size=6), max_size=20))
    def test_invariants_hold_for_random_paths(self, raw_paths):
        tree = ExecutionTree("p")
        paths = [
            [((0, "main", f"s{site}"), taken) for site, taken in path]
            for path in raw_paths
        ]
        for path in paths:
            tree.insert_path(path, Outcome.OK)
        # Path count equals number of distinct paths inserted.
        distinct = {tuple(p) for p in paths}
        assert tree.path_count == len(distinct)
        assert tree.insert_count == len(paths)
        # Node count never exceeds total decisions + root.
        assert tree.node_count <= 1 + sum(len(p) for p in paths)
        # Root visit count equals insert count.
        assert tree.root.visit_count == len(paths)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(st.tuples(st.integers(0, 2), st.booleans()),
                             max_size=5), min_size=1, max_size=10),
           st.randoms())
    def test_insertion_order_does_not_matter(self, raw_paths, rnd):
        paths = [
            tuple(((0, "m", f"s{site}"), taken) for site, taken in path)
            for path in raw_paths
        ]
        tree_a = ExecutionTree("p")
        for path in paths:
            tree_a.insert_path(path, Outcome.OK)
        shuffled = list(paths)
        rnd.shuffle(shuffled)
        tree_b = ExecutionTree("p")
        for path in shuffled:
            tree_b.insert_path(path, Outcome.OK)
        assert tree_a.node_count == tree_b.node_count
        assert tree_a.path_count == tree_b.path_count
        assert (dict(tree_a.observed_decisions()) ==
                dict(tree_b.observed_decisions()))
