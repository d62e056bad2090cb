"""Pinned solver costs: every systematic solve repeats to the cost unit.

The solvers charge a deterministic :class:`CostMeter`, so a refactor of
the search must leave each solve's status, cost and model exactly as
they were. ``PINNED_E1`` and ``PINNED_GRID`` were recorded before DPLL
and lookahead shared one core; a change that moves any charge (a
skipped clause visit, a probe, a decision) or any branch order shows
up here as a moved row. E1's totals are the numbers EXPERIMENTS.md and
the README quote.
"""

import hashlib
import random

import pytest

from repro.solvers.budget import SolveStatus
from repro.solvers.cnf import (
    CNF, graph_coloring, implication_chain, pigeonhole, random_ksat,
)
from repro.solvers.dpll import DPLLSolver
from repro.solvers.lookahead import LookaheadSolver
from repro.solvers.portfolio import run_portfolio_experiment
from repro.solvers.walksat import WalkSATSolver

E1_BUDGET = 400_000


def e1_instances():
    """E1's instance stream (benchmarks/bench_e1_portfolio_sat.py)."""
    instances = [random_ksat(120, 500, rng=random.Random(seed),
                             force_satisfiable=True, name=f"rand-{seed}")
                 for seed in range(6)]
    instances += [implication_chain(40, 18, rng=random.Random(seed),
                                    name=f"chain-{seed}")
                  for seed in range(6)]
    instances += [graph_coloring(12, 0.5, 3, rng=random.Random(seed + 7),
                                 name=f"color-{seed}")
                  for seed in range(2)]
    instances.append(pigeonhole(5))
    return instances


def grid_instances():
    """Small formulas of every family, plus root-UNSAT and empty ones."""
    instances = [random_ksat(30, 140, rng=random.Random(seed),
                             name=f"rand-{seed}") for seed in range(3)]
    instances += [
        random_ksat(30, 120, rng=random.Random(9), force_satisfiable=True,
                    name="planted"),
        pigeonhole(4),
        implication_chain(12, 6, rng=random.Random(0), name="chain"),
        graph_coloring(8, 0.5, 3, rng=random.Random(1), name="color"),
        CNF(n_vars=1, clauses=((1,), (-1,)), name="root-unit-clash"),
        CNF(n_vars=3, clauses=((1,), (-1, 2), (-2, 3), (-3,)),
            name="root-chain-clash"),
        CNF(n_vars=3, clauses=(), name="empty"),
    ]
    return instances


def grid_solvers():
    return [DPLLSolver("jw"), DPLLSolver("random", seed=3),
            LookaheadSolver(), LookaheadSolver(probe_limit=4)]


GRID_BUDGETS = (None, 500, 5_000)


def model_digest(model):
    if model is None:
        return None
    blob = repr(sorted(model.items())).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def row(result):
    return (result.status.value, result.cost, model_digest(result.model))


def grid_rows():
    """(solver, instance, budget) -> (status, cost, model digest); one
    solver object serves every solve, so a seeded heuristic must draw
    afresh on each."""
    rows = {}
    solvers = grid_solvers()
    for cnf in grid_instances():
        for budget in GRID_BUDGETS:
            for index, solver in enumerate(solvers):
                key = f"{index}:{solver.name}/{cnf.name}/{budget}"
                rows[key] = row(solver.solve(cnf, budget=budget))
    return rows


def e1_report():
    solvers = [DPLLSolver("jw"), WalkSATSolver(seed=2), LookaheadSolver()]
    return run_portfolio_experiment(solvers, e1_instances(),
                                    budget=E1_BUDGET)


def e1_rows(report):
    return {f"{outcome.instance}/{name}": row(result)
            for outcome in report.outcomes
            for name, result in outcome.member_results.items()}


PINNED_E1 = {
    "rand-0/dpll-jw": ("sat", 59134, "bf0cdc3538c8cf07"),
    "rand-0/walksat": ("sat", 10425, "a5a360cb11bc4e99"),
    "rand-0/lookahead": ("timeout", 400000, None),
    "rand-1/dpll-jw": ("sat", 57544, "2e4a5b5d257c521b"),
    "rand-1/walksat": ("sat", 10715, "8c9fdc40df914b14"),
    "rand-1/lookahead": ("timeout", 400000, None),
    "rand-2/dpll-jw": ("sat", 81577, "471b55cb85f235b0"),
    "rand-2/walksat": ("sat", 500, "704af18023021a7a"),
    "rand-2/lookahead": ("timeout", 400000, None),
    "rand-3/dpll-jw": ("timeout", 400000, None),
    "rand-3/walksat": ("sat", 58654, "a4f9306d0647a661"),
    "rand-3/lookahead": ("timeout", 400000, None),
    "rand-4/dpll-jw": ("sat", 61824, "6c26827be80d4a93"),
    "rand-4/walksat": ("sat", 13709, "cd5d1f66360bd0ba"),
    "rand-4/lookahead": ("timeout", 400000, None),
    "rand-5/dpll-jw": ("sat", 53039, "f3d598dcd92d705d"),
    "rand-5/walksat": ("sat", 16169, "9fa6b7ee3db9d8be"),
    "rand-5/lookahead": ("timeout", 400000, None),
    "chain-0/dpll-jw": ("unsat", 12565, None),
    "chain-0/walksat": ("timeout", 400000, None),
    "chain-0/lookahead": ("unsat", 1800, None),
    "chain-1/dpll-jw": ("unsat", 10675, None),
    "chain-1/walksat": ("timeout", 400000, None),
    "chain-1/lookahead": ("unsat", 1744, None),
    "chain-2/dpll-jw": ("unsat", 17017, None),
    "chain-2/walksat": ("timeout", 400000, None),
    "chain-2/lookahead": ("unsat", 2127, None),
    "chain-3/dpll-jw": ("unsat", 12295, None),
    "chain-3/walksat": ("timeout", 400000, None),
    "chain-3/lookahead": ("unsat", 1949, None),
    "chain-4/dpll-jw": ("unsat", 6192, None),
    "chain-4/walksat": ("timeout", 400000, None),
    "chain-4/lookahead": ("unsat", 1983, None),
    "chain-5/dpll-jw": ("unsat", 17443, None),
    "chain-5/walksat": ("timeout", 400000, None),
    "chain-5/lookahead": ("unsat", 2089, None),
    "color-0/dpll-jw": ("unsat", 4874, None),
    "color-0/walksat": ("timeout", 400000, None),
    "color-0/lookahead": ("unsat", 22186, None),
    "color-1/dpll-jw": ("unsat", 7144, None),
    "color-1/walksat": ("timeout", 400000, None),
    "color-1/lookahead": ("unsat", 22294, None),
    "php-5/dpll-jw": ("unsat", 123527, None),
    "php-5/walksat": ("timeout", 400000, None),
    "php-5/lookahead": ("timeout", 400000, None),
}

PINNED_GRID = {
    "0:dpll-jw/rand-0/None": ("unsat", 19851, None),
    "1:dpll-random/rand-0/None": ("unsat", 37874, None),
    "2:lookahead/rand-0/None": ("unsat", 53569, None),
    "3:lookahead/rand-0/None": ("unsat", 34358, None),
    "0:dpll-jw/rand-0/500": ("timeout", 500, None),
    "1:dpll-random/rand-0/500": ("timeout", 500, None),
    "2:lookahead/rand-0/500": ("timeout", 500, None),
    "3:lookahead/rand-0/500": ("timeout", 500, None),
    "0:dpll-jw/rand-0/5000": ("timeout", 5000, None),
    "1:dpll-random/rand-0/5000": ("timeout", 5000, None),
    "2:lookahead/rand-0/5000": ("timeout", 5000, None),
    "3:lookahead/rand-0/5000": ("timeout", 5000, None),
    "0:dpll-jw/rand-1/None": ("unsat", 10201, None),
    "1:dpll-random/rand-1/None": ("unsat", 23556, None),
    "2:lookahead/rand-1/None": ("unsat", 27152, None),
    "3:lookahead/rand-1/None": ("unsat", 47465, None),
    "0:dpll-jw/rand-1/500": ("timeout", 500, None),
    "1:dpll-random/rand-1/500": ("timeout", 500, None),
    "2:lookahead/rand-1/500": ("timeout", 500, None),
    "3:lookahead/rand-1/500": ("timeout", 500, None),
    "0:dpll-jw/rand-1/5000": ("timeout", 5000, None),
    "1:dpll-random/rand-1/5000": ("timeout", 5000, None),
    "2:lookahead/rand-1/5000": ("timeout", 5000, None),
    "3:lookahead/rand-1/5000": ("timeout", 5000, None),
    "0:dpll-jw/rand-2/None": ("sat", 8566, "c4be7824cf911788"),
    "1:dpll-random/rand-2/None": ("sat", 7591, "188c770766729b6b"),
    "2:lookahead/rand-2/None": ("sat", 99958, "657176670a95b5c3"),
    "3:lookahead/rand-2/None": ("sat", 32856, "657176670a95b5c3"),
    "0:dpll-jw/rand-2/500": ("timeout", 500, None),
    "1:dpll-random/rand-2/500": ("timeout", 500, None),
    "2:lookahead/rand-2/500": ("timeout", 500, None),
    "3:lookahead/rand-2/500": ("timeout", 500, None),
    "0:dpll-jw/rand-2/5000": ("timeout", 5000, None),
    "1:dpll-random/rand-2/5000": ("timeout", 5000, None),
    "2:lookahead/rand-2/5000": ("timeout", 5000, None),
    "3:lookahead/rand-2/5000": ("timeout", 5000, None),
    "0:dpll-jw/planted/None": ("sat", 3369, "0da519bb8fa2ee87"),
    "1:dpll-random/planted/None": ("sat", 6997, "88f99f4c0f5c556f"),
    "2:lookahead/planted/None": ("sat", 74700, "2d3e08cca9b29b4c"),
    "3:lookahead/planted/None": ("sat", 16635, "2d3e08cca9b29b4c"),
    "0:dpll-jw/planted/500": ("timeout", 500, None),
    "1:dpll-random/planted/500": ("timeout", 500, None),
    "2:lookahead/planted/500": ("timeout", 500, None),
    "3:lookahead/planted/500": ("timeout", 500, None),
    "0:dpll-jw/planted/5000": ("sat", 3369, "0da519bb8fa2ee87"),
    "1:dpll-random/planted/5000": ("timeout", 5000, None),
    "2:lookahead/planted/5000": ("timeout", 5000, None),
    "3:lookahead/planted/5000": ("timeout", 5000, None),
    "0:dpll-jw/php-4/None": ("unsat", 9559, None),
    "1:dpll-random/php-4/None": ("unsat", 4286, None),
    "2:lookahead/php-4/None": ("unsat", 36777, None),
    "3:lookahead/php-4/None": ("unsat", 17922, None),
    "0:dpll-jw/php-4/500": ("timeout", 500, None),
    "1:dpll-random/php-4/500": ("timeout", 500, None),
    "2:lookahead/php-4/500": ("timeout", 500, None),
    "3:lookahead/php-4/500": ("timeout", 500, None),
    "0:dpll-jw/php-4/5000": ("timeout", 5000, None),
    "1:dpll-random/php-4/5000": ("unsat", 4286, None),
    "2:lookahead/php-4/5000": ("timeout", 5000, None),
    "3:lookahead/php-4/5000": ("timeout", 5000, None),
    "0:dpll-jw/chain/None": ("unsat", 842, None),
    "1:dpll-random/chain/None": ("unsat", 346, None),
    "2:lookahead/chain/None": ("unsat", 298, None),
    "3:lookahead/chain/None": ("unsat", 298, None),
    "0:dpll-jw/chain/500": ("timeout", 500, None),
    "1:dpll-random/chain/500": ("unsat", 346, None),
    "2:lookahead/chain/500": ("unsat", 298, None),
    "3:lookahead/chain/500": ("unsat", 298, None),
    "0:dpll-jw/chain/5000": ("unsat", 842, None),
    "1:dpll-random/chain/5000": ("unsat", 346, None),
    "2:lookahead/chain/5000": ("unsat", 298, None),
    "3:lookahead/chain/5000": ("unsat", 298, None),
    "0:dpll-jw/color/None": ("unsat", 1874, None),
    "1:dpll-random/color/None": ("unsat", 4183, None),
    "2:lookahead/color/None": ("unsat", 8950, None),
    "3:lookahead/color/None": ("unsat", 3930, None),
    "0:dpll-jw/color/500": ("timeout", 500, None),
    "1:dpll-random/color/500": ("timeout", 500, None),
    "2:lookahead/color/500": ("timeout", 500, None),
    "3:lookahead/color/500": ("timeout", 500, None),
    "0:dpll-jw/color/5000": ("unsat", 1874, None),
    "1:dpll-random/color/5000": ("unsat", 4183, None),
    "2:lookahead/color/5000": ("timeout", 5000, None),
    "3:lookahead/color/5000": ("unsat", 3930, None),
    "0:dpll-jw/root-unit-clash/None": ("unsat", 2, None),
    "1:dpll-random/root-unit-clash/None": ("unsat", 2, None),
    "2:lookahead/root-unit-clash/None": ("unsat", 2, None),
    "3:lookahead/root-unit-clash/None": ("unsat", 2, None),
    "0:dpll-jw/root-unit-clash/500": ("unsat", 2, None),
    "1:dpll-random/root-unit-clash/500": ("unsat", 2, None),
    "2:lookahead/root-unit-clash/500": ("unsat", 2, None),
    "3:lookahead/root-unit-clash/500": ("unsat", 2, None),
    "0:dpll-jw/root-unit-clash/5000": ("unsat", 2, None),
    "1:dpll-random/root-unit-clash/5000": ("unsat", 2, None),
    "2:lookahead/root-unit-clash/5000": ("unsat", 2, None),
    "3:lookahead/root-unit-clash/5000": ("unsat", 2, None),
    "0:dpll-jw/root-chain-clash/None": ("unsat", 7, None),
    "1:dpll-random/root-chain-clash/None": ("unsat", 7, None),
    "2:lookahead/root-chain-clash/None": ("unsat", 7, None),
    "3:lookahead/root-chain-clash/None": ("unsat", 7, None),
    "0:dpll-jw/root-chain-clash/500": ("unsat", 7, None),
    "1:dpll-random/root-chain-clash/500": ("unsat", 7, None),
    "2:lookahead/root-chain-clash/500": ("unsat", 7, None),
    "3:lookahead/root-chain-clash/500": ("unsat", 7, None),
    "0:dpll-jw/root-chain-clash/5000": ("unsat", 7, None),
    "1:dpll-random/root-chain-clash/5000": ("unsat", 7, None),
    "2:lookahead/root-chain-clash/5000": ("unsat", 7, None),
    "3:lookahead/root-chain-clash/5000": ("unsat", 7, None),
    "0:dpll-jw/empty/None": ("sat", 0, "026b089c8051e35e"),
    "1:dpll-random/empty/None": ("sat", 7, "1ec0dc5aab758a9a"),
    "2:lookahead/empty/None": ("sat", 15, "2ebf5373d1da337c"),
    "3:lookahead/empty/None": ("sat", 15, "2ebf5373d1da337c"),
    "0:dpll-jw/empty/500": ("sat", 0, "026b089c8051e35e"),
    "1:dpll-random/empty/500": ("sat", 7, "1ec0dc5aab758a9a"),
    "2:lookahead/empty/500": ("sat", 15, "2ebf5373d1da337c"),
    "3:lookahead/empty/500": ("sat", 15, "2ebf5373d1da337c"),
    "0:dpll-jw/empty/5000": ("sat", 0, "026b089c8051e35e"),
    "1:dpll-random/empty/5000": ("sat", 7, "1ec0dc5aab758a9a"),
    "2:lookahead/empty/5000": ("sat", 15, "2ebf5373d1da337c"),
    "3:lookahead/empty/5000": ("sat", 15, "2ebf5373d1da337c"),
}


@pytest.fixture(scope="module")
def report():
    return e1_report()


class TestPinnedCosts:
    def test_e1_totals(self, report):
        assert {name: report.total_single_time(name)
                for name in ("dpll-jw", "walksat", "lookahead")} == {
            "dpll-jw": 924_850, "walksat": 3_710_172,
            "lookahead": 2_856_172}
        assert report.total_portfolio_time == 257_409
        assert report.wins_by_solver() == {
            "walksat": 6, "lookahead": 6, "dpll-jw": 3}

    def test_e1_every_solve(self, report):
        assert e1_rows(report) == PINNED_E1

    def test_grid_every_solve(self):
        assert grid_rows() == PINNED_GRID

    def test_grid_covers_timeouts_and_root_unsat(self):
        statuses = {key: status for key, (status, _, _)
                    in PINNED_GRID.items()}
        assert SolveStatus.TIMEOUT.value in statuses.values()
        for solver in ("0:dpll-jw", "1:dpll-random", "2:lookahead",
                       "3:lookahead"):
            for name in ("root-unit-clash", "root-chain-clash"):
                assert statuses[f"{solver}/{name}/None"] == "unsat"
