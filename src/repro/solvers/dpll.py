"""Systematic DPLL with unit propagation and Jeroslow-Wang branching.

The portfolio's "structured instance" specialist: complete (can prove
UNSAT), with propagation that exploits clause structure. Deliberately
*without* failed-literal probing (that is :class:`LookaheadSolver`'s
niche) and without clause learning — it represents the plain systematic
baseline the paper's portfolio argument starts from.

This module is also the systematic search both complete solvers share:
root unit assertion and exhaustive unit propagation, the decision loop
(assign, charge one decision, propagate, recurse, undo) and the solve
skeleton. :class:`~repro.solvers.lookahead.LookaheadSolver` subclasses
:class:`DPLLSolver` and replaces only its two hooks: ``_prepare`` (work
before each decision) and ``_pick`` (the branching rule).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.solvers.budget import (
    BudgetExceeded, CostMeter, SolveResult, SolveStatus,
)
from repro.solvers.cnf import CNF, Assignment

__all__ = ["DPLLSolver"]


def _propagate(cnf: CNF, assignment: Assignment, trail: List[int],
               meter: CostMeter) -> bool:
    """Exhaustive unit propagation, charging one unit per clause visited
    per sweep (satisfied ones too). Appends every variable it assigns
    to ``trail``; False on a conflict (a clause with every literal
    false)."""
    changed = True
    while changed:
        changed = False
        for clause in cnf.clauses:
            meter.charge()
            unassigned = None
            for lit in clause:
                value = assignment.get(abs(lit))
                if value is None:
                    if unassigned is not None:
                        break  # two open literals: not a unit
                    unassigned = lit
                elif value == (lit > 0):
                    break  # satisfied
            else:
                if unassigned is None:
                    return False
                assignment[abs(unassigned)] = unassigned > 0
                trail.append(abs(unassigned))
                changed = True
    return True


def _assert_units(cnf: CNF, assignment: Assignment,
                  meter: CostMeter) -> bool:
    """The root of every search: assert each unit clause, charging one
    unit per clause (every clause), then propagate. False on a root
    conflict."""
    for clause in cnf.clauses:
        meter.charge()
        if len(clause) == 1:
            var, value = abs(clause[0]), clause[0] > 0
            if assignment.setdefault(var, value) != value:
                return False
    return _propagate(cnf, assignment, [], meter)


def _assume(cnf: CNF, assignment: Assignment, var: int, value: bool,
            meter: CostMeter) -> Optional[List[int]]:
    """Assign ``var`` and propagate. Returns the trail of everything
    assigned, or None on a conflict, with the trail already undone."""
    assignment[var] = value
    trail = [var]
    if _propagate(cnf, assignment, trail, meter):
        return trail
    _undo(assignment, trail)
    return None


def _undo(assignment: Assignment, trail: List[int]) -> None:
    for var in trail:
        del assignment[var]


class DPLLSolver:
    """Recursive DPLL. ``heuristic`` is "jw" (Jeroslow-Wang, default)
    or "random" (seeded uniform choice)."""

    def __init__(self, heuristic: str = "jw", seed: int = 0):
        if heuristic not in ("jw", "random"):
            raise ValueError(f"unknown heuristic {heuristic!r}")
        self.heuristic = heuristic
        self.seed = seed
        self.name = f"dpll-{heuristic}"

    def solve(self, cnf: CNF, budget: Optional[int] = None) -> SolveResult:
        meter = CostMeter(budget)
        # Built afresh per solve, so repeated solves of one instance repeat.
        rng = random.Random(self.seed)
        assignment: Assignment = {}
        try:
            sat = (_assert_units(cnf, assignment, meter)
                   and self._search(cnf, assignment, meter, rng))
        except BudgetExceeded:
            return SolveResult(SolveStatus.TIMEOUT, budget, None,
                               self.name, cnf.name)
        if not sat:
            return SolveResult(SolveStatus.UNSAT, meter.cost, None,
                               self.name, cnf.name)
        model = {v: assignment.get(v, False) for v in cnf.variables()}
        return SolveResult(SolveStatus.SAT, meter.cost, model,
                           self.name, cnf.name)

    # -- internals ---------------------------------------------------------------

    def _search(self, cnf, assignment, meter, rng) -> bool:
        forced = self._prepare(cnf, assignment, meter)
        if forced is None:
            return False
        pick = self._pick(cnf, assignment, meter, rng)
        if pick is None:
            # Everything relevant assigned; remaining clauses satisfied.
            return True
        var, first_value = pick
        for value in (first_value, not first_value):
            meter.charge()  # a decision
            trail = _assume(cnf, assignment, var, value, meter)
            if trail is not None:
                if self._search(cnf, assignment, meter, rng):
                    return True
                _undo(assignment, trail)
        _undo(assignment, forced)
        return False

    def _prepare(self, cnf, assignment, meter) -> Optional[List[int]]:
        """Work before a decision. Returns the trail of everything it
        forced, undone if the node fails, or None when it refuted the
        node (its own trail already undone). Plain DPLL forces none."""
        return []

    def _pick(self, cnf, assignment, meter, rng,
              ) -> Optional[Tuple[int, bool]]:
        if self.heuristic == "random":
            unassigned = [v for v in cnf.variables() if v not in assignment]
            meter.charge(len(unassigned) // 8 + 1)
            if not unassigned:
                return None
            return rng.choice(unassigned), rng.random() < 0.5
        # Jeroslow-Wang: score literals by sum over clauses of 2^-|c|.
        scores: Dict[int, float] = {}
        for clause in cnf.clauses:
            meter.charge()
            satisfied = any(assignment.get(abs(lit)) == (lit > 0)
                            for lit in clause)
            if satisfied:
                continue
            weight = 2.0 ** -len(clause)
            for lit in clause:
                if abs(lit) not in assignment:
                    scores[lit] = scores.get(lit, 0.0) + weight
        if not scores:
            return None
        best = max(scores, key=lambda lit: (scores[lit], -abs(lit), lit > 0))
        return abs(best), best > 0
