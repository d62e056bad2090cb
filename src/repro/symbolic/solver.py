"""Constraint solving over small bounded-integer domains.

Feasibility of a path condition is decided by enumeration over the
domains of only the symbols the condition mentions, with two essential
accelerations:

* **witness reuse** — forked states pass their parent's satisfying
  assignment as a hint; if it still satisfies the extended condition,
  no search happens at all (the overwhelmingly common case), and

* **constraint-ordered backtracking** — symbols are assigned one at a
  time; every constraint whose symbols are all bound is checked as soon
  as possible, pruning whole subtrees of the assignment space.

With a :class:`~repro.symbolic.cache.ConstraintCache` attached, the
solver adds the collective reuse tiers on top (see docs/SOLVING.md):
conditions are split into independent slices, cached-UNSAT slices
refute the whole condition at probe cost, cached models are replayed
either exactly or rehydrated from a sub-slice, and every slice solved
from scratch is stored for the rest of the collective. Cache probes
are charged honestly in the same virtual-cost currency as search: one
evaluation per probe, a full condition check per rehydration attempt.

The solver meters its own work in *virtual cost units* (one constraint
evaluation = 1 unit), giving deterministic, platform-independent cost
numbers for the experiments (E2's "merging needs no solving" claim).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.config import BaseReport
from repro.errors import SolverError
from repro.symbolic.expr import evaluator
from repro.symbolic.pathcond import PathCondition

if TYPE_CHECKING:
    from repro.symbolic.cache import ConditionSlice, ConstraintCache

__all__ = ["SolverStats", "EnumerationSolver"]

Model = Dict[str, int]


@dataclass
class SolverStats(BaseReport):
    """Cumulative virtual-cost accounting."""

    calls: int = 0
    hint_hits: int = 0
    evaluations: int = 0       # constraint evaluations (the cost unit)
    unsat_results: int = 0
    interval_prunes: int = 0   # UNSAT proven by propagation alone

    def snapshot(self) -> "SolverStats":
        return SolverStats(self.calls, self.hint_hits, self.evaluations,
                           self.unsat_results, self.interval_prunes)

    def add(self, other: "SolverStats") -> "SolverStats":
        """Fold another stats block into this one (hive aggregation)."""
        self.calls += other.calls
        self.hint_hits += other.hint_hits
        self.evaluations += other.evaluations
        self.unsat_results += other.unsat_results
        self.interval_prunes += other.interval_prunes
        return self


class EnumerationSolver:
    """Backtracking enumeration over bounded integer domains."""

    def __init__(self, max_evaluations: int = 2_000_000,
                 use_intervals: bool = True,
                 cache: Optional["ConstraintCache"] = None):
        self.stats = SolverStats()
        self.cache = cache
        self._max_evaluations = max_evaluations  # per solve() call
        self._call_budget_end = max_evaluations
        self._use_intervals = use_intervals

    def solve(self, condition: PathCondition,
              domains: Mapping[str, Tuple[int, int]],
              hint: Optional[Model] = None) -> Optional[Model]:
        """Return a satisfying assignment, or None if unsatisfiable.

        Only symbols mentioned by the condition are searched; the
        returned model binds exactly those. ``hint`` is checked first.
        """
        self.stats.calls += 1
        self._call_budget_end = self.stats.evaluations + self._max_evaluations
        symbols = condition.symbols()
        for name in symbols:
            if name not in domains:
                raise SolverError(f"no domain for symbol {name!r}")

        if hint is not None and all(name in hint for name in symbols):
            self.stats.evaluations += max(1, len(condition))
            if condition.satisfied_by(hint):
                self.stats.hint_hits += 1
                model = {name: hint[name] for name in symbols}
                if self.cache is not None:
                    # A verified witness is a free by-product — bank
                    # every slice of it for the collective.
                    self._bank_model(condition, model)
                return model

        # Interval propagation: prove UNSAT cheaply, or shrink the
        # enumeration space (sound over-approximation — completeness
        # is untouched).
        base_domains = domains
        if self._use_intervals and symbols:
            from repro.symbolic.intervals import UNSAT, narrow_domains
            self.stats.evaluations += len(condition)  # the pre-pass cost
            narrowed = narrow_domains(condition, domains)
            if narrowed == UNSAT:
                self.stats.interval_prunes += 1
                self.stats.unsat_results += 1
                return None
            domains = {**dict(domains), **narrowed}

        if self.cache is not None:
            return self._solve_sliced(condition, domains, base_domains)

        model = self._search_conjuncts(condition.constraints, symbols,
                                       domains)
        if model is None:
            self.stats.unsat_results += 1
        return model

    def feasible(self, condition: PathCondition,
                 domains: Mapping[str, Tuple[int, int]],
                 hint: Optional[Model] = None) -> bool:
        return self.solve(condition, domains, hint) is not None

    # -- cached solving -------------------------------------------------------

    def _solve_sliced(self, condition: PathCondition, domains, base_domains
                      ) -> Optional[Model]:
        """Solve slice-by-slice through the cache.

        Slices are variable-disjoint, so per-slice models union into a
        model of the whole condition, and one UNSAT slice refutes it.
        The UNSAT-subsumption pass runs first: a single cached refuted
        slice ends the call at probe cost (tier 3), before any search.
        """
        from repro.symbolic.cache import condition_slices
        slices = condition_slices(condition)
        for piece in slices:
            if not piece.symbols:
                continue
            self._charge(1)
            if self.cache.probe_unsat(piece.key, piece.order, base_domains):
                self.stats.unsat_results += 1
                return None
        model: Model = {}
        for piece in slices:
            sub = self._solve_slice(piece, domains, base_domains)
            if sub is None:
                self.stats.unsat_results += 1
                return None
            model.update(sub)
        return model

    def _solve_slice(self, piece: "ConditionSlice", domains, base_domains
                     ) -> Optional[Model]:
        cache = self.cache
        if not piece.symbols:
            # Constant conjuncts: nothing to search, just evaluate.
            checks = [(evaluator(expr), truth)
                      for expr, truth in piece.conjuncts]
            return {} if self._check(checks, {}) else None
        # Tier 1: exact hit — a stored model valid under current domains.
        self._charge(1)
        cached = cache.probe_sat(piece.key, piece.order, domains)
        if cached is not None:
            return cached
        # Tier 2: rehydration — models of cached sub-slices of this
        # slice minus its newest conjunct, extended with domain-low
        # values for unbound symbols, checked like a witness hint.
        candidate = self._rehydrate_candidate(piece, domains)
        if candidate is not None:
            self._charge(len(piece.conjuncts))
            if self._satisfied(piece.conjuncts, candidate):
                cache.note_rehydrated()
                cache.store_sat(piece.key, piece.order, candidate)
                return candidate
        # Miss: search this slice alone, then bank the outcome. UNSAT
        # is stored against the *original* domains — interval narrowing
        # is solution-preserving, so the refutation holds for them, and
        # the wider box subsumes more future conditions.
        cache.note_miss()
        sub = self._search_conjuncts(piece.conjuncts, piece.symbols, domains)
        if sub is None:
            cache.store_unsat(piece.key, piece.order, base_domains)
        else:
            cache.store_sat(piece.key, piece.order, sub)
        return sub

    def _rehydrate_candidate(self, piece: "ConditionSlice", domains
                             ) -> Optional[Model]:
        """A candidate model assembled from cached sub-slice models."""
        if len(piece.conjuncts) < 2:
            return None
        from repro.symbolic.cache import conjunct_slices
        candidate: Model = {}
        found = False
        for parent in conjunct_slices(piece.conjuncts[:-1]):
            if not parent.symbols:
                continue
            cached = self.cache.peek_sat(parent.key, parent.order, domains)
            if cached is not None:
                candidate.update(cached)
                found = True
        if not found:
            return None
        for name in piece.symbols:
            if name not in candidate:
                candidate[name] = domains[name][0]
        return candidate

    def _bank_model(self, condition: PathCondition, model: Model) -> None:
        """Store every slice of a verified model (hint-hit recycling)."""
        from repro.symbolic.cache import condition_slices
        for piece in condition_slices(condition):
            if piece.symbols:
                self.cache.store_sat(
                    piece.key, piece.order,
                    {name: model[name] for name in piece.symbols})

    # -- internals ------------------------------------------------------------

    def _charge(self, amount: int) -> None:
        self.stats.evaluations += amount
        if self.stats.evaluations > self._call_budget_end:
            raise SolverError("solver evaluation budget exhausted")

    @staticmethod
    def _satisfied(constraints: Sequence[Tuple], model: Model) -> bool:
        """Uncounted satisfaction check (cost charged by the caller)."""
        for expr, truth in constraints:
            try:
                value = evaluator(expr)(model)
            except ZeroDivisionError:
                return False
            if bool(value) != truth:
                return False
        return True

    def _search_conjuncts(self, constraints: Sequence[Tuple],
                          symbols: Sequence[str], domains
                          ) -> Optional[Model]:
        """Backtracking search over the given conjuncts and symbols."""
        # Order constraints by when their symbols become fully bound;
        # each slot holds the (evaluator, truth) checks that become
        # decidable there.
        order = list(symbols)
        ready_at: List[List[Tuple]] = [[] for _ in range(len(order) + 1)]
        position = {name: i for i, name in enumerate(order)}
        for expr, truth in constraints:
            needed = [position[name] for name in expr.inputs()]
            slot = (max(needed) + 1) if needed else 0
            ready_at[slot].append((evaluator(expr), truth))

        model: Model = {}
        if self._search(0, order, ready_at, domains, model):
            return dict(model)
        return None

    def _check(self, checks, model: Model) -> bool:
        """Counted check of ``(evaluator, truth)`` pairs against ``model``."""
        stats = self.stats
        for evaluate, truth in checks:
            stats.evaluations += 1
            if stats.evaluations > self._call_budget_end:
                raise SolverError("solver evaluation budget exhausted")
            try:
                value = evaluate(model)
            except ZeroDivisionError:
                return False
            if bool(value) != truth:
                return False
        return True

    def _search(self, index: int, order, ready_at, domains,
                model: Model) -> bool:
        if not self._check(ready_at[index], model):
            return False
        if index == len(order):
            return True
        name = order[index]
        lo, hi = domains[name]
        for value in range(lo, hi + 1):
            model[name] = value
            if self._search(index + 1, order, ready_at, domains, model):
                return True
        del model[name]
        return False
