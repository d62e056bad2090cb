"""The cumulative prover: tests and proofs on one spectrum.

For single-threaded programs the symbolic engine enumerates the
feasible path set once per program version (the *denominator*); every
execution witnessed by the tree covers one of those paths (the
*numerator*). The proof is:

* REFUTED as soon as any witnessed path violates the property (the
  counterexample is concrete — it happened on a user's machine);
* PROVED when every feasible path is witnessed and none violates;
* PARTIAL otherwise, with an exact coverage fraction.

For multi-threaded programs the schedule space has no tractable
denominator; the prover degrades to evidence-only mode (REFUTED or
PARTIAL), which is the honest reading of the paper's claim.

Deploying a fix produces a new program version: outstanding proofs are
invalidated and a fresh denominator is computed against the fixed
program (paper Sec. 3.3: the hive must "decide whether the
instrumentation invalidates the hive's existing knowledge and proofs").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ProofError
from repro.progmodel.interpreter import Outcome
from repro.progmodel.ir import Program
from repro.proofs.proof import Proof, ProofStatus
from repro.proofs.properties import OutcomeProperty
from repro.symbolic.engine import SymbolicEngine, SymbolicLimits
from repro.tree.exectree import ExecutionTree

__all__ = ["CumulativeProver", "ProofLedger"]

Decision = Tuple[Tuple[int, str, str], bool]


class CumulativeProver:
    """Incrementally proves one property about one program."""

    def __init__(self, program: Program, property: OutcomeProperty,
                 limits: Optional[SymbolicLimits] = None,
                 cache=None):
        self.property = property
        self._limits = limits
        self._cache = cache
        from repro.symbolic.solver import SolverStats
        #: Cumulative solver accounting across every version's oracle
        #: exploration (the per-version engine itself is transient).
        self.solver_stats = SolverStats()
        self._witnessed: Dict[Tuple[Decision, ...], Outcome] = {}
        self._old_proofs: List[Proof] = []
        self._install(program)

    # -- program / version management -----------------------------------------

    def _install(self, program: Program) -> None:
        self.program = program
        self._witnessed.clear()
        self._oracle_paths: Optional[Set[Tuple[Decision, ...]]]
        if len(program.threads) == 1:
            engine = SymbolicEngine(program, limits=self._limits,
                                    cache=self._cache)
            paths = engine.explore()
            self.solver_stats.add(engine.solver.stats)
            self._oracle_paths = {p.decisions for p in paths}
            self._oracle_examples = {p.decisions: dict(p.example_inputs)
                                     for p in paths}
            # Concrete executions additionally record decisions at
            # syscall-return-driven branches, which the fault-free
            # oracle resolves concretely (they are not forks). Witnessed
            # paths are projected onto the oracle's site alphabet before
            # coverage matching; proofs are therefore statements modulo
            # the fault-free environment model — fault-driven paths can
            # REFUTE a proof but never count toward completing it.
            self._oracle_sites = {site for path in self._oracle_paths
                                  for (site, _taken) in path}
        else:
            self._oracle_paths = None
            self._oracle_examples = {}
            self._oracle_sites = set()

    def _project(self, path: Tuple[Decision, ...]) -> Tuple[Decision, ...]:
        return tuple((site, taken) for (site, taken) in path
                     if site in self._oracle_sites)

    def on_fix_deployed(self, fixed_program: Program) -> None:
        """Invalidate current knowledge; restart against the new version."""
        if fixed_program.version <= self.program.version:
            raise ProofError(
                "fix deployment must increase the program version")
        proof = self.current_proof()
        proof.invalidated = True
        self._old_proofs.append(proof)
        self._install(fixed_program)

    # -- evidence ingestion -----------------------------------------------------

    def observe_path(self, decisions: Sequence[Decision],
                     outcome: Outcome) -> None:
        self._witnessed[tuple(decisions)] = outcome

    def observe_tree(self, tree: ExecutionTree) -> None:
        """Fold in every terminal path of a collective execution tree."""
        if tree.program_version != self.program.version:
            raise ProofError(
                f"tree is for version {tree.program_version}, prover is"
                f" on version {self.program.version}")
        for path, outcomes in tree.iter_terminal_paths():
            # A path may carry several outcomes (environment faults,
            # schedules); any violating one refutes.
            chosen = None
            for outcome in outcomes:
                if not self.property.holds_for(outcome):
                    chosen = outcome
                    break
            if chosen is None:
                chosen = next(iter(outcomes))
            self.observe_path(path, chosen)

    # -- proof extraction ---------------------------------------------------------

    def current_proof(self) -> Proof:
        violating = [path for path, outcome in self._witnessed.items()
                     if not self.property.holds_for(outcome)]
        if self._oracle_paths is not None:
            projected = {self._project(path) for path in self._witnessed}
            covered = sum(1 for path in projected
                          if path in self._oracle_paths)
            total: Optional[int] = len(self._oracle_paths)
        else:
            covered = len(self._witnessed)
            total = None
        if violating:
            status = ProofStatus.REFUTED
        elif total is not None and covered >= total:
            status = ProofStatus.PROVED
        else:
            status = ProofStatus.PARTIAL
        return Proof(
            program_name=self.program.name,
            program_version=self.program.version,
            property=self.property,
            status=status,
            covered_paths=covered,
            total_feasible_paths=total,
            violating_paths=len(violating),
            counterexamples=[_describe_path(p) for p in violating[:5]],
        )

    def unwitnessed_paths(self) -> List[Tuple[Decision, ...]]:
        """Feasible paths no execution has covered yet — the "gaps"
        guidance should fill (empty when no oracle is available)."""
        if self._oracle_paths is None:
            return []
        projected = {self._project(path) for path in self._witnessed}
        return sorted(path for path in self._oracle_paths
                      if path not in projected)

    def oracle_inputs(self) -> Optional[List[Dict[str, int]]]:
        """Every feasible path's example inputs, in exploration order
        (what fix validation's suite is built from); None without an
        oracle."""
        if self._oracle_paths is None:
            return None
        return list(self._oracle_examples.values())

    def example_inputs_for(self, path: Tuple[Decision, ...],
                           ) -> Optional[Dict[str, int]]:
        """The oracle's satisfying inputs for a feasible path — the
        cheapest possible steering directive toward it."""
        return self._oracle_examples.get(tuple(path))

    @property
    def invalidated_proofs(self) -> List[Proof]:
        return list(self._old_proofs)


def _describe_path(path: Tuple[Decision, ...]) -> str:
    if not path:
        return "<empty path>"
    steps = ",".join(
        f"{fn}:{blk}={'T' if taken else 'F'}"
        for (_thread, fn, blk), taken in path)
    return steps


@dataclass
class ProofLedger:
    """Time series of proof snapshots (experiment E11)."""

    snapshots: List[Tuple[int, Proof]] = field(default_factory=list)

    def record(self, tick: int, proof: Proof) -> None:
        self.snapshots.append((tick, proof))

    def coverage_series(self) -> List[Tuple[int, float]]:
        return [(tick, proof.coverage) for tick, proof in self.snapshots]

    def first_proved_tick(self) -> Optional[int]:
        for tick, proof in self.snapshots:
            if proof.status is ProofStatus.PROVED:
                return tick
        return None

    def invalidation_ticks(self) -> List[int]:
        ticks = []
        previous_version: Optional[int] = None
        for tick, proof in self.snapshots:
            if (previous_version is not None
                    and proof.program_version != previous_version):
                ticks.append(tick)
            previous_version = proof.program_version
        return ticks
