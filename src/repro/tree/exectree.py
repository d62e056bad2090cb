"""Execution tree construction by path merging.

A tree node represents the program state reached after a sequence of
input-dependent decisions; edges are labelled ``(site, taken)`` where
``site = (thread, function, block)``. Multi-threaded executions whose
interleavings diverge produce different site sequences and therefore
naturally branch in the tree.

Merging a path (Fig. 3) walks the shared prefix — implicitly finding
the lowest common ancestor — and pastes only the novel suffix, counting
how much work was shared. Terminal outcomes (OK / crash / deadlock / …)
are accumulated at leaves, which is what the analysis and proof layers
consume.

Trees are *order-canonical*: every traversal (``iter_nodes``,
``iter_terminal_paths``, ``sites_here``) visits children in sorted
decision order, and terminal outcome counters export in a fixed outcome
order. A tree is therefore observably a pure function of the multiset
of ``(path, outcome)`` insertions — two shards that saw the same
executions in different orders, or a hive that merged shard trees in
any order, behave identically downstream (steering, proofs, coverage).
That property is what makes the parallel executor's sharded ingest
bit-deterministic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import TraceError, TreeError
from repro.progmodel.interpreter import Interpreter, Outcome
from repro.progmodel.ir import Program
from repro.tracing.trace import Trace

__all__ = ["TreeNode", "MergeStats", "ExecutionTree", "path_from_trace"]

Site = Tuple[int, str, str]
Decision = Tuple[Site, bool]

# Canonical export order for terminal outcome counters (enum definition
# order): keeps ``next(iter(outcomes))``-style consumers deterministic
# regardless of which shard's insertion arrived first.
_OUTCOME_RANK = {outcome: rank for rank, outcome in enumerate(Outcome)}


@dataclass
class TreeNode:
    """One node of the collective execution tree."""

    decision: Optional[Decision] = None  # edge label from the parent
    children: Dict[Decision, "TreeNode"] = field(default_factory=dict)
    visit_count: int = 0
    outcome_counts: Counter = field(default_factory=Counter)
    depth: int = 0

    @property
    def terminal_count(self) -> int:
        """Executions that *ended* at this node."""
        return sum(self.outcome_counts.values())

    def child(self, decision: Decision) -> Optional["TreeNode"]:
        return self.children.get(decision)

    def sorted_children(self) -> List[Tuple[Decision, "TreeNode"]]:
        """Children in canonical (sorted-decision) order."""
        return sorted(self.children.items(), key=lambda kv: kv[0])

    def sorted_outcomes(self) -> Counter:
        """Terminal outcome counts with canonical key order."""
        ordered = Counter()
        for outcome in sorted(self.outcome_counts,
                              key=_OUTCOME_RANK.__getitem__):
            ordered[outcome] = self.outcome_counts[outcome]
        return ordered

    def sites_here(self) -> List[Site]:
        """Distinct decision sites observed immediately below this node."""
        seen: List[Site] = []
        for (site, _taken), _child in self.sorted_children():
            if site not in seen:
                seen.append(site)
        return seen


@dataclass
class MergeStats:
    """Cost accounting for one path merge (experiment E2)."""

    path_length: int
    lca_depth: int          # length of the shared prefix
    nodes_created: int      # novel suffix length
    was_new_path: bool


class ExecutionTree:
    """The hive's aggregate knowledge of one program's behaviour."""

    def __init__(self, program_name: str, program_version: int = 1):
        self.program_name = program_name
        self.program_version = program_version
        self.root = TreeNode()
        self.node_count = 1
        self.path_count = 0          # distinct complete paths
        self.insert_count = 0        # total executions merged
        self.failure_leaves: Dict[Decision, int] = {}

    # -- construction -------------------------------------------------------

    def insert_path(self, decisions: Sequence[Decision],
                    outcome: Outcome, count: int = 1) -> MergeStats:
        """Merge one decision path; returns merge-cost statistics.

        ``count`` folds that many identical executions in one walk —
        equivalent to calling this ``count`` times (every visit and
        outcome counter advances by ``count``), which is how dedup
        heartbeats merge without re-walking the path per repeat.
        """
        node = self.root
        node.visit_count += count
        lca_depth = 0
        created = 0
        for index, decision in enumerate(decisions):
            child = node.children.get(decision)
            if child is None:
                child = TreeNode(decision=decision, depth=node.depth + 1)
                node.children[decision] = child
                self.node_count += 1
                created += 1
            elif created == 0:
                lca_depth = index + 1
            child.visit_count += count
            node = child
        was_new = node.terminal_count == 0
        node.outcome_counts[outcome] += count
        if was_new:
            self.path_count += 1
        self.insert_count += count
        return MergeStats(
            path_length=len(decisions),
            lca_depth=lca_depth,
            nodes_created=created,
            was_new_path=was_new,
        )

    def insert_trace(self, trace: Trace, program: Program,
                     limits=None) -> MergeStats:
        """Replay a full-capture trace and merge its path (Fig. 3)."""
        decisions, outcome = path_from_trace(trace, program, limits=limits)
        if outcome is not trace.outcome:
            raise TreeError(
                f"replay outcome {outcome} disagrees with recorded"
                f" {trace.outcome} — trace/program version mismatch?")
        return self.insert_path(decisions, outcome)

    def merge(self, other: "ExecutionTree") -> int:
        """Merge another (shard-local) tree into this one.

        The merge is keyed by *path*: a path both trees observed maps
        onto one node chain — never a duplicate sibling — so distinct
        paths, branch coverage, and gap enumeration count shared
        observations once, while visit and terminal-outcome counters
        accumulate. Because traversal is order-canonical, the merge is
        associative and commutative over the multiset of insertions:
        shard merge order cannot change observable behaviour.

        Returns the number of distinct terminal paths copied. A tree of
        another program or version is rejected outright — merging paths
        replayed against a different CFG would corrupt the aggregate.
        """
        if other.program_name != self.program_name:
            raise TreeError("cannot merge trees of different programs")
        if other.program_version != self.program_version:
            raise TreeError(
                f"cannot merge tree for version {other.program_version}"
                f" into version {self.program_version}")
        copied = 0
        for decisions, outcomes in other.iter_terminal_paths():
            for outcome, count in outcomes.items():
                if count:    # a count-0 heartbeat leaves a zero entry
                    self.insert_path(decisions, outcome, count=count)
            copied += 1
        return copied

    def canonical_paths(self) -> Tuple[Tuple[Tuple[Decision, ...],
                                             Tuple[Tuple[Outcome, int],
                                                   ...]], ...]:
        """A hashable canonical fingerprint: every terminal path with
        its outcome counts, in traversal order. Two trees built from
        the same execution multiset — in any insertion or merge order —
        produce equal fingerprints (the shard-determinism invariant the
        tests pin down)."""
        return tuple(
            (path, tuple(outcomes.items()))
            for path, outcomes in self.iter_terminal_paths())

    # -- queries -------------------------------------------------------------

    def contains_path(self, decisions: Sequence[Decision]) -> bool:
        node = self.root
        for decision in decisions:
            node = node.children.get(decision)
            if node is None:
                return False
        return node.terminal_count > 0

    def iter_nodes(self) -> Iterator[TreeNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(child for _d, child in node.sorted_children())

    def iter_terminal_paths(
            self) -> Iterator[Tuple[Tuple[Decision, ...], Counter]]:
        """Yield (decision path, outcome counter) for every node where
        at least one execution terminated, in canonical order."""
        stack: List[Tuple[TreeNode, Tuple[Decision, ...]]] = [(self.root, ())]
        while stack:
            node, path = stack.pop()
            if node.terminal_count:
                yield path, node.sorted_outcomes()
            for decision, child in node.sorted_children():
                stack.append((child, path + (decision,)))

    def outcome_totals(self) -> Counter:
        totals: Counter = Counter()
        for _path, outcomes in self.iter_terminal_paths():
            totals.update(outcomes)
        return totals

    def observed_decisions(self) -> Counter:
        """How often each (site, taken) decision was traversed."""
        counts: Counter = Counter()
        for node in self.iter_nodes():
            if node.decision is not None:
                counts[node.decision] += node.visit_count
        return counts

    def failure_paths(self) -> List[Tuple[Tuple[Decision, ...], Outcome, int]]:
        """All paths that ended in a failure, with counts."""
        failures = []
        for path, outcomes in self.iter_terminal_paths():
            for outcome, count in outcomes.items():
                if outcome.is_failure:
                    failures.append((path, outcome, count))
        return failures

    def max_depth(self) -> int:
        return max((n.depth for n in self.iter_nodes()), default=0)


def path_from_trace(trace: Trace, program: Program,
                    limits=None) -> Tuple[List[Decision], Outcome]:
    """Replay a trace against its program, reconstructing the full
    decision path (the hive-side half of Fig. 3).

    Only replayable (full-capture) traces can be expanded; sampled or
    truncated traces specify path families and are handled by the
    statistical analyses instead.
    """
    if not trace.replayable:
        raise TraceError("cannot reconstruct a path from a non-replayable trace")
    if trace.program_name != program.name:
        raise TraceError(
            f"trace is for {trace.program_name!r}, not {program.name!r}")
    if trace.program_version != program.version:
        raise TraceError(
            f"trace version {trace.program_version} != program"
            f" version {program.version}")
    result = Interpreter(program, limits=limits).replay(trace.replay_source())
    return result.path_decisions, result.outcome
