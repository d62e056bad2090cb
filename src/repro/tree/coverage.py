"""Coverage accounting over the execution tree.

Branch coverage compares the (site, direction) decisions observed in
the tree against the program's static branch sites. Because the tree
only records *input-dependent* decisions, static sites whose condition
is constant never appear — they are excluded via a dynamic-observability
heuristic: a site is countable once either direction has been seen.
Path-level coverage against the exhaustive feasible set is computed by
the proofs layer, which owns the symbolic enumeration oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set, Tuple

from repro.progmodel.ir import Program
from repro.tree.exectree import ExecutionTree

__all__ = ["CoverageReport", "branch_coverage", "coverage_report"]

Site = Tuple[int, str, str]


@dataclass
class CoverageReport:
    """Branch-direction coverage snapshot."""

    sites_seen: int
    directions_seen: int
    directions_possible: int     # 2 per seen site
    both_sides_sites: int

    @property
    def direction_fraction(self) -> float:
        if self.directions_possible == 0:
            return 0.0
        return self.directions_seen / self.directions_possible


def branch_coverage(tree: ExecutionTree) -> Dict[Site, Set[bool]]:
    """Map each observed decision site to the set of directions seen."""
    seen: Dict[Site, Set[bool]] = {}
    for node in tree.iter_nodes():
        if node.decision is None:
            continue
        site, taken = node.decision
        seen.setdefault(site, set()).add(taken)
    return seen


def coverage_report(tree: ExecutionTree,
                    program: Program = None) -> CoverageReport:
    """Summarise direction coverage of the tree.

    ``program`` is accepted for interface symmetry with future static
    analyses but the dynamic-observability rule means the report is
    computed from the tree alone.
    """
    seen = branch_coverage(tree)
    directions = sum(len(dirs) for dirs in seen.values())
    both = sum(1 for dirs in seen.values() if len(dirs) == 2)
    return CoverageReport(
        sites_seen=len(seen),
        directions_seen=directions,
        directions_possible=2 * len(seen),
        both_sides_sites=both,
    )
