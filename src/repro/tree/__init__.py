"""The collective execution tree (paper Sec. 3.2, Figs. 2-3).

The hive dynamically decodes each program's decision tree from live
executions: every trace is replayed (deterministic branches are
reconstructed concretely, input-dependent decisions consume the
recorded bits) and the resulting decision path is pasted into the tree
at its lowest common ancestor with what is already known. Because every
path occurred in a real execution, feasibility is guaranteed and no
constraint solving happens at merge time.
"""

from repro.tree.exectree import ExecutionTree, MergeStats, TreeNode, path_from_trace
from repro.tree.coverage import branch_coverage, coverage_report
from repro.tree.families import (
    family_for_observations,
    family_for_trace,
    narrowing_curve,
)
from repro.tree.frontier import Gap, enumerate_gaps

__all__ = [
    "ExecutionTree", "TreeNode", "MergeStats", "path_from_trace",
    "branch_coverage", "coverage_report", "Gap", "enumerate_gaps",
    "family_for_trace", "family_for_observations", "narrowing_curve",
]
