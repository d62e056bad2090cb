"""SAT solving and the solver portfolio (paper Sec. 4).

The paper's only quantitative claim: "by replacing a single SAT solver
with a portfolio of three different SAT solvers running in parallel, we
achieved a 10x speedup in constraint solving time with only a 3x
increase in computation resources. We believe that each solver is fast
in solving some path constraints but slow on others and, for most
constraints, at least one solver completes much faster than the
others."

This subpackage implements that setup from scratch: a CNF layer with
instance generators of deliberately different character, three solvers
with genuinely different strengths (systematic DPLL, stochastic local
search, unit-propagation lookahead), deterministic virtual-cost
metering, and the portfolio runner that measures speedup vs. resources.
The two complete solvers share one systematic core, in
:mod:`repro.solvers.dpll`; lookahead adds only failed-literal probing
and its branching rule.
"""

from repro.solvers.cnf import (
    CNF,
    evaluate,
    implication_chain,
    pigeonhole,
    random_ksat,
    graph_coloring,
)
from repro.solvers.budget import CostMeter, SolveResult, SolveStatus
from repro.solvers.dpll import DPLLSolver
from repro.solvers.walksat import WalkSATSolver
from repro.solvers.lookahead import LookaheadSolver
from repro.solvers.portfolio import (
    Portfolio,
    PortfolioOutcome,
    PortfolioReport,
    run_portfolio_experiment,
)

__all__ = [
    "CNF", "evaluate", "random_ksat", "pigeonhole", "implication_chain",
    "graph_coloring",
    "CostMeter", "SolveResult", "SolveStatus",
    "DPLLSolver", "WalkSATSolver", "LookaheadSolver",
    "Portfolio", "PortfolioOutcome", "PortfolioReport",
    "run_portfolio_experiment",
]
