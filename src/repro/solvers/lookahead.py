"""Failed-literal lookahead solver.

At every decision point this solver *probes* candidate variables: it
tentatively asserts each polarity and runs unit propagation. A polarity
that propagates to a conflict is a *failed literal* — its negation is
forced, no decision needed; a variable failing both ways refutes the
current node outright. Probing is expensive per node, which makes this
solver slower than plain DPLL on instances where decisions are cheap —
but it detects deeply hidden implications (masked implication chains)
at the root, where DPLL would rediscover the conflict exponentially
many times.

The search itself is :class:`~repro.solvers.dpll.DPLLSolver`'s: this
solver adds probing before each decision (``_prepare``) and branches on
the first unassigned variable, true first (``_pick``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.solvers.dpll import DPLLSolver, _assume, _undo

__all__ = ["LookaheadSolver"]


class LookaheadSolver(DPLLSolver):
    """DPLL + failed-literal probing at every node."""

    def __init__(self, probe_limit: int = 64):
        super().__init__()
        # Probing every variable at every node is overkill; probe the
        # first ``probe_limit`` unassigned variables (by index) — chain
        # structures put related variables at adjacent indices, which
        # is exactly where probing pays off.
        self.probe_limit = probe_limit
        self.name = "lookahead"

    def _prepare(self, cnf, assignment, meter) -> Optional[List[int]]:
        # Probe until quiescence: each forced literal may enable more.
        forced: List[int] = []
        while True:
            trail = self._probe(cnf, assignment, meter)
            if trail is None:
                _undo(assignment, forced)
                return None
            if not trail:
                return forced
            forced += trail

    def _probe(self, cnf, assignment, meter) -> Optional[List[int]]:
        """Probe unassigned variables for a failed literal.

        Returns the trail of the first forced literal (its negation
        failed; already propagated into ``assignment``), an empty list
        when no probe fails, or None when the node is refuted: a
        variable failed both ways, or its forced value conflicts too.
        """
        probed = 0
        for var in cnf.variables():
            if var in assignment:
                continue
            if probed >= self.probe_limit:
                break
            probed += 1
            failures = []
            for value in (True, False):
                meter.charge()  # a probe
                trail = _assume(cnf, assignment, var, value, meter)
                if trail is None:
                    failures.append(value)
                else:
                    _undo(assignment, trail)
            if len(failures) == 2:
                return None
            if failures:
                return _assume(cnf, assignment, var, not failures[0], meter)
        return []

    def _pick(self, cnf, assignment, meter, rng,
              ) -> Optional[Tuple[int, bool]]:
        var = next((v for v in cnf.variables() if v not in assignment), None)
        return None if var is None else (var, True)
