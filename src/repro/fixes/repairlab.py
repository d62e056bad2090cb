"""The repair lab: candidate ranking and human-escalation policy.

Paper Sec. 3.3: "Since it is not yet clear how many types of bugs can
be fixed automatically, we also provision for a repair lab that
suggests plausible fixes to developers, who then manually choose the
correct one." The lab validates every candidate, auto-approves the
best zero-regression fix per target bug, and queues the rest for a
human.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.fixes.fix import Fix
from repro.fixes.validation import FixValidator, ValidationReport

__all__ = ["RankedFix", "RepairLab"]


@dataclass
class RankedFix:
    """A candidate fix with its validation evidence."""

    fix: Fix
    report: ValidationReport

    @property
    def auto_approved(self) -> bool:
        return self.report.deployable

    @property
    def score(self) -> float:
        """Ordering key: deployability, then mitigation, then breadth."""
        return ((1_000_000 if self.report.deployable else 0)
                + 1_000 * self.report.mitigation_rate
                + self.report.mitigated
                - 10_000 * self.report.regressions)


class RepairLab:
    """Validates and triages candidate fixes for one program."""

    def __init__(self, validator: FixValidator):
        self._validator = validator
        self.history: List[RankedFix] = []

    def evaluate(self, candidates: Sequence[Fix]) -> List[RankedFix]:
        """Validate all candidates; return them best-first."""
        ranked = [RankedFix(fix=fix, report=self._validator.validate(fix))
                  for fix in candidates]
        ranked.sort(key=lambda r: -r.score)
        self.history.extend(ranked)
        return ranked

    def select(self, candidates: Sequence[Fix]) -> Optional[RankedFix]:
        """The auto-deployable winner, or None (escalate to a human)."""
        ranked = self.evaluate(candidates)
        for entry in ranked:
            if entry.auto_approved:
                return entry
        return None

    def ledger(self) -> List[Dict[str, object]]:
        """The evaluation history as plain rows, in evaluation order.

        The registry harness and scorecard reports embed these rows
        directly (JSON-safe scalars only), so validation evidence for a
        known patch travels with the scorecard it justified.
        """
        return [{
            "fix_id": entry.fix.fix_id,
            "description": entry.fix.description,
            "target_bug": entry.fix.target_bug_message,
            "deployable": entry.auto_approved,
            "regressions": entry.report.regressions,
            "mitigated": entry.report.mitigated,
            "unmitigated": entry.report.unmitigated,
            "cases_run": entry.report.cases_run,
            "score": entry.score,
        } for entry in self.history]
