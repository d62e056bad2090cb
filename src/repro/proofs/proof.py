"""Proof objects: evidence-backed statements about a program version."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional

from repro.proofs.properties import OutcomeProperty

__all__ = ["ProofStatus", "Proof"]


class ProofStatus(Enum):
    PARTIAL = "partial"     # some feasible paths not yet witnessed
    PROVED = "proved"       # all feasible paths witnessed, none violating
    REFUTED = "refuted"     # a witnessed counterexample exists


@dataclass
class Proof:
    """A (possibly partial) proof of one property for one version.

    ``total_feasible_paths`` is None when no symbolic oracle is
    available (e.g. multi-threaded programs, where the denominator over
    schedules is unbounded) — such proofs can be REFUTED by evidence
    but never reach PROVED; they remain honest partial statements.
    """

    program_name: str
    program_version: int
    property: OutcomeProperty
    status: ProofStatus
    covered_paths: int
    total_feasible_paths: Optional[int]
    violating_paths: int = 0
    counterexamples: List[str] = field(default_factory=list)
    invalidated: bool = False

    @property
    def coverage(self) -> float:
        if not self.total_feasible_paths:
            return 0.0
        return min(1.0, self.covered_paths / self.total_feasible_paths)

    def describe(self) -> str:
        scope = (f"{self.covered_paths}/{self.total_feasible_paths}"
                 if self.total_feasible_paths is not None
                 else f"{self.covered_paths}/?")
        flag = " [INVALIDATED]" if self.invalidated else ""
        return (f"{self.property} on {self.program_name}"
                f" v{self.program_version}: {self.status.value}"
                f" (paths {scope}){flag}")
