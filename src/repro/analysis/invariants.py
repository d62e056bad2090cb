"""Dynamic invariant mining (Daikon-lite).

Paper Sec. 3.3: the hive "continuously reasons about the program and
attempts to prove useful properties about P". Outcome properties
(never-crashes) are built in; *data* properties have to come from
somewhere — this module mines them from execution by-products, in the
Daikon style: propose a grammar of candidate invariants over observed
quantities, keep the ones no execution violates, and report each with
its supporting-sample count so the prover can weigh the evidence.

Observed quantities are the ones the hive reconstructs from replay:
final global values and per-thread return values. Candidate forms:

* ``var == c``            (constant)
* ``lo <= var <= hi``     (range, tightest observed)
* ``var_a == var_b``      (equality between variables)
* ``var >= 0`` / ``var <= 0``  (sign)

Mined invariants are *candidate* facts: true of everything seen, not
proved. Feeding one to the cumulative prover (as an assertion-shaped
property) is what upgrades it from observation to theorem.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.progmodel.interpreter import ExecutionResult

__all__ = ["Invariant", "InvariantMiner"]


@dataclass(frozen=True)
class Invariant:
    """One mined candidate invariant."""

    kind: str          # "constant" | "range" | "equal" | "sign"
    subject: str       # variable name (or "a==b" pair text for equal)
    description: str
    support: int       # executions consistent with (and informing) it

    def __str__(self) -> str:
        return f"{self.description}  [support={self.support}]"


class _VarStats:
    __slots__ = ("lo", "hi", "samples", "none_seen")

    def __init__(self):
        self.lo: Optional[int] = None
        self.hi: Optional[int] = None
        self.samples = 0
        self.none_seen = False

    def record(self, value: Optional[int], count: int = 1) -> None:
        self.samples += count
        if value is None:
            self.none_seen = True
            return
        self.lo = value if self.lo is None else min(self.lo, value)
        self.hi = value if self.hi is None else max(self.hi, value)


class InvariantMiner:
    """Accumulates executions; reports surviving candidate invariants.

    ``min_support`` suppresses invariants with too few samples (a
    constant observed once is noise, not a fact). Variables whose name
    starts with ``ignore_prefix`` (synthesized infrastructure globals)
    are skipped.
    """

    def __init__(self, min_support: int = 5, ignore_prefix: str = "__"):
        self._min_support = min_support
        self._ignore_prefix = ignore_prefix
        self._globals: Dict[str, _VarStats] = defaultdict(_VarStats)
        self._returns: Dict[int, _VarStats] = defaultdict(_VarStats)
        self._equal_pairs: Optional[Dict[Tuple[str, str], int]] = None
        self.executions = 0

    # -- ingestion -----------------------------------------------------------

    def add_execution(self, result: ExecutionResult,
                      count: int = 1) -> None:
        """Fold ``count`` executions that share ``result``'s
        by-products: sample and equal-pair counts advance by ``count``
        while bounds and surviving pairs move as for one (a repeated
        snapshot changes neither), so this equals ``count`` calls. The
        first snapshot picks the candidate pairs, so the order of
        distinct executions still matters."""
        self.executions += count
        snapshot = {name: value
                    for name, value in result.final_globals.items()
                    if not name.startswith(self._ignore_prefix)}
        for name, value in snapshot.items():
            self._globals[name].record(value, count)
        for tid, value in result.return_values.items():
            self._returns[tid].record(value, count)
        self._update_equalities(snapshot, count)

    def _update_equalities(self, snapshot: Dict[str, Optional[int]],
                           times: int) -> None:
        names = sorted(n for n, v in snapshot.items() if v is not None)
        observed = {(a, b) for i, a in enumerate(names)
                    for b in names[i + 1:]
                    if snapshot[a] == snapshot[b]}
        if self._equal_pairs is None:
            self._equal_pairs = {pair: times for pair in observed}
            return
        # An equality survives only if it held in every execution that
        # observed both variables.
        surviving = {}
        for pair, count in self._equal_pairs.items():
            a, b = pair
            if a in snapshot and b in snapshot:
                if snapshot[a] is not None and snapshot[a] == snapshot[b]:
                    surviving[pair] = count + times
            else:
                surviving[pair] = count
        self._equal_pairs = surviving

    # -- reporting ------------------------------------------------------------

    def invariants(self) -> List[Invariant]:
        """Surviving candidates, strongest (most supported) first."""
        found: List[Invariant] = []
        for name, stats in sorted(self._globals.items()):
            found.extend(self._for_variable(f"global {name!r}", name,
                                            stats))
        for tid, stats in sorted(self._returns.items()):
            if stats.none_seen:
                continue  # threads ending via Halt return nothing
            found.extend(self._for_variable(
                f"thread {tid} return", f"ret{tid}", stats))
        if self._equal_pairs:
            for (a, b), count in sorted(self._equal_pairs.items()):
                if count >= self._min_support:
                    found.append(Invariant(
                        kind="equal", subject=f"{a}=={b}",
                        description=f"global {a!r} == global {b!r}",
                        support=count))
        found.sort(key=lambda inv: (-inv.support, inv.kind, inv.subject))
        return found

    def _for_variable(self, label: str, subject: str,
                      stats: _VarStats) -> List[Invariant]:
        if stats.samples < self._min_support or stats.lo is None:
            return []
        out: List[Invariant] = []
        if stats.lo == stats.hi:
            out.append(Invariant(
                kind="constant", subject=subject,
                description=f"{label} == {stats.lo}",
                support=stats.samples))
            return out
        out.append(Invariant(
            kind="range", subject=subject,
            description=f"{stats.lo} <= {label} <= {stats.hi}",
            support=stats.samples))
        if stats.lo >= 0:
            out.append(Invariant(
                kind="sign", subject=subject,
                description=f"{label} >= 0",
                support=stats.samples))
        elif stats.hi <= 0:
            out.append(Invariant(
                kind="sign", subject=subject,
                description=f"{label} <= 0",
                support=stats.samples))
        return out

    def violated_by(self, result: ExecutionResult) -> List[Invariant]:
        """Which current candidates does ``result`` contradict?

        Useful as an anomaly signal: an execution violating a
        well-supported invariant is suspicious even when its outcome
        is OK.
        """
        violations = []
        snapshot = result.final_globals
        for invariant in self.invariants():
            if invariant.kind in ("constant", "range", "sign"):
                value = snapshot.get(invariant.subject)
                if value is None:
                    continue
                stats = self._globals.get(invariant.subject)
                if stats is None or stats.lo is None:
                    continue
                if invariant.kind == "constant" and value != stats.lo:
                    violations.append(invariant)
                elif invariant.kind == "range" and not (
                        stats.lo <= value <= stats.hi):
                    violations.append(invariant)
                elif invariant.kind == "sign" and (
                        (stats.lo >= 0 and value < 0)
                        or (stats.hi <= 0 and value > 0)):
                    violations.append(invariant)
            elif invariant.kind == "equal":
                a, b = invariant.subject.split("==")
                va, vb = snapshot.get(a), snapshot.get(b)
                if va is not None and vb is not None and va != vb:
                    violations.append(invariant)
        return violations
