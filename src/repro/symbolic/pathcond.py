"""Path conditions: ordered conjunctions of branch constraints."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import FrozenSet, List, Mapping, Optional, Tuple

from repro.progmodel.ir import Expr
from repro.symbolic.cache import (
    SliceMemo, build_slice_memos, extend_slice_memos,
)
from repro.symbolic.expr import evaluator

__all__ = ["PathCondition"]

#: Digest of the empty condition (any fixed constant works; blake2b of
#: an empty payload keeps it content-derived like every other id).
_EMPTY_DIGEST = hashlib.blake2b(b"", digest_size=16).hexdigest()


def _extend_digest(parent: str, expr: Expr, truth: bool) -> str:
    """``parent`` folded with ``repr((expr.key(), truth))``; the key's
    ``repr`` is memoized on the (immutable) node."""
    try:
        key_repr = expr._key_repr
    except AttributeError:
        key_repr = expr._key_repr = repr(expr.key())
    payload = f"{parent}({key_repr}, {truth!r})".encode("utf-8")
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


@dataclass
class PathCondition:
    """A conjunction of (expression, expected_truth) constraints.

    Each entry records one symbolic branch decision: the folded branch
    condition and the direction taken. The condition is satisfied by an
    assignment iff every expression's truthiness matches its direction.

    Conditions are persistent: :meth:`extended` shares the parent's
    derived state (symbol tuple, conjunct identity set, slice memos,
    structural digest) instead of re-walking every constraint, and
    re-asserting a conjunct already present returns the condition
    unchanged — loop branches re-take the same decision with the same
    folded expression every iteration, and the duplicate would only
    inflate virtual solve cost.

    The incremental derived state is what makes cache probes cheap:
    :meth:`slice_memos` holds fully canonicalized slices updated in
    O(slice touched) per conjunct, so
    :func:`repro.symbolic.cache.condition_slices` never re-sorts or
    renumbers the whole condition, and :meth:`digest` is a structural
    fingerprint folded forward in O(1) per conjunct.
    """

    constraints: List[Tuple[Expr, bool]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._symbols: Optional[Tuple[str, ...]] = None
        self._conjunct_keys: Optional[FrozenSet[Tuple]] = None
        self._slices: Optional[Tuple[SliceMemo, ...]] = None
        self._digest: Optional[str] = None

    def extended(self, expr: Expr, truth: bool) -> "PathCondition":
        """A new path condition with one more conjunct (persistent)."""
        key = (expr.key(), truth)
        if key in self._keys():
            return self
        child = PathCondition(constraints=self.constraints + [(expr, truth)])
        parent_symbols = self.symbols()
        fresh = tuple(name for name in expr.inputs()
                      if name not in parent_symbols)
        child._symbols = parent_symbols + fresh
        child._conjunct_keys = self._keys() | {key}
        child._slices = extend_slice_memos(
            self.slice_memos(), len(self.constraints), (expr, truth))
        child._digest = _extend_digest(self.digest(), expr, truth)
        return child

    def __len__(self) -> int:
        return len(self.constraints)

    def satisfied_by(self, env: Mapping[str, int]) -> bool:
        """Check an assignment. Division errors count as unsatisfied
        (the assignment would have crashed before completing the path)."""
        for expr, truth in self.constraints:
            try:
                value = evaluator(expr)(env)
            except ZeroDivisionError:
                return False
            if bool(value) != truth:
                return False
        return True

    def symbols(self) -> Tuple[str, ...]:
        """All symbol (Input) names referenced, in first-seen order."""
        if self._symbols is None:
            names: List[str] = []
            for expr, _truth in self.constraints:
                for name in expr.inputs():
                    if name not in names:
                        names.append(name)
            self._symbols = tuple(names)
        return self._symbols

    def slice_memos(self) -> Tuple[SliceMemo, ...]:
        """Canonicalized connected-component slices, ordered by first
        conjunct position — maintained incrementally by :meth:`extended`,
        rebuilt once for conditions constructed from a raw list."""
        if self._slices is None:
            self._slices = build_slice_memos(self.constraints)
        return self._slices

    def digest(self) -> str:
        """Structural fingerprint of the conjunct sequence.

        Folded forward one conjunct at a time (order-sensitive, like
        the condition itself); two conditions built from the same
        branch decisions share it, regardless of how their expression
        objects were derived.
        """
        if self._digest is None:
            digest = _EMPTY_DIGEST
            for expr, truth in self.constraints:
                digest = _extend_digest(digest, expr, truth)
            self._digest = digest
        return self._digest

    def _keys(self) -> FrozenSet[Tuple]:
        if self._conjunct_keys is None:
            self._conjunct_keys = frozenset(
                (expr.key(), truth) for expr, truth in self.constraints)
        return self._conjunct_keys
