"""Collective constraint recycling: a canonicalizing solver cache.

The paper's thesis is that execution by-products should be *recycled
across the collective* (Sec. 4 quantifies exactly this workload:
constraint-solving throughput). This module is the store those
by-products land in — a deterministic cache of solved constraint
*slices* shared between pods, shards, and rounds.

**Canonical keys.** A cache key is the structural hash of a set of
conjuncts *up to symbol renaming*: conjuncts are sorted by their
symbol-masked skeleton, then symbols are renamed to dense indices by
first occurrence over that sorted order. Two path conditions that
differ only in which input names they constrain (``__sys0 > 4`` vs
``__sys1 > 4``) share one entry. Key equality implies α-equivalence,
so a hit is always sound; ordering ties between equal skeletons can at
worst *miss* a hit, never fabricate one.

**Slices.** Conditions are decomposed into independent slices — the
connected components of the constraint/symbol graph — so a cached
sub-condition hits even when the full conjunction is new, and a single
cached-UNSAT slice proves a brand-new conjunction UNSAT with no search.

**Entries and validity.** An entry is either ``("sat", values)`` — a
model for the slice, values aligned with the key's canonical symbol
indices — or ``("unsat", domains)`` — the per-symbol domains the slice
was refuted under. A SAT entry is usable when every stored value lies
inside the *current* domain of the corresponding symbol (satisfaction
transfers structurally under renaming; the domain check is all that is
left). An UNSAT entry is usable when every current domain is a subset
of the stored one (shrinking domains cannot create solutions).

**Determinism.** Shard caches are private (no locks, no shared
mutation); they export every *(key, entry)* fact they produce exactly
once, and the platform folds round deltas through
:meth:`ConstraintCache.canonical_order` — a content sort that is
independent of how runs were sharded — before merging first-writer-wins
into the hive cache. Redistributed facts are remembered so shards never
re-export them. The hive cache therefore evolves identically on the
serial and process backends at a fixed seed, which is what
keeps cache-enabled runs bit-identical across backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import (
    Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Optional,
    Sequence, Set, Tuple,
)

from repro.config import BaseReport
from repro.obs import Instrumented
from repro.progmodel.ir import Expr

__all__ = [
    "SolverCacheStats", "ConstraintCache", "ConditionSlice",
    "canonical_slice_key", "condition_slices", "conjunct_slices",
    "SliceMemo", "build_slice_memos", "extend_slice_memos",
]

#: One conjunct: (folded expression, direction taken).
Conjunct = Tuple[Expr, bool]
#: Canonical keys are nested tuples of primitives — hashable, picklable,
#: and with a deterministic ``repr`` used for content ordering.
CanonicalKey = Tuple
#: ("sat", values) or ("unsat", domains), aligned to canonical indices.
CacheEntry = Tuple[str, Tuple]
#: What shards ship back and the hive redistributes.
CacheDelta = List[Tuple[CanonicalKey, CacheEntry]]

Domains = Mapping[str, Tuple[int, int]]


# -- canonicalization ---------------------------------------------------------

def _masked(key: object) -> object:
    """The key's skeleton: every Input name replaced by a placeholder."""
    if isinstance(key, tuple):
        if key and key[0] == "input":
            return ("input", "?")
        return tuple(_masked(part) for part in key)
    return key


def _renamed(key: object, renaming: Mapping[str, int]) -> object:
    """The key with Input names replaced by canonical indices."""
    if isinstance(key, tuple):
        if key and key[0] == "input":
            return ("input", renaming[key[1]])
        return tuple(_renamed(part, renaming) for part in key)
    return key


def _skeleton_of(expr: Expr) -> str:
    """``repr(_masked(expr.key()))``, memoized on the (immutable) node.

    The skeleton string is the sort key of every canonicalization; with
    interning (``repro.symbolic.expr``) structurally repeated conjuncts
    share one node and pay for the mask walk once.
    """
    try:
        return expr._skeleton
    except AttributeError:
        skeleton = expr._skeleton = repr(_masked(expr.key()))
        return skeleton


def _renamed_key(expr: Expr, indices: Tuple[int, ...]) -> object:
    """``expr.key()`` with its i-th first-seen Input name (``inputs()``
    order) replaced by ``indices[i]``, memoized on the node per index
    tuple: a conjunct re-keyed as its slice grows walks its key once
    for each renaming it meets, not once per re-key."""
    try:
        memo = expr._renamed
    except AttributeError:
        memo = expr._renamed = {}
    key = memo.get(indices)
    if key is None:
        key = memo[indices] = _renamed(
            expr.key(), dict(zip(expr.inputs(), indices)))
    return key


def canonical_slice_key(
        conjuncts: Sequence[Conjunct]) -> Tuple[CanonicalKey, Tuple[str, ...]]:
    """Canonicalize one slice under symbol renaming.

    Returns ``(key, order)``: ``key`` is identical for α-equivalent
    conjunct sets and ``order[i]`` names the actual symbol bound to
    canonical index ``i`` in *this* condition.

    Conjuncts sort stably by (skeleton, truth); symbols take dense
    indices in first-seen order over that sorted list, each conjunct's
    names in its ``inputs()`` order (the order its key lists them).
    """
    tagged = [(_skeleton_of(expr), truth, expr) for expr, truth in conjuncts]
    tagged.sort(key=itemgetter(0, 1))
    renaming: Dict[str, int] = {}
    key = []
    for _skeleton, truth, expr in tagged:
        indices = []
        for name in expr.inputs():
            index = renaming.get(name)
            if index is None:
                index = renaming[name] = len(renaming)
            indices.append(index)
        key.append((_renamed_key(expr, tuple(indices)), truth))
    return tuple(key), tuple(renaming)


# -- slicing ------------------------------------------------------------------

@dataclass
class ConditionSlice:
    """One connected component of the constraint/symbol graph, keyed
    by :func:`canonical_slice_key` of its conjuncts."""

    conjuncts: List[Conjunct]
    symbols: Tuple[str, ...]          # first-seen order within the slice
    key: CanonicalKey
    order: Tuple[str, ...]            # canonical index -> symbol name


def conjunct_slices(conjuncts: Sequence[Conjunct]) -> List[ConditionSlice]:
    """Split conjuncts into independent slices (union-find over symbols).

    Constraints sharing no symbol can be solved separately and their
    models combined; constant conjuncts (no symbols) form one slice of
    their own. Slices come back ordered by first conjunct position.
    """
    parent: Dict[str, str] = {}

    def find(name: str) -> str:
        root = name
        while parent[root] != root:
            root = parent[root]
        while parent[name] != root:          # path compression
            parent[name], name = root, parent[name]
        return root

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    per_conjunct: List[Tuple[str, ...]] = []
    for expr, _truth in conjuncts:
        names = expr.inputs()
        per_conjunct.append(names)
        for name in names:
            parent.setdefault(name, name)
        for other in names[1:]:
            union(names[0], other)

    # Group first (constant conjuncts under None), then key each
    # complete slice once.
    groups: Dict[Optional[str], Tuple[List[Conjunct], List[str]]] = {}
    for conjunct, names in zip(conjuncts, per_conjunct):
        root = find(names[0]) if names else None
        members, symbols = groups.setdefault(root, ([], []))
        members.append(conjunct)
        for name in names:
            if name not in symbols:
                symbols.append(name)
    out = []
    for members, symbols in groups.values():
        key, order = canonical_slice_key(members)
        out.append(ConditionSlice(members, tuple(symbols), key, order))
    return out


def condition_slices(condition) -> List[ConditionSlice]:
    """Slices of a :class:`~repro.symbolic.pathcond.PathCondition`.

    Path conditions carry incrementally maintained slice memos
    (:class:`SliceMemo`, updated per conjunct by
    :meth:`~repro.symbolic.pathcond.PathCondition.extended`), so this
    is O(slices) — the canonical keys were computed when each slice
    last changed, not re-derived per probe. Conditions without memos
    (plain duck-typed carriers) fall back to the batch grouping.
    """
    memos = getattr(condition, "slice_memos", None)
    if memos is None:
        return conjunct_slices(condition.constraints)
    return [ConditionSlice(list(memo.conjuncts), memo.symbols,
                           key=memo.key, order=memo.order)
            for memo in memos()]


# -- incremental slice memos --------------------------------------------------

class SliceMemo(NamedTuple):
    """One immutable, fully canonicalized slice of a path condition.

    ``positions`` are the conjunct indices (in condition order) the
    slice covers; memos are shared structurally between a condition and
    its :meth:`extended` children, so extending a condition re-keys
    only the slice(s) the new conjunct touches.
    """

    positions: Tuple[int, ...]
    conjuncts: Tuple[Conjunct, ...]
    symbols: Tuple[str, ...]
    symbol_set: FrozenSet[str]
    key: CanonicalKey
    order: Tuple[str, ...]


def _make_memo(positions: Tuple[int, ...],
               conjuncts: Tuple[Conjunct, ...],
               symbols: Tuple[str, ...]) -> SliceMemo:
    key, order = canonical_slice_key(conjuncts)
    return SliceMemo(positions, conjuncts, symbols, frozenset(symbols),
                     key, order)


def build_slice_memos(
        conjuncts: Sequence[Conjunct]) -> Tuple[SliceMemo, ...]:
    """Batch construction (conditions not grown via ``extended``)."""
    memos: Tuple[SliceMemo, ...] = ()
    for position, conjunct in enumerate(conjuncts):
        memos = extend_slice_memos(memos, position, conjunct)
    return memos


def extend_slice_memos(memos: Tuple[SliceMemo, ...], position: int,
                       conjunct: Conjunct) -> Tuple[SliceMemo, ...]:
    """Memos after appending ``conjunct`` at ``position``.

    Equivalent to regrouping from scratch — the new conjunct either
    starts a fresh slice, joins the one slice it shares symbols with,
    or fuses several — but only the affected slice is re-keyed; every
    untouched memo is shared with the parent as-is. The list stays
    ordered by first conjunct position, matching
    :func:`conjunct_slices` exactly.
    """
    expr, _truth = conjunct
    names = expr.inputs()
    if not names:
        # Constant conjuncts pool into one dedicated slice.
        for index, memo in enumerate(memos):
            if not memo.symbols:
                merged = _make_memo(memo.positions + (position,),
                                    memo.conjuncts + (conjunct,), ())
                return memos[:index] + (merged,) + memos[index + 1:]
        return memos + (_make_memo((position,), (conjunct,), ()),)
    hits = [index for index, memo in enumerate(memos)
            if not memo.symbol_set.isdisjoint(names)]
    if not hits:
        return memos + (_make_memo((position,), (conjunct,), names),)
    pairs: List[Tuple[int, Conjunct]] = []
    for index in hits:
        pairs.extend(zip(memos[index].positions, memos[index].conjuncts))
    pairs.append((position, conjunct))
    pairs.sort(key=lambda pair: pair[0])
    symbols: List[str] = []
    seen: Set[str] = set()
    for _position, (piece_expr, _piece_truth) in pairs:
        for name in piece_expr.inputs():
            if name not in seen:
                seen.add(name)
                symbols.append(name)
    merged = _make_memo(tuple(p for p, _ in pairs),
                        tuple(c for _, c in pairs), tuple(symbols))
    hit_set = set(hits)
    out = [memo for index, memo in enumerate(memos)
           if index not in hit_set]
    out.append(merged)
    out.sort(key=lambda memo: memo.positions[0])
    return tuple(out)


# -- the cache ----------------------------------------------------------------

@dataclass
class SolverCacheStats(BaseReport):
    """Reuse accounting, by tier."""

    hits_exact: int = 0     # tier 1: stored model valid as-is
    hits_model: int = 0     # tier 2: sub-slice model rehydrated
    hits_unsat: int = 0     # tier 3: UNSAT by subsumption, zero search
    misses: int = 0
    stores: int = 0
    merged: int = 0         # entries adopted from other caches
    evictions: int = 0

    @property
    def hits(self) -> int:
        return self.hits_exact + self.hits_model + self.hits_unsat

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        doc = super().as_dict()
        doc["hits"] = self.hits
        doc["hit_rate"] = round(self.hit_rate(), 6)
        return doc


class ConstraintCache(Instrumented):
    """Content-keyed store of solved constraint slices.

    First writer wins: once a key has an entry it never changes, so
    lookups are stable regardless of later traffic. Capacity is bounded
    with FIFO eviction over insertion order (insertion order is itself
    deterministic, so eviction is too).

    Export protocol: every *(key, entry)* fact this cache originates is
    logged exactly once for :meth:`export_delta`; facts adopted via
    :meth:`merge` are never re-exported (their keys are marked *known*),
    which keeps round deltas free of echoes. The union of shard exports
    in a round is therefore a function of the run plan alone — not of
    how runs were sharded — and :meth:`canonical_order` gives it one
    backend-invariant ordering.
    """

    obs_namespace = "symbolic.cache"

    def __init__(self, max_entries: int = 8192):
        self.max_entries = max_entries
        self.stats = SolverCacheStats()
        self._entries: Dict[CanonicalKey, CacheEntry] = {}
        self._known: Set[CanonicalKey] = set()       # merged-in keys
        # (key, entry) pairs logged or merged in: each exports once.
        self._exported: Set[Tuple[CanonicalKey, CacheEntry]] = set()
        self._log: List[Tuple[CanonicalKey, CacheEntry]] = []
        self._cursor = 0
        self._obs_hits = self.obs_counter("hits")
        self._obs_misses = self.obs_counter("misses")
        self._obs_subsumed = self.obs_counter("subsumed")
        self._obs_evicted = self.obs_counter("evicted")

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self):
        """Iterate ``(key, entry)`` pairs (for fingerprints/snapshots)."""
        return iter(self._entries.items())

    # -- probes (the three reuse tiers) ---------------------------------------

    def probe_sat(self, key: CanonicalKey, order: Sequence[str],
                  domains: Domains) -> Optional[Dict[str, int]]:
        """Tier 1: a stored model, renamed back, if it fits ``domains``."""
        model = self.peek_sat(key, order, domains)
        if model is not None:
            self.stats.hits_exact += 1
            self._obs_hits.inc()
        return model

    def peek_sat(self, key: CanonicalKey, order: Sequence[str],
                 domains: Domains) -> Optional[Dict[str, int]]:
        """Like :meth:`probe_sat` but uncounted (rehydration sub-lookups)."""
        entry = self._entries.get(key)
        if entry is None or entry[0] != "sat":
            return None
        values = entry[1]
        model: Dict[str, int] = {}
        for index, name in enumerate(order):
            value = values[index]
            lo, hi = domains[name]
            if not lo <= value <= hi:
                return None
            model[name] = value
        return model

    def probe_unsat(self, key: CanonicalKey, order: Sequence[str],
                    domains: Domains) -> bool:
        """Tier 3: UNSAT by subsumption — every current domain must sit
        inside the domain the slice was refuted under."""
        entry = self._entries.get(key)
        if entry is None or entry[0] != "unsat":
            return False
        stored = entry[1]
        for index, name in enumerate(order):
            lo, hi = domains[name]
            stored_lo, stored_hi = stored[index]
            if lo < stored_lo or hi > stored_hi:
                return False
        self.stats.hits_unsat += 1
        self._obs_subsumed.inc()
        return True

    def note_rehydrated(self) -> None:
        """Tier 2 hit: a sub-slice model checked out on the extension."""
        self.stats.hits_model += 1
        self._obs_hits.inc()

    def note_miss(self) -> None:
        self.stats.misses += 1
        self._obs_misses.inc()

    # -- stores ---------------------------------------------------------------

    def store_sat(self, key: CanonicalKey, order: Sequence[str],
                  model: Mapping[str, int]) -> None:
        values = tuple(model[name] for name in order)
        self._store(key, ("sat", values))

    def store_unsat(self, key: CanonicalKey, order: Sequence[str],
                    domains: Domains) -> None:
        bounds = tuple(tuple(domains[name]) for name in order)
        self._store(key, ("unsat", bounds))

    def _store(self, key: CanonicalKey, entry: CacheEntry) -> None:
        if key not in self._known:
            pair = (key, entry)
            if pair not in self._exported:
                self._exported.add(pair)
                self._log.append((key, entry))
                self.stats.stores += 1
        if key not in self._entries:
            self._insert(key, entry)

    def _insert(self, key: CanonicalKey, entry: CacheEntry) -> None:
        while len(self._entries) >= self.max_entries:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self.stats.evictions += 1
            self._obs_evicted.inc()
        self._entries[key] = entry

    # -- collective sharing ---------------------------------------------------

    def merge(self, delta: CacheDelta, reshare: bool = False) -> int:
        """Adopt external facts, first-writer-wins; returns entries added.

        ``reshare=True`` (hive side) re-logs adopted entries so the next
        :meth:`export_delta` redistributes them; the default (shard
        side) marks their keys known so they are never echoed back.
        """
        added = 0
        for key, entry in delta:
            self._known.add(key)
            self._exported.add((key, entry))
            if key not in self._entries:
                self._insert(key, entry)
                added += 1
                if reshare:
                    self._log.append((key, entry))
        self.stats.merged += added
        return added

    def export_delta(self) -> CacheDelta:
        """Facts originated (or reshared) since the last export."""
        delta = self._log[self._cursor:]
        self._cursor = len(self._log)
        return list(delta)

    def shared_since(self, cursor: int) -> Tuple[CacheDelta, int]:
        """Log tail from ``cursor`` plus the new cursor (per-peer export
        for the cooperative coordinator, which seeds many workers from
        one cache)."""
        return list(self._log[cursor:]), len(self._log)

    @staticmethod
    def canonical_order(deltas: Iterable[CacheDelta]) -> CacheDelta:
        """Fold per-shard deltas into one backend-invariant delta.

        Content-sorts the union by ``(key, entry)`` repr and keeps the
        first entry per key, so the result does not depend on how runs
        were split across shards or which shard reported first.
        """
        unique: Dict[Tuple[str, str], Tuple[CanonicalKey, CacheEntry]] = {}
        for delta in deltas:
            for key, entry in delta:
                unique.setdefault((repr(key), repr(entry)), (key, entry))
        out: CacheDelta = []
        seen: Set[str] = set()
        for (key_repr, _entry_repr) in sorted(unique):
            if key_repr in seen:
                continue
            seen.add(key_repr)
            out.append(unique[(key_repr, _entry_repr)])
        return out
