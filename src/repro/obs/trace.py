"""Causal span tracing: where did the round actually go?

``repro.obs`` counters answer *how much*; this module answers *where
and in what order*. A :class:`Tracer` records **spans** — named,
timed, attributed sections arranged in a parent/child tree — into a
per-run :class:`TraceLog`, with the trace context propagated across
every platform seam:

* ``SoftBorgPlatform`` opens a root span per round (plan / execute /
  deliver / fix children);
* execution backends hand each shard a :class:`SpanContext`; the shard
  records its spans into a local :class:`SpanRecorder` and ships them
  back inside its :class:`~repro.exec.batch.ShardResult`, so thread
  and process runs graft into one coherent tree;
* ``TraceBatch`` wire frames and ``net.transport`` messages carry the
  ``(trace_id, span_id)`` context, so hive-side ingest spans parent
  under the sender's span even across the (simulated) Internet;
* chaos fault injections and invariant violations land as **events**
  on the active span and in the bounded :class:`FlightRecorder`.

Design constraints mirror the metrics registry's:

1. **Resolved once.** Components capture ``get_tracer()`` at
   construction; a disabled tracer hands back shared no-op spans whose
   methods do nothing.
2. **Free when off.** ``Tracer(enabled=False)`` (the default) makes
   ``span()``/``event()`` a single flag check; no allocation, no
   clock reads.
3. **Deterministic export.** Span ids are *content-derived* — a hash
   of ``(trace_id, parent_id, name, key)`` where ``key`` is a
   backend-invariant coordinate (global execution index, frame index,
   round index) — so serial and process runs of the same seed
   produce byte-identical Chrome exports under a pinned clock
   (:class:`FixedClock`). Allocation order never leaks into the tree.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "SpanContext", "SpanRecord", "SpanRecorder", "TraceLog",
    "FlightRecorder", "Tracer", "FixedClock", "NULL_TRACER",
    "get_tracer", "set_tracer", "enable_tracing", "disable_tracing",
    "derive_trace_id",
]

Clock = Callable[[], float]


class FixedClock:
    """A picklable constant clock: pins time itself.

    Tier-1 determinism tests install ``Tracer(clock=FixedClock())`` so
    every span gets identical timestamps on every backend — including
    worker processes, which receive the clock over the spawn channel
    (hence a class, not a lambda: it must survive pickling).
    """

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0):
        self.value = value

    def __call__(self) -> float:
        return self.value

    def __getstate__(self):
        return self.value

    def __setstate__(self, state):
        self.value = state


def derive_trace_id(*labels: object) -> str:
    """A deterministic 16-hex-char trace id from a label path."""
    digest = hashlib.blake2b(
        "|".join(repr(label) for label in labels).encode("utf-8"),
        digest_size=8)
    return digest.hexdigest()


def _span_id(trace_id: str, parent_id: Optional[str], name: str,
             key: str) -> str:
    """Content-derived span id: identical coordinates ⇒ identical id,
    on every backend, in every process."""
    digest = hashlib.blake2b(
        f"{trace_id}|{parent_id or ''}|{name}|{key}".encode("utf-8"),
        digest_size=8)
    return digest.hexdigest()


@dataclass(frozen=True)
class SpanContext:
    """The propagatable part of a span: enough to parent a child
    anywhere — another thread, another process, the far side of the
    simulated network."""

    trace_id: str
    span_id: str


@dataclass
class SpanRecord:
    """One completed span (pure data: pickles across worker pipes)."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    key: str
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)
    events: List[Dict[str, object]] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def sort_key(self) -> Tuple:
        """Canonical sibling order: chronological under a real clock,
        (name, key) under a pinned one — backend-invariant either way."""
        return (self.start, self.end, self.name, self.key, self.span_id)

    def as_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "key": self.key,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "events": [dict(event) for event in self.events],
        }


class _ActiveSpan:
    """Context-manager handle over an in-flight :class:`SpanRecord`."""

    __slots__ = ("_recorder", "record")

    def __init__(self, recorder: "SpanRecorder", record: SpanRecord):
        self._recorder = recorder
        self.record = record

    @property
    def context(self) -> SpanContext:
        return self.record.context()

    def set(self, **attrs) -> "_ActiveSpan":
        self.record.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs) -> None:
        self._recorder.event(name, _span=self.record, **attrs)

    def __enter__(self) -> "_ActiveSpan":
        return self

    def __exit__(self, *exc) -> None:
        self._recorder._finish(self.record)


class _NullSpan:
    """Shared do-nothing span handle (disabled tracer / recorder)."""

    __slots__ = ()
    record = None
    context = None

    def set(self, **attrs) -> "_NullSpan":
        return self

    def event(self, name: str, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


NULL_SPAN = _NullSpan()


class _NullRecorder:
    """Shared do-nothing recorder (tracing disabled)."""

    __slots__ = ()
    enabled = False

    def span(self, name: str, key: object = None, **attrs) -> _NullSpan:
        return NULL_SPAN

    def event(self, name: str, **attrs) -> None:
        pass

    def take(self) -> Tuple:
        return ()


NULL_RECORDER = _NullRecorder()


class FlightRecorder:
    """A bounded, deterministic ring buffer of recent trace activity.

    Every span start/end and every event lands here; when a chaos
    round grades *failed* or an invariant fires, the platform dumps
    the ring into the snapshot — the last-moments black box.
    """

    def __init__(self, capacity: int = 256):
        self.capacity = max(1, capacity)
        self.total = 0
        self._ring: List[Dict[str, object]] = []
        self._cursor = 0

    def record(self, entry: Dict[str, object]) -> None:
        self.total += 1
        if len(self._ring) < self.capacity:
            self._ring.append(entry)
        else:
            self._ring[self._cursor] = entry
            self._cursor = (self._cursor + 1) % self.capacity

    @property
    def dropped(self) -> int:
        return max(0, self.total - self.capacity)

    def events(self) -> List[Dict[str, object]]:
        """The retained events, oldest first."""
        return self._ring[self._cursor:] + self._ring[:self._cursor]

    def slice(self, ts_from: Optional[float] = None,
              ts_to: Optional[float] = None,
              limit: Optional[int] = None) -> List[Dict[str, object]]:
        """Retained events inside ``[ts_from, ts_to]``, oldest first.

        Either bound may be ``None`` (open end); ``limit`` keeps only
        the **newest** ``limit`` matches — the shape incident evidence
        wants (the last moments before an alert fired). Events are
        copied, so mutating the slice never corrupts the ring.
        """
        matched = [dict(event) for event in self.events()
                   if (ts_from is None or event.get("ts", 0.0) >= ts_from)
                   and (ts_to is None or event.get("ts", 0.0) <= ts_to)]
        if limit is not None and limit >= 0:
            matched = matched[len(matched) - min(limit, len(matched)):]
        return matched

    def dump(self, reason: str = "") -> Dict[str, object]:
        return {
            "reason": reason,
            "capacity": self.capacity,
            "total": self.total,
            "dropped": self.dropped,
            "events": [dict(event) for event in self.events()],
        }

    def clear(self) -> None:
        self.total = 0
        self._ring = []
        self._cursor = 0


class TraceLog:
    """The per-run store of completed spans (bounded, counts drops)."""

    def __init__(self, max_spans: int = 250_000):
        self.max_spans = max_spans
        self.spans: List[SpanRecord] = []
        self.dropped = 0

    def add(self, span: SpanRecord) -> None:
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(span)

    def extend(self, spans: Sequence[SpanRecord]) -> None:
        for span in spans:
            self.add(span)

    def __len__(self) -> int:
        return len(self.spans)

    def clear(self) -> None:
        self.spans = []
        self.dropped = 0


class SpanRecorder:
    """Span mechanics for one single-threaded recording site.

    The coordinator's :class:`Tracer` is one; each shard gets its own
    (via :meth:`Tracer.recorder`), rooted at the remote parent context
    the backend handed it, so worker-side spans parent correctly
    without any cross-thread state.
    """

    enabled = True

    def __init__(self, clock: Clock, trace_id: str,
                 parent: Optional[SpanContext] = None,
                 flight: Optional[FlightRecorder] = None):
        self._clock = clock
        self._trace_id = parent.trace_id if parent else trace_id
        self._base = parent
        self._flight = flight
        self._stack: List[SpanRecord] = []
        self._done: List[SpanRecord] = []
        self._occurrence: Dict[Tuple[Optional[str], str], int] = {}

    # -- recording ---------------------------------------------------------

    def _parent_id(self) -> Optional[str]:
        if self._stack:
            return self._stack[-1].span_id
        if self._base is not None:
            return self._base.span_id
        return None

    def span(self, name: str, key: object = None, **attrs) -> _ActiveSpan:
        """Open a span under the current one (or the remote base).

        ``key`` must be a backend-invariant coordinate when the same
        instrumentation point can run on different shards (global
        execution index, frame index, ...); left ``None``, a per-parent
        occurrence counter is used, which is deterministic only for
        single-threaded coordinator-side recording.
        """
        parent_id = self._parent_id()
        if key is None:
            slot = (parent_id, name)
            key = self._occurrence.get(slot, 0)
            self._occurrence[slot] = key + 1
        key_str = repr(key)
        record = SpanRecord(
            trace_id=self._trace_id,
            span_id=_span_id(self._trace_id, parent_id, name, key_str),
            parent_id=parent_id,
            name=name,
            key=key_str,
            start=self._clock(),
            attrs=dict(attrs),
        )
        self._stack.append(record)
        if self._flight is not None:
            self._flight.record({"ts": record.start, "kind": "span_start",
                                 "name": name, "span_id": record.span_id})
        return _ActiveSpan(self, record)

    def _finish(self, record: SpanRecord) -> None:
        record.end = self._clock()
        if self._stack and self._stack[-1] is record:
            self._stack.pop()
        elif record in self._stack:          # pragma: no cover - defensive
            self._stack.remove(record)
        self._done.append(record)
        if self._flight is not None:
            self._flight.record({"ts": record.end, "kind": "span_end",
                                 "name": record.name,
                                 "span_id": record.span_id})

    def event(self, name: str, _span: Optional[SpanRecord] = None,
              **attrs) -> None:
        """Attach a point-in-time event to the active (or given) span;
        it also lands in the flight recorder."""
        target = _span
        if target is None and self._stack:
            target = self._stack[-1]
        entry = {"ts": self._clock(), "name": name, "attrs": dict(attrs)}
        if target is not None:
            target.events.append(entry)
        if self._flight is not None:
            self._flight.record({"ts": entry["ts"], "kind": "event",
                                 "name": name, "attrs": dict(attrs)})

    def current_context(self) -> Optional[SpanContext]:
        if self._stack:
            return self._stack[-1].context()
        return self._base

    def take(self) -> List[SpanRecord]:
        """Hand over the completed spans (shard → coordinator graft)."""
        done, self._done = self._done, []
        return done


class Tracer(SpanRecorder):
    """The process-local tracer: a recorder plus run-level state.

    Mirrors :class:`~repro.obs.registry.Registry`: resolved once at
    component construction, shared no-op handles when disabled, an
    injectable clock for deterministic tests.
    """

    def __init__(self, enabled: bool = False,
                 clock: Optional[Clock] = None,
                 trace_id: str = "trace",
                 flight_capacity: int = 256,
                 max_spans: int = 250_000):
        self.enabled = enabled
        self.clock: Clock = clock or time.perf_counter
        self.log = TraceLog(max_spans=max_spans)
        self.flight = FlightRecorder(flight_capacity) if enabled else None
        super().__init__(self.clock, trace_id, flight=self.flight)

    # -- identity ----------------------------------------------------------

    @property
    def trace_id(self) -> str:
        return self._trace_id

    def set_trace_id(self, trace_id: str) -> None:
        """Fix the run's trace id (platforms derive it from the seed so
        exports reproduce)."""
        self._trace_id = trace_id

    # -- recording (no-op fast paths) --------------------------------------

    def span(self, name: str, key: object = None, **attrs):
        if not self.enabled:
            return NULL_SPAN
        return super().span(name, key=key, **attrs)

    def span_at(self, context, name: str, key: object = None, **attrs):
        """Open a span parented to a *remote* context (one that arrived
        over the wire); falls back to a normal span when the context is
        missing (untraced sender)."""
        if not self.enabled:
            return NULL_SPAN
        if context is None:
            return super().span(name, key=key, **attrs)
        if isinstance(context, tuple):
            context = SpanContext(*context)
        base, self._base = self._base, context
        stack, self._stack = self._stack, []
        try:
            handle = super().span(name, key=key, **attrs)
        finally:
            self._base = base
            self._stack = stack
        # The new span is rootless on our stack: push it so children
        # opened inside the ``with`` body parent under it.
        self._stack.append(handle.record)
        return handle

    def event(self, name: str, _span=None, **attrs) -> None:
        if not self.enabled:
            return
        super().event(name, _span=_span, **attrs)

    def _finish(self, record: SpanRecord) -> None:
        super()._finish(record)
        # Completed coordinator-side spans go straight to the log.
        self._done.pop()
        self.log.add(record)

    def current_context(self) -> Optional[SpanContext]:
        if not self.enabled:
            return None
        return super().current_context()

    # -- shard-side recording ----------------------------------------------

    def recorder(self, parent: Optional[SpanContext] = None,
                 ) -> SpanRecorder:
        """A fresh single-threaded recorder rooted at ``parent`` (the
        shape shards use; returns the shared no-op when disabled)."""
        if not self.enabled:
            return NULL_RECORDER
        return SpanRecorder(self.clock, self._trace_id, parent=parent)

    def adopt(self, spans: Sequence[SpanRecord]) -> None:
        """Graft spans recorded elsewhere (threads, worker processes)
        into this tracer's log."""
        if spans:
            self.log.extend(spans)

    # -- export surface ----------------------------------------------------

    def flight_dump(self, reason: str = "") -> Optional[Dict[str, object]]:
        if self.flight is None:
            return None
        return self.flight.dump(reason=reason)

    def spec(self) -> Tuple[bool, Clock]:
        """The picklable (enabled, clock) pair worker processes need to
        reconstruct an equivalent tracer."""
        return (self.enabled, self.clock)

    def summary(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "enabled": self.enabled,
            "trace_id": self._trace_id,
            "spans": len(self.log),
            "spans_dropped": self.log.dropped,
        }
        if self.flight is not None:
            doc["flight_events"] = self.flight.total
        return doc


NULL_TRACER = Tracer(enabled=False)

_default_tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The process-local tracer every component resolves once."""
    return _default_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-local tracer; returns the previous one."""
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer
    return previous


def enable_tracing(clock: Optional[Clock] = None,
                   trace_id: str = "trace",
                   flight_capacity: int = 256) -> Tracer:
    """Install (and return) a fresh enabled tracer."""
    tracer = Tracer(enabled=True, clock=clock, trace_id=trace_id,
                    flight_capacity=flight_capacity)
    set_tracer(tracer)
    return tracer


def disable_tracing() -> Tracer:
    """Install (and return) a fresh disabled tracer."""
    tracer = Tracer(enabled=False)
    set_tracer(tracer)
    return tracer
