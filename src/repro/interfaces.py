"""Formal ingest protocols: one surface for everything that swallows
traces.

Before this module, each trace consumer grew its own ad-hoc entry
points: ``Hive.ingest``/``Hive.ingest_heartbeat``, the networked
platform's message handler, and (with the parallel executor) per-shard
collectors.  They all do the same job — accept execution by-products
and fold them into some aggregate — so they now share two small
protocols:

* :class:`TraceSink` — accepts traces, heartbeats, and whole
  :class:`~repro.exec.batch.TraceBatch` rounds.  Implemented by
  :class:`~repro.hive.hive.Hive` and by the shard-side collectors of
  ``repro.exec``.
* :class:`TraceSource` — anything that accumulates traces locally and
  hands them over in batches (pods batching for the wire, shard
  collectors batching for the hive).

Legacy spellings go through the deprecation policy in docs/API.md;
``Hive.ingest`` already went through the cycle — speak
``ingest_trace`` / ``ingest_heartbeat`` / ``ingest_batch``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

try:  # pragma: no cover - always present on >= 3.8
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls

if TYPE_CHECKING:  # pragma: no cover
    from repro.exec.batch import TraceBatch
    from repro.tracing.dedup import Heartbeat
    from repro.tracing.trace import Trace

__all__ = ["TraceSink", "TraceSource"]


@runtime_checkable
class TraceSink(Protocol):
    """Anything that folds execution by-products into an aggregate."""

    def ingest_trace(self, trace: "Trace") -> None:
        """Fold one wire trace into the collective state."""

    def ingest_heartbeat(self, heartbeat: "Heartbeat") -> None:
        """Account a deduplicated repeat of an already-known trace."""

    def ingest_batch(self, batches: Sequence["TraceBatch"]) -> int:
        """Fold a round's worth of shard batches; returns the number of
        entries (traces + heartbeats) consumed."""


@runtime_checkable
class TraceSource(Protocol):
    """Anything that accumulates traces and releases them in batches."""

    def pending(self) -> int:
        """Entries accumulated but not yet drained."""

    def drain_batches(self) -> Sequence["TraceBatch"]:
        """Hand over everything accumulated so far and forget it."""

