"""The formal ingest protocol: one surface for everything that swallows
traces.

:class:`TraceSink` accepts traces, heartbeats, and whole
:class:`~repro.exec.batch.TraceBatch` flushes.
:class:`~repro.hive.hive.Hive` implements it, and every trace that
crosses a wire reaches the hive through ``ingest_batch``: the round
loop's window sink, the chaos wire, serve's pump and the networked
platform's uplink frames alike.

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

__all__ = ["TraceSink"]


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

