"""Batched trace shipping: what shards hand the hive each round.

Pods historically shipped one trace per execution. At fleet scale the
per-message overhead dominates, so a shard packs each window of a round
(``repro.exec.plan.WINDOWS``) into one :class:`TraceBatch` — each entry
a ``tracing.encode`` payload (or a dedup heartbeat) tagged with its
global execution index, the batch's ``sequence`` the window index. The
hive replays every shipped payload itself, as the paper prescribes, so
a batch carries nothing a pod did not ship. A shard reports each window
as its own :class:`ShardResult`; :func:`merge_windows` concatenates a
round's.

The wire format (``encode_batch``/``decode_batch``) covers what crosses
the simulated Internet — indices, trace payloads and heartbeats. It is
also the networked platform's only uplink message: each pod ships a
frame of up to ``NetworkedConfig.batch_max_traces`` runs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.errors import TraceError
from repro.obs.trace import SpanContext
from repro.progmodel.interpreter import Outcome, slotted_dataclass
from repro.tracing.dedup import Heartbeat
from repro.wire import Reader, write_string, write_varint

__all__ = [
    "RunRecord", "BatchEntry", "TraceBatch",
    "ShardResult", "merge_windows",
    "encode_batch", "decode_batch",
]

# v1 had no integrity footer; v2 appended a CRC32 of the body so a
# truncated or corrupted frame is detected at decode time and can be
# discarded instead of ingested (the chaos layer injects exactly that);
# v3 adds an optional trace context (trace id + sender span id) so
# hive-side ingest spans parent under the sender's span. Every sender
# writes v3, and decode accepts v3 only.
_BATCH_FORMAT_VERSION = 3
_CHECKSUM_BYTES = 4


@slotted_dataclass
class RunRecord:
    """The report-facing summary of one executed run."""

    global_index: int
    guided: bool
    failed: bool
    outcome: Outcome
    has_failure: bool = False
    failure_message: Optional[str] = None
    failure_block: Optional[str] = None


@slotted_dataclass
class BatchEntry:
    """One shipped item: a full trace payload or a dedup heartbeat."""

    global_index: int
    payload: bytes = b""
    heartbeat: Optional[Heartbeat] = None

    @property
    def is_heartbeat(self) -> bool:
        return self.heartbeat is not None


@dataclass
class TraceBatch:
    """One shard's flush: entries in global-index order."""

    shard_id: int
    program_name: str
    program_version: int              # hive program version at flush
    sequence: int = 0                 # window index within the round
    entries: List[BatchEntry] = field(default_factory=list)
    #: Sender-side trace context (rides the wire in format v3) so the
    #: receiver's ingest span can parent under the sender's span.
    trace_context: Optional[SpanContext] = None

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class ShardResult:
    """Everything one shard produced for one window of a round, or for
    the whole round (:func:`merge_windows` concatenates its windows)."""

    shard_id: int
    records: List[RunRecord] = field(default_factory=list)
    batches: List[TraceBatch] = field(default_factory=list)
    busy_seconds: float = 0.0
    #: Worker-side trace spans (``repro.obs.trace``), shipped back
    #: alongside the counter deltas and grafted into the coordinator's
    #: trace log; empty when tracing is disabled.
    spans: List = field(default_factory=list)
    #: Constraint-cache facts this shard originated this round
    #: (``repro.symbolic.cache``): content-keyed ``(key, entry)`` pairs,
    #: picklable, merged hive-side in canonical order. Rides the
    #: coordinator channel like spans/counters — the pod uplink wire
    #: format is untouched.
    cache_delta: List = field(default_factory=list)
    #: The shard's recycle walks (``Shard._recycle``), one per path it
    #: walked first: ``(global_index, decisions, divergence)``, the
    #: divergence reason None when the walk banked. The backend counts
    #: each path's first walk across shards once (``_BackendBase``).
    recycle_walks: List = field(default_factory=list)


# -- wire encoding ------------------------------------------------------------

def encode_batch(batch: TraceBatch) -> bytes:
    """Serialize a batch (indices + trace payloads + heartbeat
    digests). The frame ends with a CRC32 of everything before it.

    Single pass into one ``bytearray``: varints are emitted directly
    (one-byte fast path) and each payload is appended in place.
    """
    out = bytearray()
    write_varint(out, _BATCH_FORMAT_VERSION)
    write_string(out, batch.program_name)
    write_varint(out, batch.program_version)
    write_varint(out, batch.shard_id)
    write_varint(out, batch.sequence)
    context = batch.trace_context
    if context is None:
        out.append(0)
    else:
        out.append(1)
        write_string(out, context.trace_id)
        write_string(out, context.span_id)
    write_varint(out, len(batch.entries))
    for entry in batch.entries:
        write_varint(out, entry.global_index)
        heartbeat = entry.heartbeat
        if heartbeat is not None:
            out.append(1)
            write_varint(out, len(heartbeat.digest))
            out += heartbeat.digest
            write_varint(out, heartbeat.count)
        else:
            payload = entry.payload
            out.append(0)
            write_varint(out, len(payload))
            out += payload
    crc = zlib.crc32(out) & 0xFFFFFFFF
    out += crc.to_bytes(_CHECKSUM_BYTES, "big")
    return bytes(out)


def decode_batch(data) -> TraceBatch:
    """Inverse of :func:`encode_batch`.

    Accepts ``bytes`` or a ``memoryview``: receivers decode frames
    zero-copy over the buffer they arrived in, materializing only the
    per-entry payloads (see docs/PARALLEL.md, "wire format versions").

    The CRC32 footer is verified *first*: a partial flush or a frame
    mangled in transit raises :class:`~repro.errors.TraceError` before
    any entry is decoded, so callers discard it whole.
    """
    if len(data) <= _CHECKSUM_BYTES:
        raise TraceError("batch too short to carry a checksum")
    view = data if isinstance(data, memoryview) else memoryview(data)
    body, footer = view[:-_CHECKSUM_BYTES], view[-_CHECKSUM_BYTES:]
    if (zlib.crc32(body) & 0xFFFFFFFF) != int.from_bytes(footer, "big"):
        raise TraceError("batch checksum mismatch")
    reader = Reader(body)
    version = reader.varint()
    if version != _BATCH_FORMAT_VERSION:
        raise TraceError(f"unsupported batch format version {version}")
    program_name = reader.string()
    program_version = reader.varint()
    shard_id = reader.varint()
    sequence = reader.varint()
    trace_context = None
    if reader.flag():
        trace_context = SpanContext(reader.string(), reader.string())
    entries: List[BatchEntry] = []
    for _ in range(reader.count()):
        global_index = reader.varint()
        if reader.flag():
            digest = reader.blob()
            count = reader.varint()
            entries.append(BatchEntry(
                global_index=global_index,
                heartbeat=Heartbeat(
                    program_name=program_name,
                    program_version=program_version,
                    digest=digest, count=count)))
        else:
            entries.append(BatchEntry(global_index=global_index,
                                      payload=reader.blob()))
    if not reader.done():
        raise TraceError("trailing bytes after batch")
    return TraceBatch(shard_id=shard_id, program_name=program_name,
                      program_version=program_version, sequence=sequence,
                      entries=entries, trace_context=trace_context)


def merge_windows(windows: Sequence[ShardResult]) -> ShardResult:
    """One shard's round result: its window results concatenated in
    window order — records, window batches, spans, cache facts, recycle
    walks — with the busy time summed."""
    merged = ShardResult(shard_id=windows[0].shard_id)
    spans: List = []
    for window in windows:
        merged.records.extend(window.records)
        merged.batches.extend(window.batches)
        spans.extend(window.spans)
        merged.cache_delta.extend(window.cache_delta)
        merged.recycle_walks.extend(window.recycle_walks)
        merged.busy_seconds += window.busy_seconds
    # No spans: the empty tuple a disabled recorder ships.
    merged.spans = spans or ()
    return merged
