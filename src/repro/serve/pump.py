"""The streaming ingest pump: a bounded frame queue in front of the hive.

In service mode, traces do not go straight from the executor into
``Hive.ingest_batch`` — they first cross the (simulated) pod uplink as
wire frames and wait in a bounded queue for hive capacity, exactly the
collection plane an online debugger needs:

* :meth:`offer` re-frames a tick's entries (already in global-execution
  order) into fixed-size :class:`~repro.exec.batch.TraceBatch` wire
  frames via the real ``encode_batch`` path (CRC32 trailer included)
  and appends them FIFO. A full queue **rejects** the frame — that is
  the backpressure signal the service reacts to by pausing admission
  (frames are never silently dropped; the caller retries them from its
  outbox).
* :meth:`drain` pops frames in order up to an entry budget (ingest
  workers × per-worker drain rate), decodes them — a chaos-corrupted
  frame fails its checksum here and is discarded whole — and hands each
  surviving batch to the sink's ``ingest_batch``. FIFO frames plus
  in-order framing keeps hive ingest in global execution order, the
  invariant all determinism rests on.

**Lag** is measured in virtual ticks: queue depth in entries divided by
the current drain capacity per tick — the "how far behind the fleet is
the hive" number the autoscaler steers and CI bounds.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from repro.errors import TraceError
from repro.exec.batch import (
    BatchEntry, TraceBatch, decode_batch, encode_batch,
)
from repro.obs import Instrumented
from repro.obs.trace import get_tracer

__all__ = ["IngestPump"]


class IngestPump(Instrumented):
    """Bounded FIFO of encoded wire frames between fleet and hive."""

    obs_namespace = "serve.pump"

    def __init__(self, capacity_frames: int = 64,
                 frame_max_entries: int = 16):
        self.capacity_frames = max(1, capacity_frames)
        self.frame_max_entries = max(1, frame_max_entries)
        #: (frame_index, encoded bytes, entry count) in arrival order.
        self._queue: Deque[Tuple[int, bytes, int]] = deque()
        self._depth_entries = 0
        self._frame_seq = 0
        self.peak_depth_entries = 0
        self.entries_enqueued = 0
        self.entries_drained = 0
        self.frames_enqueued = 0
        self.frames_rejected = 0
        self.frames_discarded = 0
        self.wire_bytes = 0
        self._tracer = get_tracer()
        self._obs_depth = self.obs_gauge("depth_entries")
        self._obs_enqueued = self.obs_counter("entries_enqueued")
        self._obs_drained = self.obs_counter("entries_drained")
        self._obs_rejected = self.obs_counter("frames_rejected")
        self._obs_discarded = self.obs_counter("frames_discarded")
        self._obs_wire = self.obs_counter("wire_bytes")

    # -- producer side ---------------------------------------------------------

    def frame_entries(self, entries: Sequence[BatchEntry],
                      program_name: str,
                      program_version: int) -> List[TraceBatch]:
        """Chunk in-order entries into wire-sized frames."""
        frames: List[TraceBatch] = []
        for start in range(0, len(entries), self.frame_max_entries):
            chunk = list(entries[start:start + self.frame_max_entries])
            frames.append(TraceBatch(
                shard_id=0, program_name=program_name,
                program_version=program_version,
                entries=chunk))    # sequence assigned on offer()
        return frames

    def offer(self, frame: TraceBatch, tick: int,
              fault_plan=None) -> bool:
        """Enqueue one frame; ``False`` = queue full (backpressure).

        Chaos applies *on the wire*: a dropped frame is consumed (the
        caller must not retry it — the uplink ate it), a corrupted one
        is enqueued mangled and dies at decode.
        """
        if len(self._queue) >= self.capacity_frames:
            self.frames_rejected += 1
            self._obs_rejected.inc()
            return False
        index = self._frame_seq
        self._frame_seq += 1
        # The pump owns frame numbering: the accepted-order index is
        # the frame's wire sequence and its chaos coordinate, so a
        # frame retried after backpressure keeps a coherent identity.
        frame.sequence = index
        with self._tracer.span("wire.encode", key=("serve", index)) as span:
            data = encode_batch(frame)
            span.set(bytes=len(data))
        self.wire_bytes += len(data)
        self._obs_wire.inc(len(data))
        if fault_plan is not None:
            if fault_plan.frame_dropped(tick, index):
                # Vanished on the uplink: consumed, never delivered.
                self.frames_discarded += 1
                self._obs_discarded.inc()
                return True
            if fault_plan.frame_corrupted(tick, index):
                data = fault_plan.corrupt_bytes(data, tick, index)
        count = len(frame.entries)
        self._queue.append((index, data, count))
        self._depth_entries += count
        self.frames_enqueued += 1
        self.entries_enqueued += count
        self._obs_enqueued.inc(count)
        self.peak_depth_entries = max(self.peak_depth_entries,
                                      self._depth_entries)
        self._obs_depth.set(self._depth_entries)
        return True

    # -- consumer side ---------------------------------------------------------

    def drain(self, sink, budget_entries: int) -> int:
        """Ingest whole frames FIFO until the entry budget is spent.

        A frame is never split: the budget check happens before each
        pop, so one drain may overshoot by at most one frame — bounded,
        deterministic, and far simpler than partial-frame resume.
        Returns the number of entries ingested.
        """
        ingested = 0
        while self._queue and ingested < budget_entries:
            index, data, count = self._queue.popleft()
            self._depth_entries -= count
            try:
                with self._tracer.span("wire.decode",
                                       key=("serve", index)):
                    # Zero-copy over the queued frame buffer.
                    batch = decode_batch(memoryview(data))
            except TraceError:
                # Chaos mangled it; the CRC caught it. Discarded whole.
                self.frames_discarded += 1
                self._obs_discarded.inc()
                continue
            sink.ingest_batch([batch])
            ingested += len(batch.entries)
        self.entries_drained += ingested
        self._obs_drained.inc(ingested)
        self._obs_depth.set(self._depth_entries)
        return ingested

    # -- introspection ---------------------------------------------------------

    @property
    def depth_entries(self) -> int:
        return self._depth_entries

    def lag_ticks(self, drain_per_tick: int) -> float:
        """Backlog expressed in ticks of drain capacity."""
        if drain_per_tick <= 0:
            return float(self._depth_entries)
        return self._depth_entries / float(drain_per_tick)

    def summary(self) -> dict:
        return {
            "depth_entries": self._depth_entries,
            "depth_frames": len(self._queue),
            "peak_depth_entries": self.peak_depth_entries,
            "entries_enqueued": self.entries_enqueued,
            "entries_drained": self.entries_drained,
            "frames_enqueued": self.frames_enqueued,
            "frames_rejected": self.frames_rejected,
            "frames_discarded": self.frames_discarded,
            "wire_bytes": self.wire_bytes,
        }
