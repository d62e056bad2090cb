"""Pod-side trace deduplication.

The paper asks for by-products to be collected "efficiently"
(Sec. 2); the single biggest saving is not re-shipping what the
collective already knows. A pod remembers digests of the traces it has
sent; a repeat of an already-shipped, successful trace is summarised as
a tiny *heartbeat* (digest + count) instead of the full payload.
Failures are always shipped in full — failure volume is triage signal
(WER ranks buckets by it) and failures are rare, so their cost is
negligible.

The hive can reconstruct exact per-path usage counts from heartbeats,
so aggregation statistics (localization, density) lose nothing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.tracing.encode import encode_trace
from repro.tracing.trace import Trace

__all__ = ["TraceDigest", "Heartbeat", "PodDeduplicator"]

TraceDigest = bytes


@dataclass(frozen=True)
class Heartbeat:
    """A dedup summary: "I ran digest D again, N more times"."""

    program_name: str
    program_version: int
    digest: TraceDigest
    count: int = 1

    # Wire cost model: a collision-checked 8-byte digest prefix plus a
    # varint repeat count (program identity rides the connection).
    WIRE_SIZE = 8 + 2


def trace_digest(trace: Trace) -> TraceDigest:
    """Content digest over everything that defines the trace's
    information value (pod identity excluded: two users on the same
    path produce the same digest). Memoized on the trace, which is
    frozen, like its encode prefix: the hive digests every entry, and
    a round's entries share decoded traces."""
    try:
        return trace._digest
    except AttributeError:
        pass
    payload = encode_trace(trace, pod_override="")
    digest = hashlib.blake2b(payload, digest_size=16).digest()
    object.__setattr__(trace, "_digest", digest)
    return digest


class PodDeduplicator:
    """Decides, per execution, whether to ship the trace or a heartbeat.

    ``memory`` bounds the digest cache (FIFO eviction), modelling a
    pod's limited local state.
    """

    def __init__(self, memory: int = 4096):
        if memory < 1:
            raise ValueError("memory must be >= 1")
        self._memory = memory
        self._seen: Dict[TraceDigest, int] = {}
        self.traces_shipped = 0
        self.heartbeats_shipped = 0
        self.bytes_shipped = 0

    def submit(self, trace: Trace) -> Tuple[Optional[Trace],
                                            Optional[Heartbeat]]:
        """Returns (trace_to_ship, heartbeat_to_ship); exactly one is
        non-None."""
        digest = trace_digest(trace)
        novel = digest not in self._seen
        if novel or trace.outcome.is_failure:
            self._remember(digest)
            self.traces_shipped += 1
            self.bytes_shipped += len(encode_trace(trace))
            return trace, None
        self._seen[digest] += 1
        self.heartbeats_shipped += 1
        self.bytes_shipped += Heartbeat.WIRE_SIZE
        return None, Heartbeat(
            program_name=trace.program_name,
            program_version=trace.program_version,
            digest=digest,
        )

    def reset(self) -> None:
        """Forget everything (called when a new program version lands —
        old digests cannot match the new CFG's traces anyway)."""
        self._seen.clear()

    def _remember(self, digest: TraceDigest) -> None:
        if digest not in self._seen and len(self._seen) >= self._memory:
            # FIFO eviction: drop the oldest digest.
            oldest = next(iter(self._seen))
            del self._seen[oldest]
        self._seen.setdefault(digest, 0)

    @property
    def dedup_ratio(self) -> float:
        total = self.traces_shipped + self.heartbeats_shipped
        return self.heartbeats_shipped / total if total else 0.0
