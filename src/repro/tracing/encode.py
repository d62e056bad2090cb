"""Compact wire encoding of traces.

Pods ship traces over the (simulated) Internet; this module packs a
:class:`Trace` into bytes and back. Branch bits are bit-packed (one bit
per input-dependent branch, as the paper prescribes); integers use a
zig-zag varint; strings are length-prefixed UTF-8 (see
:mod:`repro.wire`). The format is self-contained and versioned.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TraceError
from repro.progmodel.interpreter import Outcome
from repro.tracing.trace import Observation, Trace
from repro.wire import (
    Reader, write_bits, write_string, write_varint, write_zigzag,
)

__all__ = ["encode_trace", "decode_trace", "encoded_size"]

_FORMAT_VERSION = 1
_OUTCOMES = [Outcome.OK, Outcome.CRASH, Outcome.ASSERT, Outcome.DEADLOCK,
             Outcome.HANG]


# -- trace encoding -----------------------------------------------------------

def _encode_prefix(trace: Trace) -> bytes:
    """Everything before the pod-id field, memoized on the trace.

    Traces are frozen, so the wire prefix never changes; deduplication
    encodes each trace twice (once for its digest with the pod id
    blanked, once at full fidelity for the bandwidth ledger) and this
    memo makes the second pass — and any re-submission of a shared
    trace — a concatenation instead of a re-walk. A decoded trace
    starts with the memo set to the bytes it was decoded from (see
    :func:`decode_trace`).
    """
    try:
        return trace._enc_prefix
    except AttributeError:
        pass
    out = bytearray()
    write_varint(out, _FORMAT_VERSION)
    write_string(out, trace.program_name)
    write_varint(out, trace.program_version)
    write_varint(out, _OUTCOMES.index(trace.outcome))
    write_bits(out, tuple(trace.branch_bits))
    write_varint(out, len(trace.syscall_returns))
    for value in trace.syscall_returns:
        write_zigzag(out, value)
    write_varint(out, len(trace.schedule_rle))
    for thread, length in trace.schedule_rle:
        write_varint(out, thread)
        write_varint(out, length)
    write_varint(out, len(trace.observations))
    for obs in trace.observations:
        thread, function, block = obs.site
        write_varint(out, thread)
        write_string(out, function)
        write_string(out, block)
        write_varint(out, 1 if obs.taken else 0)
    write_varint(out, 1 if trace.replayable else 0)
    write_varint(out, trace.steps)
    write_varint(out, trace.events_recorded)
    write_string(out, trace.failure_message or "")
    if trace.failure_site is None:
        write_varint(out, 0)
    else:
        write_varint(out, 1)
        thread, function, block = trace.failure_site
        write_varint(out, thread)
        write_string(out, function)
        write_string(out, block)
    prefix = bytes(out)
    object.__setattr__(trace, "_enc_prefix", prefix)
    return prefix


def encode_trace(trace: Trace, pod_override: Optional[str] = None) -> bytes:
    """Serialize ``trace`` into a compact byte string.

    ``pod_override`` substitutes the pod-id field on the wire without
    building an intermediate Trace — content digests use it to blank
    the pod id, which must not affect trace identity.
    """
    out = bytearray(_encode_prefix(trace))
    write_string(out, trace.pod_id if pod_override is None else pod_override)
    write_varint(out, 1 if trace.guided else 0)
    return bytes(out)


def decode_trace(data: bytes) -> Trace:
    """Inverse of :func:`encode_trace`; raises TraceError on any
    malformed input, in time proportional to its length.

    The reader accepts only canonical bytes (see :mod:`repro.wire`),
    so ``data`` is exactly what :func:`encode_trace` writes for the
    decoded trace, and the trace keeps ``data``'s bytes before the
    pod-id field as its memoized encode prefix: encoding or digesting
    it again re-walks nothing."""
    reader = Reader(data)
    version = reader.varint()
    if version != _FORMAT_VERSION:
        raise TraceError(f"unsupported trace format version {version}")
    program_name = reader.string()
    program_version = reader.varint()
    outcome = reader.pick(_OUTCOMES)
    bits = reader.bits()
    syscall_returns = tuple(reader.zigzag() for _ in range(reader.count()))
    schedule_rle = tuple(
        (reader.varint(), reader.varint()) for _ in range(reader.count()))
    observations = []
    for _ in range(reader.count()):
        thread = reader.varint()
        function = reader.string()
        block = reader.string()
        taken = reader.flag()
        observations.append(Observation(site=(thread, function, block),
                                        taken=taken))
    replayable = reader.flag()
    steps = reader.varint()
    events_recorded = reader.varint()
    failure_message: Optional[str] = reader.string() or None
    failure_site = None
    if reader.flag():
        failure_site = (reader.varint(), reader.string(), reader.string())
    prefix_end = reader.position()
    pod_id = reader.string()
    guided = reader.flag()
    if not reader.done():
        raise TraceError("trailing bytes after trace")
    trace = Trace(
        program_name=program_name,
        program_version=program_version,
        outcome=outcome,
        branch_bits=bits,
        syscall_returns=syscall_returns,
        schedule_rle=schedule_rle,
        observations=tuple(observations),
        replayable=replayable,
        steps=steps,
        events_recorded=events_recorded,
        failure_message=failure_message,
        failure_site=failure_site,
        pod_id=pod_id,
        guided=guided,
    )
    object.__setattr__(trace, "_enc_prefix", bytes(data[:prefix_end]))
    return trace


def encoded_size(trace: Trace) -> int:
    """Wire size in bytes — the bandwidth-cost proxy."""
    return len(encode_trace(trace))
