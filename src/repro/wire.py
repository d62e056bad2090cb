"""The one wire format every codec shares.

Traces (:mod:`repro.tracing.encode`), trace batches
(:mod:`repro.exec.batch`) and programs (:mod:`repro.progmodel.serialize`)
cross the simulated network as bytes written with the functions here
and read back through one :class:`Reader`. Integers are LEB128 varints;
signed integers are zig-zag mapped first (``v*2`` for v >= 0, ``-v*2-1``
below zero, exact for unbounded ints); strings are length-prefixed
UTF-8; bit vectors are a bit count followed by the bits packed
LSB-first.

Every byte string a decoder reads comes from outside the process — a
pod's uplink, a worker pipe, a fix payload — so the reader trusts none
of it. Each failure raises :class:`~repro.errors.TraceError`:
truncation, a collection count larger than the bytes left, a table
index out of range, malformed UTF-8, or a varint longer than 1,024
bytes. Each check runs before the loop or allocation it guards, so a
decoder fails fast and in time proportional to the payload.

The reader is also canonical: it rejects the second ways of writing a
value. An overlong varint (a last byte of 0 after a continuation
byte), a flag byte other than 0 or 1, and non-zero padding bits after
a bit vector's last bit all raise. So a trace or batch payload that
decodes is the one encoding of what it decodes to, and a decoded trace
can keep its received bytes as its encoding. (A program's encoding
also lists its names in sorted order, which the decoder does not
check; nothing keeps a program's bytes.)
"""

from __future__ import annotations

from codecs import utf_8_decode
from typing import Sequence, Tuple, TypeVar

from repro.errors import TraceError

__all__ = [
    "Reader", "write_varint", "write_zigzag", "write_string", "write_bits",
]

# Longest varint either side accepts (7,168 bits, far past any value a
# codec writes): it bounds each integer's decode cost and keeps its
# decimal form printable in an error message.
_MAX_VARINT_BYTES = 1024
_MAX_VARINT_BITS = 7 * _MAX_VARINT_BYTES

T = TypeVar("T")


# -- writers ------------------------------------------------------------------

def write_varint(out: bytearray, value: int) -> None:
    if 0 <= value < 0x80:          # single-byte fast path (the common case)
        out.append(value)
        return
    if value < 0:
        raise TraceError(f"varint cannot encode negative value {value}")
    if value >> _MAX_VARINT_BITS:
        raise TraceError(f"varint cannot encode a {value.bit_length()}-bit"
                         " value")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def write_zigzag(out: bytearray, value: int) -> None:
    write_varint(out, value * 2 if value >= 0 else -value * 2 - 1)


def write_string(out: bytearray, text: str) -> None:
    data = text.encode("utf-8")
    write_varint(out, len(data))
    out += data


def write_bits(out: bytearray, bits: Tuple[bool, ...]) -> None:
    write_varint(out, len(bits))
    byte = 0
    for index, bit in enumerate(bits):
        if bit:
            byte |= 1 << (index % 8)
        if index % 8 == 7:
            out.append(byte)
            byte = 0
    if len(bits) % 8:
        out.append(byte)


# -- reader -------------------------------------------------------------------

class Reader:
    """Bounds-checked reader over ``bytes`` or a ``memoryview``.

    With a memoryview input, :meth:`blob` materializes each payload
    with exactly one copy out of the received buffer — no intermediate
    whole-body slice — which is how the coordinator decodes frames the
    workers encoded once.
    """

    __slots__ = ("_data", "_len", "_pos")

    def __init__(self, data):
        self._data = data
        self._len = len(data)
        self._pos = 0

    def varint(self) -> int:
        data = self._data
        pos = self._pos
        if pos < self._len:
            byte = data[pos]
            if not byte & 0x80:        # single-byte fast path
                self._pos = pos + 1
                return byte
        end = pos + _MAX_VARINT_BYTES
        if end > self._len:
            end = self._len
        shift = 0
        value = 0
        while pos < end:
            byte = data[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                if not byte:
                    raise TraceError("overlong varint")
                self._pos = pos
                return value
            shift += 7
        if end == self._len:
            raise TraceError("truncated varint")
        raise TraceError(f"varint longer than {_MAX_VARINT_BYTES} bytes")

    def flag(self) -> bool:
        """A boolean, written as one byte: 0 or 1."""
        pos = self._pos
        if pos >= self._len:
            raise TraceError("truncated flag")
        byte = self._data[pos]
        if byte > 1:
            raise TraceError(f"flag byte {byte} is neither 0 nor 1")
        self._pos = pos + 1
        return byte == 1

    def zigzag(self) -> int:
        raw = self.varint()
        return -((raw + 1) >> 1) if raw & 1 else raw >> 1

    def count(self) -> int:
        """A collection length. Every element of every collection takes
        at least one byte, so a count past the bytes left is corrupt."""
        count = self.varint()
        if count > self._len - self._pos:
            raise TraceError(f"count {count} exceeds the"
                             f" {self._len - self._pos} bytes left")
        return count

    def pick(self, table: Sequence[T]) -> T:
        """The ``table`` entry a varint index names."""
        index = self.varint()
        if index >= len(table):
            raise TraceError(f"index {index} out of range for a table of"
                             f" {len(table)}")
        return table[index]

    def blob(self) -> bytes:
        length = self.varint()
        pos = self._pos
        end = pos + length
        if end > self._len:
            raise TraceError("truncated blob")
        self._pos = end
        return bytes(self._data[pos:end])

    def string(self) -> str:
        length = self.varint()
        pos = self._pos
        end = pos + length
        if end > self._len:
            raise TraceError("truncated string")
        try:
            # utf_8_decode reads bytes and memoryview slices alike.
            text = utf_8_decode(self._data[pos:end], None, True)[0]
        except UnicodeDecodeError:
            raise TraceError("malformed UTF-8 string") from None
        self._pos = end
        return text

    def bits(self) -> Tuple[bool, ...]:
        count = self.varint()
        n_bytes = (count + 7) // 8
        pos = self._pos
        if n_bytes > self._len - pos:
            raise TraceError("truncated bit vector")
        chunk = self._data[pos:pos + n_bytes]
        if count % 8 and chunk[-1] >> count % 8:
            raise TraceError("non-zero padding bits after a bit vector")
        self._pos = pos + n_bytes
        return tuple(
            bool(chunk[i // 8] >> (i % 8) & 1) for i in range(count))

    def position(self) -> int:
        """Bytes consumed so far."""
        return self._pos

    def done(self) -> bool:
        return self._pos == self._len
